"""Zero-dependency HTTP front end for :class:`RecognitionService`.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` subclass whose
request handlers translate JSON bodies into
:class:`~repro.serve.service.RecognitionService` calls.  One handler
thread per connection; all single-point recognition funnels through the
service's shared admission queue, so concurrency becomes batch size
rather than kernel contention.

Endpoints (``docs/SERVING.md`` has request/response examples):

====================  ======  =============================================
``/healthz``          GET     liveness + loaded-CSD summary
``/metrics``          GET     ``repro.obs`` snapshot (never resets — safe
                              to scrape repeatedly)
``/stats``            GET     CSD/cache/batcher statistics
``/v1/recognize``     POST    one stay location (micro-batched + cached)
``/v1/recognize/batch``  POST client-assembled batch, straight to kernel
``/v1/range``         POST    POIs within a radius of a lon/lat centre
``/v1/units/<id>``    GET     one semantic unit
``/v1/tags/<tag>``    GET     units carrying a percent-encoded tag
                              (``?min_share=``)
``/admin/reload``     POST    re-read the CSD artifact, invalidate cache
====================  ======  =============================================

Error mapping: malformed JSON/fields, a non-finite number (``NaN``,
``Infinity``, an overflowing ``1e999`` or 400-digit integer) or a bad
``Content-Length`` → 400, unknown route/unit → 404, admission queue
full → **503** with a ``Retry-After`` hint (the backpressure contract),
anything unexpected → 500 with the ``serve.errors`` counter bumped.  A client that hangs up
is not an error: its request ends quietly, uncounted.

Every response leaves in one send with Nagle off.  Headers and body are
buffered and flushed together; two small writes on a Nagle socket would
hold the body until the client's delayed ACK, ~40 ms per request.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from repro.obs import MetricsRegistry, get_registry
from repro.serve.batcher import BatcherClosed, ServerOverloaded
from repro.serve.service import RecognitionService

__all__ = ["CSDHTTPServer", "make_server"]

#: Largest accepted request body; a batch of ~100k points fits well
#: under this, and anything bigger should be a bulk pipeline run.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BadRequest(ValueError):
    """Client-side error carrying the HTTP 400 message."""


def _reject_constant(token: str) -> float:
    raise _BadRequest(f"non-finite number {token} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _BadRequest(f"number {text} is not finite as a float")
    return value


def _float_field(doc: Dict[str, Any], name: str) -> float:
    value = doc.get(name)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _BadRequest(f"field {name!r} must be a number")
    return float(value)


class CSDHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`RecognitionService`."""

    #: Handler threads die with the process; shutdown() + close()
    #: drains them deliberately first.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: RecognitionService,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet


class _Handler(BaseHTTPRequestHandler):
    server: CSDHTTPServer  # type: ignore[assignment]

    # Keep-alive lets bench clients reuse connections.
    protocol_version = "HTTP/1.1"
    # Buffer each response so headers and body go out in one send
    # (flushed in _send_json), and set TCP_NODELAY on the socket.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_response(status)
        if status == 503:
            self.send_header("Retry-After", "1")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _read_json(self) -> Dict[str, Any]:
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            # The body's extent is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, "
                f"got {raw_length!r}"
            )
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _BadRequest("request body must be JSON")
        try:
            # Integers parse as floats too: no body field needs an exact
            # int, and an int too large for a float would otherwise be a
            # 500 when a handler converts it.
            doc = json.loads(
                raw,
                parse_constant=_reject_constant,
                parse_float=_finite_float,
                parse_int=_finite_float,
            )
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"invalid JSON: {exc.msg}") from None
        if not isinstance(doc, dict):
            raise _BadRequest("request body must be a JSON object")
        return doc

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            # The client hung up (closed pipe or reset) while we read a
            # request or wrote a response: nothing left to answer, and
            # not a server error.
            pass

    def finish(self) -> None:
        try:
            super().finish()
        except ConnectionError:
            # Closing flushes the unsent tail of a response to a client
            # that hung up; the socket is closed either way.
            self.rfile.close()

    def _dispatch(self, method: str) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter("serve.requests").inc()
        error = self._answer(method, reg)
        if error is not None:
            self._send_json(*error)

    def _answer(
        self, method: str, reg: MetricsRegistry
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Route one request; return the error response to send, if any.

        A :class:`ConnectionError` (the client hung up) propagates to
        :meth:`handle` without counting in ``serve.errors``.
        """
        parsed = urlparse(self.path)
        try:
            with reg.timer("serve.request") as timing:
                handled = self._route(method, parsed.path, parse_qs(parsed.query))
            if reg.enabled:
                reg.histogram("serve.request_latency_s").observe(timing.elapsed)
            if not handled:
                return 404, {"error": f"no route {method} {parsed.path}"}
        except ConnectionError:
            raise
        except _BadRequest as exc:
            return 400, {"error": str(exc)}
        except KeyError as exc:
            return 404, {"error": str(exc.args[0]) if exc.args else "not found"}
        except (ServerOverloaded, BatcherClosed) as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 -- daemon must not die
            if reg.enabled:
                reg.counter("serve.errors").inc()
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return None

    # -- routing -------------------------------------------------------

    def _route(
        self, method: str, path: str, query: Dict[str, list[str]]
    ) -> bool:
        service = self.server.service
        if method == "GET":
            if path == "/healthz":
                self._send_json(200, service.health())
                return True
            if path == "/metrics":
                # Snapshot WITHOUT reset: scraping must never zero
                # live histograms (docs/OBSERVABILITY.md).
                self._send_json(200, dict(get_registry().snapshot()))
                return True
            if path == "/stats":
                self._send_json(200, service.stats())
                return True
            if path.startswith("/v1/units/"):
                raw = path[len("/v1/units/"):]
                try:
                    unit_id = int(raw)
                except ValueError:
                    raise _BadRequest(f"unit id must be an integer, got {raw!r}")
                self._send_json(200, service.unit_info(unit_id))
                return True
            if path.startswith("/v1/tags/"):
                # Tags such as "Shop & Market" travel percent-encoded.
                tag = unquote(path[len("/v1/tags/"):])
                if not tag:
                    raise _BadRequest("tag must be non-empty")
                min_share = 0.0
                if "min_share" in query:
                    try:
                        min_share = _finite_float(query["min_share"][0])
                    except ValueError:
                        raise _BadRequest("min_share must be a finite number")
                self._send_json(
                    200, {"tag": tag, "units": service.units_with_tag(tag, min_share)}
                )
                return True
            return False
        if method == "POST":
            if path == "/v1/recognize":
                doc = self._read_json()
                prop = service.recognize_one(
                    _float_field(doc, "lon"), _float_field(doc, "lat")
                )
                self._send_json(200, service.recognized_payload(prop))
                return True
            if path == "/v1/recognize/batch":
                doc = self._read_json()
                points = doc.get("points")
                if not isinstance(points, list):
                    raise _BadRequest("field 'points' must be a list of [lon, lat]")
                pairs = []
                for entry in points:
                    if (
                        not isinstance(entry, (list, tuple))
                        or len(entry) != 2
                        or not all(
                            isinstance(c, (int, float)) and not isinstance(c, bool)
                            for c in entry
                        )
                    ):
                        raise _BadRequest(
                            "each point must be a [lon, lat] number pair"
                        )
                    pairs.append((float(entry[0]), float(entry[1])))
                props = service.recognize_many(pairs)
                self._send_json(
                    200,
                    {"results": [service.recognized_payload(p) for p in props]},
                )
                return True
            if path == "/v1/range":
                doc = self._read_json()
                radius = _float_field(doc, "radius_m")
                if radius <= 0:
                    raise _BadRequest("radius_m must be positive")
                pois = service.range_query(
                    _float_field(doc, "lon"), _float_field(doc, "lat"), radius
                )
                self._send_json(200, {"count": len(pois), "pois": pois})
                return True
            if path == "/admin/reload":
                if_changed = query.get("if_changed", ["0"])[0] not in (
                    "0",
                    "",
                    "false",
                )
                self._send_json(200, service.reload(if_changed=if_changed))
                return True
            return False
        return False

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        self._dispatch("POST")


def make_server(
    service: RecognitionService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> CSDHTTPServer:
    """Bind a :class:`CSDHTTPServer`; ``port=0`` picks an ephemeral one.

    The caller owns the lifecycle::

        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ...
        server.shutdown(); server.server_close(); service.close()
    """
    return CSDHTTPServer((host, port), service, quiet=quiet)

