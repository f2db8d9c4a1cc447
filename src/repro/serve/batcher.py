"""Admission queue that micro-batches single-point recognition.

The batched ``recognize_points`` kernel amortises projection, the CSR
range query, and bincount voting over the whole batch — roughly 8x the
scalar path per point on the standard workload (``BENCH_kernel.json``).
A naive threaded server would throw that away: every concurrent request
would run its own one-point batch.  The :class:`MicroBatcher` instead
funnels all single-point requests through one bounded queue; a single
dispatch thread takes the first waiting request plus whatever else is
already queued, up to ``max_batch``, and answers the whole group with
**one** kernel call.

The batcher is self-clocking: it never waits for followers.  A lone
request goes to the kernel at once, and requests that arrive while a
kernel call runs queue up and form the next batch, so batches grow
exactly as fast as load does.

Correctness leans on per-stay vote independence (the same property that
lets ``recognize(..., n_jobs=N)`` vote chunks in forked workers
bit-identically, see ``core/recognition.py``): recognising N queued
points as one batch and handing each requester its slice is
bit-for-bit the same as N sequential ``recognize_point`` calls —
asserted under concurrency by ``tests/test_serve.py`` and the serve
bench.

Backpressure is explicit: a full queue rejects immediately with
:class:`ServerOverloaded` (the HTTP layer maps it to 503) instead of
letting latency collapse, and the ``serve.rejected`` counter records
every shed request.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional, Sequence

from repro.data.trajectory import SemanticProperty, StayPoint
from repro.obs import DEFAULT_SIZE_BUCKETS, get_registry, monotonic_s

__all__ = ["MicroBatcher", "ServerOverloaded", "BatcherClosed"]


class ServerOverloaded(RuntimeError):
    """Admission queue full: the request was shed (HTTP 503)."""


class BatcherClosed(RuntimeError):
    """Submit after (or during) shutdown."""


class _Pending:
    """One queued request and its completion signal."""

    __slots__ = ("stay", "submitted_s", "event", "result", "error")

    def __init__(self, stay: StayPoint) -> None:
        self.stay = stay
        self.submitted_s = monotonic_s()
        self.event = threading.Event()
        self.result: Optional[SemanticProperty] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Bounded admission queue + one dispatch thread.

    Parameters
    ----------
    recognize_batch:
        The batched kernel, typically ``CSDRecognizer.recognize_points``
        (or the serving layer's wrapper around it).  Called from the
        dispatch thread only.
    max_batch:
        Largest batch one dispatch may collect; ``1`` degenerates to
        per-request scalar recognition (the bench's baseline mode).
    queue_limit:
        Admission-queue bound; submissions beyond it shed with
        :class:`ServerOverloaded`.
    result_timeout_s:
        Safety net for a requester waiting on its batch; a dispatch
        thread stuck longer than this fails the request rather than
        hanging the client connection forever.
    """

    def __init__(
        self,
        recognize_batch: Callable[[Sequence[StayPoint]], List[SemanticProperty]],
        max_batch: int = 64,
        queue_limit: int = 1024,
        result_timeout_s: float = 60.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self._recognize_batch = recognize_batch
        self.max_batch = int(max_batch)
        self.result_timeout_s = float(result_timeout_s)
        self._queue: "queue.Queue[_Pending]" = queue.Queue(maxsize=int(queue_limit))
        self._closed = False
        self.batches_dispatched = 0
        self.points_dispatched = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # -- client side ---------------------------------------------------

    def submit(self, stay: StayPoint) -> SemanticProperty:
        """Recognise one stay point through the admission queue.

        Blocks the calling (request-handler) thread until its batch is
        answered.  Raises :class:`ServerOverloaded` when the queue is
        full and :class:`BatcherClosed` during shutdown.
        """
        if self._closed:
            raise BatcherClosed("micro-batcher is shut down")
        pending = _Pending(stay)
        reg = get_registry()
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            if reg.enabled:
                reg.counter("serve.rejected").inc()
            raise ServerOverloaded(
                f"admission queue full ({self._queue.maxsize} pending)"
            ) from None
        if reg.enabled:
            reg.gauge("serve.queue.depth").set(float(self._queue.qsize()))
        if not pending.event.wait(timeout=self.result_timeout_s):
            raise TimeoutError(
                f"batch dispatch exceeded {self.result_timeout_s}s"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # -- dispatch thread -----------------------------------------------

    def _collect(self, first: _Pending) -> List[_Pending]:
        """One batch: ``first`` plus whatever is already queued."""
        batch = [first]
        try:
            while len(batch) < self.max_batch:
                batch.append(self._queue.get_nowait())
        except queue.Empty:
            pass
        return batch

    def _dispatch(self, batch: List[_Pending]) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter("serve.batches").inc()
            reg.histogram(
                "serve.batch_size", buckets=DEFAULT_SIZE_BUCKETS
            ).observe(float(len(batch)))
            # Admission-queue wait: each request's submit -> the start
            # of the kernel call that answers it.
            wait = reg.histogram("serve.batch_wait_s")
            start_s = monotonic_s()
            for pending in batch:
                wait.observe(start_s - pending.submitted_s)
            reg.gauge("serve.queue.depth").set(float(self._queue.qsize()))
        try:
            results = self._recognize_batch([p.stay for p in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"recognize_batch returned {len(results)} results "
                    f"for {len(batch)} points"
                )
            for pending, result in zip(batch, results):
                pending.result = result
        except BaseException as exc:  # noqa: BLE001 -- must reach clients
            for pending in batch:
                pending.error = exc
        finally:
            for pending in batch:
                pending.event.set()

    def _run(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._closed:
                    return
                continue
            batch = self._collect(first)
            self.batches_dispatched += 1
            self.points_dispatched += len(batch)
            self._dispatch(batch)

    # -- lifecycle -----------------------------------------------------

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop accepting work, drain in-flight batches, join the thread.

        Idempotent.  Requests queued but not yet collected are still
        answered (the dispatch loop drains the queue before observing
        the closed flag on an empty poll).
        """
        self._closed = True
        self._thread.join(timeout=timeout_s)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict[str, object]:
        return {
            "max_batch": self.max_batch,
            "queue_limit": self._queue.maxsize,
            "queue_depth": self._queue.qsize(),
            "batches_dispatched": self.batches_dispatched,
            "points_dispatched": self.points_dispatched,
            "mean_batch_size": (
                self.points_dispatched / self.batches_dispatched
                if self.batches_dispatched
                else 0.0
            ),
        }
