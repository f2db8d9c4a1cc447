"""AST rule engine for reprolint.

Every rule is a purely syntactic over-approximation of a semantic
invariant; the escape hatch for deliberate exceptions is a
``# reprolint: allow-<name>`` pragma on the flagged line or the line
directly above.  Rules are scoped by file location (derived from the
path's ``repro`` package segment), so fixture snippets can exercise any
rule by passing a synthetic path to :func:`check_source`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

#: rule id -> (pragma name, one-line description)
ALL_RULES: Dict[str, Tuple[str, str]] = {
    "RPL001": (
        "allow-lonlat",
        "raw lon/lat arithmetic outside repro.geo (route through "
        "geo.projection / geo.distance)",
    ),
    "RPL002": (
        "allow-loop",
        "Python for-loop in a hot kernel module (vectorise or mark a "
        "reference oracle)",
    ),
    "RPL003": (
        "allow-unordered",
        "unordered set/dict.values() iteration feeding order-sensitive "
        "accumulation in repro.core",
    ),
    "RPL004": (
        "allow-legacy-random",
        "legacy np.random.* API (use np.random.default_rng(seed))",
    ),
    "RPL006": (
        "allow-direct-timing",
        "direct stdlib timing call in src/repro outside repro.obs "
        "(route timing through repro.obs Timer/Span)",
    ),
    "RPL007": (
        "allow-dtype",
        "array-constructing call in src/repro without an explicit "
        "platform-stable dtype (int/np.int_ are int32 on Windows; "
        "name np.int64/np.float64)",
    ),
    "RPL008": (
        "allow-metric-name",
        "obs metric/span name is not a string literal registered in "
        "repro.obs.names (cross-module pass)",
    ),
    "RPL009": (
        "allow-contract",
        "public array-typed function missing an @array_contract, or a "
        "declared contract contradicting the annotations "
        "(cross-module pass)",
    ),
    "RPL010": (
        "allow-obs-docs",
        "metric catalogue drift between repro.obs.names and "
        "docs/OBSERVABILITY.md (cross-module pass)",
    ),
    "RPL011": (
        "allow-pool",
        "worker-pool construction in src/repro (recognition is serial "
        "and batched; a parallel path must first justify itself with a "
        "benchmark)",
    ),
    "RPL017": (
        "allow-raw-open",
        "raw open() for writing in src/repro outside repro.ioutil "
        "(a torn write becomes a torn artifact; route through "
        "ioutil.atomic_write_*; durability pass)",
    ),
    "RPL018": (
        "allow-open-encoding",
        "text-mode open() in src/repro without an explicit encoding= "
        "(platform-default codec mangles non-ASCII; csv files also "
        "need newline=''; durability pass)",
    ),
    "RPL019": (
        "allow-lax-json",
        "json.dump/dumps in src/repro without allow_nan=False (NaN/inf "
        "serialise as non-standard tokens other parsers reject; use "
        "ioutil.strict_json_dump; durability pass)",
    ),
    "RPL020": (
        "allow-replace",
        "os.replace/os.rename/shutil.move or tempfile use in src/repro "
        "outside repro.ioutil (atomic-rename protocol is centralised "
        "in ioutil; durability pass)",
    ),
    "RPL021": (
        "allow-swallow",
        "broad except-and-swallow (except Exception/BaseException/"
        "bare: pass|continue) in an artifact-producing module — "
        "runner, stream, serve, data/persistence, ioutil — hides "
        "torn-write errors (durability pass)",
    ),
}

#: Modules whose per-element Python loops are the exact regressions the
#: CSR kernel rewrite removed; (subpackage, filename) under repro/.
HOT_MODULES: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("geo", "index.py"),
        ("core", "popularity.py"),
        ("core", "recognition.py"),
        ("core", "merging.py"),
    }
)

#: Legacy module-level numpy.random functions (the pre-Generator API).
#: Everything here is either globally seeded or unseeded; both break the
#: "all randomness flows from an explicit default_rng(seed)" invariant.
LEGACY_NP_RANDOM: FrozenSet[str] = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "lognormal",
        "multivariate_normal",
        "RandomState",
        "get_state",
        "set_state",
    }
)

#: Worker-pool constructors (RPL011).  Matching on the callable's last
#: name catches both ``multiprocessing.Pool(...)`` and a bare
#: ``Pool(...)`` import.
_POOL_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Pool", "ThreadPool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)

#: Identifier tokens (after snake-case splitting) that mark a value as a
#: lon/lat coordinate in degrees.  ``d``-prefixed forms cover deltas.
_LONLAT_TOKEN = re.compile(r"^d?(lon|lng|lat|longitude|latitude|lonlat|latlon)s?$")

#: Angle-only math helpers: calling these outside repro.geo means
#: great-circle math is being reimplemented inline.
_ANGLE_FUNCS: FrozenSet[str] = frozenset({"radians", "degrees"})

_PRAGMA = re.compile(r"#\s*reprolint:\s*((?:allow-[a-z-]+[,\s]*)+)")

#: Calls whose result is order-independent even over unordered input:
#: ``math.fsum`` is correctly rounded, ``sorted`` imposes an order,
#:  min/max/len/any/all do not accumulate floats.
_ORDER_FREE_CALLS: FrozenSet[str] = frozenset({"fsum", "sorted"})

#: numpy array constructors whose default dtype is either inferred from
#: the input or platform-dependent (C ``long``: int32 on Windows,
#: int64 on Linux).  Every call in ``src/repro`` must pin the dtype
#: explicitly so the int64 CSR/label contract holds on every platform.
_ARRAY_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "zeros",
        "ones",
        "empty",
        "full",
        "arange",
    }
)

#: Positional index of the ``dtype`` argument per constructor (``arange``
#: omitted: its dtype position shifts with the start/stop/step forms, so
#: only the keyword spelling is recognised there).
_DTYPE_ARG_INDEX: Dict[str, int] = {
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "empty": 1,
    "zeros": 1,
    "ones": 1,
    "full": 2,
}

#: numpy dtype attributes aliased to C types whose width varies by
#: platform/compiler.  ``np.int_``/``np.intp``/``np.long`` are the int32
#: trap; the C-named aliases are banned wholesale for the same reason.
_UNSTABLE_NP_DTYPES: FrozenSet[str] = frozenset(
    {
        "int_",
        "intc",
        "intp",
        "uint",
        "uintc",
        "uintp",
        "long",
        "ulong",
        "longlong",
        "ulonglong",
    }
)

#: dtype string spellings with the same platform dependence.
_UNSTABLE_DTYPE_STRINGS: FrozenSet[str] = frozenset(
    {"int", "uint", "intp", "uintp", "long", "ulong"}
)

#: ``time``-module clock functions.  Calling any of these directly in
#: ``src/repro/`` (outside ``repro.obs``, which IS the timing layer)
#: bypasses the observability registry: the measurement is invisible to
#: metrics snapshots and, for ``time.time``, not even monotonic.
_TIMING_FUNCS: FrozenSet[str] = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _repro_location(path: str) -> Tuple[Optional[str], str]:
    """``(subpackage, filename)`` of a file under the ``repro`` package.

    Returns ``(None, filename)`` for files outside ``repro`` (tools,
    scripts); top-level modules like ``repro/cli.py`` report
    subpackage ``""``.
    """
    parts = Path(path).as_posix().split("/")
    filename = parts[-1] if parts else path
    if "repro" not in parts:
        return None, filename
    rel = parts[parts.index("repro") + 1 :]
    return (rel[0] if len(rel) > 1 else ""), filename


def _pragmas_by_line(source: str) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[int]]:
    """Per-line pragma names plus the set of comment-only lines.

    Comment-only lines matter for suppression: a pragma anywhere in the
    contiguous comment block directly above a statement covers it, so
    multi-line justifications don't have to cram onto one line.
    """
    pragmas: Dict[int, FrozenSet[str]] = {}
    comment_lines = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            comment_lines.add(lineno)
        match = _PRAGMA.search(line)
        if match:
            names = re.findall(r"allow-[a-z-]+", match.group(1))
            pragmas[lineno] = frozenset(names)
    return pragmas, frozenset(comment_lines)


def decorator_lines_of(tree: ast.AST) -> FrozenSet[int]:
    """Every source line occupied by a decorator in ``tree``.

    The suppression walk skips through these so a pragma written above
    a decorated ``def`` still covers findings anchored *inside* the
    definition line (e.g. lon/lat arithmetic in a default argument).
    """
    lines = set()
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(d.lineno for d in decorators)
            lines.update(range(start, node.lineno))
    return frozenset(lines)


def is_suppressed(
    node: ast.AST,
    pragma: str,
    pragmas: Dict[int, FrozenSet[str]],
    comment_lines: FrozenSet[int],
    decorator_lines: FrozenSet[int] = frozenset(),
) -> bool:
    """Is ``pragma`` in force for a finding anchored at ``node``?

    A pragma suppresses when it sits (a) anywhere on the flagged
    statement's own lines — for block statements (``for``/``def``/
    ``with``…) the span ends at the header, so a pragma deep inside the
    body cannot silence the header's finding, while a multi-line
    expression counts in full — or (b) in the contiguous comment block
    directly above; decorator lines are transparent to the upward walk,
    so for decorated definitions the comment naturally sits above the
    first decorator.
    """
    lineno = getattr(node, "lineno", 0)
    start = lineno
    decorators = getattr(node, "decorator_list", None)
    if decorators:
        start = min(d.lineno for d in decorators)
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and hasattr(body[0], "lineno"):
        span_end = body[0].lineno - 1
    else:
        span_end = getattr(node, "end_lineno", None) or lineno
    for line in range(min(start, lineno), max(span_end, lineno) + 1):
        if pragma in pragmas.get(line, frozenset()):
            return True
    line = start - 1
    while line in comment_lines or line in decorator_lines:
        if pragma in pragmas.get(line, frozenset()):
            return True
        line -= 1
    return False


def _is_lonlat_identifier(name: str) -> bool:
    return any(
        _LONLAT_TOKEN.match(token)
        for token in re.split(r"[_\d]+", name.lower())
        if token
    )


def _lonlat_expr(node: ast.expr) -> bool:
    """Does this expression read a lon/lat-named value?"""
    if isinstance(node, ast.Name):
        return _is_lonlat_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return _is_lonlat_identifier(node.attr)
    if isinstance(node, ast.Subscript):
        return _lonlat_expr(node.value)
    if isinstance(node, ast.UnaryOp):
        return _lonlat_expr(node.operand)
    return False


def _call_name(node: ast.expr) -> str:
    """Trailing identifier of a call target: ``np.random.seed`` -> ``seed``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of an attribute chain (else '')."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_producing(node: ast.expr) -> bool:
    """Syntactically guaranteed to yield a set (unordered) iterable."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _call_name(node.func) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_producing(node.left) or _is_set_producing(node.right)
    return False


def _is_values_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "values"
        and not node.args
        and not node.keywords
    )


def _geo_imported_names(tree: ast.AST) -> FrozenSet[str]:
    """Names bound by ``from repro.geo... import ...`` anywhere in the file.

    Calling the geo API by its imported name is the sanctioned route for
    RPL001; only re-implementations are flagged.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.geo"
        ):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return frozenset(names)


class _Checker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        pragmas: Dict[int, FrozenSet[str]],
        comment_lines: FrozenSet[int] = frozenset(),
        select: Optional[FrozenSet[str]] = None,
        geo_imports: FrozenSet[str] = frozenset(),
        decorator_lines: FrozenSet[int] = frozenset(),
    ) -> None:
        self.path = path
        self.pragmas = pragmas
        self.comment_lines = comment_lines
        self.decorator_lines = decorator_lines
        self.select = select
        self.geo_imports = geo_imports
        self.findings: List[Finding] = []
        subpackage, filename = _repro_location(path)
        self.in_geo = subpackage == "geo"
        self.in_core = subpackage == "core"
        self.in_hot = (subpackage, filename) in HOT_MODULES
        # RPL006 covers the whole repro package except repro.obs, the
        # sanctioned timing layer itself.
        self.timing_scoped = subpackage is not None and subpackage != "obs"
        # RPL007 covers the whole repro package: dtype discipline is a
        # repo-wide contract, not a per-subsystem one.
        self.in_repro = subpackage is not None

    # -- bookkeeping ---------------------------------------------------

    def _suppressed(self, node: ast.AST, pragma: str) -> bool:
        return is_suppressed(
            node, pragma, self.pragmas, self.comment_lines, self.decorator_lines
        )

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if self.select is not None and rule not in self.select:
            return
        pragma, _ = ALL_RULES[rule]
        if self._suppressed(node, pragma):
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    # -- RPL001: lon/lat arithmetic stays inside repro.geo -------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if not self.in_geo and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            for side in (node.left, node.right):
                if _lonlat_expr(side):
                    self._report(
                        node,
                        "RPL001",
                        "arithmetic on lon/lat degrees outside repro.geo; "
                        "project via geo.projection.LocalProjection or measure "
                        "via geo.distance",
                    )
                    break
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        dotted = _dotted(node.func)
        if not self.in_geo:
            if "haversine" in name.lower() and name not in self.geo_imports:
                self._report(
                    node,
                    "RPL001",
                    "haversine math outside repro.geo; call "
                    "geo.distance.haversine_distance through the geo API",
                )
            elif name in _ANGLE_FUNCS and dotted.startswith("math."):
                self._report(
                    node,
                    "RPL001",
                    f"angle conversion math.{name}() outside repro.geo "
                    "suggests inline great-circle math; route through repro.geo",
                )
        # RPL003: order-sensitive reduction over unordered iterable.
        if self.in_core and name == "sum" and node.args:
            self._check_unordered_reduction(node)
        # RPL004: legacy numpy random API.
        self._check_legacy_random(node.func, dotted)
        # RPL007: explicit platform-stable dtypes on array constructors.
        self._check_dtype_discipline(node, name, dotted)
        # RPL006: direct timing calls bypass the observability layer.
        if (
            self.timing_scoped
            and name in _TIMING_FUNCS
            and dotted.split(".")[:-1] == ["time"]
        ):
            self._report(
                node,
                "RPL006",
                f"direct time.{name}() in src/repro bypasses the "
                "observability layer; use a repro.obs Timer/Span so the "
                "measurement lands in the metrics snapshot",
            )
        # RPL011: no worker pools anywhere in src/repro.
        if self.in_repro and name in _POOL_CONSTRUCTORS:
            self._report(
                node,
                "RPL011",
                f"{name}() in src/repro; recognition runs serial and "
                "batched, so a worker pool needs a benchmark showing it "
                "beats the serial kernel (and an allow-pool pragma)",
            )
        self.generic_visit(node)

    # -- RPL002: no interpreter loops in hot kernels -------------------

    def visit_For(self, node: ast.For) -> None:
        if self.in_hot:
            iter_call = _call_name(node.iter.func) if isinstance(node.iter, ast.Call) else ""
            if iter_call != "range":
                self._report(
                    node,
                    "RPL002",
                    "Python for-loop in a hot kernel module; vectorise with "
                    "the batched CSR kernels or mark a reference oracle with "
                    "'# reprolint: allow-loop'",
                )
        if self.in_core:
            self._check_unordered_for(node)
        self.generic_visit(node)

    # -- RPL003 helpers ------------------------------------------------

    def _check_unordered_for(self, node: ast.For) -> None:
        if _is_set_producing(node.iter) or _is_values_call(node.iter):
            self._report(
                node,
                "RPL003",
                "for-loop over an unordered set/dict.values() in repro.core; "
                "iterate sorted(...) so accumulation order is deterministic",
            )

    def _check_unordered_reduction(self, call: ast.Call) -> None:
        arg = call.args[0]
        unordered: Optional[ast.expr] = None
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for comp in arg.generators:
                if _is_set_producing(comp.iter) or _is_values_call(comp.iter):
                    unordered = comp.iter
                    break
        elif _is_set_producing(arg) or _is_values_call(arg):
            unordered = arg
        if unordered is not None:
            self._report(
                call,
                "RPL003",
                "sum() over an unordered set/dict.values() in repro.core is "
                "order-sensitive float accumulation; use math.fsum "
                "(order-independent) or iterate sorted(...)",
            )

    # -- RPL007: explicit platform-stable dtypes -----------------------

    def _check_dtype_discipline(
        self, node: ast.Call, name: str, dotted: str
    ) -> None:
        if not self.in_repro:
            return
        is_np_ctor = name in _ARRAY_CONSTRUCTORS and dotted.split(".")[:-1] in (
            ["np"],
            ["numpy"],
        )
        is_astype = name == "astype" and isinstance(node.func, ast.Attribute)
        if not (is_np_ctor or is_astype):
            return
        dtype_expr: Optional[ast.expr] = None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype_expr = kw.value
                break
        if dtype_expr is None:
            if is_astype:
                if node.args:
                    dtype_expr = node.args[0]
            else:
                idx = _DTYPE_ARG_INDEX.get(name)
                if idx is not None and len(node.args) > idx:
                    dtype_expr = node.args[idx]
        label = f"np.{name}" if is_np_ctor else ".astype"
        if dtype_expr is None:
            self._report(
                node,
                "RPL007",
                f"{label}() without an explicit dtype; the inferred "
                "default is platform-dependent (C long is int32 on "
                "Windows) — name np.int64/np.float64",
            )
            return
        unstable: Optional[str] = None
        if isinstance(dtype_expr, ast.Name) and dtype_expr.id == "int":
            unstable = "int"
        elif isinstance(dtype_expr, ast.Attribute):
            dtype_dotted = _dotted(dtype_expr)
            parts = dtype_dotted.split(".")
            if (
                parts[0] in ("np", "numpy")
                and parts[-1] in _UNSTABLE_NP_DTYPES
            ):
                unstable = dtype_dotted
        elif (
            isinstance(dtype_expr, ast.Constant)
            and isinstance(dtype_expr.value, str)
            and dtype_expr.value in _UNSTABLE_DTYPE_STRINGS
        ):
            unstable = repr(dtype_expr.value)
        if unstable is not None:
            self._report(
                node,
                "RPL007",
                f"{label}(dtype={unstable}) is platform-dependent "
                "(int32 on Windows, int64 on Linux); name np.int64 "
                "explicitly",
            )

    # -- RPL004: legacy numpy random -----------------------------------

    def _check_legacy_random(self, func: ast.expr, dotted: str) -> None:
        if not dotted:
            return
        parts = dotted.split(".")
        if (
            len(parts) >= 3
            and parts[-3] in ("np", "numpy")
            and parts[-2] == "random"
            and parts[-1] in LEGACY_NP_RANDOM
        ):
            self._report(
                func,
                "RPL004",
                f"legacy np.random.{parts[-1]}() is globally seeded or "
                "unseeded; create an explicit np.random.default_rng(seed)",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name in LEGACY_NP_RANDOM:
                    self._report(
                        node,
                        "RPL004",
                        f"importing legacy numpy.random.{alias.name}; use "
                        "np.random.default_rng(seed)",
                    )
        if self.timing_scoped and node.module == "time":
            for alias in node.names:
                if alias.name in _TIMING_FUNCS:
                    self._report(
                        node,
                        "RPL006",
                        f"importing time.{alias.name} in src/repro "
                        "bypasses the observability layer; use a "
                        "repro.obs Timer/Span",
                    )
        self.generic_visit(node)


def check_source(
    source: str, path: str = "<string>", select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint one source string; ``path`` drives rule scoping."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                col=(exc.offset or 0),
                rule="RPL000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    pragmas, comment_lines = _pragmas_by_line(source)
    checker = _Checker(
        path,
        pragmas,
        comment_lines,
        select=frozenset(select) if select is not None else None,
        geo_imports=_geo_imported_names(tree),
        decorator_lines=decorator_lines_of(tree),
    )
    checker.visit(tree)
    return sorted(checker.findings, key=lambda f: (f.line, f.col, f.rule))


def check_file(path: str, select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one file from disk."""
    text = Path(path).read_text(encoding="utf-8")
    return check_source(text, path=str(path), select=select)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from (str(f) for f in sorted(p.rglob("*.py")))
        else:
            yield str(p)


def check_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``."""
    findings: List[Finding] = []
    chosen = frozenset(select) if select is not None else None
    for path in iter_python_files(paths):
        findings.extend(check_file(path, select=chosen))
    return findings
