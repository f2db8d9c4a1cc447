"""Pass 3: artifact-durability rules (RPL017–RPL021).

The repo persists artifacts other processes depend on — runner
manifests, stream epoch commits, the ``csd-latest.json`` alias a live
serve daemon hot-reloads.  ``repro.ioutil`` centralises the three
durability idioms (atomic tmp+replace writes, pinned encodings, strict
JSON); this pass statically forbids new call sites from bypassing it:

* **RPL017** — no raw ``open(..., "w"/"wb"/"x"/"+")`` (or
  ``Path.write_text``/``write_bytes``) in ``src/repro`` outside the
  sanctioned writer (``repro/ioutil.py``).  A
  raw overwrite is torn by a crash mid-write; append mode (``"a"``) is
  exempt — the quarantine log is append-by-design and atomicity would
  lose earlier rows.  Pragma ``allow-raw-open``.
* **RPL018** — every text-mode ``open()`` anywhere in ``src/repro``
  pins ``encoding=`` (the platform default is cp1252 on Windows), and
  a module that uses the ``csv`` module must also pin ``newline=""``
  on its text opens (csv's own line-ending discipline breaks under
  newline translation).  Binary mode is exempt.  Pragma
  ``allow-open-encoding``.
* **RPL019** — every ``json.dump``/``json.dumps`` in ``src/repro``
  passes ``allow_nan=False`` (Python's default emits the non-standard
  ``NaN``/``Infinity`` tokens, which other parsers reject), or uses
  ``ioutil.strict_json_dump``.  Pragma ``allow-lax-json``.
* **RPL020** — ``os.replace``/``os.rename``/``shutil.move`` and the
  ``tempfile`` module are confined to the sanctioned writer: the
  atomic-rename protocol (tmp naming, cleanup-on-failure, fault-point
  announcements) lives in exactly one place.  Pragma ``allow-replace``.
* **RPL021** — no broad except-and-swallow (``except Exception:`` /
  ``except BaseException:`` / bare ``except:`` whose body is only
  ``pass``/``continue``, or ``contextlib.suppress(Exception)``) in the
  artifact-producing subsystems (``runner``, ``stream``, ``serve``,
  ``data/persistence.py``, ``ioutil.py``).  A swallowed torn-write
  error resurfaces later as a corrupt resume.  Narrow excepts
  (``FileNotFoundError``) and handlers that do real work are fine.
  Pragma ``allow-swallow``.

Like pass 1, every rule here is a syntactic over-approximation scoped
by ``_repro_location`` — files outside the ``repro`` package (tools,
tests, benches) are never flagged, so the linter can run over the whole
tree.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from tools.reprolint.rules import (
    ALL_RULES,
    Finding,
    _call_name,
    _dotted,
    _pragmas_by_line,
    _repro_location,
    decorator_lines_of,
    is_suppressed,
    iter_python_files,
)

#: The five durability rules this pass owns.
DURABILITY_RULES: FrozenSet[str] = frozenset(
    {"RPL017", "RPL018", "RPL019", "RPL020", "RPL021"}
)

#: ``(subpackage, filename)`` pairs allowed to hand-roll writes and the
#: rename protocol: ``repro/ioutil.py`` IS the sanctioned layer.
_SANCTIONED_WRITERS: FrozenSet[Tuple[str, str]] = frozenset(
    {("", "ioutil.py")}
)

#: Subsystems whose swallowed exceptions can hide torn artifacts
#: (RPL021): the checkpoint/commit paths and the modules that produce
#: or serve durable state.
_NO_SWALLOW_SUBPACKAGES: FrozenSet[str] = frozenset(
    {"runner", "stream", "serve"}
)
_NO_SWALLOW_FILES: FrozenSet[Tuple[str, str]] = frozenset(
    {("data", "persistence.py"), ("", "ioutil.py")}
)

#: Rename/move callables that implement an ad-hoc atomic-publish step.
_RENAME_CALLS: FrozenSet[str] = frozenset(
    {"os.replace", "os.rename", "os.renames", "shutil.move"}
)


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    """The value of a string-literal expression, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal ``mode`` argument of a builtin ``open()`` call.

    Returns ``"r"`` when omitted (open's default) and None when the
    mode is a non-literal expression (dynamic modes are not second-
    guessed; the encoding rule still applies via its own check).
    """
    mode_expr = _keyword(call, "mode")
    if mode_expr is None and len(call.args) >= 2:
        mode_expr = call.args[1]
    if mode_expr is None:
        return "r"
    return _literal_str(mode_expr)


def _swallow_only_body(body: Sequence[ast.stmt]) -> bool:
    """Is this handler body pure swallow (pass/continue, docstring ok)?"""
    real = [
        stmt
        for stmt in body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        )
    ]
    return bool(real) and all(
        isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in real
    )


class _DurabilityChecker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        pragmas: Dict[int, FrozenSet[str]],
        comment_lines: FrozenSet[int],
        select: Optional[FrozenSet[str]],
        decorator_lines: FrozenSet[int],
        uses_csv: bool,
    ) -> None:
        self.path = path
        self.pragmas = pragmas
        self.comment_lines = comment_lines
        self.decorator_lines = decorator_lines
        self.select = select
        self.uses_csv = uses_csv
        self.findings: List[Finding] = []
        subpackage, filename = _repro_location(path)
        self.in_repro = subpackage is not None
        location = (subpackage or "", filename)
        self.sanctioned_writer = location in _SANCTIONED_WRITERS
        self.no_swallow = self.in_repro and (
            subpackage in _NO_SWALLOW_SUBPACKAGES
            or location in _NO_SWALLOW_FILES
        )

    # -- bookkeeping ---------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if self.select is not None and rule not in self.select:
            return
        pragma, _ = ALL_RULES[rule]
        if is_suppressed(
            node, pragma, self.pragmas, self.comment_lines,
            self.decorator_lines,
        ):
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

    # -- call-site rules -----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.in_repro:
            self._check_open(node)
            self._check_write_method(node)
            self._check_json_dump(node)
            self._check_rename(node)
            self._check_suppress(node)
        self.generic_visit(node)

    def _check_open(self, node: ast.Call) -> None:
        # Builtin open() only: a bare Name — os.open / gzip.open etc.
        # are attribute calls with different semantics.
        if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
            return
        mode = _open_mode(node)
        # RPL017: writing modes outside the sanctioned writer.  "a" is
        # exempt (append-by-design logs); a dynamic mode expression is
        # not flagged.
        if (
            not self.sanctioned_writer
            and mode is not None
            and any(ch in mode for ch in "wx+")
        ):
            self._report(
                node,
                "RPL017",
                f"raw open(..., {mode!r}) in src/repro: a crash mid-"
                "write tears the artifact; route through "
                "repro.ioutil.atomic_write_text/bytes (append mode is "
                "exempt)",
            )
        # RPL018: text mode must pin encoding=; csv modules also pin
        # newline="".
        binary = mode is not None and "b" in mode
        if binary:
            return
        if _keyword(node, "encoding") is None:
            self._report(
                node,
                "RPL018",
                "open() without encoding= uses the platform-default "
                "codec (cp1252 on Windows mangles non-ASCII); pin "
                "encoding='utf-8'",
            )
        if self.uses_csv and _keyword(node, "newline") is None:
            self._report(
                node,
                "RPL018",
                "open() without newline='' in a csv-using module: "
                "newline translation corrupts csv line-ending "
                "discipline; pin newline=''",
            )

    def _check_write_method(self, node: ast.Call) -> None:
        # RPL017 also covers Path.write_text/write_bytes — the same
        # torn-write hazard with a different spelling.
        if self.sanctioned_writer:
            return
        name = _call_name(node.func)
        if name not in ("write_text", "write_bytes"):
            return
        if not isinstance(node.func, ast.Attribute):
            return
        self._report(
            node,
            "RPL017",
            f".{name}() rewrites the target in place (torn by a crash "
            "mid-write); use repro.ioutil.atomic_write_text/bytes",
        )

    def _check_json_dump(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted not in ("json.dump", "json.dumps"):
            return
        allow_nan = _keyword(node, "allow_nan")
        if (
            isinstance(allow_nan, ast.Constant)
            and allow_nan.value is False
        ):
            return
        self._report(
            node,
            "RPL019",
            f"{dotted}() without allow_nan=False emits non-standard "
            "NaN/Infinity tokens other parsers reject; pass "
            "allow_nan=False or use repro.ioutil.strict_json_dump",
        )

    def _check_rename(self, node: ast.Call) -> None:
        if self.sanctioned_writer:
            return
        dotted = _dotted(node.func)
        if dotted in _RENAME_CALLS:
            self._report(
                node,
                "RPL020",
                f"{dotted}() in src/repro outside repro.ioutil: the "
                "atomic-rename protocol (tmp naming, cleanup on "
                "failure, fault points) is centralised in "
                "ioutil.atomic_write",
            )

    def _check_suppress(self, node: ast.Call) -> None:
        # contextlib.suppress(Exception/BaseException) is the context-
        # manager spelling of a swallow handler.
        if not self.no_swallow:
            return
        name = _call_name(node.func)
        if name != "suppress":
            return
        for arg in node.args:
            exc = _call_name(arg) if isinstance(
                arg, (ast.Name, ast.Attribute)
            ) else ""
            if exc in ("Exception", "BaseException"):
                self._report(
                    node,
                    "RPL021",
                    f"contextlib.suppress({exc}) in an artifact-"
                    "producing module swallows torn-write errors; "
                    "catch the narrow exception you expect",
                )
                return

    # -- import-site rule (RPL020: tempfile) ---------------------------

    def _flag_tempfile(self, node: ast.AST) -> None:
        self._report(
            node,
            "RPL020",
            "tempfile use in src/repro outside repro.ioutil: staging "
            "files for atomic publication goes through "
            "ioutil.atomic_write (tmp siblings, not tempdir files, so "
            "os.replace never crosses filesystems)",
        )

    def visit_Import(self, node: ast.Import) -> None:
        if self.in_repro and not self.sanctioned_writer:
            for alias in node.names:
                if alias.name == "tempfile" or alias.name.startswith(
                    "tempfile."
                ):
                    self._flag_tempfile(node)
                    break
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            self.in_repro
            and not self.sanctioned_writer
            and (node.module or "") == "tempfile"
        ):
            self._flag_tempfile(node)
        self.generic_visit(node)

    # -- RPL021: broad except-and-swallow ------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.no_swallow:
            broad = node.type is None or (
                isinstance(node.type, (ast.Name, ast.Attribute))
                and _call_name(node.type) in ("Exception", "BaseException")
            )
            if broad and _swallow_only_body(node.body):
                caught = (
                    "bare except"
                    if node.type is None
                    else f"except {_call_name(node.type)}"
                )
                self._report(
                    node,
                    "RPL021",
                    f"{caught}: pass/continue in an artifact-producing "
                    "module swallows torn-write and checkpoint errors; "
                    "catch the narrow exception or handle it",
                )
        self.generic_visit(node)


def _uses_csv(tree: ast.AST) -> bool:
    """Does this module import the stdlib csv module?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "csv" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "csv":
                return True
    return False


def check_durability_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run pass 3 over one source string; ``path`` drives scoping."""
    chosen = frozenset(select) if select is not None else None
    if chosen is not None and not (chosen & DURABILITY_RULES):
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        # Pass 1 already reports RPL000 for unparseable files.
        return []
    pragmas, comment_lines = _pragmas_by_line(source)
    checker = _DurabilityChecker(
        path,
        pragmas,
        comment_lines,
        select=chosen,
        decorator_lines=decorator_lines_of(tree),
        uses_csv=_uses_csv(tree),
    )
    checker.visit(tree)
    return sorted(checker.findings, key=lambda f: (f.line, f.col, f.rule))


def check_durability_file(
    path: str, select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run pass 3 over one file from disk."""
    text = Path(path).read_text(encoding="utf-8")
    return check_durability_source(text, path=str(path), select=select)


def check_durability_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run pass 3 over every ``.py`` file under ``paths``."""
    findings: List[Finding] = []
    chosen = frozenset(select) if select is not None else None
    for path in iter_python_files(paths):
        findings.extend(check_durability_file(path, select=chosen))
    return findings
