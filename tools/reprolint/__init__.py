"""reprolint — domain-invariant static analysis for the repro codebase.

A deliberately small, stdlib-only (``ast``) linter that machine-checks
the invariants the CSR kernel rewrite (PR 1) rests on and that generic
linters cannot know about.  It runs in three passes: pass 1 checks
each file in isolation, pass 2 (:mod:`tools.reprolint.crossmod`)
builds a repo-wide symbol table over ``src/repro`` and checks
contracts between modules, and pass 3
(:mod:`tools.reprolint.durability`) checks the
artifact-durability contract — every artifact write in ``src/repro``
routes through the atomic I/O layer :mod:`repro.ioutil`.

Pass 1 (per file):

========  ==============================================================
RPL001    No raw lon/lat arithmetic or haversine math outside
          ``repro.geo`` — distance and projection must route through
          ``repro.geo.distance`` / ``repro.geo.projection``.
RPL002    No Python ``for``-statement iteration (other than ``range``
          chunking) in the hot kernel modules — vectorise, or mark a
          reference oracle with ``# reprolint: allow-loop``.
RPL003    No iteration over ``set`` expressions or ``dict.values()``
          feeding order-sensitive float accumulation in ``repro.core``
          — determinism of the scalar/batched equivalence depends on
          accumulation order (``math.fsum`` and ``sorted(...)`` are
          exempt because they are order-independent).
RPL004    No legacy ``np.random.*`` API — randomness must flow through
          an explicit ``np.random.default_rng(seed)`` generator.
RPL006    No direct ``time.time()``/``time.perf_counter()`` timing in
          ``src/repro/`` outside ``repro.obs`` — all timing routes
          through the observability layer's ``Timer``/``Span`` so it
          lands in the metrics snapshot.
RPL007    Every array-constructing call (``np.zeros``/``empty``/
          ``full``/``arange``/``asarray``/``array`` and ``.astype``) in
          ``src/repro`` names an explicit platform-stable dtype —
          ``int``/``np.int_`` are int32 on Windows and break the
          repo-wide int64 CSR/label contract.
========  ==============================================================

Pass 2 (cross-module):

========  ==============================================================
RPL008    Obs metric/span names are string literals registered in the
          central ``repro.obs.names`` registry — no computed names, no
          ad-hoc dotted strings, no catalogue typos.
RPL009    Public array-typed functions in the contract-bearing modules
          carry an ``@array_contract`` declaration, and every declared
          contract agrees with the function's ``repro.types``
          annotations (``IndexArray`` ⇒ ``int64``, ``CSRQuery`` ⇒
          ``CSRSpec``, …).
RPL010    ``docs/OBSERVABILITY.md`` and ``repro.obs.names`` list the
          same names — the metric catalogue cannot silently rot.
RPL011    No worker-pool construction anywhere in ``src/repro`` —
          recognition is serial and batched.
========  ==============================================================

Pass 3 (artifact durability, per file in ``src/repro``):

========  ==============================================================
RPL017    No raw ``open(..., "w"/"wb")`` or ``Path.write_text``/
          ``write_bytes`` outside the sanctioned writer
          (``repro/ioutil.py``) — an in-place rewrite torn by a crash
          corrupts the artifact; route through
          ``repro.ioutil.atomic_write_*`` (append mode is exempt).
RPL018    Every text-mode ``open()`` pins ``encoding=`` (platform
          default encoding varies), and csv-using modules also pin
          ``newline=""``.
RPL019    Every ``json.dump``/``json.dumps`` passes
          ``allow_nan=False`` — bare NaN/Infinity is invalid JSON that
          ``json.load`` accepts but external consumers reject; use
          ``repro.ioutil.strict_json_dump``.
RPL020    ``os.replace``/``os.rename``/``shutil.move``/``tempfile``
          confined to the sanctioned writer — ad-hoc tmp-and-rename
          dances belong in one audited place.
RPL021    No broad except-and-swallow (``except Exception: pass`` or
          ``contextlib.suppress(Exception)``) in the
          artifact-producing modules (runner, stream, serve,
          data/persistence, ioutil) — swallowing hides torn-write
          errors the durability layer is built to surface.
========  ==============================================================

Suppression: put ``# reprolint: allow-<name>`` on the flagged statement
(any of its lines; for block statements, the header) or in the comment
block directly above it — for decorated functions, above the first
decorator (``allow-lonlat``, ``allow-loop``, ``allow-unordered``,
``allow-legacy-random``, ``allow-direct-timing``, ``allow-dtype``, ``allow-metric-name``,
``allow-contract``, ``allow-pool``, ``allow-raw-open``,
``allow-open-encoding``,
``allow-lax-json``, ``allow-replace``, ``allow-swallow``).  RPL010
anchors in the markdown doc, which has no pragma channel — fix the
drift instead.

Run ``python -m tools.reprolint src/`` from the repository root; see
``docs/STATIC_ANALYSIS.md`` for the full rationale of each rule.
"""

from tools.reprolint.durability import (
    DURABILITY_RULES,
    check_durability_file,
    check_durability_paths,
    check_durability_source,
)
from tools.reprolint.crossmod import (
    ALIAS_DTYPES,
    CONTRACT_MODULES,
    Project,
    build_project,
    check_project,
    load_project,
)
from tools.reprolint.rules import (
    ALL_RULES,
    Finding,
    check_file,
    check_paths,
    check_source,
    is_suppressed,
    iter_python_files,
)

__all__ = [
    "ALIAS_DTYPES",
    "ALL_RULES",
    "CONTRACT_MODULES",
    "DURABILITY_RULES",
    "Finding",
    "Project",
    "build_project",
    "check_durability_file",
    "check_durability_paths",
    "check_durability_source",
    "check_file",
    "check_paths",
    "check_project",
    "check_source",
    "is_suppressed",
    "iter_python_files",
    "load_project",
]
