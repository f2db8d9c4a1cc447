"""Unit tests for the reprolint static analyzer (tools/reprolint).

Each RPL rule is exercised with a bad fixture that must fire and a good
fixture that must stay silent, plus pragma-suppression coverage.  Rule
scoping is driven entirely by the synthetic ``path`` argument of
``check_source``, so fixtures can impersonate any module.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import ALL_RULES, check_paths, check_source  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402

CORE = "src/repro/core/example.py"
HOT = "src/repro/core/recognition.py"
DATA = "src/repro/data/example.py"
GEO = "src/repro/geo/example.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestRPL001LonLatArithmetic:
    def test_fires_on_lonlat_arithmetic_outside_geo(self):
        code = "def f(lon, lat):\n    return lon * 111_000.0\n"
        assert "RPL001" in rules_of(check_source(code, path=DATA))

    def test_fires_on_delta_identifiers(self):
        code = "def f(dlat):\n    return dlat / 2.0\n"
        assert "RPL001" in rules_of(check_source(code, path=CORE))

    def test_fires_on_attribute_access(self):
        code = "def f(sp, other):\n    return sp.lon - other.lon\n"
        assert "RPL001" in rules_of(check_source(code, path=DATA))

    def test_fires_on_haversine_reimplementation(self):
        code = "import math\ndef f(lat1):\n    return math.radians(lat1)\n"
        found = rules_of(check_source(code, path=DATA))
        assert "RPL001" in found

    def test_fires_on_haversine_named_call(self):
        code = "def f(a, b):\n    return my_haversine(a, b)\n"
        assert "RPL001" in rules_of(check_source(code, path=DATA))

    def test_silent_inside_geo(self):
        code = "def f(lon, lat):\n    return lon * 111_000.0\n"
        assert check_source(code, path=GEO) == []

    def test_silent_on_routed_calls(self):
        code = (
            "from repro.geo.distance import haversine_distance\n"
            "def f(a, b, c, d):\n"
            "    return haversine_distance(a, b, c, d)\n"
        )
        # Calling the geo API by name is the sanctioned route; only
        # re-implementations (arithmetic, math.radians) are flagged.
        assert check_source(code, path=DATA) == []

    def test_silent_on_unrelated_identifiers(self):
        code = "def f(flat, latency):\n    return flat * latency\n"
        assert check_source(code, path=CORE) == []

    def test_silent_on_comparisons(self):
        code = "def f(lon):\n    return abs(lon) > 180.0\n"
        assert check_source(code, path=DATA) == []

    def test_pragma_suppresses(self):
        code = (
            "def f(lon):\n"
            "    # reprolint: allow-lonlat\n"
            "    return lon + 0.5\n"
        )
        assert check_source(code, path=DATA) == []


class TestRPL002HotLoops:
    def test_fires_on_for_loop_in_hot_module(self):
        code = "def f(xs):\n    for x in xs:\n        use(x)\n"
        assert "RPL002" in rules_of(check_source(code, path=HOT))

    def test_fires_on_zip_iteration(self):
        code = "def f(a, b):\n    for x, y in zip(a, b):\n        use(x, y)\n"
        assert "RPL002" in rules_of(check_source(code, path=HOT))

    def test_silent_on_range_chunking(self):
        code = "def f(m, chunk):\n    for s in range(0, m, chunk):\n        use(s)\n"
        assert check_source(code, path=HOT) == []

    def test_silent_outside_hot_modules(self):
        code = "def f(xs):\n    for x in xs:\n        use(x)\n"
        assert check_source(code, path="src/repro/core/patterns.py") == []

    def test_silent_on_comprehensions(self):
        # Comprehensions marshal data; statement loops do kernel work.
        code = "def f(xs):\n    return [x + 1 for x in xs]\n"
        assert check_source(code, path=HOT) == []

    def test_pragma_suppresses(self):
        code = (
            "def f(xs):\n"
            "    # reprolint: allow-loop -- reference oracle\n"
            "    for x in xs:\n"
            "        use(x)\n"
        )
        assert check_source(code, path=HOT) == []


class TestRPL003UnorderedAccumulation:
    def test_fires_on_sum_over_set_union(self):
        code = (
            "def cosine(p, q):\n"
            "    return sum(p.get(s, 0.0) * q.get(s, 0.0) for s in set(p) | set(q))\n"
        )
        assert "RPL003" in rules_of(check_source(code, path=CORE))

    def test_fires_on_sum_over_dict_values(self):
        code = "def f(d):\n    return sum(d.values())\n"
        assert "RPL003" in rules_of(check_source(code, path=CORE))

    def test_fires_on_for_over_set(self):
        code = "def f(items):\n    for x in set(items):\n        acc(x)\n"
        assert "RPL003" in rules_of(check_source(code, path=CORE))

    def test_silent_on_fsum(self):
        code = "import math\ndef f(d):\n    return math.fsum(d.values())\n"
        assert check_source(code, path=CORE) == []

    def test_silent_on_sorted_iteration(self):
        code = "def f(p, q):\n    for s in sorted(set(p) | set(q)):\n        acc(s)\n"
        assert check_source(code, path=CORE) == []

    def test_silent_outside_core(self):
        code = "def f(d):\n    return sum(d.values())\n"
        assert check_source(code, path=DATA) == []

    def test_pragma_suppresses(self):
        code = (
            "def f(d):\n"
            "    # reprolint: allow-unordered -- integer support counts\n"
            "    return sum(d.values())\n"
        )
        assert check_source(code, path=CORE) == []


class TestRPL004LegacyRandom:
    def test_fires_on_np_random_seed(self):
        code = "import numpy as np\nnp.random.seed(0)\n"
        assert "RPL004" in rules_of(check_source(code, path=DATA))

    def test_fires_on_np_random_rand(self):
        code = "import numpy as np\nx = np.random.rand(10)\n"
        assert "RPL004" in rules_of(check_source(code, path=CORE))

    def test_fires_on_full_module_name(self):
        code = "import numpy\nx = numpy.random.uniform(0, 1)\n"
        assert "RPL004" in rules_of(check_source(code, path=DATA))

    def test_fires_on_legacy_import(self):
        code = "from numpy.random import randint\n"
        assert "RPL004" in rules_of(check_source(code, path=DATA))

    def test_silent_on_default_rng(self):
        code = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "x = rng.uniform(0, 1)\n"
        )
        assert check_source(code, path=DATA) == []

    def test_silent_on_generator_methods(self):
        # rng.normal() is a Generator method, not np.random.normal().
        code = "def f(rng):\n    return rng.normal(0.0, 1.0)\n"
        assert check_source(code, path=DATA) == []

    def test_pragma_suppresses(self):
        code = (
            "import numpy as np\n"
            "# reprolint: allow-legacy-random\n"
            "np.random.seed(0)\n"
        )
        assert check_source(code, path=DATA) == []


class TestRPL005MutableDefaults:
    def test_fires_on_list_default(self):
        code = "def f(xs=[]):\n    return xs\n"
        assert "RPL005" in rules_of(check_source(code, path=DATA))

    def test_fires_on_dict_default(self):
        code = "def f(opts={}):\n    return opts\n"
        assert "RPL005" in rules_of(check_source(code, path=CORE))

    def test_fires_on_constructor_call_default(self):
        code = "def f(xs=list()):\n    return xs\n"
        assert "RPL005" in rules_of(check_source(code, path=DATA))

    def test_fires_on_kwonly_default(self):
        code = "def f(*, xs=[]):\n    return xs\n"
        assert "RPL005" in rules_of(check_source(code, path=DATA))

    def test_silent_on_none_default(self):
        code = "def f(xs=None):\n    return xs or []\n"
        assert check_source(code, path=DATA) == []

    def test_silent_on_immutable_defaults(self):
        code = "def f(a=0, b=(), c='x', d=frozenset()):\n    return a\n"
        findings = [f for f in check_source(code, path=DATA) if f.rule == "RPL005"]
        assert findings == []

    def test_pragma_suppresses(self):
        code = "def f(xs=[]):  # reprolint: allow-mutable-default\n    return xs\n"
        assert check_source(code, path=DATA) == []


class TestRPL006DirectTiming:
    def test_fires_on_time_time_in_core(self):
        code = "import time\ndef f():\n    return time.time()\n"
        assert "RPL006" in rules_of(check_source(code, path=CORE))

    def test_fires_on_perf_counter_in_data(self):
        code = "import time\ndef f():\n    t0 = time.perf_counter()\n    return t0\n"
        assert "RPL006" in rules_of(check_source(code, path=DATA))

    def test_fires_on_monotonic_in_geo(self):
        code = "import time\ndef f():\n    return time.monotonic()\n"
        assert "RPL006" in rules_of(check_source(code, path=GEO))

    def test_fires_on_timing_import(self):
        code = "from time import perf_counter\n"
        assert "RPL006" in rules_of(check_source(code, path=CORE))

    def test_silent_inside_repro_obs(self):
        code = "import time\ndef f():\n    return time.perf_counter()\n"
        assert check_source(code, path="src/repro/obs/metrics.py") == []

    def test_silent_outside_repro_package(self):
        # Benchmarks and tools time their own harness code freely.
        code = "import time\ndef f():\n    return time.perf_counter()\n"
        assert check_source(code, path="benchmarks/bench_example.py") == []
        assert check_source(code, path="tools/example.py") == []

    def test_silent_on_non_timing_time_functions(self):
        code = "import time\ndef f():\n    time.sleep(0.1)\n"
        assert check_source(code, path=CORE) == []

    def test_silent_on_unrelated_attribute(self):
        # Only the time module's clocks are flagged, not same-named
        # attributes of other objects.
        code = "def f(stopwatch):\n    return stopwatch.monotonic()\n"
        assert check_source(code, path=CORE) == []

    def test_pragma_suppresses(self):
        code = (
            "import time\n"
            "def f():\n"
            "    # reprolint: allow-direct-timing -- bootstrap clock\n"
            "    return time.time()\n"
        )
        assert check_source(code, path=CORE) == []


class TestRPL007DtypeDiscipline:
    def test_fires_on_missing_dtype(self):
        code = "import numpy as np\nx = np.zeros(10)\n"
        assert "RPL007" in rules_of(check_source(code, path=CORE))

    def test_fires_on_builtin_int_dtype(self):
        code = "import numpy as np\nx = np.zeros(10, dtype=int)\n"
        findings = check_source(code, path=CORE)
        assert "RPL007" in rules_of(findings)
        assert "platform" in findings[0].message

    def test_fires_on_np_int_underscore(self):
        code = "import numpy as np\nx = np.arange(5, dtype=np.int_)\n"
        assert "RPL007" in rules_of(check_source(code, path=CORE))

    def test_fires_on_astype_int(self):
        code = "import numpy as np\ndef f(a):\n    return a.astype(int)\n"
        assert "RPL007" in rules_of(check_source(code, path=HOT))

    def test_fires_on_linspace_astype_int(self):
        # The exact shape of the recognition.py bug this rule was built
        # to catch: chunk bounds cast through the platform int.
        code = (
            "import numpy as np\n"
            "def f(flat, n_jobs):\n"
            "    return np.linspace(0, len(flat), n_jobs + 1).astype(int)\n"
        )
        assert "RPL007" in rules_of(check_source(code, path=HOT))

    def test_fires_on_string_int_dtype(self):
        code = "import numpy as np\nx = np.empty(3, dtype='int')\n"
        assert "RPL007" in rules_of(check_source(code, path=CORE))

    def test_silent_on_explicit_int64(self):
        code = "import numpy as np\nx = np.zeros(10, dtype=np.int64)\n"
        assert check_source(code, path=CORE) == []

    def test_silent_on_explicit_float64(self):
        code = (
            "import numpy as np\n"
            "a = np.empty((4, 2), dtype=np.float64)\n"
            "b = a.astype(np.float64)\n"
        )
        assert check_source(code, path=CORE) == []

    def test_silent_on_positional_stable_dtype(self):
        code = "import numpy as np\nx = np.asarray([1.0], np.float64)\n"
        assert check_source(code, path=CORE) == []

    def test_silent_on_builtin_float(self):
        # dtype=float is float64 on every platform numpy supports; only
        # the integer family is platform-dependent.
        code = "import numpy as np\nx = np.zeros(3, dtype=float)\n"
        assert check_source(code, path=CORE) == []

    def test_silent_on_variable_dtype(self):
        # A dtype routed through a variable is someone's deliberate
        # decision; the rule only polices literal construction sites.
        code = "import numpy as np\ndef f(n, dt):\n    return np.zeros(n, dtype=dt)\n"
        assert check_source(code, path=CORE) == []

    def test_silent_outside_repro_package(self):
        code = "import numpy as np\nx = np.zeros(10)\n"
        assert check_source(code, path="benchmarks/bench_example.py") == []
        assert check_source(code, path="tools/example.py") == []

    def test_pragma_suppresses(self):
        code = (
            "import numpy as np\n"
            "# reprolint: allow-dtype -- scratch buffer, never persisted\n"
            "x = np.zeros(10)\n"
        )
        assert check_source(code, path=CORE) == []


class TestRPL011PoolOutsideParallel:
    def test_fires_on_multiprocessing_pool_in_core(self):
        code = (
            "import multiprocessing\n"
            "def f():\n"
            "    with multiprocessing.Pool(4) as pool:\n"
            "        return pool\n"
        )
        assert "RPL011" in rules_of(check_source(code, path=CORE))

    def test_fires_on_bare_pool_import_in_data(self):
        code = (
            "from multiprocessing import Pool\n"
            "def f():\n"
            "    return Pool(2)\n"
        )
        assert "RPL011" in rules_of(check_source(code, path=DATA))

    def test_fires_on_process_pool_executor_in_geo(self):
        code = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def f():\n"
            "    return ProcessPoolExecutor(max_workers=2)\n"
        )
        assert "RPL011" in rules_of(check_source(code, path=GEO))

    def test_silent_inside_repro_parallel(self):
        code = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def f():\n"
            "    return ProcessPoolExecutor(max_workers=2)\n"
        )
        assert check_source(code, path="src/repro/parallel/pool.py") == []

    def test_silent_outside_repro_package(self):
        # Benchmarks and tools may drive pools directly.
        code = (
            "from multiprocessing import Pool\n"
            "def f():\n"
            "    return Pool(2)\n"
        )
        assert check_source(code, path="benchmarks/bench_example.py") == []
        assert check_source(code, path="tools/example.py") == []

    def test_silent_on_unrelated_pool_name(self):
        # Only constructor *calls* are flagged, not arbitrary names.
        code = "def f(pool):\n    return pool.map(len, [])\n"
        assert check_source(code, path=CORE) == []

    def test_pragma_suppresses(self):
        code = (
            "from multiprocessing import Pool\n"
            "def f():\n"
            "    # reprolint: allow-pool -- migration shim, tracked in #12\n"
            "    return Pool(2)\n"
        )
        assert check_source(code, path=CORE) == []


class TestEngine:
    def test_syntax_error_reported_as_rpl000(self):
        findings = check_source("def f(:\n", path=DATA)
        assert rules_of(findings) == ["RPL000"]

    def test_select_filters_rules(self):
        code = "import numpy as np\ndef f(xs=[]):\n    np.random.seed(0)\n"
        findings = check_source(code, path=DATA, select=["RPL005"])
        assert rules_of(findings) == ["RPL005"]

    def test_findings_sorted_and_located(self):
        code = "def f(lon, xs=[]):\n    return lon * 2\n"
        findings = check_source(code, path=DATA)
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        assert all(f.path == DATA for f in findings)

    def test_finding_to_dict_roundtrips_through_json(self):
        findings = check_source("def f(xs=[]):\n    return xs\n", path=DATA)
        payload = json.loads(json.dumps([f.to_dict() for f in findings]))
        assert payload[0]["rule"] == "RPL005"
        assert payload[0]["line"] == 1


class TestPragmaEngine:
    """Suppression span mechanics the rules all share."""

    def test_pragma_above_decorators_suppresses_decorated_def(self):
        # Decorator lines are transparent: a pragma in the comment block
        # above the decorator stack still covers the def header.
        code = (
            "# reprolint: allow-mutable-default -- frozen by the wrapper\n"
            "@functools.cache\n"
            "@other.decorator\n"
            "def f(xs=[]):\n"
            "    return xs\n"
        )
        assert check_source(code, path=DATA) == []

    def test_pragma_on_continuation_line_suppresses_expression(self):
        # A multi-line call is one statement; the pragma may sit on any
        # of its physical lines.
        code = (
            "import numpy as np\n"
            "x = np.zeros(\n"
            "    10,  # reprolint: allow-dtype\n"
            ")\n"
        )
        assert check_source(code, path=CORE) == []

    def test_pragma_inside_block_body_does_not_cover_header(self):
        # A block statement's span is its header only — a pragma on a
        # body line must not silence the loop-header finding.
        code = (
            "def f(xs):\n"
            "    for x in xs:\n"
            "        use(x)  # reprolint: allow-loop\n"
        )
        assert "RPL002" in rules_of(check_source(code, path=HOT))

    def test_pragma_for_other_rule_does_not_suppress(self):
        code = (
            "import numpy as np\n"
            "# reprolint: allow-loop\n"
            "x = np.zeros(10)\n"
        )
        assert "RPL007" in rules_of(check_source(code, path=CORE))


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(x):\n    return x + 1\n")
        assert reprolint_main([str(target)]) == 0

    def test_violations_exit_one_and_print(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(xs=[]):\n    return xs\n")
        assert reprolint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "RPL005" in out and "bad.py" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(xs=[]):\n    return xs\n")
        assert reprolint_main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "RPL005"

    def test_unknown_rule_select_is_usage_error(self, capsys):
        assert reprolint_main(["--select", "RPL999"]) == 2

    def test_rules_alias_filters(self, tmp_path, capsys):
        # --rules is an alias for --select; the RPL005 fixture must be
        # invisible when only RPL004 is requested.
        target = tmp_path / "bad.py"
        target.write_text("def f(xs=[]):\n    return xs\n")
        assert reprolint_main([str(target), "--rules", "RPL004"]) == 0
        assert reprolint_main([str(target), "--rules", "RPL005"]) == 1

    def test_json_finding_schema(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(xs=[]):\n    return xs\n")
        assert reprolint_main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"schema", "count", "fail_on", "findings"}
        assert payload["fail_on"] == "error"
        finding = payload["findings"][0]
        assert set(finding) == {
            "path", "line", "col", "rule", "severity", "message",
        }
        assert finding["severity"] == "error"
        assert isinstance(finding["line"], int)
        assert isinstance(finding["col"], int)

    def test_fail_on_warning_is_at_least_as_strict(self, tmp_path):
        # Every current rule is error-severity, so --fail-on warning
        # (the lower threshold) must fail whenever the default does.
        target = tmp_path / "bad.py"
        target.write_text("def f(xs=[]):\n    return xs\n")
        assert reprolint_main([str(target), "--fail-on", "warning"]) == 1
        assert reprolint_main([str(target), "--fail-on", "error"]) == 1

    def test_fail_on_rejects_unknown_threshold(self):
        with pytest.raises(SystemExit) as exc:
            reprolint_main(["--fail-on", "info"])
        assert exc.value.code == 2

    def test_every_rule_has_a_severity(self):
        from tools.reprolint.rules import RULE_SEVERITY

        assert set(RULE_SEVERITY) == set(ALL_RULES)
        assert set(RULE_SEVERITY.values()) <= {"error", "warning"}

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
                     "RPL006", "RPL007", "RPL008", "RPL009", "RPL010",
                     "RPL011", "RPL017", "RPL018", "RPL019", "RPL020",
                     "RPL021"):
            assert rule in out

    def test_module_invocation_from_repo_root(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "RPL001" in proc.stdout


class TestRepositoryIsClean:
    def test_src_tree_passes_all_rules(self):
        findings = check_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_linter_lints_itself(self):
        findings = check_paths([str(REPO_ROOT / "tools")])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_all_src_timing_goes_through_obs(self):
        """RPL006 explicitly: repro.obs owns every clock in src/."""
        findings = check_paths(
            [str(REPO_ROOT / "src")], select=["RPL006"]
        )
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_all_src_pools_live_in_repro_parallel(self):
        """RPL011 explicitly: repro.parallel owns every worker pool."""
        findings = check_paths(
            [str(REPO_ROOT / "src")], select=["RPL011"]
        )
        assert findings == [], "\n".join(str(f) for f in findings)
