"""Unit tests for reprolint pass 3 (artifact durability, RPL017–021)
and the SARIF emitter.

Same conventions as ``test_reprolint.py``: each rule gets a bad fixture
that must fire, a good fixture that must stay silent, and pragma
coverage; scoping is driven by the synthetic ``path`` argument.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (  # noqa: E402
    ALL_RULES,
    DURABILITY_RULES,
    check_durability_paths,
    check_durability_source,
    to_sarif,
)
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.rules import Finding  # noqa: E402
from tools.reprolint.sarif import (  # noqa: E402
    SARIF_TOOL_VERSION,
    SARIF_VERSION,
)

CORE = "src/repro/core/example.py"
DATA = "src/repro/data/example.py"
RUNNER = "src/repro/runner/example.py"
SERVE = "src/repro/serve/example.py"
IOUTIL = "src/repro/ioutil.py"
RUNNER_FS = "src/repro/runner/fs.py"
TOOLS = "tools/example.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestRuleCatalogue:
    def test_durability_rules_registered(self):
        assert DURABILITY_RULES <= set(ALL_RULES)

    def test_durability_rules_are_errors(self):
        from tools.reprolint import RULE_SEVERITY

        for rule in DURABILITY_RULES:
            assert RULE_SEVERITY[rule] == "error"


class TestRPL017RawOpen:
    def test_fires_on_write_mode(self):
        code = "def f(p):\n    open(p, 'w').write('x')\n"
        assert "RPL017" in rules_of(check_durability_source(code, path=CORE))

    def test_fires_on_binary_write_mode(self):
        code = "def f(p):\n    open(p, 'wb').write(b'x')\n"
        assert "RPL017" in rules_of(check_durability_source(code, path=DATA))

    def test_fires_on_exclusive_and_update_modes(self):
        for mode in ("x", "r+"):
            code = f"def f(p):\n    open(p, {mode!r})\n"
            assert "RPL017" in rules_of(
                check_durability_source(code, path=DATA)
            ), mode

    def test_fires_on_path_write_text(self):
        code = "def f(p, s):\n    p.write_text(s, encoding='utf-8')\n"
        assert "RPL017" in rules_of(check_durability_source(code, path=CORE))

    def test_silent_on_append_mode(self):
        """The quarantine log is append-by-design; atomic rewrite would
        lose earlier rows."""
        code = "def f(p):\n    open(p, 'a', encoding='utf-8')\n"
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=DATA)
        )

    def test_silent_on_read_mode(self):
        code = "def f(p):\n    open(p, encoding='utf-8').read()\n"
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=DATA)
        )

    def test_silent_on_dynamic_mode(self):
        code = "def f(p, mode):\n    open(p, mode, encoding='utf-8')\n"
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=DATA)
        )

    def test_silent_on_fs_handle(self):
        """``self.fs.write_text`` is the injectable FileSystem — its
        write is already atomic (it delegates to ioutil)."""
        code = (
            "def f(self, p, s):\n"
            "    self.fs.write_text(p, s)\n"
            "    self.fs.write_bytes(p, b'')\n"
        )
        assert check_durability_source(code, path=RUNNER) == []

    def test_silent_in_sanctioned_writers(self):
        code = "def f(p):\n    open(p, 'wb')\n"
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=IOUTIL)
        )
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=RUNNER_FS)
        )

    def test_silent_outside_repro(self):
        code = "def f(p):\n    open(p, 'w')\n"
        assert check_durability_source(code, path=TOOLS) == []

    def test_pragma_suppresses(self):
        code = (
            "def f(p):\n"
            "    # reprolint: allow-raw-open\n"
            "    open(p, 'w', encoding='utf-8')\n"
        )
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=DATA)
        )


class TestRPL018OpenEncoding:
    def test_fires_on_unpinned_text_open(self):
        code = "def f(p):\n    open(p).read()\n"
        assert "RPL018" in rules_of(check_durability_source(code, path=DATA))

    def test_silent_when_encoding_pinned(self):
        code = "def f(p):\n    open(p, encoding='utf-8').read()\n"
        assert check_durability_source(code, path=DATA) == []

    def test_silent_on_binary_mode(self):
        code = "def f(p):\n    open(p, 'rb').read()\n"
        assert "RPL018" not in rules_of(
            check_durability_source(code, path=DATA)
        )

    def test_csv_module_also_needs_newline(self):
        code = (
            "import csv\n"
            "def f(p):\n"
            "    open(p, encoding='utf-8')\n"
        )
        assert "RPL018" in rules_of(check_durability_source(code, path=DATA))

    def test_csv_module_clean_with_newline(self):
        code = (
            "import csv\n"
            "def f(p):\n"
            "    open(p, encoding='utf-8', newline='')\n"
        )
        assert check_durability_source(code, path=DATA) == []

    def test_non_csv_module_needs_no_newline(self):
        code = "def f(p):\n    open(p, encoding='utf-8')\n"
        assert check_durability_source(code, path=DATA) == []

    def test_pragma_suppresses(self):
        code = "def f(p):\n    open(p)  # reprolint: allow-open-encoding\n"
        assert "RPL018" not in rules_of(
            check_durability_source(code, path=DATA)
        )


class TestRPL019LaxJson:
    def test_fires_on_json_dump_without_allow_nan(self):
        code = (
            "import json\n"
            "def f(doc, fh):\n"
            "    json.dump(doc, fh)\n"
        )
        assert "RPL019" in rules_of(check_durability_source(code, path=DATA))

    def test_fires_on_json_dumps(self):
        code = "import json\ndef f(doc):\n    return json.dumps(doc)\n"
        assert "RPL019" in rules_of(check_durability_source(code, path=CORE))

    def test_fires_on_allow_nan_true(self):
        code = (
            "import json\n"
            "def f(doc):\n"
            "    return json.dumps(doc, allow_nan=True)\n"
        )
        assert "RPL019" in rules_of(check_durability_source(code, path=DATA))

    def test_silent_with_allow_nan_false(self):
        code = (
            "import json\n"
            "def f(doc):\n"
            "    return json.dumps(doc, allow_nan=False)\n"
        )
        assert check_durability_source(code, path=DATA) == []

    def test_silent_on_json_load(self):
        code = "import json\ndef f(fh):\n    return json.load(fh)\n"
        assert check_durability_source(code, path=DATA) == []

    def test_applies_even_in_sanctioned_writers(self):
        """ioutil itself must serialise strictly — the writer exemption
        covers the rename protocol, not JSON discipline."""
        code = "import json\ndef f(doc):\n    return json.dumps(doc)\n"
        assert "RPL019" in rules_of(
            check_durability_source(code, path=IOUTIL)
        )

    def test_pragma_suppresses(self):
        code = (
            "import json\n"
            "def f(doc):\n"
            "    # reprolint: allow-lax-json\n"
            "    return json.dumps(doc)\n"
        )
        assert "RPL019" not in rules_of(
            check_durability_source(code, path=DATA)
        )


class TestRPL020RenameConfinement:
    @pytest.mark.parametrize(
        "call", ["os.replace(a, b)", "os.rename(a, b)", "shutil.move(a, b)"]
    )
    def test_fires_on_rename_outside_ioutil(self, call):
        code = f"import os, shutil\ndef f(a, b):\n    {call}\n"
        assert "RPL020" in rules_of(check_durability_source(code, path=DATA))

    def test_fires_on_tempfile_import(self):
        assert "RPL020" in rules_of(
            check_durability_source("import tempfile\n", path=DATA)
        )
        assert "RPL020" in rules_of(
            check_durability_source(
                "from tempfile import NamedTemporaryFile\n", path=DATA
            )
        )

    def test_silent_in_sanctioned_writers(self):
        code = "import os\ndef f(a, b):\n    os.replace(a, b)\n"
        assert check_durability_source(code, path=IOUTIL) == []
        assert check_durability_source(code, path=RUNNER_FS) == []

    def test_silent_on_os_remove(self):
        code = "import os\ndef f(a):\n    os.remove(a)\n"
        assert check_durability_source(code, path=DATA) == []

    def test_pragma_suppresses(self):
        code = (
            "import os\n"
            "def f(a, b):\n"
            "    os.replace(a, b)  # reprolint: allow-replace\n"
        )
        assert "RPL020" not in rules_of(
            check_durability_source(code, path=DATA)
        )


class TestRPL021ExceptSwallow:
    def test_fires_on_broad_except_pass(self):
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert "RPL021" in rules_of(
            check_durability_source(code, path=RUNNER)
        )

    def test_fires_on_bare_except_continue(self):
        code = (
            "def f(items):\n"
            "    for item in items:\n"
            "        try:\n"
            "            g(item)\n"
            "        except:\n"
            "            continue\n"
        )
        assert "RPL021" in rules_of(check_durability_source(code, path=SERVE))

    def test_fires_on_contextlib_suppress(self):
        code = (
            "import contextlib\n"
            "def f():\n"
            "    with contextlib.suppress(Exception):\n"
            "        g()\n"
        )
        assert "RPL021" in rules_of(
            check_durability_source(code, path=RUNNER)
        )

    def test_fires_in_data_persistence(self):
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException:\n"
            "        pass\n"
        )
        assert "RPL021" in rules_of(
            check_durability_source(code, path="src/repro/data/persistence.py")
        )

    def test_silent_on_narrow_except(self):
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except FileNotFoundError:\n"
            "        pass\n"
        )
        assert check_durability_source(code, path=RUNNER) == []

    def test_silent_when_handler_does_work(self):
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        log()\n"
            "        raise\n"
        )
        assert check_durability_source(code, path=RUNNER) == []

    def test_silent_outside_artifact_modules(self):
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert check_durability_source(code, path=CORE) == []

    def test_pragma_suppresses(self):
        code = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    # reprolint: allow-swallow\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert "RPL021" not in rules_of(
            check_durability_source(code, path=RUNNER)
        )


class TestPassMechanics:
    def test_syntax_error_returns_no_findings(self):
        """Pass 1 owns RPL000; pass 3 must not crash on bad syntax."""
        assert check_durability_source("def f(:\n", path=DATA) == []

    def test_select_excluding_durability_short_circuits(self):
        code = "def f(p):\n    open(p, 'w')\n"
        assert check_durability_source(
            code, path=DATA, select=["RPL001"]
        ) == []

    def test_select_narrows_to_one_rule(self):
        code = "def f(p):\n    open(p, 'w')\n"
        found = check_durability_source(code, path=DATA, select=["RPL017"])
        assert rules_of(found) == ["RPL017"]

    def test_repo_is_clean(self):
        """The gate the CI job enforces: pass 3 over the real tree."""
        findings = check_durability_paths([str(REPO_ROOT / "src")])
        assert findings == [], [str(f) for f in findings]

    def test_cli_runs_all_three_passes_clean(self, capsys):
        root = str(REPO_ROOT / "src")
        assert reprolint_main([root, "--fail-on", "error"]) == 0

    def test_cli_no_durability_skips_pass_3(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "data" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(p):\n    open(p, 'w')\n", encoding="utf-8")
        assert reprolint_main([str(tmp_path), "--no-crossmod"]) == 1
        assert reprolint_main([str(tmp_path), "--no-crossmod",
                               "--no-durability"]) == 0


class TestSarifOutput:
    def _findings(self):
        """One finding from each of the three passes' rule families."""
        return [
            Finding("src/repro/core/a.py", 3, 5, "RPL002",
                    "loop in hot kernel"),
            Finding("src/repro/obs/b.py", 10, 1, "RPL008", "bad metric"),
            Finding("src/repro/data/d.py", 1, 9, "RPL017", "raw open"),
        ]

    def test_document_envelope(self):
        doc = to_sarif([])
        assert doc["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in doc["$schema"]
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert driver["version"] == SARIF_TOOL_VERSION
        assert doc["runs"][0]["results"] == []

    def test_driver_carries_full_rule_catalogue_sorted(self):
        driver = to_sarif([])["runs"][0]["tool"]["driver"]
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ALL_RULES)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert "reprolint:" in rule["help"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning",
            )

    def test_results_from_all_three_passes(self):
        doc = to_sarif(self._findings())
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == [
            "RPL002", "RPL008", "RPL017",
        ]
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        for result in results:
            # ruleIndex must point at the matching catalogue entry.
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].startswith("src/repro/")
            assert loc["region"]["startLine"] >= 1
            assert loc["region"]["startColumn"] >= 1

    def test_unknown_rule_has_no_rule_index(self):
        doc = to_sarif([Finding("src/repro/x.py", 1, 1, "RPL000", "bad")])
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "RPL000"
        assert "ruleIndex" not in result

    def test_severity_maps_to_level(self):
        from tools.reprolint import RULE_SEVERITY

        doc = to_sarif(self._findings())
        for result in doc["runs"][0]["results"]:
            assert result["level"] == RULE_SEVERITY[result["ruleId"]]

    def test_document_is_json_serialisable(self):
        text = json.dumps(to_sarif(self._findings()))
        assert json.loads(text)["version"] == SARIF_VERSION

    def test_cli_format_sarif(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "data" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(p):\n    open(p, 'w')\n", encoding="utf-8")
        rc = reprolint_main(
            [str(tmp_path), "--format", "sarif", "--no-crossmod"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == SARIF_VERSION
        fired = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "RPL017" in fired
