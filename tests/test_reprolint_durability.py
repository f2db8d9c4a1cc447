"""Unit tests for reprolint pass 3 (artifact durability, RPL017–021).

Same conventions as ``test_reprolint.py``: each rule gets a bad fixture
that must fire, a good fixture that must stay silent, and pragma
coverage; scoping is driven by the synthetic ``path`` argument.
"""

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
)
from tools.reprolint.cli import main as reprolint_main  # noqa: E402

CORE = "src/repro/core/example.py"
DATA = "src/repro/data/example.py"
RUNNER = "src/repro/runner/example.py"
SERVE = "src/repro/serve/example.py"
IOUTIL = "src/repro/ioutil.py"
RUNNER_COMMIT = "src/repro/runner/commit.py"
TOOLS = "tools/example.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestRuleCatalogue:
    def test_durability_rules_registered(self):
        assert DURABILITY_RULES <= set(ALL_RULES)


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

    def test_fires_on_fs_handle(self):
        """No receiver name is exempt: an ``fs``/``filesystem`` handle
        gets no pass for an in-place rewrite."""
        code = (
            "def f(self, p, s):\n"
            "    self.fs.write_text(p, s)\n"
            "    filesystem.write_bytes(p, b'')\n"
        )
        assert rules_of(check_durability_source(code, path=RUNNER)) == [
            "RPL017",
            "RPL017",
        ]

    def test_silent_in_sanctioned_writers(self):
        code = "def f(p):\n    open(p, 'wb')\n"
        assert "RPL017" not in rules_of(
            check_durability_source(code, path=IOUTIL)
        )
        # ioutil is the only sanctioned writer; the runners' checkpoint
        # module goes through it like every other caller.
        assert "RPL017" in rules_of(
            check_durability_source(code, path=RUNNER_COMMIT)
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
        assert "RPL020" in rules_of(
            check_durability_source(code, path=RUNNER_COMMIT)
        )

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
        assert reprolint_main([root]) == 0

    def test_cli_no_durability_skips_pass_3(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "data" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(p):\n    open(p, 'w')\n", encoding="utf-8")
        assert reprolint_main([str(tmp_path), "--no-crossmod"]) == 1
        assert reprolint_main([str(tmp_path), "--no-crossmod",
                               "--no-durability"]) == 0

