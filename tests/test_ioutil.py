"""The atomic-artifact I/O layer (``repro.ioutil``).

Three contract families (docs/DATA_FORMATS.md "Durability"):

- **atomicity** — a write that fails at any point leaves the previous
  artifact untouched and no ``*.tmp`` debris;
- **fault hooks** — every atomic write announces ``IO_FAULT_POINTS``
  in order, and a hook that raises at any of them upholds atomicity;
- **strict JSON** — ``allow_nan=False`` serialisation, canonical key
  order, and :class:`TornArtifactError` diagnostics that name the
  artifact and the byte offset of the damage (swept here by truncating
  real manifest/diagram artifacts at many offsets).
"""

import json
import math

import pytest

from repro.ioutil import (
    IO_FAULT_POINTS,
    SimulatedCrash,
    TornArtifactError,
    atomic_write,
    atomic_write_bytes,
    atomic_write_text,
    fault_hook,
    file_sha256,
    set_fault_hook,
    strict_json_dump,
    strict_json_dumps,
    strict_json_load,
    strict_json_loads,
)


@pytest.fixture(autouse=True)
def _no_leaked_hook():
    """Every test leaves the module-global hook clear."""
    yield
    assert set_fault_hook(None) is None, "test leaked a fault hook"


class TestAtomicWrite:
    def test_writes_and_returns_target(self, tmp_path):
        target = tmp_path / "a.json"
        out = atomic_write_text(target, "hi")
        assert out is None  # convenience wrappers return None
        assert target.read_text(encoding="utf-8") == "hi"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_fsync_path_also_lands(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write_bytes(target, b"\x00\x01", fsync=True)
        assert target.read_bytes() == b"\x00\x01"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_writer_failure_preserves_original_and_cleans_tmp(
        self, tmp_path
    ):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "original")

        def exploding_writer(tmp):
            tmp.write_text("partial", encoding="utf-8")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            atomic_write(target, exploding_writer)
        assert target.read_text(encoding="utf-8") == "original"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failure_with_no_previous_artifact_leaves_nothing(
        self, tmp_path
    ):
        target = tmp_path / "fresh.txt"
        with pytest.raises(RuntimeError):
            atomic_write(
                target, lambda tmp: (_ for _ in ()).throw(RuntimeError())
            )
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_newline_translation(self, tmp_path):
        """CSV payloads carry ``\\r\\n`` — the bytes must land verbatim
        (the old ``open(newline="")`` guarantee)."""
        target = tmp_path / "rows.csv"
        atomic_write_text(target, "a,b\r\n1,2\r\n")
        assert target.read_bytes() == b"a,b\r\n1,2\r\n"

    def test_zero_byte_write_lands(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, "")
        assert target.read_bytes() == b""

    def test_nested_atomic_write_stages_tmp_tmp(self, tmp_path):
        """A writer that itself writes atomically (save_csd inside a
        runner checkpoint) must compose."""
        target = tmp_path / "outer.json"

        def writer(tmp):
            strict_json_dump(tmp, {"k": 1})

        atomic_write(target, writer)
        assert strict_json_load(target) == {"k": 1}
        assert list(tmp_path.glob("*.tmp*")) == []


class TestFaultHook:
    def test_announces_points_in_order(self, tmp_path):
        events = []
        with fault_hook(lambda point, path: events.append((point, path))):
            atomic_write_text(tmp_path / "a.txt", "x")
        assert [p for p, _ in events] == list(IO_FAULT_POINTS)
        assert all(path == tmp_path / "a.txt" for _, path in events)

    @pytest.mark.parametrize("point", IO_FAULT_POINTS)
    def test_crash_at_every_point_upholds_invariants(self, tmp_path, point):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "old")

        def crash(at_point, path):
            if at_point == point:
                raise SimulatedCrash(at_point)

        with pytest.raises(SimulatedCrash):
            with fault_hook(crash):
                atomic_write_text(target, "new")
        assert list(tmp_path.glob("*.tmp")) == []
        # Before the rename the old artifact survives; at/after it the
        # new one is complete.  Never anything in between.
        assert target.read_text(encoding="utf-8") in ("old", "new")
        expected = "new" if point == "replaced" else "old"
        assert target.read_text(encoding="utf-8") == expected

    def test_crash_after_replace_keeps_new_artifact(self, tmp_path):
        """A hook crash at ``replaced`` is *after* the commit point —
        it must not unlink the freshly installed target."""
        target = tmp_path / "a.txt"

        def crash(point, path):
            if point == "replaced":
                raise SimulatedCrash(point)

        with pytest.raises(SimulatedCrash):
            with fault_hook(crash):
                atomic_write_text(target, "payload")
        assert target.read_text(encoding="utf-8") == "payload"

    def test_scoped_hook_restored_after_crash(self, tmp_path):
        def crash(point, path):
            raise SimulatedCrash(point)

        with pytest.raises(SimulatedCrash):
            with fault_hook(crash):
                atomic_write_text(tmp_path / "a.txt", "x")
        # The context manager restored the previous (None) hook even
        # though the body raised; this write must not crash.
        atomic_write_text(tmp_path / "a.txt", "x")


class TestStrictJson:
    def test_rejects_nan_before_any_file_exists(self, tmp_path):
        target = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            strict_json_dump(target, {"x": float("nan")})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_dumps_sorts_keys_canonically(self):
        assert strict_json_dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_dump_load_round_trip(self, tmp_path):
        target = tmp_path / "doc.json"
        doc = {"z": [1, 2.5], "a": {"nested": None}}
        strict_json_dump(target, doc, indent=2, trailing_newline=True)
        assert target.read_text(encoding="utf-8").endswith("\n")
        assert strict_json_load(target) == doc

    def test_infinity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            strict_json_dump(tmp_path / "doc.json", [math.inf])

    def test_missing_file_raises_file_not_found(self, tmp_path):
        """Absence is a different failure from damage."""
        with pytest.raises(FileNotFoundError):
            strict_json_load(tmp_path / "absent.json")

    def test_empty_file_is_torn(self, tmp_path):
        target = tmp_path / "empty.json"
        target.write_text("", encoding="utf-8")
        with pytest.raises(TornArtifactError) as err:
            strict_json_load(target)
        assert err.value.artifact == str(target)

    def test_invalid_utf8_is_torn(self, tmp_path):
        target = tmp_path / "binary.json"
        target.write_bytes(b'{"a": 1\xff\xfe}')
        with pytest.raises(TornArtifactError, match="not valid UTF-8"):
            strict_json_load(target)

    def test_loads_names_the_source(self):
        with pytest.raises(TornArtifactError) as err:
            strict_json_loads("{broken", name="manifest.json")
        assert err.value.artifact == "manifest.json"
        assert "byte offset" in str(err.value)

    def test_torn_error_is_a_value_error(self):
        """Callers that catch ``ValueError`` around manifest parsing
        keep working."""
        assert issubclass(TornArtifactError, ValueError)


class TestTornArtifactSweep:
    """Truncate real artifacts at many byte offsets: every cut either
    still parses (impossible for a strict doc — truncation always
    breaks it) or raises a diagnosable error naming the file."""

    def _sweep(self, tmp_path, name, payload):
        target = tmp_path / name
        # Cut strictly inside the document: the top-level object closes
        # at its last non-whitespace byte, so every proper prefix is
        # invalid (a cut that only drops the trailing newline is not a
        # torn write).
        raw = payload.encode("utf-8").rstrip()
        offsets = sorted(
            {1, 2, len(raw) // 4, len(raw) // 2, len(raw) - 1}
        )
        for offset in offsets:
            target.write_bytes(raw[:offset])
            with pytest.raises(TornArtifactError) as err:
                strict_json_load(target)
            assert err.value.artifact == str(target)
            assert "torn or corrupt" in str(err.value)

    def test_truncated_manifest(self, tmp_path):
        from repro.runner import Manifest

        manifest = Manifest(config_hash="c" * 64, input_digest="d" * 64)
        self._sweep(
            tmp_path,
            "manifest.json",
            strict_json_dumps(manifest.to_document(), indent=2) + "\n",
        )

    def test_truncated_stream_manifest(self, tmp_path):
        from repro.runner.stream import StreamManifest

        manifest = StreamManifest(
            config_hash="c" * 64, base_csd_sha256="b" * 64
        )
        self._sweep(
            tmp_path,
            "stream_manifest.json",
            strict_json_dumps(manifest.to_document(), indent=2) + "\n",
        )

    def test_truncated_csd(self, tmp_path, small_csd):
        from repro.data.persistence import save_csd

        source = tmp_path / "full" / "csd.json"
        source.parent.mkdir()
        save_csd(source, small_csd)
        self._sweep(tmp_path, "csd.json", source.read_text(encoding="utf-8"))

    def test_load_csd_surfaces_artifact_name(self, tmp_path, small_csd):
        """The error an operator sees from a torn resume names the
        diagram file, not just "invalid JSON"."""
        from repro.data.persistence import load_csd, save_csd

        target = tmp_path / "csd.json"
        save_csd(target, small_csd)
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TornArtifactError, match="csd.json"):
            load_csd(target)


class TestFileSha256:
    def test_matches_hashlib(self, tmp_path):
        import hashlib

        target = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 100
        target.write_bytes(payload)
        assert file_sha256(target) == hashlib.sha256(payload).hexdigest()


class TestProducersAreStrict:
    """The migrated writers actually produce strict, atomic output."""

    def test_save_csd_rejects_nan_popularity(self, tmp_path, small_csd):
        import copy

        from repro.data.persistence import save_csd

        corrupted = copy.copy(small_csd)
        corrupted.popularity = small_csd.popularity.copy()
        corrupted.popularity[0] = float("nan")
        with pytest.raises(ValueError):
            save_csd(tmp_path / "csd.json", corrupted)
        assert list(tmp_path.iterdir()) == []

    def test_geojson_writer_is_strict(self, tmp_path):
        from repro.data.geojson import write_geojson

        collection = {
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {
                "score": float("nan")}, "geometry": None}],
        }
        with pytest.raises(ValueError):
            write_geojson(tmp_path / "bad.geojson", collection)
        assert list(tmp_path.iterdir()) == []

    def test_report_writer_emits_parseable_json(self, tmp_path):
        from repro.eval.reporting import write_report_json

        target = tmp_path / "BENCH_TEST.json"
        write_report_json(target, {"metric": 1.5})
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == {"metric": 1.5}
