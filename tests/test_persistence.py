"""Round-trip tests for CSD persistence."""

import copy
import json

import numpy as np
import pytest

from repro.core.csd import UNASSIGNED
from repro.core.incremental import IncrementalCSD
from repro.core.recognition import CSDRecognizer
from repro.data.persistence import _check_consistency, load_csd, save_csd
from repro.data.poi import POI


class TestRoundTrip:
    def test_structure_preserved(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        loaded = load_csd(path)
        assert loaded.n_pois == small_csd.n_pois
        assert loaded.n_units == small_csd.n_units
        assert loaded.tag_level == small_csd.tag_level
        assert np.array_equal(loaded.unit_of, small_csd.unit_of)
        assert np.allclose(loaded.popularity, small_csd.popularity)
        assert loaded.pois == small_csd.pois

    def test_units_preserved(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        loaded = load_csd(path)
        for a, b in zip(loaded.units, small_csd.units):
            assert a.unit_id == b.unit_id
            assert a.poi_indices == b.poi_indices
            assert a.semantic_distribution == pytest.approx(
                b.semantic_distribution
            )

    def test_recognition_identical_after_reload(
        self, small_csd, small_trajectories, small_csd_config, tmp_path
    ):
        """The loaded diagram must recognise exactly like the original."""
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        loaded = load_csd(path)
        original = CSDRecognizer(small_csd, small_csd_config.r3sigma_m)
        reloaded = CSDRecognizer(loaded, small_csd_config.r3sigma_m)
        for st in small_trajectories[:50]:
            for sp in st.stay_points:
                assert original.recognize_point(sp) == \
                    reloaded.recognize_point(sp)


class TestDtypeContract:
    def test_round_trip_pins_int64_unit_of(self, small_csd, tmp_path):
        """JSON carries no dtype; the loader must restore int64 even on
        platforms where ``dtype=int`` means int32 (Windows)."""
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        loaded = load_csd(path)
        assert loaded.unit_of.dtype == np.int64

    def test_consistency_check_rejects_narrow_dtype(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        loaded = load_csd(path)
        loaded.unit_of = loaded.unit_of.astype(np.int32)
        with pytest.raises(ValueError, match="int64"):
            _check_consistency(loaded)


class TestNonFinitePopularity:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejected_with_poi_index(self, small_csd, tmp_path, value):
        corrupted = copy.copy(small_csd)
        corrupted.popularity = small_csd.popularity.copy()
        corrupted.popularity[3] = value
        path = tmp_path / "csd.json"
        with pytest.raises(ValueError, match="POI index 3"):
            save_csd(path, corrupted)
        assert not path.exists(), "no partial file on rejection"

    def test_first_offender_named(self, small_csd, tmp_path):
        corrupted = copy.copy(small_csd)
        corrupted.popularity = small_csd.popularity.copy()
        corrupted.popularity[5] = float("nan")
        corrupted.popularity[1] = float("-inf")
        with pytest.raises(ValueError, match="POI index 1"):
            save_csd(tmp_path / "csd.json", corrupted)


class TestPendingPois:
    def test_round_trip_with_unassigned_pois(self, small_csd, tmp_path):
        """A diagram holding UNASSIGNED (pending) POIs from the
        incremental updater must survive save/load unchanged."""
        updater = IncrementalCSD(small_csd)
        # Far outside the diagram extent: guaranteed pending.
        assert updater.add_poi(
            POI(10**6, 150.0, -30.0, "Industry", "Factory")
        ) == UNASSIGNED
        updated = updater.diagram()
        assert updated.unit_of[-1] == UNASSIGNED

        path = tmp_path / "csd.json"
        save_csd(path, updated)
        loaded = load_csd(path)
        assert loaded.n_pois == updated.n_pois
        assert loaded.unit_of[-1] == UNASSIGNED
        assert np.array_equal(loaded.unit_of, updated.unit_of)
        assert loaded.unit_of.dtype == np.int64


class TestCorruptArtifacts:
    def test_unknown_version_rejected(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        document = json.loads(path.read_text())
        document["format_version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="format version"):
            load_csd(path)

    def test_inconsistent_membership_rejected(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        document = json.loads(path.read_text())
        document["units"][0]["poi_indices"][0] = 10**9  # out of range
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="outside the dataset"):
            load_csd(path)

    def test_membership_disagreement_rejected(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        document = json.loads(path.read_text())
        victim = document["units"][0]["poi_indices"][0]
        document["unit_of"][victim] = -1
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="disagrees"):
            load_csd(path)


class TestAtomicSave:
    def test_no_tmp_sibling_left_behind(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_during_replace_preserves_original(
        self, small_csd, tmp_path, monkeypatch
    ):
        """A save that dies at the final rename must leave the previous
        artifact untouched and no tmp debris — the old non-atomic write
        truncated the target before writing, so a crash destroyed it."""
        from repro.ioutil import SimulatedCrash

        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        original = path.read_text()

        def exploding_replace(src, dst, **kwargs):
            raise SimulatedCrash("power loss at rename")

        monkeypatch.setattr("repro.ioutil.os.replace", exploding_replace)
        with pytest.raises(SimulatedCrash):
            save_csd(path, small_csd)
        monkeypatch.undo()
        assert path.read_text() == original, "original artifact intact"
        assert list(tmp_path.glob("*.tmp")) == [], "tmp file cleaned up"
        # And the surviving artifact still loads.
        assert load_csd(path).n_pois == small_csd.n_pois

    def test_crash_mid_write_preserves_original(
        self, small_csd, tmp_path, monkeypatch
    ):
        """Dying while the tmp file is being written must not corrupt
        the published artifact either."""
        import builtins

        from repro.ioutil import SimulatedCrash

        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        original = path.read_text()

        real_open = builtins.open

        def exploding_open(file, *args, **kwargs):
            if str(file).endswith(".tmp"):
                raise SimulatedCrash("disk full opening tmp")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", exploding_open)
        with pytest.raises(SimulatedCrash):
            save_csd(path, small_csd)
        monkeypatch.undo()
        assert path.read_text() == original
        assert list(tmp_path.glob("*.tmp")) == []

    def test_validation_failure_never_touches_target(
        self, small_csd, tmp_path
    ):
        """Serialisation-time rejection happens before any file I/O."""
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        original = path.read_text()
        corrupted = copy.copy(small_csd)
        corrupted.popularity = small_csd.popularity.copy()
        corrupted.popularity[0] = float("nan")
        with pytest.raises(ValueError):
            save_csd(path, corrupted)
        assert path.read_text() == original
        assert list(tmp_path.glob("*.tmp")) == []
