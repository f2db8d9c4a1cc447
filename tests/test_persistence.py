"""Round-trip tests for CSD persistence."""

import copy
import json

import numpy as np
import pytest

from repro.core.csd import UNASSIGNED
from repro.core.incremental import IncrementalCSD
from repro.core.recognition import CSDRecognizer
from repro.data.persistence import (
    _check_consistency,
    load_csd,
    read_csd,
    save_csd,
)
from repro.data.poi import POI
from repro.ioutil import TornArtifactError
from tests.conftest import diagram_key


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


class TestPoiSegments:
    """Format 3: the POI table, popularity included, lives in
    content-addressed segment files the diagram document lists in
    order."""

    @staticmethod
    def _grown(small_csd, tmp_path):
        """Save a diagram three times as it grows by two POI batches,
        each save passing the segments of the one before."""
        updater = IncrementalCSD(small_csd)
        extra = [
            POI(10**6 + k, p.lon + 1e-4, p.lat, p.major, p.minor, f"new{k}")
            for k, p in enumerate(small_csd.pois[:40])
        ]
        path = tmp_path / "grown" / "csd.json"
        path.parent.mkdir()
        segments = save_csd(path, small_csd)
        for batch in (extra[:25], extra[25:]):
            updater.add_pois(batch)
            segments = save_csd(path, updater.diagram(), segments)
        return path, segments, updater.diagram()

    def test_plain_save_writes_one_segment(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        segments = save_csd(path, small_csd)
        assert [s.count for s in segments] == [small_csd.n_pois]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["csd.json", segments[0].file]
        )
        assert segments[0].file == f"pois-{segments[0].sha256}.json"
        document = json.loads(path.read_text())
        assert "pois" not in document
        assert document["format_version"] == 3

    def test_popularity_lives_in_the_segment_rows(self, small_csd, tmp_path):
        path = tmp_path / "csd.json"
        segments = save_csd(path, small_csd)
        assert "popularity" not in json.loads(path.read_text())
        rows = json.loads((tmp_path / segments[0].file).read_text())
        assert [row[:6] for row in rows] == [
            [p.poi_id, p.lon, p.lat, p.major, p.minor, p.name]
            for p in small_csd.pois
        ]
        assert [row[6] for row in rows] == small_csd.popularity.tolist()
        loaded = load_csd(path)
        assert loaded.popularity.dtype == np.float64
        assert np.array_equal(loaded.popularity, small_csd.popularity)

    def test_extending_save_writes_only_new_rows(self, small_csd, tmp_path):
        """An extending save's one new segment holds just the appended
        POIs and their popularity; the load rebuilds the exact array."""
        path = tmp_path / "csd.json"
        committed = save_csd(path, small_csd)
        grown = copy.copy(small_csd)
        extra = [
            POI(10**6 + k, p.lon + 1e-4, p.lat, p.major, p.minor, f"new{k}")
            for k, p in enumerate(small_csd.pois[:3])
        ]
        extra_popularity = [0.0, 2.5, 1.0 / 3.0]
        grown.pois = small_csd.pois + extra
        grown.poi_xy = np.vstack(
            [small_csd.poi_xy, small_csd.projection.to_meters_array(
                [(p.lon, p.lat) for p in extra]
            )]
        )
        grown.popularity = np.concatenate(
            [small_csd.popularity, extra_popularity]
        )
        grown.unit_of = np.concatenate(
            [small_csd.unit_of, np.full(3, UNASSIGNED, dtype=np.int64)]
        )
        segments = save_csd(path, grown, committed)
        assert segments[:1] == committed and len(segments) == 2
        rows = json.loads((tmp_path / segments[1].file).read_text())
        assert rows == [
            [p.poi_id, p.lon, p.lat, p.major, p.minor, p.name, pop]
            for p, pop in zip(extra, extra_popularity)
        ]
        loaded = load_csd(path)
        assert np.array_equal(loaded.popularity, grown.popularity)
        assert loaded.pois == grown.pois

    def test_several_segments_load_like_one(self, small_csd, tmp_path):
        path, segments, final = self._grown(small_csd, tmp_path)
        assert [s.count for s in segments] == [small_csd.n_pois, 25, 15]
        assert len(list(path.parent.glob("pois-*.json"))) == 3
        single = tmp_path / "single" / "csd.json"
        single.parent.mkdir()
        save_csd(single, final)
        loaded, listed = read_csd(path)
        assert listed == segments
        assert diagram_key(loaded) == diagram_key(load_csd(single))
        assert diagram_key(loaded) == diagram_key(final)

    def test_save_without_new_pois_writes_no_segment(
        self, small_csd, tmp_path
    ):
        path = tmp_path / "csd.json"
        segments = save_csd(path, small_csd)
        before = sorted(tmp_path.iterdir())
        assert save_csd(path, small_csd, segments) == segments
        assert sorted(tmp_path.iterdir()) == before

    def test_committed_beyond_diagram_rejected(self, small_csd, tmp_path):
        segments = save_csd(tmp_path / "csd.json", small_csd)
        with pytest.raises(ValueError, match="committed segments"):
            save_csd(tmp_path / "csd.json", small_csd, segments * 2)

    def test_tampered_segment_named(self, small_csd, tmp_path):
        path, segments, _ = self._grown(small_csd, tmp_path)
        victim = path.parent / segments[1].file
        victim.write_text(victim.read_text().replace("new1", "newX"))
        with pytest.raises(TornArtifactError, match=segments[1].file):
            load_csd(path)

    def test_missing_segment_named(self, small_csd, tmp_path):
        path, segments, _ = self._grown(small_csd, tmp_path)
        (path.parent / segments[2].file).unlink()
        with pytest.raises(TornArtifactError, match="missing") as err:
            load_csd(path)
        assert err.value.artifact == str(path.parent / segments[2].file)

    def test_format_1_document_refused_with_resave_hint(
        self, small_csd, tmp_path
    ):
        path = tmp_path / "csd.json"
        save_csd(path, small_csd)
        document = json.loads(path.read_text())
        del document["poi_segments"]
        document["format_version"] = 1
        document["pois"] = [
            [p.poi_id, p.lon, p.lat, p.major, p.minor, p.name]
            for p in small_csd.pois
        ]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="version 1") as err:
            load_csd(path)
        assert "re-save" in str(err.value)

    def test_format_2_document_refused_with_resave_hint(
        self, small_csd, tmp_path
    ):
        """Format 2 kept popularity in the document and six-column
        segment rows; it is refused, not misread."""
        path = tmp_path / "csd.json"
        segments = save_csd(path, small_csd)
        document = json.loads(path.read_text())
        document["format_version"] = 2
        document["popularity"] = small_csd.popularity.tolist()
        rows = json.loads((tmp_path / segments[0].file).read_text())
        (tmp_path / segments[0].file).write_text(
            json.dumps([row[:6] for row in rows])
        )
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="version 2") as err:
            load_csd(path)
        assert "re-save" in str(err.value)


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
        assert list(tmp_path.iterdir()) == [], "no segment either"

    def test_first_offender_named(self, small_csd, tmp_path):
        corrupted = copy.copy(small_csd)
        corrupted.popularity = small_csd.popularity.copy()
        corrupted.popularity[5] = float("nan")
        corrupted.popularity[1] = float("-inf")
        with pytest.raises(ValueError, match="POI index 1"):
            save_csd(tmp_path / "csd.json", corrupted)

    def test_rejected_in_an_extending_save(self, small_csd, tmp_path):
        """A NaN among the POIs an extending save would write is named
        before the new segment or document exists."""
        path = tmp_path / "csd.json"
        committed = save_csd(path, small_csd)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        updater = IncrementalCSD(small_csd)
        updater.add_pois(
            [POI(10**6 + k, 150.0, -30.0, "Industry", "Factory")
             for k in range(2)]
        )
        grown = updater.diagram()
        grown.popularity[small_csd.n_pois + 1] = float("nan")
        with pytest.raises(
            ValueError, match=f"POI index {small_csd.n_pois + 1}"
        ):
            save_csd(path, grown, committed)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


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
