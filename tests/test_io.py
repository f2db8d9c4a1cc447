"""Round-trip tests for dataset CSV I/O."""

import pytest

from repro import obs
from repro.data.io import (
    MalformedRowError,
    iter_trips,
    read_pois,
    read_semantic_trajectories,
    write_pois,
    write_semantic_trajectories,
    write_trips,
)
from repro.data.poi import POI
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.obs import MetricsRegistry


class TestPOIRoundTrip:
    def test_roundtrip(self, tmp_path, small_pois):
        path = tmp_path / "pois.csv"
        write_pois(path, small_pois[:100])
        back = read_pois(path)
        assert back == small_pois[:100]

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_pois(path, [])
        assert read_pois(path) == []

    def test_non_ascii_names_roundtrip(self, tmp_path):
        """UTF-8 is pinned on every open(): 上海 must survive the
        round-trip on any platform, not just where utf-8 is default."""
        pois = [
            POI(0, 121.47, 31.23, "Restaurant", "Noodle House", "兰州拉面·静安店"),
            POI(1, 121.48, 31.24, "Tourism", "Museum", "Musée d'Orsay Café"),
        ]
        path = tmp_path / "pois.csv"
        write_pois(path, pois)
        assert read_pois(path) == pois
        raw = path.read_bytes()
        assert "兰州拉面".encode("utf-8") in raw

    GOOD_ROW = "0,121.47,31.23,Restaurant,Cafe,a\r\n"

    @pytest.mark.parametrize(
        "bad_row, reason",
        [
            ("1,nan,31.23,Restaurant,Cafe,b", "non-finite"),
            ("1,121.47,inf,Restaurant,Cafe,b", "non-finite"),
            ("1,121.47,95.0,Restaurant,Cafe,b", "latitude"),
            ("1,-200.0,31.23,Restaurant,Cafe,b", "longitude"),
            ("1,abc,31.23,Restaurant,Cafe,b", "invalid float"),
            ("x,121.47,31.23,Restaurant,Cafe,b", "invalid integer poi_id"),
            ("1,121.47,31.23,Restaurant", "missing column"),
        ],
    )
    def test_bad_record_raises_with_row_number(self, tmp_path, bad_row, reason):
        path = tmp_path / "pois.csv"
        path.write_text(
            "poi_id,lon,lat,major,minor,name\r\n" + self.GOOD_ROW
            + bad_row + "\r\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match=reason) as info:
            read_pois(path)
        assert info.value.row.row_number == 2
        assert info.value.row.raw == bad_row

    def test_missing_column_raises_malformed_row(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text(
            "poi_id,lon,lat,major,minor\r\n0,121.47,31.23,Restaurant,Cafe\r\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match="missing column 'name'") as info:
            read_pois(path)
        assert info.value.row.row_number == 1


class TestTripRoundTrip:
    def test_roundtrip(self, tmp_path, small_taxi):
        path = tmp_path / "trips.csv"
        write_trips(path, small_taxi.trips[:200])
        back = list(iter_trips(path))
        assert back == small_taxi.trips[:200]

    def test_anonymous_passenger_roundtrip(self, tmp_path, small_taxi):
        anon = [t for t in small_taxi.trips if t.passenger_id is None][:5]
        path = tmp_path / "anon.csv"
        write_trips(path, anon)
        back = list(iter_trips(path))
        assert all(t.passenger_id is None for t in back)


class TestTrajectoryRoundTrip:
    def test_roundtrip_with_semantics(self, tmp_path):
        st = SemanticTrajectory(
            3,
            [
                StayPoint(121.0, 31.0, 100.0, frozenset({"Shop & Market"})),
                StayPoint(121.1, 31.1, 200.0, frozenset({"A", "B"})),
                StayPoint(121.2, 31.2, 300.0),
            ],
        )
        path = tmp_path / "st.csv"
        write_semantic_trajectories(path, [st])
        back = read_semantic_trajectories(path)
        assert len(back) == 1
        assert back[0].traj_id == 3
        assert back[0].stay_points == st.stay_points

    def test_multiple_trajectories_keep_order(self, tmp_path):
        sts = [
            SemanticTrajectory(
                i, [StayPoint(121.0 + i, 31.0, float(k)) for k in range(3)]
            )
            for i in range(4)
        ]
        path = tmp_path / "many.csv"
        write_semantic_trajectories(path, sts)
        back = read_semantic_trajectories(path)
        assert [st.traj_id for st in back] == [0, 1, 2, 3]
        assert all(len(st) == 3 for st in back)

    def test_pipe_in_tag_roundtrips(self, tmp_path):
        """A tag containing the ``|`` separator must not split in two on
        read; the writer backslash-escapes it."""
        tags = frozenset({"Shop | Market", "A|B|C", "back\\slash", "plain"})
        st = SemanticTrajectory(0, [StayPoint(121.0, 31.0, 10.0, tags)])
        path = tmp_path / "pipe.csv"
        write_semantic_trajectories(path, [st])
        back = read_semantic_trajectories(path)
        assert back[0].stay_points[0].semantics == tags

    def test_empty_trajectory_survives_roundtrip(self, tmp_path):
        """Zero-stay trajectories must not vanish: trajectory counts are
        part of the persisted contract."""
        sts = [
            SemanticTrajectory(0, [StayPoint(121.0, 31.0, 1.0)]),
            SemanticTrajectory(1, []),
            SemanticTrajectory(2, [StayPoint(121.1, 31.1, 2.0)]),
        ]
        path = tmp_path / "with-empty.csv"
        write_semantic_trajectories(path, sts)
        back = read_semantic_trajectories(path)
        assert [st.traj_id for st in back] == [0, 1, 2]
        assert [len(st.stay_points) for st in back] == [1, 0, 1]

    def test_scattered_rows_reassemble_in_order(self, tmp_path):
        """The whole-file loader tolerates interleaved trajectories."""
        path = tmp_path / "scattered.csv"
        path.write_text(
            "traj_id,order,lon,lat,t,semantics\n"
            "1,1,121.1,31.1,11.0,\n"
            "0,0,121.0,31.0,0.0,\n"
            "1,0,121.2,31.2,10.0,\n"
            "0,1,121.3,31.3,1.0,\n",
            encoding="utf-8",
        )
        back = read_semantic_trajectories(path)
        assert [st.traj_id for st in back] == [0, 1]
        assert [sp.t for sp in back[0].stay_points] == [0.0, 1.0]
        assert [sp.t for sp in back[1].stay_points] == [10.0, 11.0]


class TestByteOrderMark:
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark;
    the readers must see the first header name through it."""

    @staticmethod
    def with_bom(path):
        bom = path.with_name("bom-" + path.name)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return bom

    def test_poi_file(self, tmp_path, small_pois):
        path = tmp_path / "pois.csv"
        write_pois(path, small_pois[:50])
        assert read_pois(self.with_bom(path)) == read_pois(path)

    def test_trip_file(self, tmp_path, small_taxi):
        path = tmp_path / "trips.csv"
        write_trips(path, small_taxi.trips[:50])
        bom = self.with_bom(path)
        assert list(iter_trips(bom)) == list(iter_trips(path))


def _trip_rows(rows):
    header = ("trip_id,passenger_id,pickup_lon,pickup_lat,pickup_t,"
              "dropoff_lon,dropoff_lat,dropoff_t,pickup_truth,dropoff_truth")
    return header + "\n" + "\n".join(rows) + "\n"


GOOD_ROW = "0,,121.0,31.0,100.0,121.1,31.1,200.0,Residence,Shop & Market"


class TestStreamingValidation:
    @pytest.mark.parametrize(
        "bad_row, reason_fragment",
        [
            ("1,,abc,31.0,100.0,121.0,31.0,200.0,R,R", "invalid float"),
            ("1,,121.0,31.0,100.0,121.0,31.0,xyz,R,R", "invalid float"),
            ("1,,121.0,nan,100.0,121.0,31.0,200.0,R,R", "non-finite"),
            ("1,,121.0,31.0,inf,121.0,31.0,200.0,R,R", "non-finite"),
            ("1,,200.5,31.0,100.0,121.0,31.0,200.0,R,R", "out of range"),
            ("1,,121.0,95.0,100.0,121.0,31.0,200.0,R,R", "out of range"),
            ("1,,121.0,31.0,500.0,121.0,31.0,100.0,R,R", "negative dwell"),
            ("1,,121.0,31.0,100.0,121.0,31.0,200.0,R", "missing column"),
            ("not-an-int,,121.0,31.0,100.0,121.0,31.0,200.0,R,R",
             "invalid integer trip_id"),
        ],
    )
    def test_bad_trip_rows_quarantined_with_reason(
        self, tmp_path, bad_row, reason_fragment
    ):
        path = tmp_path / "trips.csv"
        path.write_text(
            _trip_rows([GOOD_ROW, bad_row]), encoding="utf-8"
        )
        quarantined = []
        trips = list(iter_trips(path, on_bad_row=quarantined.append))
        assert [t.trip_id for t in trips] == [0]
        assert len(quarantined) == 1
        assert quarantined[0].row_number == 2
        assert reason_fragment in quarantined[0].reason

    def test_strict_mode_raises_with_row_context(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            _trip_rows([GOOD_ROW, GOOD_ROW.replace("121.0", "bogus")]),
            encoding="utf-8",
        )
        with pytest.raises(MalformedRowError, match="row 2"):
            list(iter_trips(path))

    def test_quarantined_raw_is_the_row_as_written(self, tmp_path):
        """``raw`` holds a short or long row's own fields, and a short
        row names the first column it lacks in validation order."""
        short = "1,,121.0,31.0,100.0,121.0"
        long = "x,,121.0,31.0,100.0,121.0,31.0,200.0,R,R,extra"
        path = tmp_path / "trips.csv"
        path.write_text(_trip_rows([short, long]), encoding="utf-8")
        quarantined = []
        assert list(iter_trips(path, on_bad_row=quarantined.append)) == []
        assert [(q.row_number, q.reason, q.raw) for q in quarantined] == [
            (1, "missing column 'dropoff_lat'", short),
            (2, "invalid integer trip_id 'x'", long),
        ]

    def test_equal_timestamps_are_a_legal_dwell(self, tmp_path):
        row = "0,,121.0,31.0,100.0,121.1,31.1,100.0,R,R"
        path = tmp_path / "trips.csv"
        path.write_text(_trip_rows([row]), encoding="utf-8")
        trips = list(iter_trips(path))
        assert trips[0].duration_s == 0.0

    def test_ingest_counters_emitted(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(
            _trip_rows(
                [GOOD_ROW, GOOD_ROW.replace("121.0", "zzz"),
                 GOOD_ROW.replace("0,,", "2,,")]
            ),
            encoding="utf-8",
        )
        reg = MetricsRegistry(enabled=True)
        old = obs.set_registry(reg)
        try:
            sink = []
            trips = list(iter_trips(path, on_bad_row=sink.append))
        finally:
            obs.set_registry(old)
        assert len(trips) == 2
        counters = reg.snapshot()["counters"]
        assert counters["ingest.rows"] == 3
        assert counters["ingest.quarantined"] == 1

    def test_streaming_and_eager_readers_agree(self, tmp_path, small_taxi):
        path = tmp_path / "trips.csv"
        write_trips(path, small_taxi.trips[:100])
        stream = iter_trips(path)
        one_by_one = [next(stream) for _ in range(100)]
        assert next(stream, None) is None
        assert one_by_one == list(iter_trips(path)) == small_taxi.trips[:100]

    def test_iter_trips_is_lazy(self, tmp_path, small_taxi):
        """The first trip is yielded before the malformed last row is
        reached."""
        path = tmp_path / "trips.csv"
        write_trips(path, small_taxi.trips[:100])
        with open(path, "a", encoding="utf-8", newline="") as f:
            f.write("not-an-int,,121.0,31.0,100.0,121.0,31.0,200.0,R,R\r\n")
        stream = iter_trips(path)
        assert next(stream) == small_taxi.trips[0]
        with pytest.raises(MalformedRowError, match="row 101"):
            list(stream)
