"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    rc = main([
        "simulate", "--out", str(d), "--extent-m", "3000",
        "--pois", "2000", "--passengers", "40", "--days", "3",
    ])
    assert rc == 0
    return d


class TestSimulate:
    def test_writes_csvs(self, data_dir):
        assert (data_dir / "pois.csv").exists()
        assert (data_dir / "trips.csv").exists()
        header = (data_dir / "pois.csv").read_text().splitlines()[0]
        assert header.startswith("poi_id,")


class TestBuildCSD:
    def test_build_and_geojson(self, data_dir, tmp_path, capsys):
        out = tmp_path / "csd.geojson"
        rc = main([
            "build-csd", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
            "--geojson", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "n_units" in captured
        collection = json.loads(out.read_text())
        assert collection["type"] == "FeatureCollection"
        assert collection["features"]


class TestPersistedPipeline:
    def test_save_then_reuse_csd(self, data_dir, tmp_path, capsys):
        saved = tmp_path / "csd.json"
        svg = tmp_path / "csd.svg"
        rc = main([
            "build-csd", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
            "--save", str(saved), "--svg", str(svg),
        ])
        assert rc == 0
        assert saved.exists()
        assert svg.read_text().startswith("<svg")

        pattern_svg = tmp_path / "patterns.svg"
        rc = main([
            "mine", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
            "--support", "8", "--load-csd", str(saved),
            "--svg", str(pattern_svg),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "patterns" in out


class TestMine:
    def test_mine_writes_outputs(self, data_dir, tmp_path, capsys):
        geojson = tmp_path / "patterns.geojson"
        table = tmp_path / "patterns.csv"
        rc = main([
            "mine", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
            "--support", "8",
            "--geojson", str(geojson), "--csv", str(table),
        ])
        assert rc == 0
        assert "patterns" in capsys.readouterr().out
        assert geojson.exists() and table.exists()
        lines = table.read_text().splitlines()
        assert lines[0].startswith("route,support")

    @pytest.mark.parametrize("approach", ["CSD-PM", "ROI-TPattern"])
    def test_empty_trips_mine_nothing(
        self, data_dir, tmp_path, capsys, approach
    ):
        trips = tmp_path / "trips.csv"
        header = (data_dir / "trips.csv").read_text().splitlines()[0]
        trips.write_text(header + "\n")
        rc = main([
            "mine", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(trips), "--approach", approach,
        ])
        assert rc == 0
        assert f"{approach}: 0 patterns" in capsys.readouterr().out

    def test_unknown_approach_fails(self, data_dir, capsys):
        rc = main([
            "mine", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
            "--approach", "CSD-Magic",
        ])
        assert rc == 2
        assert "unknown approach" in capsys.readouterr().err


class TestMetricsJson:
    def test_mine_writes_metrics_snapshot(self, data_dir, tmp_path, capsys):
        from repro import obs

        snapshot_path = tmp_path / "metrics.json"
        rc = main([
            "--metrics-json", str(snapshot_path),
            "mine", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
            "--support", "8",
        ])
        assert rc == 0
        assert "metrics snapshot" in capsys.readouterr().out
        snapshot = json.loads(snapshot_path.read_text())
        assert snapshot["enabled"] is True
        for stage in (
            "pipeline.constructor",
            "pipeline.recognition",
            "pipeline.extraction",
        ):
            assert stage in snapshot["timers"]
        assert snapshot["counters"]["constructor.pois.total"] > 0
        # The flag is per-invocation: the registry is off again.
        assert not obs.get_registry().enabled

    def test_registry_stays_disabled_without_flag(self, data_dir):
        from repro import obs

        rc = main([
            "build-csd", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"),
        ])
        assert rc == 0
        assert not obs.get_registry().enabled
        assert obs.report()["counters"] == {}


class TestRun:
    """The fault-tolerant checkpointed pipeline subcommand."""

    def test_run_quarantines_and_resumes(self, data_dir, tmp_path, capsys):
        trips = tmp_path / "trips.csv"
        lines = (data_dir / "trips.csv").read_text(
            encoding="utf-8"
        ).splitlines()
        lines.insert(
            3, "9999,,bogus,31.0,0.0,121.0,31.0,60.0,Residence,Residence"
        )
        trips.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_dir = tmp_path / "run"
        argv = [
            "run", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(trips), "--run-dir", str(run_dir),
            "--support", "10",
        ]
        rc = main(argv)
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 rows quarantined" in out
        first_patterns = out[out.index("route"):]
        quarantine = (run_dir / "quarantine.csv").read_text(
            encoding="utf-8"
        )
        assert "invalid float" in quarantine
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "csd.json").exists()
        assert (run_dir / "recognized.csv").exists()

        rc = main(argv + ["--resume"])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert resumed[resumed.index("route"):] == first_patterns

    def test_resume_quarantines_each_row_once(
        self, data_dir, tmp_path, capsys
    ):
        """``--resume`` re-ingests the whole trips file; the bad row it
        reads again must not be appended to the quarantine twice."""
        trips = tmp_path / "trips.csv"
        lines = (data_dir / "trips.csv").read_text(
            encoding="utf-8"
        ).splitlines()
        lines.insert(20, "9999,,121.0,31.0,0.0,121.0")
        trips.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_dir = tmp_path / "run"
        argv = [
            "run", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(trips), "--run-dir", str(run_dir),
            "--support", "10",
        ]
        assert main(argv) == 0
        first = (run_dir / "quarantine.csv").read_bytes()
        assert main(argv + ["--resume"]) == 0
        # The summary line still counts the row this invocation saw.
        assert "1 rows quarantined" in capsys.readouterr().out
        assert (run_dir / "quarantine.csv").read_bytes() == first
        assert first.count(b"\n") == 2  # header + one row

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["run", "--pois", "p.csv", "--trips", "t.csv",
             "--run-dir", "d"]
        )
        assert args.resume is False
        assert not hasattr(args, "chunk_size")
        assert args.quarantine is None


class TestEvaluate:
    def test_one_diagram_same_table(self, data_dir, monkeypatch, capsys):
        """``repro evaluate`` builds the diagram once for all three CSD
        approaches and prints the table that building it per approach,
        measured on a projection anchored at the POIs, gives."""
        from repro.baselines import registry
        from repro.baselines.registry import APPROACHES, run_approach
        from repro.cli import _build_configs
        from repro.data.io import iter_trips, read_pois
        from repro.data.taxi import trips_to_mining_trajectories
        from repro.eval.metrics import summarize_patterns
        from repro.eval.reporting import format_table
        from repro.geo.projection import LocalProjection

        argv = [
            "evaluate", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"), "--support", "8",
        ]
        args = build_parser().parse_args(argv)
        _build_configs(args)
        pois = read_pois(args.pois)
        trajectories = trips_to_mining_trajectories(list(iter_trips(args.trips)))
        projection = LocalProjection.for_points([(p.lon, p.lat) for p in pois])
        expected = format_table(
            ["approach", "#patterns", "coverage", "avg sparsity", "avg consistency"],
            [
                summarize_patterns(
                    approach.name,
                    run_approach(
                        approach, pois, trajectories,
                        args.csd_config, args.mining_config,
                    ),
                    projection,
                ).as_row()
                for approach in APPROACHES
            ],
        )

        builds = []
        real_build = registry.build_csd

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr("repro.cli.build_csd", counting_build)
        monkeypatch.setattr(registry, "build_csd", counting_build)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"
        assert len(builds) == 1


def with_bad_row(source, target, row):
    """Copy ``source`` with ``row`` inserted as data row 3."""
    lines = source.read_text(encoding="utf-8").splitlines()
    lines.insert(3, row)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


class TestMalformedInput:
    """A malformed row that no quarantine takes ends the command with
    exit 1 and one stderr line naming the file, row and reason."""

    BAD_POI = "77,abc,31.0,Restaurant,Cafe,x"
    BAD_TRIP = "9999,,121.0,31.0,500.0,121.0,31.0,100.0,R,R"

    @pytest.fixture(scope="class")
    def base_csd(self, data_dir, tmp_path_factory):
        saved = tmp_path_factory.mktemp("cli-base") / "csd.json"
        assert main([
            "build-csd", "--pois", str(data_dir / "pois.csv"),
            "--trips", str(data_dir / "trips.csv"), "--save", str(saved),
        ]) == 0
        return saved

    @pytest.mark.parametrize("command", ["build-csd", "mine", "evaluate"])
    @pytest.mark.parametrize(
        "bad_file, reason",
        [
            ("pois", "invalid float 'abc' in column 'lon'"),
            ("trips", "negative dwell"),
        ],
    )
    def test_batch_commands(
        self, data_dir, tmp_path, capsys, command, bad_file, reason
    ):
        paths = {
            "pois": data_dir / "pois.csv", "trips": data_dir / "trips.csv"
        }
        paths[bad_file] = with_bad_row(
            paths[bad_file], tmp_path / f"bad-{bad_file}.csv",
            self.BAD_POI if bad_file == "pois" else self.BAD_TRIP,
        )
        rc = main([
            command, "--pois", str(paths["pois"]),
            "--trips", str(paths["trips"]),
        ])
        self.assert_reported(rc, capsys, paths[bad_file], reason)

    @pytest.mark.parametrize("command", ["run", "stream"])
    def test_runners_on_bad_pois(
        self, data_dir, base_csd, tmp_path, capsys, command
    ):
        pois = with_bad_row(
            data_dir / "pois.csv", tmp_path / "bad-pois.csv", self.BAD_POI
        )
        argv = [
            command, "--pois", str(pois),
            "--trips", str(data_dir / "trips.csv"),
            "--run-dir", str(tmp_path / "run"),
        ]
        if command == "stream":
            argv += ["--csd", str(base_csd)]
        rc = main(argv)
        self.assert_reported(
            rc, capsys, pois, "invalid float 'abc' in column 'lon'"
        )

    @staticmethod
    def assert_reported(rc, capsys, path, reason):
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert str(path) in err
        assert "row 3" in err
        assert reason in err


class TestCheckins:
    def test_prints_both_cities(self, capsys):
        rc = main(["checkins", "--activities", "20000", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "New York" in out and "Tokyo" in out
        assert "Train Station" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command",
        [
            ["mine", "--pois", "p.csv", "--trips", "t.csv"],
            ["run", "--pois", "p.csv", "--trips", "t.csv", "--run-dir", "d"],
            ["evaluate", "--pois", "p.csv", "--trips", "t.csv"],
            ["stream", "--trips", "t.csv", "--run-dir", "d"],
        ],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rho", "nan", "rho must be finite"),
            ("--alpha", "1.5", "alpha must be in (0, 1]"),
            ("--support", "0", "support must be at least 1"),
        ],
    )
    def test_rejected_config_value_is_usage_error(
        self, command, flag, value, message, capsys
    ):
        """A flag value the configs reject ends in the subcommand's
        usage error (exit 2, the config's message), not a traceback;
        nothing is read before the check."""
        with pytest.raises(SystemExit) as exited:
            main(command + [flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: repro {command[0]}" in err
        assert message in err
        assert "Traceback" not in err

    def test_build_csd_rejected_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["build-csd", "--pois", "p.csv", "--trips", "t.csv",
                  "--alpha", "0"])
        assert exited.value.code == 2
        assert "alpha must be in (0, 1]" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(
            ["mine", "--pois", "p.csv", "--trips", "t.csv"]
        )
        assert args.approach == "CSD-PM"
        assert args.support == 20
