"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert args.command == "run"
        # None = "default" for experiments, the file's own fidelity for
        # scenario paths (the CLI flag only overrides when given).
        assert args.fidelity is None
        assert args.seed is None
        assert args.experiments == ["fig6"]

    def test_bad_fidelity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--fidelity", "warp"])


class TestListCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig9" in out and "table1" in out and "savings" in out


class TestRunCommand:
    def test_runs_cheap_experiment(self, capsys):
        assert main(["run", "fig6", "--fidelity", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "4.4" in out  # the worked example's objective

    def test_unknown_experiment_fails_with_listing(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "valid" in err

    def test_multiple_experiments(self, capsys):
        assert main(["run", "table1", "fig3", "--fidelity", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig3" in out


class TestExportCommand:
    def test_export_csv(self, tmp_path, capsys):
        assert main(
            ["export", "table1", "--out", str(tmp_path), "--format", "csv"]
        ) == 0
        text = (tmp_path / "table1.csv").read_text()
        assert text.startswith("Application")

    def test_export_json(self, tmp_path):
        assert main(
            ["export", "fig6", "--out", str(tmp_path), "--format", "json"]
        ) == 0
        records = json.loads((tmp_path / "fig6.json").read_text())
        assert records[0]["Config"] == "A"

    def test_export_unknown_experiment(self, tmp_path, capsys):
        assert main(["export", "nope", "--out", str(tmp_path)]) == 2


class TestDemoCommand:
    def test_demo_runs_and_summarizes(self, capsys):
        assert main(["demo", "--hours", "2", "--scheme", "co2opt"]) == 0
        out = capsys.readouterr().out
        assert "scheme=co2opt" in out
        assert "carbon:" in out
        assert "p95 latency:" in out


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.router == "carbon-greedy"
        assert args.regions == "us-ciso,uk-eso,nordic-hydro"
        assert args.duration_h == 24.0

    def test_bad_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--router", "carrier-pigeon"])

    def test_fleet_runs_and_reports(self, capsys):
        assert main(
            [
                "fleet", "--regions", "us-ciso,nordic-hydro",
                "--n-gpus", "2", "--duration-h", "3", "--scheme", "co2opt",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "router=carbon-greedy" in out
        assert "us-ciso" in out and "nordic-hydro" in out
        assert "SLA attainment" in out
        assert "evaluator cache" in out

    def test_unknown_region_fails_with_listing(self, capsys):
        assert main(["fleet", "--regions", "atlantis"]) == 2
        err = capsys.readouterr().err
        assert "atlantis" in err and "valid" in err

    def test_fleet_listed_as_experiment(self, capsys):
        assert main(["list"]) == 0
        assert "fleet" in capsys.readouterr().out.split()


class TestDemandFlags:
    def test_parser_defaults_to_constant_demand(self):
        args = build_parser().parse_args(["fleet"])
        assert args.demand is None
        assert args.lookahead_h is None

    def test_bad_demand_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--demand", "chaotic"])

    def test_demand_fleet_prints_origin_table(self, capsys):
        assert main(
            [
                "fleet", "--regions", "us-ciso,uk-eso,apac-solar",
                "--n-gpus", "2", "--duration-h", "3",
                "--demand", "diurnal", "--router", "forecast-aware",
                "--ramp-share-per-h", "0.1", "--drain-share-per-h", "0.2",
                "--lookahead-h", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "demand origins" in out
        assert "asia-pacific" in out
        assert "user SLA" in out

    def test_demand_listed_as_experiment(self, capsys):
        assert main(["list"]) == 0
        assert "demand" in capsys.readouterr().out.split()


SCENARIO_TOML = """\
name = "cli-test"
scheme = "base"
fidelity = "smoke"
n_gpus = 2
duration_h = 2.0

[[regions]]
name = "us-ciso"

[[regions]]
name = "nordic-hydro"
scheme = "co2opt"

[routing]
router = "carbon-greedy"
"""


class TestScenarioRun:
    """`repro run <scenario.toml>`: the declarative front door."""

    def _write(self, tmp_path, text=SCENARIO_TOML, name="scn.toml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_runs_scenario_file(self, tmp_path, capsys):
        assert main(["run", self._write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: cli-test" in out
        assert "us-ciso" in out and "nordic-hydro" in out
        # The per-region scheme mix is surfaced.
        assert "nordic-hydro=co2opt" in out

    def test_repeat_runs_print_identical_tables(self, tmp_path, capsys):
        """Satellite bugfix: one --seed threads through scenario
        construction, so reruns of the same spec are reproducible end to
        end — byte-identical reports."""
        path = self._write(tmp_path)
        assert main(["run", path, "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["run", path, "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "seed 3" in first

    def test_cli_fidelity_and_seed_override_the_file(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert main(["run", path, "--fidelity", "smoke", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "(smoke, seed 9)" in out

    def test_unknown_key_fails_actionably(self, tmp_path, capsys):
        path = self._write(
            tmp_path, SCENARIO_TOML + "\nbananas = 3\n", "bad.toml"
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "bananas" in err and "valid" in err

    def test_infinite_duration_fails_actionably(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            SCENARIO_TOML.replace("duration_h = 2.0", "duration_h = inf"),
            "inf.toml",
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "duration_h must be finite" in err
        assert "Traceback" not in err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_experiments_and_scenarios_mix_in_one_invocation(
        self, tmp_path, capsys
    ):
        assert main(["run", "fig6", self._write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "scenario: cli-test" in out


class TestSweepCommand:
    def _write(self, tmp_path, extra=""):
        path = tmp_path / "sweep.toml"
        path.write_text(SCENARIO_TOML + extra)
        return str(path)

    def test_axis_flag_sweeps(self, tmp_path, capsys):
        assert main(
            [
                "sweep", self._write(tmp_path),
                "--axis", "routing.router=static,carbon-greedy",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 scenarios" in out
        assert "static" in out and "carbon-greedy" in out

    def test_file_sweep_section_with_workers(self, tmp_path, capsys):
        extra = (
            "\n[sweep]\nworkers = 2\n[sweep.axes]\nseed = [0, 1]\n"
        )
        assert main(["sweep", self._write(tmp_path, extra)]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 scenarios" in out
        assert "2 workers" in out

    def test_no_axes_fails_actionably(self, tmp_path, capsys):
        assert main(["sweep", self._write(tmp_path)]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_bad_axis_fails(self, tmp_path, capsys):
        assert main(
            ["sweep", self._write(tmp_path), "--axis", "seed"]
        ) == 2
        assert "PATH=V1,V2" in capsys.readouterr().err

    def test_repeated_axis_flag_fails(self, tmp_path, capsys):
        assert main(
            [
                "sweep", self._write(tmp_path),
                "--axis", "seed=0,1", "--axis", "seed=2",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "--axis seed given twice" in err
        assert "Traceback" not in err

    def test_axis_flag_overrides_file_axis(self, tmp_path, capsys):
        extra = "\n[sweep.axes]\nseed = [0, 1]\n"
        assert main(
            ["sweep", self._write(tmp_path, extra), "--axis", "seed=3"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: 1 scenarios over seed" in out


class TestFleetShimBuildsEqualSpecs:
    """Every legacy `fleet` invocation maps onto one ScenarioSpec."""

    def _spec(self, argv):
        from repro.cli import fleet_args_to_spec

        return fleet_args_to_spec(build_parser().parse_args(["fleet"] + argv))

    def test_default_invocation(self):
        from repro.scenarios import RegionSpec, RoutingSpec, ScenarioSpec

        assert self._spec([]) == ScenarioSpec(
            regions=(
                RegionSpec(name="us-ciso"),
                RegionSpec(name="uk-eso"),
                RegionSpec(name="nordic-hydro"),
            ),
            fidelity="smoke",
            n_gpus=4,
            duration_h=24.0,
            routing=RoutingSpec(router="carbon-greedy"),
        )

    def test_full_flag_surface(self):
        from repro.scenarios import (
            DemandSpec,
            GatingSpec,
            RegionSpec,
            RoutingSpec,
            ScenarioSpec,
        )

        argv = [
            "--regions", "us-ciso,apac-solar",
            "--router", "forecast-aware",
            "--scheme", "co2opt",
            "--n-gpus", "2",
            "--duration-h", "12",
            "--seed", "5",
            "--demand", "diurnal",
            "--ramp-share-per-h", "0.1",
            "--drain-share-per-h", "0.2",
            "--lookahead-h", "4",
            "--gating", "forecast",
            "--wake-energy-j", "900",
            "--devices", "us-ciso=a100,apac-solar=l4",
        ]
        assert self._spec(argv) == ScenarioSpec(
            regions=(
                RegionSpec(name="us-ciso", devices="a100"),
                RegionSpec(name="apac-solar", devices="l4"),
            ),
            scheme="co2opt",
            fidelity="smoke",
            seed=5,
            n_gpus=2,
            duration_h=12.0,
            routing=RoutingSpec(router="forecast-aware", lookahead_h=4.0),
            demand=DemandSpec(
                kind="diurnal", ramp_share_per_h=0.1, drain_share_per_h=0.2
            ),
            gating=GatingSpec(mode="forecast", wake_energy_j=900.0),
        )

    def test_intensity_only_maps_to_efficiency_flag(self):
        spec = self._spec(["--intensity-only"])
        assert spec.routing.efficiency_weighted is False

    def test_mixed_pool_devices_map_to_tuples(self):
        spec = self._spec(
            ["--regions", "us-ciso", "--n-gpus", "2",
             "--devices", "a100:1+l4:1"]
        )
        assert spec.regions[0].devices == ("a100", "l4")


class TestBatchFlags:
    def _spec(self, argv):
        from repro.cli import fleet_args_to_spec

        return fleet_args_to_spec(build_parser().parse_args(["fleet"] + argv))

    def test_parser_defaults_to_no_batch(self):
        args = build_parser().parse_args(["fleet"])
        assert args.batch is None
        assert self._spec([]).batch.enabled is False

    def test_batch_flags_map_to_batch_spec(self):
        from repro.scenarios import BatchSpec

        spec = self._spec(
            [
                "--batch", "120",
                "--batch-requests-per-job", "50",
                "--batch-deadline-h", "6",
                "--batch-arrival", "business-hours",
            ]
        )
        assert spec.batch == BatchSpec(
            jobs_per_h=120.0, requests_per_job=50.0, deadline_h=6.0,
            arrival="business-hours",
        )

    def test_batch_sub_flags_without_enabler_are_dropped(self):
        # Matches the gating flags' shim behavior: sub-flags without the
        # enabling flag leave the feature off rather than erroring.
        spec = self._spec(["--batch-deadline-h", "6"])
        assert spec.batch.enabled is False

    def test_bad_arrival_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "--batch", "120", "--batch-arrival", "bursty"]
            )

    def test_fleet_prints_batch_tables(self, capsys):
        assert main(
            [
                "fleet", "--regions", "nordic-hydro,us-ciso",
                "--n-gpus", "2", "--duration-h", "3",
                "--batch", "60", "--batch-requests-per-job", "30",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "batch workload" in out
        assert "batch deadlines:" in out
        assert "batch shift:" in out

    def test_zero_batch_output_has_no_batch_lines(self, capsys):
        assert main(
            [
                "fleet", "--regions", "nordic-hydro,us-ciso",
                "--n-gpus", "2", "--duration-h", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        # The evaluator cache's "Batch%" column is unrelated; none of the
        # batch-workload lines may appear.
        assert "batch workload" not in out
        assert "batch deadlines:" not in out
        assert "batch shift:" not in out


class TestLookaheadValidation:
    """Regression: a negative lookahead dies at the boundary with a clear
    message, not deep inside a router."""

    def test_negative_lookahead_exits_with_clear_error(self, capsys):
        assert main(["fleet", "--lookahead-h", "-1"]) == 2
        err = capsys.readouterr().err
        assert "lookahead must be non-negative" in err
        assert "-1" in err

    def test_negative_lookahead_rejected_in_scenario_files(self, tmp_path):
        from repro.scenarios import load_scenario_file

        path = tmp_path / "bad.toml"
        path.write_text(
            'n_gpus = 2\n[[regions]]\nname = "us-ciso"\n'
            "[routing]\nlookahead_h = -2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="lookahead must be non-negative"):
            load_scenario_file(path)


class TestBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.fidelity == "default"
        assert args.out is None and args.check is None

    def test_runs_and_checks_committed_baseline(self, capsys, tmp_path):
        from repro.perf import baseline_path

        out = tmp_path / "baseline.json"
        assert main([
            "bench", "--fidelity", "smoke",
            "--out", str(out),
            "--check", str(baseline_path()),
        ]) == 0
        printed = capsys.readouterr().out
        assert "batch_eval_1k" in printed
        assert "no regression" in printed
        written = json.loads(out.read_text())
        assert written["schema"] == 1
        assert set(written["scenarios"]) == {
            "batch_eval_1k", "sa_epoch", "routing_epoch", "shifting_epoch"
        }

    def test_check_fails_on_regression(self, capsys, tmp_path):
        # A fabricated baseline nothing real can match.
        impossible = tmp_path / "impossible.json"
        impossible.write_text(json.dumps({
            "schema": 1,
            "fidelity": "smoke",
            "calibration_ops_per_s": 1.0,
            "scenarios": {
                "batch_eval_1k": {
                    "ops_per_s": 1e15, "speedup_vs_scalar": 1e6,
                    "items": 1000, "seconds": 1.0, "scalar_seconds": 1.0,
                },
            },
        }))
        assert main([
            "bench", "--fidelity", "smoke", "--check", str(impossible)
        ]) == 1
        assert "regressions" in capsys.readouterr().out

    def test_missing_baseline_one_line_error(self, capsys):
        assert main(["bench", "--check", "/nope/missing.json"]) == 2
        err = capsys.readouterr().err
        assert "no such perf baseline" in err
        assert "Traceback" not in err

    def test_invalid_baseline_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 7}')
        assert main(["bench", "--check", str(bad)]) == 2
        assert "invalid perf baseline" in capsys.readouterr().err
