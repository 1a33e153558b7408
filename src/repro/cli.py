"""Command-line interface: ``clover-repro`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show the available experiments (tables/figures of the paper).
``run``
    Run experiments **or scenario files** and print their ASCII tables.
    An argument naming a registry experiment (``fig9``, ``fleet``, ...)
    runs that experiment; an argument ending in ``.toml``/``.json`` is
    loaded as a declarative :class:`~repro.scenarios.spec.ScenarioSpec`
    (see ``examples/scenarios/``) and executed — ``--fidelity`` and
    ``--seed`` override the file's values when given, so one checked-in
    scenario serves smoke CI and full-fidelity studies alike.
``sweep``
    Grid-expand a scenario file over ``--axis`` fields (or its ``[sweep]``
    section) and run the grid, optionally on a process pool
    (``--workers``), printing one comparison row per scenario.
``export``
    Run experiments and write their tables to CSV/JSON files.
``report``
    Run every experiment and write one Markdown reproduction report.
``demo``
    A short end-to-end Clover run with a summary report.
``fleet``
    Legacy multi-region front door.  Every flag combination builds the
    same :class:`ScenarioSpec` that ``repro run <file>`` would load
    (tested field-for-field) and runs it through the scenario layer —
    the flags keep working, the execution path is one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.analysis.experiments import EXPERIMENT_REGISTRY
from repro.analysis.runner import ExperimentRunner
from repro.analysis.reporting import render

__all__ = ["main", "build_parser", "fleet_args_to_spec"]

#: Suffixes `run`/`sweep` treat as scenario files rather than experiments.
SCENARIO_SUFFIXES = (".toml", ".json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clover-repro",
        description=(
            "Reproduction of Clover (SC '23): carbon-aware ML inference "
            "serving with mixed-quality models and MIG GPU partitioning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser(
        "run", help="run experiments or scenario files and print tables"
    )
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT|SCENARIO.toml",
        help=(
            f"one of: {', '.join(sorted(EXPERIMENT_REGISTRY))}, 'all', or "
            "a path to a .toml/.json scenario file"
        ),
    )
    run.add_argument(
        "--fidelity",
        default=None,
        choices=("smoke", "default", "paper"),
        help=(
            "simulation fidelity (default: 'default' for experiments; a "
            "scenario file's own fidelity unless overridden here)"
        ),
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "root RNG seed (default: 0 for experiments; a scenario "
            "file's own seed unless overridden here)"
        ),
    )

    swp = sub.add_parser(
        "sweep", help="grid-expand a scenario file and run the grid"
    )
    swp.add_argument("scenario", metavar="SCENARIO.toml")
    swp.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="PATH=V1,V2",
        help=(
            "sweep axis: a dotted spec path and comma-separated values "
            "(e.g. --axis routing.router=static,carbon-greedy --axis "
            "seed=0,1); merges with (and wins over) the file's "
            "[sweep.axes] section"
        ),
    )
    swp.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool width for parallel scenario execution "
            "(default: the file's [sweep] workers, else serial)"
        ),
    )
    swp.add_argument(
        "--fidelity", default=None, choices=("smoke", "default", "paper")
    )
    swp.add_argument("--seed", type=int, default=None)

    export = sub.add_parser(
        "export", help="run experiments and write CSV/JSON tables"
    )
    export.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    export.add_argument("--out", default=".", help="output directory")
    export.add_argument(
        "--format", default="csv", choices=("csv", "json"), dest="fmt"
    )
    export.add_argument(
        "--fidelity", default="default", choices=("smoke", "default", "paper")
    )
    export.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="write a full Markdown reproduction report"
    )
    report.add_argument("--out", default="REPORT.md")
    report.add_argument(
        "--fidelity", default="default", choices=("smoke", "default", "paper")
    )
    report.add_argument("--seed", type=int, default=0)

    demo = sub.add_parser("demo", help="short end-to-end Clover run")
    demo.add_argument("--application", default="classification")
    demo.add_argument("--scheme", default="clover")
    demo.add_argument("--hours", type=float, default=12.0)
    demo.add_argument("--seed", type=int, default=0)

    from repro.fleet.regions import REGION_NAMES
    from repro.fleet.routing import ROUTER_NAMES

    fleet = sub.add_parser(
        "fleet", help="multi-region run with carbon-aware routing"
    )
    fleet.add_argument(
        "--regions",
        default="us-ciso,uk-eso,nordic-hydro",
        help=(
            "comma-separated region names "
            f"(valid: {', '.join(REGION_NAMES)}; default: %(default)s)"
        ),
    )
    fleet.add_argument(
        "--router",
        default="carbon-greedy",
        choices=ROUTER_NAMES,
        help="traffic-splitting policy (default: %(default)s)",
    )
    fleet.add_argument(
        "--duration-h",
        type=float,
        default=24.0,
        help="simulated hours (default: %(default)s)",
    )
    fleet.add_argument("--application", default="classification")
    fleet.add_argument("--scheme", default="clover")
    fleet.add_argument("--n-gpus", type=int, default=4, dest="n_gpus")
    from repro.gpu.profiles import DEVICE_NAMES

    fleet.add_argument(
        "--devices",
        default=None,
        help=(
            "GPU generations per region: one spec for every region "
            "('l4'), or comma-separated region=spec pairs "
            "('us-ciso=a100,uk-eso=l4'); a spec mixes devices within a "
            "region with '+' ('a100:1+l4:1', counts must total --n-gpus). "
            f"Known devices: {', '.join(DEVICE_NAMES)}.  Default: every "
            "GPU an a100"
        ),
    )
    fleet.add_argument(
        "--intensity-only",
        action="store_true",
        dest="intensity_only",
        help=(
            "rank regions on raw grid intensity instead of effective "
            "gCO2/request (the pre-heterogeneity carbon-greedy/"
            "forecast-aware behaviour; identical on all-a100 fleets)"
        ),
    )
    fleet.add_argument(
        "--fidelity", default="smoke", choices=("smoke", "default", "paper")
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--demand",
        default=None,
        choices=("constant", "diurnal"),
        help="geo-origin demand model (default: constant global rate)",
    )
    fleet.add_argument(
        "--ramp-share-per-h",
        type=float,
        default=None,
        dest="ramp_share_per_h",
        help="max share a region may gain per hour (default: unlimited)",
    )
    fleet.add_argument(
        "--drain-share-per-h",
        type=float,
        default=None,
        dest="drain_share_per_h",
        help="fraction of resident sessions drainable per hour "
        "(default: unlimited)",
    )
    fleet.add_argument(
        "--lookahead-h",
        type=float,
        default=None,
        dest="lookahead_h",
        help="forecast-aware router horizon in hours",
    )
    from repro.fleet.capacity import GATING_MODES

    fleet.add_argument(
        "--gating",
        default=None,
        choices=GATING_MODES,
        help=(
            "elastic GPU capacity: sleep GPUs when the routed rate falls "
            "(reactive wakes pay a latency window; forecast pre-wakes from "
            "the router's lookahead).  Default: every GPU always on"
        ),
    )
    fleet.add_argument(
        "--wake-energy-j",
        type=float,
        default=None,
        dest="wake_energy_j",
        help=(
            "fleet-wide per-wake transition energy for --gating (J), "
            "overriding the per-device profile defaults (a100 2000 J, "
            "h100 2500 J, l4 800 J).  Must fit under every device's "
            "static draw over the wake window"
        ),
    )
    from repro.shifting import ARRIVAL_PROFILES

    fleet.add_argument(
        "--batch",
        type=float,
        default=None,
        metavar="JOBS_PER_H",
        help=(
            "add a deferrable batch workload at this mean arrival rate "
            "(jobs/hour); the temporal scheduler shifts it into "
            "forecast-clean epochs.  Default: interactive traffic only"
        ),
    )
    fleet.add_argument(
        "--batch-requests-per-job",
        type=float,
        default=None,
        dest="batch_requests_per_job",
        help="inference requests per batch job (default: 1)",
    )
    fleet.add_argument(
        "--batch-deadline-h",
        type=float,
        default=None,
        dest="batch_deadline_h",
        help="hours each batch job may wait before it must complete "
        "(default: 8)",
    )
    fleet.add_argument(
        "--batch-arrival",
        default=None,
        choices=ARRIVAL_PROFILES,
        dest="batch_arrival",
        help="batch arrival profile (default: uniform)",
    )
    bench = sub.add_parser(
        "bench", help="run the pinned perf scenarios / check the baseline"
    )
    bench.add_argument(
        "--fidelity", default="default", choices=("smoke", "default")
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the suite result as a baseline JSON (BENCH_perf_core "
        "schema) to this path",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline JSON and exit 1 on any "
        "regression beyond --tolerance",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional ops/s or speedup drop for --check "
        "(default: 0.30)",
    )
    return parser


def _cmd_list() -> int:
    for name in sorted(EXPERIMENT_REGISTRY):
        print(name)
    return 0


def _is_scenario_path(name: str) -> bool:
    return name.lower().endswith(SCENARIO_SUFFIXES)


def _print_fleet_result(report, title: str) -> None:
    """The shared fleet report block (``run <scenario>`` and ``fleet``)."""
    from repro.analysis.reporting import format_table

    headers, rows = report.table()
    print(format_table(headers, rows, title=title))
    print()
    if any(r.devices is not None for r in report.regions):
        mixes = ", ".join(
            f"{r.name}={r.device_pool().describe()}" for r in report.regions
        )
        print(f"  devices:         {mixes}")
    if len(set(report.scheme_by_region.values())) > 1:
        schemes = ", ".join(
            f"{region}={scheme}"
            for region, scheme in report.scheme_by_region.items()
        )
        print(f"  schemes:         {schemes}")
    print(f"  duration:        {report.duration_h:.1f} h")
    print(f"  global rate:     {report.global_rate_per_s:.1f} req/s")
    print(f"  requests served: {report.total_requests:,.0f}")
    print(f"  energy:          {report.total_energy_j / 3.6e6:.2f} kWh")
    print(f"  carbon:          {report.total_carbon_g:,.0f} gCO2")
    print(f"  accuracy loss:   {report.accuracy_loss_pct:.2f}%")
    print(f"  SLA attainment:  {100 * report.sla_attainment:.1f}% (incl. network)")
    cache = report.cache_stats
    print(
        f"  evaluator cache: {cache.hits:,} hits / {cache.misses:,} misses "
        f"({100 * cache.hit_rate:.1f}% hit rate, "
        f"{cache.batched:,} batch-evaluated)"
    )
    if report.has_gating:
        print(
            f"  gating:          {report.gating_name} "
            f"({100 * report.mean_awake_fraction:.1f}% of GPUs awake on average)"
        )
    if report.has_demand:
        print(
            f"  user SLA:        {100 * report.user_sla_attainment:.1f}% "
            "(charged per origin-region pair)"
        )
        print(f"  mean net hop:    {report.mean_net_latency_ms:.1f} ms")
        print()
        headers, rows = report.origin_table()
        print(format_table(headers, rows, title="-- demand origins --"))
    if report.has_batch:
        attainment = report.batch_deadline_attainment
        shift = report.mean_shift_h
        print(
            f"  batch deadlines: "
            + (f"{100 * attainment:.1f}% on time"
               if attainment == attainment else "-")
            + f" ({report.batch_completed_requests:,.0f} served, "
            f"{report.batch_pending_requests:,.0f} queued)"
        )
        print(
            "  batch shift:     "
            + (f"{shift:.2f} h mean" if shift == shift else "-")
        )
        print()
        headers, rows = report.batch_table()
        print(format_table(headers, rows, title="-- batch workload --"))


def _load_spec_for_cli(path: str, fidelity: str | None, seed: int | None):
    """Load a scenario file and thread the CLI overrides into the spec.

    One ``--seed`` flows into the spec itself (region ``i`` derives
    ``seed + i`` from it), so repeated invocations of the same file with
    the same flags are bit-for-bit reproducible end to end.
    """
    from repro.scenarios import load_scenario_file

    spec, sweep_cfg = load_scenario_file(path)
    if fidelity is not None:
        spec = spec.with_fidelity(fidelity)
    if seed is not None:
        spec = spec.with_seed(seed)
    return spec, sweep_cfg


def _run_scenario_file(path: str, fidelity: str | None, seed: int | None) -> int:
    from repro.scenarios import Scenario

    try:
        spec, _ = _load_spec_for_cli(path, fidelity, seed)
        report = Scenario(spec).run()
    except FileNotFoundError:
        print(f"no such scenario file: {path}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"{path}: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    # Deliberately no wall-time in the title: two runs of one spec must
    # print byte-identical reports (the reproducibility contract; specs
    # opting into parallel_regions may see cache *diagnostics* attribute
    # warm-up work differently — simulation numbers never move).
    _print_fleet_result(
        report,
        title=(
            f"== scenario: {spec.label} ({spec.fidelity}, seed {spec.seed}) =="
        ),
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(args.experiments)
    if names == ["all"]:
        names = sorted(EXPERIMENT_REGISTRY)
    scenario_paths = [n for n in names if _is_scenario_path(n)]
    experiment_names = [n for n in names if not _is_scenario_path(n)]
    unknown = [n for n in experiment_names if n not in EXPERIMENT_REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(EXPERIMENT_REGISTRY))}, "
            "or a .toml/.json scenario file path",
            file=sys.stderr,
        )
        return 2
    fidelity = args.fidelity or "default"
    seed = args.seed if args.seed is not None else 0
    runner = ExperimentRunner()
    for name in experiment_names:
        t0 = time.perf_counter()
        result = EXPERIMENT_REGISTRY[name](runner, fidelity, seed)
        dt = time.perf_counter() - t0
        print(render(result, title=f"== {name} ({fidelity}, {dt:.1f}s) =="))
        print()
    for path in scenario_paths:
        code = _run_scenario_file(path, args.fidelity, args.seed)
        if code != 0:
            return code
        print()
    return 0


def _parse_axis_value(token: str):
    """One sweep-axis value: int, float, bool or bare string."""
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token.strip()


def _parse_axes(tokens: list[str]) -> dict[str, list]:
    axes: dict[str, list] = {}
    for token in tokens:
        path, sep, values = token.partition("=")
        if not sep or not path.strip() or not values.strip():
            raise ValueError(
                f"bad --axis {token!r} (want PATH=V1,V2,...)"
            )
        path = path.strip()
        if path in axes:
            raise ValueError(
                f"--axis {path} given twice; list every value in one flag "
                f"({path}=V1,V2,...)"
            )
        axes[path] = [
            _parse_axis_value(v) for v in values.split(",") if v.strip()
        ]
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import Comparison
    from repro.scenarios import expand, run_sweep

    try:
        spec, sweep_cfg = _load_spec_for_cli(
            args.scenario, args.fidelity, args.seed
        )
        axes = dict(sweep_cfg.axes) if sweep_cfg is not None else {}
        axes.update(_parse_axes(args.axis))
        if not axes:
            raise ValueError(
                "nothing to sweep: give --axis PATH=V1,V2 or add a "
                "[sweep.axes] section to the scenario file"
            )
        workers = args.workers
        if workers is None and sweep_cfg is not None:
            workers = sweep_cfg.workers
        grid = expand(spec, axes)
        t0 = time.perf_counter()
        results = run_sweep(grid, workers=workers)
        dt = time.perf_counter() - t0
    except FileNotFoundError:
        print(f"no such scenario file: {args.scenario}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(
            f"{args.scenario}: {exc.args[0] if exc.args else exc}",
            file=sys.stderr,
        )
        return 2
    paths = tuple(axes)
    comparison = Comparison(
        {
            tuple(str(swept.get(path)) for path in paths): result
            for swept, result in zip(grid, results)
        },
        columns=(
            "Carbon(g)", "Energy(kWh)", "AccLoss%", "SLA%",
            *(("UserSLA%",) if any(r.has_demand for r in results) else ()),
        ),
        label_header=paths,
    )
    mode = f"{workers} workers" if workers and workers > 1 else "serial"
    print(
        render(
            comparison,
            title=(
                f"== sweep: {len(grid)} scenarios over "
                f"{', '.join(paths)} ({spec.fidelity}, {mode}, {dt:.1f}s) =="
            ),
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.export import table_to_csv, table_to_json

    names = list(args.experiments)
    if names == ["all"]:
        names = sorted(EXPERIMENT_REGISTRY)
    unknown = [n for n in names if n not in EXPERIMENT_REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(EXPERIMENT_REGISTRY))}",
            file=sys.stderr,
        )
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = ExperimentRunner()
    writer = table_to_csv if args.fmt == "csv" else table_to_json
    for name in names:
        result = EXPERIMENT_REGISTRY[name](runner, args.fidelity, args.seed)
        path = out_dir / f"{name}.{args.fmt}"
        writer(result, path)
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    generate_report(fidelity=args.fidelity, seed=args.seed, out_path=args.out)
    print(f"wrote {args.out}")
    return 0


def _parse_fleet_devices(arg: str | None, region_names: list[str]):
    """``--devices`` → per-region device assignment for RegionSpec.

    Returns a dict region -> (str | tuple) device spec; regions absent
    from the mapping keep the implicit all-A100 fleet.  A bare spec (no
    ``=``) applies to every region; within-region mixes join device
    counts with ``+`` (``a100:1+l4:1``).  ``region_names`` must already
    be lowercased (the registry is case-insensitive).
    """
    from repro.gpu.profiles import parse_region_devices

    if arg is None:
        return {}

    def one(spec: str):
        return parse_region_devices(spec.replace("+", ","))

    if "=" not in arg:
        spec = one(arg)
        return {region: spec for region in region_names}
    out = {}
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        region, sep, spec = token.partition("=")
        if not sep:
            raise ValueError(
                f"mixing bare and region=spec device tokens ({token!r}); "
                "either give one spec for all regions or map every region"
            )
        region = region.strip().lower()
        if region not in region_names:
            raise ValueError(
                f"--devices names unknown region {region!r} "
                f"(fleet: {', '.join(region_names)})"
            )
        out[region] = one(spec.strip())
    return out


def fleet_args_to_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` a legacy ``fleet`` invocation describes.

    This *is* the shim: every historical flag maps onto one spec field,
    and the tests pin each mapping, so the legacy front door can never
    drift from the declarative one.
    """
    from repro.scenarios import (
        BatchSpec,
        DemandSpec,
        GatingSpec,
        RegionSpec,
        RoutingSpec,
        ScenarioSpec,
    )

    # The registry is case-insensitive; normalize once so --devices
    # region=spec tokens match however --regions was spelled.
    names = [n.strip().lower() for n in args.regions.split(",") if n.strip()]
    if not names:
        raise ValueError("no regions given")
    devices = _parse_fleet_devices(args.devices, names)
    return ScenarioSpec(
        regions=tuple(
            RegionSpec(name=n, devices=devices.get(n)) for n in names
        ),
        application=args.application,
        scheme=args.scheme,
        fidelity=args.fidelity,
        seed=args.seed,
        n_gpus=args.n_gpus,
        duration_h=args.duration_h,
        routing=RoutingSpec(
            router=args.router,
            lookahead_h=args.lookahead_h,
            efficiency_weighted=not args.intensity_only,
        ),
        demand=DemandSpec(
            kind=args.demand,
            ramp_share_per_h=args.ramp_share_per_h,
            drain_share_per_h=args.drain_share_per_h,
        ),
        gating=GatingSpec(
            mode=args.gating,
            wake_energy_j=(
                args.wake_energy_j if args.gating is not None else None
            ),
        ),
        batch=BatchSpec(
            jobs_per_h=args.batch,
            requests_per_job=(
                args.batch_requests_per_job if args.batch is not None else None
            ),
            deadline_h=(
                args.batch_deadline_h if args.batch is not None else None
            ),
            arrival=args.batch_arrival if args.batch is not None else None,
        ),
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.scenarios import Scenario

    try:
        spec = fleet_args_to_spec(args)
        t0 = time.perf_counter()
        report = Scenario(spec).run()
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    dt = time.perf_counter() - t0
    _print_fleet_result(
        report,
        title=(
            f"== fleet: {len(report.regions)} regions, "
            f"router={report.router_name}, "
            f"scheme={report.scheme_name} ({args.fidelity}, {dt:.1f}s) =="
        ),
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.service import CarbonAwareInferenceService

    service = CarbonAwareInferenceService.create(
        application=args.application,
        scheme=args.scheme,
        fidelity="smoke",
        seed=args.seed,
    )
    report = service.run(duration_h=args.hours)
    print(f"scheme={report.scheme_name} application={report.application}")
    print(f"  duration:          {report.duration_h:.1f} h")
    print(f"  requests served:   {report.total_requests:,.0f}")
    print(f"  energy:            {report.total_energy_j / 3.6e6:.2f} kWh")
    print(f"  carbon:            {report.total_carbon_g:,.0f} gCO2")
    print(f"  mean accuracy:     {report.mean_accuracy:.2f} "
          f"(loss {report.accuracy_loss_pct:.2f}%)")
    print(f"  p95 latency:       {report.p95_ms:.1f} ms "
          f"(SLA {report.sla_target_ms:.1f} ms)")
    print(f"  optimization time: {100 * report.optimization_fraction:.2f}% "
          f"({len(report.invocations)} invocations, "
          f"{report.total_evaluations} evaluations)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        DEFAULT_TOLERANCE,
        check_regressions,
        load_baseline,
        run_suite,
        write_baseline,
    )

    baseline = None
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except OSError:
            print(f"no such perf baseline: {args.check}", file=sys.stderr)
            return 2
        except (ValueError, json.JSONDecodeError) as exc:
            print(
                f"invalid perf baseline {args.check}: {exc}", file=sys.stderr
            )
            return 2
    suite = run_suite(args.fidelity)
    print(f"perf suite ({suite.fidelity} fidelity, calibration "
          f"{suite.calibration_ops_per_s:,.1f} kernel-ops/s)")
    header = f"  {'scenario':<16} {'ops/s':>12} {'vs scalar':>10}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for s in suite.scenarios:
        print(f"  {s.name:<16} {s.ops_per_s:>12,.1f} "
              f"{s.speedup_vs_scalar:>9.2f}x")
    if args.out:
        path = write_baseline(suite, args.out)
        print(f"wrote baseline to {path}")
    if baseline is not None:
        tolerance = (
            DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        )
        failures = check_regressions(suite, baseline, tolerance)
        if failures:
            print(f"perf regressions vs {args.check}:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"no regression vs {args.check} "
              f"(tolerance {100 * tolerance:.0f}%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
