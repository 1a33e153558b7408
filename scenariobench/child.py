"""One cold scenario run: the process the benchmark launches and times.

    python scenariobench/child.py SCENARIO.toml --seed N [--spans OUT.jsonl --run-id ID]

Imports ``repro``, loads the scenario file, writes ``--seed`` into
``ScenarioSpec.seed``, builds the :class:`~repro.fleet.FleetCoordinator`,
runs it on the serial region driver and renders the result tables
``repro run`` prints.  The last stdout line is one JSON object with
``CLOCK_MONOTONIC`` timestamps (comparable with the parent's launch
time), the outcome metrics, the input-derived arrival counts and the
host record (reference and calibration kernel speeds, Python and numpy
versions, nproc), measured after the report is rendered.  With
``--spans`` the public layer functions are wrapped for the run, the spans
are written as JSONL, and per-layer metrics are added to the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import sys
import time

from tracing import Patches, Tracer, layer_totals, self_time_ns, traced


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


#: Span names of each wrapped layer (``span_layers`` groups them).
PLAN = "fleet.routing.plan"
ROUTER = "fleet.routing.router"
STEP = "fleet.regional.step"
SLA_RATE = "fleet.regional.sla_rate"
SETTLE = "fleet.capacity.settle"
PLAN_EPOCH = "shifting.plan_epoch"
PLAN_SLOTS = "shifting.plan_slots"
DEMAND = "demand.rates"
FORECAST = "carbon.forecast"
OPTIMIZE = "core.schemes.optimize"
EVAL_ANALYTIC = "core.evaluator.analytic"
EVAL_DES = "core.evaluator.des"
SIM_DES = "serving.des"
SIM_ANALYTIC = "serving.analytic"
RUN = "fleet.coordinator.run"


def _batch_rows(args, kwargs) -> int:
    service = args[0]
    rates = args[1] if len(args) > 1 else kwargs["rates_per_s"]
    rows = service.shape[0] if getattr(service, "ndim", 1) == 2 else 1
    return max(rows, len(rates) if hasattr(rates, "__len__") else 1)


def install_layer_wrappers(tracer: Tracer, coord) -> Patches:
    """Wrap every public function the per-layer table names.

    Functions a module imported by name are patched in that module (where
    the caller looks them up); methods on the class of the instance the
    built fleet actually uses.
    """
    import repro.carbon.forecast as forecast
    import repro.core.evaluator as evaluator
    import repro.fleet.coordinator as coordinator
    import repro.shifting.scheduler as scheduler
    from repro.fleet.capacity import CapacityManager
    from repro.fleet.regional import RegionalService

    patches = Patches()
    wrap = patches.wrap
    wrap(coordinator, "plan_origin_cells", traced(tracer, PLAN))
    for attr in ("split", "region_order", "capacity_hint"):
        wrap(type(coord.router), attr, traced(tracer, ROUTER))
    wrap(RegionalService, "step", traced(tracer, STEP))
    for attr in ("sla_safe_rate", "sla_safe_rates"):
        wrap(RegionalService, attr, traced(tracer, SLA_RATE))
    for attr in ("begin_epoch", "settle"):
        wrap(CapacityManager, attr, traced(tracer, SETTLE))
    wrap(scheduler.TemporalScheduler, "plan_epoch", traced(tracer, PLAN_EPOCH))
    wrap(scheduler, "plan_batch_slots", traced(tracer, PLAN_SLOTS))
    if coord.demand is not None:
        for attr in ("rates", "total_rate"):
            wrap(type(coord.demand), attr, traced(tracer, DEMAND))
    for cls in (forecast.PersistenceForecaster, forecast.DiurnalForecaster):
        for attr in ("predict", "predict_many"):
            wrap(cls, attr, traced(tracer, FORECAST))
    for svc in coord.services:
        wrap(type(svc.controller.scheme), "optimize", traced(tracer, OPTIMIZE))

    def by_method(args) -> str:
        return EVAL_DES if args[0].method == "des" else EVAL_ANALYTIC

    for attr in ("evaluate", "evaluate_batch", "evaluate_rates"):
        wrap(evaluator.ConfigEvaluator, attr, traced(tracer, by_method))
    wrap(
        evaluator, "simulate_fifo",
        traced(tracer, SIM_DES, count=lambda a, k: len(a[0])),
    )
    wrap(
        evaluator, "estimate_fifo",
        traced(tracer, SIM_ANALYTIC, count=lambda a, k: 1),
    )
    wrap(
        evaluator, "estimate_fifo_batch",
        traced(tracer, SIM_ANALYTIC, count=_batch_rows),
    )
    return patches


def arrivals(coord, n_epochs: int) -> tuple[float, float]:
    """``(interactive, batch)`` requests the generated inputs offered.

    Interactive traffic is the demand model's global rate at each epoch
    start (the coordinator samples it there) held for the epoch, or the
    constant global rate; batch traffic is the class's fluid arrivals over
    each epoch window.
    """
    step_s = coord.step_s
    if coord.demand is None:
        interactive = coord.global_rate_per_s * step_s * n_epochs
    else:
        interactive = sum(
            coord.demand.total_rate(i * step_s / 3600.0) * step_s
            for i in range(n_epochs)
        )
    batch = 0.0
    if coord.batch is not None:
        step_h = step_s / 3600.0
        starts = (i * step_s / 3600.0 for i in range(n_epochs))
        batch = sum(coord.batch.arrivals_requests(t, t + step_h) for t in starts)
    return float(interactive), float(batch)


def outcomes(coord, result) -> dict:
    """The user-visible outcome of one run, over requests *arrived*."""
    n_epochs = len(result.results[0].epochs)
    interactive, batch = arrivals(coord, n_epochs)
    arrived = interactive + batch
    served = float(result.total_requests)
    met = sum(
        e.requests
        for r in result.results
        for e in r.epochs
        if math.isfinite(e.p95_ms) and e.p95_ms <= r.sla_target_ms
    )
    out = {
        "arrived_interactive": interactive,
        "arrived_batch": batch,
        "served": served,
        "carbon_mg_per_req": result.total_carbon_g * 1000.0 / arrived,
        "accuracy_loss_pct": float(result.accuracy_loss_pct),
        "sla_attainment": met / arrived,
        "served_req_frac": served / arrived,
        "unserved_req_frac": 0.0,
        # No batch class: no batch work was due, so none missed its deadline.
        "batch_deadline_attainment": 1.0,
        "batch_completed": 0.0,
        "batch_pending": 0.0,
    }
    pending = 0.0
    if result.has_batch:
        pending = float(result.batch_pending_requests)
        out["batch_deadline_attainment"] = float(result.batch_deadline_attainment)
        out["batch_completed"] = float(result.batch_completed_requests)
        out["batch_pending"] = pending
    out["unserved_req_frac"] = (arrived - served - pending) / arrived
    return out


def result_layers(result) -> dict:
    """Per-layer numbers read off the public result objects."""
    import numpy as np

    steps = np.diff(result.awake_gpu_series(), axis=0)
    runs = result.results
    evals = sum(r.total_evaluations for r in runs)
    opt = [r.opt_cache for r in runs if r.opt_cache is not None]
    meas = [r.measure_cache for r in runs if r.measure_cache is not None]

    def hit_rate(stats) -> float:
        total = sum(s.hits + s.misses for s in stats)
        return sum(s.hits for s in stats) / total if total else 0.0

    opt_misses = sum(s.misses for s in opt)
    return {
        "fleet.coordinator.epochs": len(runs[0].epochs),
        "fleet.capacity.wakes": float(np.maximum(steps, 0.0).sum()),
        "fleet.capacity.sleeps": float(np.maximum(-steps, 0.0).sum()),
        "fleet.capacity.awake_frac": float(result.mean_awake_fraction),
        "shifting.mean_shift_h": (
            float(result.mean_shift_h) if result.has_batch else 0.0
        ),
        "core.annealing.evals": evals,
        "core.annealing.sla_ok_frac": (
            sum(r.evaluations_sla_met for r in runs) / evals if evals else 0.0
        ),
        "core.evaluator.opt_hit_rate": hit_rate(opt),
        "core.evaluator.batched_frac": (
            sum(s.batched for s in opt) / opt_misses if opt_misses else 0.0
        ),
        "core.evaluator.measure_hit_rate": hit_rate(meas),
    }


def span_layers(tracer: Tracer, run_span_id: int) -> dict:
    """Per-layer call counts and busy times from the run's spans."""
    import numpy as np

    spans = tracer.spans
    out = {}
    for calls_name, seconds_name, span_name in (
        ("fleet.routing.plan_calls", "fleet.routing.plan_s", PLAN),
        ("fleet.regional.sla_rate_calls", "fleet.regional.sla_rate_s", SLA_RATE),
        ("fleet.capacity.settle_calls", "fleet.capacity.settle_s", SETTLE),
        ("shifting.plan_epoch_calls", "shifting.plan_epoch_s", PLAN_EPOCH),
        ("demand.calls", "demand.s", DEMAND),
        ("carbon.forecast.calls", "carbon.forecast.s", FORECAST),
        ("core.schemes.optimize_calls", "core.schemes.optimize_s", OPTIMIZE),
        ("core.evaluator.analytic_calls", "core.evaluator.analytic_s", EVAL_ANALYTIC),
        ("core.evaluator.des_calls", "core.evaluator.des_s", EVAL_DES),
        ("serving.des.calls", "serving.des.s", SIM_DES),
        ("serving.analytic.calls", "serving.analytic.s", SIM_ANALYTIC),
    ):
        calls, seconds, _ = layer_totals(spans, {span_name})
        out[calls_name] = calls
        out[seconds_name] = seconds
    out["fleet.routing.router_s"] = layer_totals(spans, {ROUTER})[1]
    out["shifting.plan_slots_s"] = layer_totals(spans, {PLAN_SLOTS})[1]
    out["serving.des.requests"] = layer_totals(spans, {SIM_DES})[2]
    out["serving.analytic.batch_rows"] = layer_totals(spans, {SIM_ANALYTIC})[2]
    steps_ms = np.array(
        [s.duration_ns / 1e6 for s in spans if s.name == STEP], dtype=np.float64
    )
    out["fleet.regional.step_s"] = float(steps_ms.sum() / 1e3)
    out["fleet.regional.step_ms_p50"] = float(np.percentile(steps_ms, 50))
    out["fleet.regional.step_ms_p98"] = float(np.percentile(steps_ms, 98))
    out["fleet.coordinator.self_s"] = self_time_ns(spans, run_span_id) / 1e9
    return out


def reference_ops_per_s(repeats: int = 20) -> float:
    """Host speed on a fixed numpy kernel, in kernel passes per second.

    The same exp/sum kernel as ``repro.perf.calibration_ops_per_s``, but
    owned by the benchmark: ``run.py`` scales the time metrics by it, so
    no change under ``src/`` may move it.
    """
    import numpy as np

    x = (np.arange(32000, dtype=np.float64) % 97.0).reshape(1000, 32) / 97.0
    w = 1.0 - x[::-1]
    best = math.inf
    for _ in range(repeats + 1):  # the first pass warms up
        t0 = time.perf_counter()
        for k in range(1, 9):
            float(np.sum(w * np.exp(-k * x), axis=1).sum())
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best


def host_info() -> dict:
    import os
    import platform

    import numpy as np

    from repro.perf import calibration_ops_per_s

    return {
        "reference_ops_per_s": reference_ops_per_s(),
        "calibration_ops_per_s": calibration_ops_per_s(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace the run; write spans here")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id) if args.spans else None
    root = tracer.open("child") if tracer else None

    import repro  # noqa: F401  (inside the root span: every user pays it)

    from repro.analysis.reporting import format_table
    from repro.scenarios import Scenario, load_scenario_file

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with span("scenarios.load"):
        spec, _ = load_scenario_file(args.scenario)
        spec = spec.with_seed(args.seed)
    if spec.parallel_regions not in (None, 1):
        raise SystemExit("the benchmark drives regions serially")
    with span("scenarios.build"):
        coord = Scenario(spec).build()
    t_built = now_ns()

    patches = install_layer_wrappers(tracer, coord) if tracer else None
    try:
        with span(RUN) as run_span:
            t0 = now_ns()
            result = coord.run(duration_h=spec.duration_h)
            t1 = now_ns()
    finally:
        if patches:
            patches.uninstall()

    with span("report.render"):
        blocks = [format_table(*result.table(), title=spec.label)]
        if result.has_demand:
            blocks.append(format_table(*result.origin_table(), title="origins"))
        if result.has_batch:
            blocks.append(format_table(*result.batch_table(), title="batch"))
        report = "\n".join(blocks)
    t_rendered = now_ns()

    out = {
        "seed": spec.seed,
        "t_built_ns": t_built,
        "t_rendered_ns": t_rendered,
        "run_s": (t1 - t0) / 1e9,
        "region_epochs": len(result.regions) * len(result.results[0].epochs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "outcomes": outcomes(coord, result),
        "host": host_info(),
    }
    if tracer:
        tracer.close(root)
        by_name = {s.name: s for s in tracer.spans}
        layers = result_layers(result)
        layers.update(span_layers(tracer, run_span.id))
        layers["scenarios.load_s"] = by_name["scenarios.load"].duration_ns / 1e9
        layers["scenarios.build_s"] = by_name["scenarios.build"].duration_ns / 1e9
        out["layers"] = layers
        out["wrappers_left"] = patches.leftovers()
        tracer.write_jsonl(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
