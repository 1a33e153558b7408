"""The benchmark's child-side code against the real simulator (smoke fidelity)."""

from pathlib import Path

import pytest

import child
import run
from tracing import Tracer

from repro.scenarios import Scenario, load_scenario_file

ROOT = Path(__file__).resolve().parents[2]


def smoke_spec(workload: str, duration_h: float = 12.0):
    spec, _ = load_scenario_file(ROOT / run.WORKLOADS[workload].scenario)
    return spec.with_fidelity("smoke").override("duration_h", duration_h)


def run_spec(spec, tracer=None):
    coord = Scenario(spec).build()
    patches = child.install_layer_wrappers(tracer, coord) if tracer else None
    try:
        result = coord.run(duration_h=spec.duration_h)
    finally:
        if patches:
            patches.uninstall()
    return coord, result, patches


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_arrivals_match_rate_times_duration_summed_over_epochs(workload):
    coord, result, _ = run_spec(smoke_spec(workload))
    n_epochs = len(result.results[0].epochs)
    interactive, batch = child.arrivals(coord, n_epochs)
    # Every epoch's routed rates sum to the global rate the demand model
    # offered; batch admissions ride on top of it.
    routed = sum(
        e.rate_per_s * e.duration_s for r in result.results for e in r.epochs
    )
    admitted = (
        float(result.batch_rates.sum()) * coord.step_s if result.has_batch else 0.0
    )
    assert interactive == pytest.approx(routed - admitted, rel=1e-9)
    if result.has_batch:
        assert batch == pytest.approx(
            result.batch_completed_requests + result.batch_pending_requests,
            rel=1e-9,
        )
        assert batch == pytest.approx(
            coord.batch.mean_rate_per_s * n_epochs * coord.step_s, rel=1e-9
        )
    else:
        assert batch == 0.0


def test_traced_run_matches_untraced_and_removes_every_wrapper():
    import repro.core.evaluator as evaluator
    from repro.fleet.regional import RegionalService

    spec = smoke_spec("batch-shift")
    before = (evaluator.simulate_fifo, RegionalService.__dict__["step"])
    coord_a, plain, _ = run_spec(spec)
    tracer = Tracer("t")
    with tracer.span(child.RUN) as run_span:
        coord_b, traced, patches = run_spec(spec, tracer)
    assert patches.records and patches.leftovers() == []
    assert (evaluator.simulate_fifo, RegionalService.__dict__["step"]) == before
    assert child.outcomes(coord_a, plain) == child.outcomes(coord_b, traced)

    layers = child.result_layers(traced)
    layers.update(child.span_layers(tracer, run_span.id))
    from_parent = {
        "unserved_req_frac", "trace.overhead_frac",
        "setup.import_repro_s", "setup.import_scipy_s",
        "scenarios.load_s", "scenarios.build_s",
    }
    assert set(layers) == set(run.LAYERS) - from_parent
    n_epochs = len(traced.results[0].epochs)
    assert layers["fleet.coordinator.epochs"] == n_epochs
    for name in (
        "shifting.plan_epoch_calls", "demand.calls", "fleet.capacity.settle_calls",
        "core.schemes.optimize_calls", "serving.des.calls",
    ):
        assert layers[name] > 0, name
    assert layers["shifting.plan_epoch_calls"] == n_epochs
    assert 0.0 < layers["fleet.coordinator.self_s"] < run_span.duration_ns / 1e9


def test_const_mixed_skips_shifting_demand_and_capacity_layers():
    spec = smoke_spec("const-mixed", duration_h=6.0)
    tracer = Tracer("t")
    with tracer.span(child.RUN) as run_span:
        coord, result, _ = run_spec(spec, tracer)
    layers = child.span_layers(tracer, run_span.id)
    for name in (
        "shifting.plan_epoch_calls", "demand.calls", "fleet.capacity.settle_calls",
    ):
        assert layers[name] == 0, name
    assert layers["core.schemes.optimize_calls"] > 0
    # co2opt's deployment window in its first epoch serves nothing.
    assert child.outcomes(coord, result)["unserved_req_frac"] > 0.0
