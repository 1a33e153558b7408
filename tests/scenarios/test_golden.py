"""Golden tests: the ScenarioSpec path keeps the legacy path's numbers.

Two layers of protection against redesign drift:

* **Execution** — ``golden_fleet.json`` holds the results the legacy
  keyword-argument assembly path produced, before the scenario builder
  became the only assembly path, for one representative spec per
  experiment family (``fig16``/``fleet``/``demand``/``gating``/
  ``hetero``): totals, per-region per-epoch p95/energy/requests, user
  SLA attainment and the awake-GPU series.  The scenario path must
  reproduce them.  On the host that recorded them the match is exact;
  the ``rel=1e-9`` tolerance only absorbs libm/SIMD differences between
  hosts.
* **Spec mapping** — the experiment entries must build exactly the
  literal specs below, so the registry entries, the ``fleet`` CLI and
  standalone scenario files can never diverge.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner
from repro.scenarios import (
    DemandSpec,
    GatingSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

GOLDEN = json.loads(Path(__file__).with_name("golden_fleet.json").read_text())

DIURNAL = DemandSpec(
    kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
)
DEMAND_REGIONS = tuple(
    RegionSpec(name=n) for n in ("us-ciso", "uk-eso", "apac-solar")
)
FLEET_REGIONS = tuple(
    RegionSpec(name=n) for n in ("us-ciso", "uk-eso", "nordic-hydro")
)

#: One representative spec per experiment family (smoke fidelity, short
#: horizons — the *construction* is what is under test).
GOLDEN_SPECS = {
    "fig16": ScenarioSpec(
        regions=(RegionSpec(name="us-ciso"),),
        fidelity="smoke",
        duration_h=6.0,
        net_latency_ms=0.0,
    ),
    "fleet": ScenarioSpec(
        regions=FLEET_REGIONS,
        fidelity="smoke",
        n_gpus=2,
        duration_h=6.0,
        routing=RoutingSpec(router="carbon-greedy"),
    ),
    "demand": ScenarioSpec(
        regions=DEMAND_REGIONS,
        fidelity="smoke",
        n_gpus=2,
        duration_h=6.0,
        routing=RoutingSpec(router="forecast-aware", lookahead_h=6.0),
        demand=DIURNAL,
    ),
    "gating": ScenarioSpec(
        regions=DEMAND_REGIONS,
        fidelity="smoke",
        n_gpus=2,
        duration_h=6.0,
        routing=RoutingSpec(router="carbon-greedy"),
        demand=DIURNAL,
        gating=GatingSpec(mode="reactive"),
    ),
    "hetero": ScenarioSpec(
        regions=(
            RegionSpec(name="us-ciso", devices="a100"),
            RegionSpec(name="apac-solar", devices="l4"),
        ),
        fidelity="smoke",
        n_gpus=2,
        duration_h=6.0,
        routing=RoutingSpec(router="carbon-greedy"),
        demand=DIURNAL,
        gating=GatingSpec(mode="reactive", wake_energy_j=1000.0),
    ),
}


def close(value):
    return pytest.approx(value, rel=1e-9, nan_ok=True)


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_scenario_path_is_bit_for_bit_the_legacy_path(name):
    expected = GOLDEN[name]
    result = Scenario(GOLDEN_SPECS[name]).run()
    assert result.router_name == expected["router_name"]
    assert result.scheme_name == expected["scheme_name"]
    for total in (
        "total_requests",
        "total_energy_j",
        "total_carbon_g",
        "mean_accuracy",
        "sla_attainment",
    ):
        assert getattr(result, total) == close(expected[total]), total
    assert {r.name for r in result.regions} == set(expected["regions"])
    for region, run in zip(result.regions, result.results):
        for field in ("p95_ms", "energy_j", "requests"):
            assert [getattr(e, field) for e in run.epochs] == close(
                expected["regions"][region.name][field]
            ), (region.name, field)
    assert result.has_demand == ("user_sla_attainment" in expected)
    if result.has_demand:
        assert result.user_sla_attainment == close(
            expected["user_sla_attainment"]
        )
    assert result.has_gating == ("awake_gpu_series" in expected)
    if result.has_gating:
        assert result.awake_gpu_series() == close(
            np.array(expected["awake_gpu_series"])
        )


class RecordingRunner(ExperimentRunner):
    """Captures every spec an experiment executes (then runs it)."""

    def __init__(self):
        super().__init__()
        self.specs: list[ScenarioSpec] = []

    def run_scenario(self, spec):
        self.specs.append(spec)
        return super().run_scenario(spec)


class TestExperimentsBuildTheShimSpecs:
    """Each experiment runs exactly the specs its legacy shim produced."""

    def test_fig16(self):
        from repro.analysis.experiments import fig16_geographic

        runner = RecordingRunner()
        fig16_geographic(
            runner,
            fidelity="smoke",
            seed=0,
            applications=("classification",),
            trace_names=("ciso-march",),
        )
        expected = [
            ScenarioSpec(
                regions=(RegionSpec(name="us-ciso"),),
                application="classification",
                scheme=scheme,
                fidelity="smoke",
                seed=0,
                net_latency_ms=0.0,
            )
            for scheme in ("base", "clover")
        ]
        assert runner.specs == expected

    def test_fleet(self):
        from repro.analysis.experiments import fleet_load_shifting

        runner = RecordingRunner()
        fleet_load_shifting(
            runner,
            fidelity="smoke",
            seed=0,
            n_gpus=2,
            duration_h=3.0,
            routers=("static", "carbon-greedy"),
        )
        expected = [
            ScenarioSpec(
                regions=FLEET_REGIONS,
                scheme="clover",
                fidelity="smoke",
                seed=0,
                n_gpus=2,
                duration_h=3.0,
                routing=RoutingSpec(router=r),
            )
            for r in ("static", "carbon-greedy")
        ]
        assert runner.specs == expected

    def test_demand(self):
        from repro.analysis.experiments import demand_routing

        runner = RecordingRunner()
        demand_routing(
            runner,
            fidelity="smoke",
            seed=0,
            n_gpus=2,
            duration_h=3.0,
            routers=("static", "forecast-aware"),
        )
        expected = [
            ScenarioSpec(
                regions=DEMAND_REGIONS,
                scheme="clover",
                fidelity="smoke",
                seed=0,
                n_gpus=2,
                duration_h=3.0,
                routing=RoutingSpec(router="static"),
                demand=DIURNAL,
            ),
            ScenarioSpec(
                regions=DEMAND_REGIONS,
                scheme="clover",
                fidelity="smoke",
                seed=0,
                n_gpus=2,
                duration_h=3.0,
                routing=RoutingSpec(router="forecast-aware", lookahead_h=6.0),
                demand=DIURNAL,
            ),
        ]
        assert runner.specs == expected

    def test_gating(self):
        from repro.analysis.experiments import GATING_ROWS, gating_elasticity

        runner = RecordingRunner()
        gating_elasticity(
            runner, fidelity="smoke", seed=0, n_gpus=2, duration_h=3.0
        )
        expected = [
            ScenarioSpec(
                regions=DEMAND_REGIONS,
                scheme="clover",
                fidelity="smoke",
                seed=0,
                n_gpus=2,
                duration_h=3.0,
                routing=RoutingSpec(
                    router=router,
                    lookahead_h=(6.0 if needs_lookahead else None),
                ),
                demand=DIURNAL,
                gating=GatingSpec(mode=gating),
            )
            for _, router, gating, needs_lookahead in GATING_ROWS
        ]
        assert runner.specs == expected

    def test_hetero(self):
        from repro.analysis.experiments import (
            HETERO_DEVICES,
            HETERO_ROWS,
            HETERO_WAKE_ENERGY_J,
            hetero_fleet,
        )

        runner = RecordingRunner()
        hetero_fleet(
            runner, fidelity="smoke", seed=0, n_gpus=2, duration_h=3.0
        )
        regions = tuple(
            RegionSpec(name=region.name, devices=devices)
            for region, devices in zip(DEMAND_REGIONS, HETERO_DEVICES)
        )
        expected = [
            ScenarioSpec(
                regions=regions,
                scheme="clover",
                fidelity="smoke",
                seed=0,
                n_gpus=2,
                duration_h=3.0,
                routing=RoutingSpec(
                    router=router,
                    lookahead_h=(6.0 if needs_lookahead else None),
                    efficiency_weighted=efficiency,
                ),
                demand=DIURNAL,
                gating=GatingSpec(
                    mode="reactive", wake_energy_j=HETERO_WAKE_ENERGY_J
                ),
            )
            for _, router, efficiency, needs_lookahead in HETERO_ROWS
        ]
        assert runner.specs == expected


class TestMixedSchemeScenario:
    """The tentpole's new capability: per-region scheme assignment."""

    def _run(self, schemes):
        spec = ScenarioSpec(
            regions=(
                RegionSpec(name="nordic-hydro", scheme=schemes[0]),
                RegionSpec(name="us-ciso", scheme=schemes[1]),
            ),
            fidelity="smoke",
            n_gpus=2,
            duration_h=6.0,
            routing=RoutingSpec(router="carbon-greedy"),
        )
        return ExperimentRunner().run_scenario(spec)

    def test_mixed_scheme_runs_end_to_end(self):
        result = self._run(("co2opt", "clover"))
        assert result.scheme_name == "co2opt+clover"
        assert result.scheme_by_region == {
            "nordic-hydro": "co2opt",
            "us-ciso": "clover",
        }
        assert result.total_requests > 0
        assert result.total_carbon_g > 0

    def test_mixed_scheme_differs_from_uniform(self):
        mixed = self._run(("co2opt", "clover"))
        uniform = self._run(("clover", "clover"))
        assert uniform.scheme_name == "clover"
        assert mixed.total_carbon_g != uniform.total_carbon_g

    def test_uniform_per_region_equals_plain_scheme(self):
        """Explicit per-region schemes that all agree build the same
        coordinator as the plain scheme string — bit for bit."""
        explicit = self._run(("clover", "clover"))
        plain = ExperimentRunner().run_scenario(
            ScenarioSpec(
                regions=(
                    RegionSpec(name="nordic-hydro"),
                    RegionSpec(name="us-ciso"),
                ),
                scheme="clover",
                fidelity="smoke",
                n_gpus=2,
                duration_h=6.0,
                routing=RoutingSpec(router="carbon-greedy"),
            )
        )
        assert explicit.total_carbon_g == plain.total_carbon_g
        assert explicit.total_energy_j == plain.total_energy_j
