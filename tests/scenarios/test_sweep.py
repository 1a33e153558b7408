"""Sweep expansion and (parallel) execution."""

import pytest

from repro.scenarios import (
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    expand,
    run_sweep,
    sweep,
)


def base_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        regions=(RegionSpec(name="us-ciso"), RegionSpec(name="nordic-hydro")),
        scheme="base",
        fidelity="smoke",
        n_gpus=2,
        duration_h=3.0,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestExpand:
    def test_no_axes_is_identity(self):
        spec = base_spec()
        assert expand(spec, {}) == [spec]

    def test_row_major_grid(self):
        grid = expand(
            base_spec(),
            {"routing.router": ["static", "latency"], "seed": [0, 1]},
        )
        assert [(s.routing.router, s.seed) for s in grid] == [
            ("static", 0),
            ("static", 1),
            ("latency", 0),
            ("latency", 1),
        ]

    def test_bad_axis_path_actionable(self):
        with pytest.raises(ValueError, match="valid:"):
            expand(base_spec(), {"routing.routr": ["static"]})

    def test_bad_axis_values_rejected(self):
        with pytest.raises(ValueError, match="sequence of values"):
            expand(base_spec(), {"seed": 3})
        with pytest.raises(ValueError, match="no values"):
            expand(base_spec(), {"seed": []})
        with pytest.raises(ValueError, match="'seed' repeats 0"):
            expand(base_spec(), {"seed": [0, 1, 0]})

    def test_invalid_combination_fails_at_expansion(self):
        with pytest.raises(ValueError, match="valid:"):
            expand(base_spec(), {"routing.router": ["warp-router"]})


class TestRunSweep:
    def test_parallel_equals_serial(self):
        """Acceptance: a parallel sweep returns exactly the serial results
        (scenarios are independent deterministic simulations)."""
        grid = expand(
            base_spec(),
            {"routing.router": ["static", "carbon-greedy"], "seed": [0, 1]},
        )
        assert len(grid) == 4
        serial = run_sweep(grid, workers=None)
        parallel = run_sweep(grid, workers=2)
        for s, p in zip(serial, parallel):
            assert p.total_carbon_g == s.total_carbon_g
            assert p.total_energy_j == s.total_energy_j
            assert p.total_requests == s.total_requests
            assert p.router_name == s.router_name

    def test_duplicate_specs_share_one_run(self):
        spec = base_spec()
        results = run_sweep([spec, spec])
        assert results[0] is results[1]

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_sweep([base_spec()], workers=0)

    def test_sweep_wrapper_pairs_specs_with_results(self):
        pairs = sweep(base_spec(), {"seed": [0, 1]})
        assert [spec.seed for spec, _ in pairs] == [0, 1]
        assert all(result.total_requests > 0 for _, result in pairs)


class TestParallelRegionDriver:
    def test_parallel_regions_bit_for_bit_serial(self):
        """The per-epoch thread driver changes wall-clock, not results."""
        serial = Scenario(base_spec()).run()
        threaded = Scenario(base_spec(parallel_regions=2)).run()
        assert threaded.total_carbon_g == serial.total_carbon_g
        assert threaded.total_energy_j == serial.total_energy_j
        assert threaded.total_requests == serial.total_requests
        for s_r, t_r in zip(serial.results, threaded.results):
            assert [e.p95_ms for e in s_r.epochs] == [
                e.p95_ms for e in t_r.epochs
            ]

    def test_parallel_regions_with_demand_and_gating(self):
        from repro.scenarios import DemandSpec, GatingSpec

        fields = dict(
            scheme="clover",
            routing=RoutingSpec(router="carbon-greedy"),
            demand=DemandSpec(kind="diurnal", ramp_share_per_h=0.1,
                              drain_share_per_h=0.2),
            gating=GatingSpec(mode="reactive"),
            duration_h=6.0,
        )
        serial = Scenario(base_spec(**fields)).run()
        threaded = Scenario(base_spec(parallel_regions=2, **fields)).run()
        assert threaded.total_carbon_g == serial.total_carbon_g
        assert threaded.user_sla_attainment == serial.user_sla_attainment
        assert (
            threaded.awake_gpu_series() == serial.awake_gpu_series()
        ).all()
