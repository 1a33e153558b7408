"""Controller epoch accounting and run records."""

import numpy as np
import pytest

from repro.carbon.intensity import CarbonIntensityTrace
from repro.carbon.monitor import CarbonIntensityMonitor
from repro.core.config import base_config
from repro.core.controller import ServiceController
from repro.core.evaluator import ConfigEvaluator
from repro.core.objective import ObjectiveSpec
from repro.core.schemes import make_scheme
from repro.core.service import FidelityProfile
from repro.serving.sla import SlaPolicy
from repro.serving.workload import default_rate
from repro.utils.rng import RngMixer


def flat_trace(ci=200.0, span=48.0):
    return CarbonIntensityTrace(
        times_h=np.array([0.0, span]), values=np.array([ci, ci]), name="flat"
    )


def varying_trace():
    t = np.arange(0.0, 49.0, 1.0)
    v = 200.0 + 100.0 * np.sin(2 * np.pi * t / 24.0)
    return CarbonIntensityTrace(times_h=t, values=v, name="sine")


@pytest.fixture()
def parts(zoo, perf):
    fam = zoo.family("efficientnet")
    n = 2
    rate = default_rate(fam, perf, n)
    opt_eval = ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=n,
        method="analytic",
    )
    measure_eval = ConfigEvaluator(
        zoo=zoo, perf=perf, family=fam.name, rate_per_s=rate, n_gpus=n,
        method="des", des_requests=600, seed=5,
    )
    base_ev = measure_eval.evaluate(base_config(fam, n))
    objective = ObjectiveSpec(
        lambda_weight=0.5,
        a_base=fam.base_accuracy,
        c_base=0.0015,
        sla=SlaPolicy(p95_target_ms=base_ev.p95_ms),
    )
    return fam, n, rate, opt_eval, measure_eval, objective


def build_controller(parts, scheme_name, trace, step_s=1800.0):
    fam, n, rate, opt_eval, measure_eval, objective = parts
    scheme = make_scheme(
        scheme_name,
        zoo=opt_eval.zoo,
        family=fam.name,
        n_gpus=n,
        evaluator=opt_eval,
        objective=objective,
        mixer=RngMixer(seed=0),
    )
    return ServiceController(
        scheme=scheme,
        objective=objective,
        monitor=CarbonIntensityMonitor(trace),
        measure_evaluator=measure_eval,
        rate_per_s=rate,
        application="classification",
        step_s=step_s,
    )


class TestEpochAccounting:
    def test_epoch_count(self, parts):
        controller = build_controller(parts, "base", flat_trace())
        result = controller.run(6.0)
        assert len(result.epochs) == 12  # 6 h at 30-minute epochs
        assert result.duration_h == pytest.approx(6.0)

    def test_requests_match_rate(self, parts):
        controller = build_controller(parts, "base", flat_trace())
        result = controller.run(4.0)
        expected = result.rate_per_s * 4 * 3600.0
        assert result.total_requests == pytest.approx(expected, rel=0.01)

    def test_carbon_is_energy_times_intensity(self, parts):
        ci = 250.0
        controller = build_controller(parts, "base", flat_trace(ci))
        result = controller.run(4.0)
        expected = result.total_energy_j / 3.6e6 * 1.5 * ci
        assert result.total_carbon_g == pytest.approx(expected, rel=1e-6)

    def test_base_never_reoptimizes(self, parts):
        controller = build_controller(parts, "base", varying_trace())
        result = controller.run(24.0)
        assert len(result.invocations) == 1  # initial deployment only
        optimized_epochs = [e for e in result.epochs if e.optimized]
        assert len(optimized_epochs) == 1

    def test_clover_reoptimizes_on_intensity_changes(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(24.0)
        assert len(result.invocations) > 3
        assert result.total_evaluations > 0

    def test_flat_trace_triggers_once(self, parts):
        controller = build_controller(parts, "clover", flat_trace())
        result = controller.run(12.0)
        assert len(result.invocations) == 1

    def test_accuracy_request_weighted(self, parts, zoo):
        fam = zoo.family("efficientnet")
        controller = build_controller(parts, "base", flat_trace())
        result = controller.run(4.0)
        assert result.mean_accuracy == pytest.approx(fam.base_accuracy, rel=0.01)
        assert result.accuracy_loss_pct == pytest.approx(0.0, abs=0.5)

    def test_optimization_time_accounted(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(24.0)
        assert result.total_optimization_s > 0
        assert 0 < result.optimization_fraction < 0.2
        # Each epoch's exploration is capped to 90% of the epoch.
        for e in result.epochs:
            assert e.optimization_s <= 0.9 * e.duration_s + 1e-9

    def test_window_breakdown_covers_run(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(24.0)
        windows = result.optimization_fraction_by_window(8.0)
        assert len(windows) == 3
        assert all(w >= 0 for w in windows)

    def test_objective_series_shape(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(12.0)
        t, f = result.objective_series()
        assert t.shape == f.shape == (len(result.epochs),)

    def test_invalid_duration(self, parts):
        controller = build_controller(parts, "base", flat_trace())
        with pytest.raises(ValueError):
            controller.run(0.0)

    @pytest.mark.parametrize(
        "fidelity, duration_h",
        [("smoke", 0.01), ("smoke", 1.5), ("default", 0.25)],
    )
    def test_partial_epoch_duration_rejected(self, parts, fidelity, duration_h):
        """Regression: a duration that is not a whole number of epochs
        used to round silently (0.01 h at smoke fidelity simulated and
        reported a full hour)."""
        step_minutes = FidelityProfile.by_name(fidelity).step_minutes
        controller = build_controller(
            parts, "base", flat_trace(), step_s=step_minutes * 60.0
        )
        message = f"whole number of {step_minutes:g}-minute epochs"
        with pytest.raises(ValueError, match=message):
            controller.n_epochs(duration_h)
        with pytest.raises(ValueError, match=message):
            controller.run(duration_h)

    def test_whole_epoch_durations_tolerate_float_noise(self, parts):
        controller = build_controller(parts, "base", flat_trace(), step_s=600.0)
        assert controller.n_epochs(0.5) == 3
        assert controller.n_epochs(7 * (1 / 6)) == 7  # 7 epochs, inexact
        assert controller.n_epochs(24.0) == 144

    def test_invalid_step(self, parts):
        with pytest.raises(ValueError):
            build_controller(parts, "base", flat_trace(), step_s=0.0)


class TestInvocationRecords:
    def test_candidates_recorded(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(24.0)
        with_evals = [i for i in result.invocations if i.num_evaluations > 0]
        assert with_evals
        inv = with_evals[0]
        assert len(inv.candidates) == inv.num_evaluations
        assert inv.sla_met_count + inv.sla_violated_count == len(inv.candidates)

    def test_candidate_orders_sequential(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(12.0)
        for inv in result.invocations:
            assert [c.order for c in inv.candidates] == list(
                range(len(inv.candidates))
            )


class TestCacheReporting:
    def test_run_attaches_evaluator_cache_stats(self, parts):
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.run(12.0)
        assert result.measure_cache is not None
        assert result.measure_cache.evaluations > 0
        assert result.opt_cache is not None
        assert result.opt_cache.misses > 0

    def test_step_api_matches_run(self, parts):
        """Driving epochs by hand reproduces run() exactly (the seam the
        fleet coordinator relies on)."""
        whole = build_controller(parts, "clover", varying_trace()).run(6.0)
        controller = build_controller(parts, "clover", varying_trace())
        result = controller.begin_run()
        for i in range(controller.n_epochs(6.0)):
            controller.step(result, i, i * controller.step_s / 3600.0)
        controller.finalize(result)
        assert result.total_carbon_g == whole.total_carbon_g
        assert result.mean_accuracy == whole.mean_accuracy
        assert len(result.epochs) == len(whole.epochs)

    def test_epoch_records_carry_rate(self, parts):
        controller = build_controller(parts, "base", flat_trace())
        result = controller.run(2.0)
        for e in result.epochs:
            assert e.rate_per_s == controller.rate_per_s

    def test_step_rate_override_scales_requests(self, parts):
        controller = build_controller(parts, "base", flat_trace())
        result = controller.begin_run()
        controller.step(result, 0, 0.0)  # warm-up epoch deploys BASE
        controller.step(result, 1, 0.5, rate_per_s=controller.rate_per_s)
        half = 0.5 * controller.rate_per_s
        controller.step(result, 2, 1.0, rate_per_s=half)
        full_epoch, half_epoch = result.epochs[1], result.epochs[2]
        assert half_epoch.requests == pytest.approx(0.5 * full_epoch.requests)
        assert half_epoch.rate_per_s == half


class TestEpochCapacity:
    """Elastic-capacity accounting through the step API."""

    def test_validation(self):
        from repro.core.controller import EpochCapacity

        with pytest.raises(ValueError):
            EpochCapacity(awake_gpus=0)
        with pytest.raises(ValueError):
            EpochCapacity(awake_gpus=2, serving_gpus_at_start=3)
        with pytest.raises(ValueError):
            EpochCapacity(awake_gpus=2, wake_delay_s=-1.0)
        with pytest.raises(ValueError):
            EpochCapacity(awake_gpus=2, aux_energy_j=-1.0)
        assert EpochCapacity(awake_gpus=2).start_gpus == 2

    def test_gated_epoch_uses_less_energy(self, parts):
        from repro.core.controller import EpochCapacity

        controller = build_controller(parts, "base", flat_trace())
        result = controller.begin_run()
        controller.step(result, 0, 0.0)  # warm-up deploys BASE on 2 GPUs
        full = controller.step(result, 1, 0.5, rate_per_s=None)
        quarter = 0.25 * controller.rate_per_s
        gated = controller.step(
            result, 2, 1.0, rate_per_s=quarter,
            capacity=EpochCapacity(awake_gpus=1, aux_energy_j=100.0),
        )
        assert gated.awake_gpus == 1
        assert gated.num_instances == 1
        assert gated.energy_j < full.energy_j
        assert full.awake_gpus is None

    def test_aux_energy_lands_in_the_record(self, parts):
        from repro.core.controller import EpochCapacity

        controller = build_controller(parts, "base", flat_trace())
        result = controller.begin_run()
        controller.step(result, 0, 0.0)
        rate = 0.25 * controller.rate_per_s
        plain = controller.step(
            result, 1, 0.5, rate_per_s=rate,
            capacity=EpochCapacity(awake_gpus=1),
        )
        charged = controller.step(
            result, 2, 1.0, rate_per_s=rate,
            capacity=EpochCapacity(awake_gpus=1, aux_energy_j=5000.0),
        )
        assert charged.energy_j == pytest.approx(plain.energy_j + 5000.0)
        assert charged.carbon_g > plain.carbon_g

    def test_reactive_wake_window_degrades_the_tail(self, parts):
        """A wake epoch is measured partly at the pre-wake capacity: with
        the full rate landing on half the cluster, the blended p95 must
        sit above the steady post-wake measurement."""
        from repro.core.controller import EpochCapacity

        controller = build_controller(parts, "base", flat_trace())
        result = controller.begin_run()
        controller.step(result, 0, 0.0)
        steady = controller.step(result, 1, 0.5, rate_per_s=None)
        woke = controller.step(
            result, 2, 1.0, rate_per_s=controller.rate_per_s,
            capacity=EpochCapacity(
                awake_gpus=2, serving_gpus_at_start=1, wake_delay_s=300.0,
            ),
        )
        assert woke.awake_gpus == 2
        assert woke.p95_ms > steady.p95_ms

    def test_capacity_cleared_between_steps(self, parts):
        """An ungated step after a gated one must be indistinguishable
        from the seed loop (the awake cap must not leak)."""
        from repro.core.controller import EpochCapacity

        gated_then_plain = build_controller(parts, "base", flat_trace())
        result = gated_then_plain.begin_run()
        gated_then_plain.step(result, 0, 0.0)
        gated_then_plain.step(
            result, 1, 0.5, rate_per_s=0.25 * gated_then_plain.rate_per_s,
            capacity=EpochCapacity(awake_gpus=1),
        )
        after = gated_then_plain.step(result, 2, 1.0, rate_per_s=None)

        plain = build_controller(parts, "base", flat_trace())
        ref_result = plain.begin_run()
        plain.step(ref_result, 0, 0.0)
        plain.step(ref_result, 1, 0.5, rate_per_s=None)
        reference = plain.step(ref_result, 2, 1.0, rate_per_s=None)
        assert after.p95_ms == reference.p95_ms
        assert after.energy_j == reference.energy_j
