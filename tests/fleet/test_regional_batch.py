"""Batched SLA-rate bisection (`sla_safe_rates`) vs the scalar method."""

import numpy as np
import pytest

from repro.fleet.regional import (
    PRE_DEPLOYMENT_BUDGET_SLACK_MS,
    RegionalService,
)
from repro.fleet.regions import region_by_name
from repro.scenarios import RegionSpec, Scenario, ScenarioSpec


@pytest.fixture(scope="module")
def fresh_service():
    region = region_by_name("us-ciso", n_gpus=2)
    return RegionalService.create(region, fidelity="smoke", seed=0)


@pytest.fixture(scope="module")
def deployed_service():
    spec = ScenarioSpec(
        regions=(RegionSpec(name="us-ciso"),), fidelity="smoke", n_gpus=2
    )
    fleet = Scenario(spec).build()
    fleet.run(duration_h=2.0)
    svc = fleet.services[0]
    assert svc.controller.deployed is not None
    return svc


class TestPreDeployment:
    def test_scalar_delegates_to_batch(self, fresh_service):
        svc = fresh_service
        cap = svc.awake_capacity_rate_per_s
        target = svc.sla_target_ms
        budgets = np.array([
            -5.0,
            0.0,
            target - PRE_DEPLOYMENT_BUDGET_SLACK_MS - 1.0,
            target - 1.0,
            target,
            target + 50.0,
        ])
        batch = svc.sla_safe_rates(budgets)
        scalar = np.array([svc.sla_safe_rate(float(b)) for b in budgets])
        np.testing.assert_array_equal(batch, scalar)  # exact
        assert batch[0] == batch[1] == 0.0  # non-positive budgets
        assert batch[2] == 0.0  # tighter than the slack window
        assert batch[3] == batch[4] == batch[5] == cap

    def test_default_budget_is_the_region_target(self, fresh_service):
        svc = fresh_service
        assert svc.sla_safe_rate() == svc.sla_safe_rate(svc.sla_target_ms)


class TestDeployed:
    def test_batch_identical_to_scalar_probes(self, deployed_service):
        svc = deployed_service
        target = svc.sla_target_ms
        budgets = np.concatenate([
            np.linspace(-10.0, 0.0, 3),  # non-positive -> 0.0
            np.linspace(1.0, 2.0 * target, 17),
        ])
        batch = svc.sla_safe_rates(budgets)
        scalar = np.array([svc.sla_safe_rate(float(b)) for b in budgets])
        # Each batch row runs exactly the scalar probe sequence, so the
        # agreement is bitwise, not approximate.
        np.testing.assert_array_equal(batch, scalar)
        assert (batch[:3] == 0.0).all()

    def test_monotone_in_budget(self, deployed_service):
        svc = deployed_service
        budgets = np.linspace(1.0, 2.0 * svc.sla_target_ms, 25)
        rates = svc.sla_safe_rates(budgets)
        assert (np.diff(rates) >= -1e-12).all()
        assert (rates <= svc.awake_capacity_rate_per_s + 1e-12).all()
