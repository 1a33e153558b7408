"""Shared fleet-test helpers.

Fleets a :class:`~repro.scenarios.ScenarioSpec` can describe are built
with ``Scenario(spec).build()``, exactly as the package builds them.
:func:`fleet_from_parts` is for the few tests whose inputs a spec cannot
express: a hand-made :class:`~repro.fleet.Region`, a reused
:class:`~repro.fleet.routing.Router` instance, a custom
:class:`~repro.fleet.GatingPolicy`, a mismatched latency matrix or an
out-of-range floor share.
"""

from repro.demand import DemandModel
from repro.fleet import FleetCoordinator, RegionalService, make_router


def fleet_from_parts(
    regions,
    router="static",
    *,
    scheme="base",
    seed=0,
    fidelity="smoke",
    demand=None,
    **kwargs,
) -> FleetCoordinator:
    """A coordinator over hand-built parts, one service per region.

    Region ``i`` gets seed ``seed + i``, as in the scenario builder.
    ``demand`` is a built :class:`~repro.demand.DemandModel` or a callable
    mapping the fleet's nominal global rate to one; ``router`` is a name
    or an instance.  Every other keyword goes to
    :class:`~repro.fleet.FleetCoordinator` unchanged.
    """
    services = [
        RegionalService.create(
            region=region, scheme=scheme, fidelity=fidelity, seed=seed + i
        )
        for i, region in enumerate(regions)
    ]
    if isinstance(router, str):
        router = make_router(router)
    if demand is not None and not isinstance(demand, DemandModel):
        demand = demand(float(sum(s.nominal_rate_per_s for s in services)))
    return FleetCoordinator(services, router, demand=demand, **kwargs)
