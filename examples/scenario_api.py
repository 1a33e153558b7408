#!/usr/bin/env python
"""The ScenarioSpec API: one declarative front door, a walkthrough.

Every earlier example assembles its fleet by hand — registry lookups,
router construction, gating policies, one bespoke loop per comparison.
This example does the same work declaratively: a **ScenarioSpec** is the
entire experiment as one composable value (topology, per-region devices
*and schemes*, demand, routing, gating, fidelity, seed), and everything
else is generic machinery:

* ``Scenario(spec).run()`` executes one spec,
* ``spec.override("routing.router", ...)`` / ``expand`` derive variants,
* ``run_sweep(grid, workers=N)`` fans a grid out over a process pool,
* ``spec_to_toml`` round-trips the spec to the same files
  ``clover-repro run`` / ``clover-repro sweep`` consume
  (see ``examples/scenarios/``).

The comparison itself reproduces the mixed-scheme headline: running the
accuracy-indifferent CO2OPT optimizer in the clean hydro region and
CLOVER on the dirty grids reaches a carbon/accuracy trade-off point
neither uniform fleet can.

    python examples/scenario_api.py
    python examples/scenario_api.py --duration-h 24 --workers 2
"""

from __future__ import annotations

import argparse

from repro.analysis import Comparison, render
from repro.scenarios import (
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
    expand,
    run_sweep,
    spec_to_toml,
)


def base_spec(duration_h: float, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="mixed-scheme-walkthrough",
        regions=(
            RegionSpec(name="nordic-hydro", scheme="co2opt"),  # clean grid
            RegionSpec(name="us-ciso"),
            RegionSpec(name="uk-eso"),
        ),
        scheme="clover",
        fidelity="smoke",
        seed=seed,
        n_gpus=2,
        duration_h=duration_h,
        routing=RoutingSpec(router="carbon-greedy"),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-h", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="process-pool width for the sweep (1 = serial)",
    )
    args = parser.parse_args()

    mixed = base_spec(args.duration_h, args.seed)
    print("The spec as the TOML file `clover-repro run` would consume:\n")
    print(spec_to_toml(mixed))

    # One declarative line per fleet variant: the uniform baselines are
    # the same spec with the per-region override dropped.
    uniform_clover = ScenarioSpec(
        regions=tuple(RegionSpec(name=r.name) for r in mixed.regions),
        **{
            k: getattr(mixed, k)
            for k in (
                "scheme", "fidelity", "seed", "n_gpus", "duration_h", "routing"
            )
        },
    )
    uniform_co2opt = uniform_clover.override("scheme", "co2opt")

    fleets = Comparison(
        {
            label: Scenario(spec).run()
            for label, spec in (
                ("uniform clover", uniform_clover),
                ("mixed co2opt+clover", mixed),
                ("uniform co2opt", uniform_co2opt),
            )
        },
        columns=("Schemes", "Carbon(g)", "AccLoss%", "SLA%"),
        label_header="Fleet",
    )
    print(render(fleets, title="-- per-region schemes: the trade-off sandwich --"))

    # Sweep the router axis over the mixed fleet, optionally in parallel.
    grid = expand(mixed, {"routing.router": ["static", "carbon-greedy"]})
    results = run_sweep(grid, workers=args.workers)
    routers = Comparison(
        {spec.routing.router: result for spec, result in zip(grid, results)},
        columns=("Carbon(g)", "AccLoss%"),
        label_header="Router",
    )
    print()
    print(
        render(
            routers,
            title=(
                f"-- router sweep ({len(grid)} scenarios, "
                f"{args.workers} worker(s)) --"
            ),
        )
    )


if __name__ == "__main__":
    main()
