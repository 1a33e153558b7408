#!/usr/bin/env python
"""Temporal load shifting: deferrable batch work, a walkthrough.

Every earlier example serves one workload class: interactive requests
that must be answered the epoch they arrive — the only carbon lever is
*where* they run.  This example adds the second class from ISSUE-10: a
**deferrable batch job** (think nightly re-scoring lots) that only has
to finish within a deadline.  The temporal scheduler holds each lot
until the carbon forecast says the window is clean — or the deadline
forces it — and places it into the fleet's *leftover* capacity, never
displacing interactive traffic.  Three runs side by side:

* **admit-on-arrival** — the batch is served the epoch it lands
  (``batch.defer = false``); spatial routing still picks the cleanest
  region, but the *when* is fixed,
* **deferred** — the scheduler shifts lots into forecast-clean windows
  within their deadline; fleet carbon drops at the same 100% deadline
  attainment,
* **deferred + gating** — the interplay: reactive gating sleeps GPUs
  through demand valleys, and the scheduler's hold hints keep them
  awake exactly where the backlog needs the clean window.

    python examples/load_shifting.py
    python examples/load_shifting.py --duration-h 24 --jobs-per-h 600
"""

from __future__ import annotations

import argparse

from repro.analysis import Comparison, render
from repro.scenarios import (
    BatchSpec,
    DemandSpec,
    RegionSpec,
    RoutingSpec,
    Scenario,
    ScenarioSpec,
)

#: Small clusters + smoke fidelity keep the example interactive (~seconds).
EXAMPLE_GPUS = 2
REGIONS = ("nordic-hydro", "us-ciso")


def base_spec(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec(
        name="load-shifting-walkthrough",
        regions=tuple(RegionSpec(name=n) for n in REGIONS),
        application=args.application,
        scheme="clover",
        fidelity="smoke",
        seed=args.seed,
        n_gpus=args.n_gpus,
        duration_h=args.duration_h,
        routing=RoutingSpec(router="carbon-greedy"),
        demand=DemandSpec(
            kind="diurnal", ramp_share_per_h=0.10, drain_share_per_h=0.20
        ),
        batch=BatchSpec(
            jobs_per_h=args.jobs_per_h,
            requests_per_job=100.0,
            deadline_h=args.deadline_h,
        ),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--application", default="classification")
    parser.add_argument("--duration-h", type=float, default=48.0)
    parser.add_argument("--jobs-per-h", type=float, default=432.0,
                        dest="jobs_per_h")
    parser.add_argument("--deadline-h", type=float, default=8.0,
                        dest="deadline_h")
    parser.add_argument("--n-gpus", type=int, default=EXAMPLE_GPUS,
                        dest="n_gpus")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = base_spec(args)
    runs = Comparison(
        {
            "admit-on-arrival": Scenario(
                spec.override("batch.defer", False)
            ).run(),
            "deferred": Scenario(spec).run(),
            "deferred+gating": Scenario(
                spec.override("gating.mode", "reactive")
            ).run(),
        },
        columns=(
            "Carbon(g)", "SLA%", "BatchReq", "BatchOnTime%", "Shift(h)",
            "Awake%",
        ),
    )
    print(render(runs, title="-- temporal load shifting --"))
    print()

    saving = runs.saving_pct("deferred", vs="admit-on-arrival")
    print(f"deferring the same batch saves {saving:.2f}% fleet carbon")
    print("without missing a deadline or an interactive SLA target.")
    print()

    # Where did the work move?  Requests by hours-shifted-from-arrival.
    edges, counts = runs["deferred"].shift_histogram(bin_h=1.0)
    peak = max(float(counts.max()), 1.0)
    print("deferred run, shift histogram (requests by hours deferred):")
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        bar = "#" * max(1 if count else 0, round(40 * float(count) / peak))
        print(f"  {lo:4.1f}-{hi:4.1f} h  {bar:<40s}  {count:>12,.0f}")
    print()
    print("Reading the table: admit-on-arrival takes whatever the grid")
    print("looks like when a lot lands; the scheduler instead piles work")
    print("into the forecast-clean windows (the histogram's late bins are")
    print("deadline-forced admissions).  With gating on, hold hints keep")
    print("GPUs awake through the clean valleys the policy would sleep.")


if __name__ == "__main__":
    main()
