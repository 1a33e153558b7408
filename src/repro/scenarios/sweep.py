"""Sweeps: grid-expand a ScenarioSpec and run the grid, optionally parallel.

EcoServe's lesson (PAPERS.md) is that provisioning/scheduling knobs are
worth sweeping *jointly*; this module makes that a one-liner over any spec
field.  :func:`expand` takes a base spec plus ``{dotted.path: values}``
axes and returns the full Cartesian grid as specs (via
:meth:`ScenarioSpec.override`, so unknown paths fail with the valid
fields); :func:`run_sweep` executes a spec list — serially, or fanned out
over a process pool, which is the right grain for parallelism here:
scenarios are independent simulations minutes long, so workers scale
near-linearly where the per-epoch thread driver is GIL-bound.

>>> from repro.scenarios import RegionSpec, ScenarioSpec
>>> base = ScenarioSpec(regions=(RegionSpec(name="us-ciso"),))
>>> grid = expand(base, {"routing.router": ["static", "latency"], "seed": [0, 1]})
>>> [(s.routing.router, s.seed) for s in grid]
[('static', 0), ('static', 1), ('latency', 0), ('latency', 1)]
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from repro.fleet import FleetResult
from repro.scenarios.scenario import execute_spec
from repro.scenarios.spec import ScenarioSpec

__all__ = ["expand", "run_sweep", "sweep"]


def expand(
    base: ScenarioSpec, axes: Mapping[str, Sequence]
) -> list[ScenarioSpec]:
    """The Cartesian grid of ``base`` with every axis combination applied.

    ``axes`` maps dotted spec paths (``"routing.router"``, ``"seed"``,
    ``"gating.mode"``) to value sequences.  The grid is in row-major
    order — the first axis varies slowest — which keeps sweep tables
    grouped by the first knob.  Every produced spec is validated on
    construction, so an invalid combination fails at expansion time with
    the offending values in the message.
    """
    if not axes:
        return [base]
    paths = list(axes)
    for path, values in axes.items():
        if isinstance(values, str) or not isinstance(values, Sequence):
            raise ValueError(
                f"sweep axis {path!r} needs a sequence of values, "
                f"got {values!r}"
            )
        if len(values) == 0:
            raise ValueError(f"sweep axis {path!r} has no values")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            # Each grid point is one row of the sweep table, keyed by its
            # axis values; a repeated value would be the same row twice.
            raise ValueError(f"sweep axis {path!r} repeats {repeated[0]!r}")
    grid = []
    for combo in itertools.product(*(axes[p] for p in paths)):
        spec = base
        for path, value in zip(paths, combo):
            spec = spec.override(path, value)
        grid.append(spec)
    return grid


def run_sweep(
    specs: Sequence[ScenarioSpec], workers: int | None = None
) -> list[FleetResult]:
    """Run every spec, returning results in spec order.

    ``workers`` >= 2 executes the scenarios in a process pool of that
    many workers (each scenario is an independent deterministic
    simulation, so the parallel results are identical to the serial ones,
    order included); ``None``/1 runs them serially in-process.  Duplicate
    specs are executed once and their result shared.
    """
    specs = list(specs)
    if workers is not None and workers < 1:
        raise ValueError(f"sweep workers must be >= 1, got {workers}")
    todo = list(dict.fromkeys(specs))
    if workers is None or workers <= 1 or len(todo) <= 1:
        done = [execute_spec(spec) for spec in todo]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(todo))
        ) as pool:
            done = list(pool.map(execute_spec, todo))
    by_spec = dict(zip(todo, done))
    return [by_spec[spec] for spec in specs]


def sweep(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence],
    workers: int | None = None,
) -> list[tuple[ScenarioSpec, FleetResult]]:
    """Expand ``base`` over ``axes`` and run the grid: (spec, result) pairs."""
    grid = expand(base, axes)
    return list(zip(grid, run_sweep(grid, workers=workers)))
