"""One result shape for side-by-side fleet runs: ``label -> FleetResult``.

Clover's evaluation is a set of rows, each scheme against a baseline on
carbon, accuracy and SLA.  A :class:`Comparison` is that set: an ordered
mapping from row label to the :class:`~repro.fleet.coordinator.FleetResult`
the row ran, the names of the :data:`COLUMNS` to render, and an optional
footer row.  The fleet experiments return one, ``repro sweep`` prints one
(its labels are tuples of axis values) and the fleet examples print them.

>>> from repro.scenarios import RegionSpec, Scenario, ScenarioSpec
>>> base = ScenarioSpec(
...     regions=(RegionSpec(name="us-ciso"), RegionSpec(name="nordic-hydro")),
...     fidelity="smoke", n_gpus=2, duration_h=6.0,
... )
>>> comparison = Comparison(
...     {r: Scenario(base.override("routing.router", r)).run()
...      for r in ("static", "carbon-greedy")},
...     columns=("Carbon(g)", "SaveVsStatic%", "SLA%"),
...     label_header="Router",
... )
>>> comparison.labels
('static', 'carbon-greedy')
>>> comparison.saving_pct("carbon-greedy", vs="static") > 0.0
True
>>> headers, rows = comparison.table()
>>> headers
('Router', 'Carbon(g)', 'SaveVsStatic%', 'SLA%')
>>> rows[0][2]
'0.00'
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.fleet.coordinator import FleetResult

__all__ = ["COLUMNS", "Comparison"]


def _busiest_region(r: FleetResult) -> str:
    shares = r.request_shares
    busiest = max(shares, key=shares.get)
    return f"{busiest} ({100 * shares[busiest]:.1f}%)"


def _only(flag: str, fmt: str, value: Callable[[FleetResult], float]):
    """A column defined only for rows with a demand model or a batch class.

    The cell is ``-`` where the row lacks it (``flag`` is ``"has_demand"``
    or ``"has_batch"``) or where the value is undefined (NaN).
    """

    def cell(r: FleetResult) -> str:
        if not getattr(r, flag):
            return "-"
        v = value(r)
        return format(v, fmt) if np.isfinite(v) else "-"

    return cell


#: Every column a comparison can render: header -> the cell of one row.
#: ``SaveVsStatic%`` is the one column read against another row (the
#: comparison's ``"static"`` row), so :meth:`Comparison.table` draws it.
COLUMNS: dict[str, Callable[[FleetResult], str]] = {
    "Carbon(g)": lambda r: f"{r.total_carbon_g:,.0f}",
    "AccLoss%": lambda r: f"{r.accuracy_loss_pct:.2f}",
    "SLA%": lambda r: f"{100 * r.sla_attainment:.1f}",
    "UserSLA%": _only(
        "has_demand", ".2f", lambda r: 100 * r.user_sla_attainment
    ),
    "Net(ms)": _only("has_demand", ".1f", lambda r: r.mean_net_latency_ms),
    "CacheHit%": lambda r: f"{100 * r.cache_stats.hit_rate:.1f}",
    "Energy(kWh)": lambda r: f"{r.total_energy_j / 3.6e6:.2f}",
    "AwakeGPU%": lambda r: f"{100 * r.mean_awake_fraction:.1f}",
    "Awake%": lambda r: f"{100 * r.mean_awake_fraction:.1f}",
    "Busiest region": _busiest_region,
    "Schemes": lambda r: r.scheme_name,
    "BatchReq": _only("has_batch", ",.0f", lambda r: r.batch_completed_requests),
    "BatchOnTime%": _only(
        "has_batch", ".1f", lambda r: 100 * r.batch_deadline_attainment
    ),
    "Batch g/req": _only(
        "has_batch", ".2e", lambda r: r.batch_carbon_g_per_request
    ),
    "Shift(h)": _only("has_batch", ".2f", lambda r: r.mean_shift_h),
}

SAVE_VS_STATIC = "SaveVsStatic%"


@dataclass(frozen=True)
class Comparison:
    """Fleet runs side by side, one row per label, in insertion order.

    ``label_header`` names the label column; a tuple of headers takes
    tuple labels, one cell each (a sweep's axis values).  ``footer`` is
    an optional last row, padded with ``-`` to the table's width.
    """

    rows: Mapping[str | tuple[str, ...], FleetResult]
    columns: tuple[str, ...]
    label_header: str | tuple[str, ...] = "Run"
    footer: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = [
            c for c in self.columns if c not in COLUMNS and c != SAVE_VS_STATIC
        ]
        if unknown:
            raise ValueError(
                f"unknown column(s) {', '.join(unknown)}; valid: "
                f"{', '.join((*COLUMNS, SAVE_VS_STATIC))}"
            )

    @property
    def labels(self) -> tuple:
        return tuple(self.rows)

    def __getitem__(self, label) -> FleetResult:
        return self.rows[label]

    def saving_pct(self, label, vs) -> float:
        """Fleet carbon row ``label`` saves against row ``vs``, in percent."""
        return (1.0 - self[label].total_carbon_g / self[vs].total_carbon_g) * 100.0

    def table(self):
        def cells(label):
            return label if isinstance(label, tuple) else (label,)

        headers = (*cells(self.label_header), *self.columns)
        rows = [
            (
                *cells(label),
                *(
                    f"{self.saving_pct(label, 'static'):.2f}"
                    if column == SAVE_VS_STATIC
                    else COLUMNS[column](result)
                    for column in self.columns
                ),
            )
            for label, result in self.rows.items()
        ]
        if self.footer:
            rows.append(
                (*self.footer, *("-",) * (len(headers) - len(self.footer)))
            )
        return headers, rows
