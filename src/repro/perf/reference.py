"""Plain reference implementations that the fast kernels are tested against.

No run path imports this module: it holds the slow, obviously correct
forms of optimized code, for property tests to compare with.
"""

from __future__ import annotations

from repro.serving.analytic import QueueEstimate

__all__ = ["bisect_quantile_s"]


def bisect_quantile_s(est: QueueEstimate, q: float) -> float:
    """The ``q``-quantile of ``est``'s latency by 80 plain bisection steps.

    Doubles ``hi`` from ``max(service) + mean_wait`` until the CDF reaches
    ``q`` (infinite past 1e9 s), then halves ``[0, hi]`` 80 times, one
    :meth:`~QueueEstimate.latency_cdf` call per step.  That converges to
    the float where the CDF crosses ``q``, which the multisection kernel
    behind :meth:`~QueueEstimate.quantile_s` must match to 1e-12 relative.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if est.overloaded:
        return float("inf")
    lo = 0.0
    hi = float(est.service_s.max()) + est.mean_wait_s
    while est.latency_cdf(hi) < q:
        hi *= 2.0
        if hi > 1e9:
            return float("inf")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if est.latency_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return hi
