"""Small statistics helpers shared across the serving and analysis layers."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "exact_percentile",
    "weighted_mean",
    "normalize",
    "running_mean",
    "percentile_ci",
]


def exact_percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Return the ``q``-th percentile of ``values`` (q in [0, 100]).

    Uses the "lower-of-the-two" (inverted CDF) definition so that the result
    is always an observed sample — the convention used by tail-latency SLAs,
    where "p95 latency" means a latency some request actually experienced.

    Raises ``ValueError`` on empty input: an SLA over zero requests is
    meaningless and silently returning 0 would hide starvation bugs.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(arr, q, method="inverted_cdf"))


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    """Weighted average; raises if the total weight is zero."""
    v = np.asarray(list(values), dtype=np.float64)
    w = np.asarray(list(weights), dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    return float((v * w).sum() / total)


def normalize(values: Sequence[float], reference: float) -> np.ndarray:
    """Divide ``values`` by ``reference`` (used for 'normalized to BASE' plots)."""
    if reference == 0:
        raise ValueError("reference value must be nonzero")
    return np.asarray(values, dtype=np.float64) / reference


def running_mean(values: Sequence[float], window: int) -> np.ndarray:
    """Simple centered-ish running mean used to smooth plotted time series."""
    arr = np.asarray(values, dtype=np.float64)
    if window <= 0:
        raise ValueError("window must be positive")
    if window == 1 or arr.size == 0:
        return arr.copy()
    kernel = np.ones(min(window, arr.size)) / min(window, arr.size)
    return np.convolve(arr, kernel, mode="same")


def percentile_ci(
    values: Sequence[float] | np.ndarray,
    q: float,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    rng: int | np.random.Generator | None = 0,
) -> tuple[float, float]:
    """Bootstrap confidence interval for the ``q``-th percentile.

    Tail-latency estimates from a finite DES window carry sampling error;
    this quantifies it (scipy's BCa bootstrap).  Used when comparing a
    measured p95 against the SLA boundary: a config is only *confidently*
    violating if the whole interval sits above the target.

    Needs scipy, which is an optional extra (``clover-repro[stats]``); it
    is imported here so that ``import repro`` never loads it.
    """
    try:
        from scipy import stats as scipy_stats
    except ImportError as exc:
        raise ImportError(
            "percentile_ci needs scipy: pip install clover-repro[stats]"
        ) from exc
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 10:
        raise ValueError(
            f"need at least 10 samples for a bootstrap CI, got {arr.size}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    result = scipy_stats.bootstrap(
        (arr,),
        lambda a, axis=-1: np.percentile(a, q, axis=axis),
        confidence_level=confidence,
        n_resamples=n_resamples,
        method="percentile",
        random_state=np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator
        ) else rng,
    )
    return (
        float(result.confidence_interval.low),
        float(result.confidence_interval.high),
    )
