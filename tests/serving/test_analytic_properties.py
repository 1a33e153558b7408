"""Property-based tests of the analytical queue estimator.

The estimator sits in the optimizer's inner loop: its *ordering* behaviour
(more load → worse latency, more capacity → better) matters even more than
its point accuracy, because SA only compares candidates.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.reference import bisect_quantile_s
from repro.serving.analytic import BatchQueueEstimate, QueueEstimate, estimate_fifo

service_times = st.lists(
    st.floats(min_value=0.001, max_value=0.2),
    min_size=1,
    max_size=30,
)


class TestCdfAndQuantiles:
    @given(service_times, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_quantiles_monotone_in_q(self, service, load):
        mu_total = sum(1.0 / s for s in service)
        est = estimate_fifo(np.asarray(service), load * mu_total)
        qs = [0.5, 0.9, 0.95, 0.99]
        values = [est.quantile_s(q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(service_times, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_cdf_bounded_and_monotone(self, service, load):
        mu_total = sum(1.0 / s for s in service)
        est = estimate_fifo(np.asarray(service), load * mu_total)
        ts = np.linspace(0.0, max(service) * 5, 25)
        cdf = [est.latency_cdf(t) for t in ts]
        assert all(0.0 <= c <= 1.0 + 1e-12 for c in cdf)
        assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))

    @given(service_times)
    @settings(max_examples=50, deadline=None)
    def test_p95_at_least_service_floor(self, service):
        """End-to-end latency can never beat the fastest service time."""
        mu_total = sum(1.0 / s for s in service)
        est = estimate_fifo(np.asarray(service), 0.3 * mu_total)
        assert est.quantile_s(0.95) >= min(service) - 1e-12


class TestLoadOrdering:
    @given(
        tau=st.floats(min_value=0.001, max_value=0.2),
        m=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_p95_nondecreasing_in_load_homogeneous(self, tau, m):
        """Monotone-in-load holds for *homogeneous* fleets.  It is genuinely
        false for heterogeneous ones: as load rises, dispatch shifts from
        round-robin toward throughput-proportional, starving slow instances
        of requests — p95 can drop.  (Hypothesis found the counterexample;
        the DES exhibits the same behaviour.)"""
        arr = np.full(m, tau)
        mu_total = m / tau
        p95s = [
            estimate_fifo(arr, load * mu_total).quantile_s(0.95)
            for load in (0.2, 0.5, 0.8)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(p95s, p95s[1:]))

    @given(service_times, st.floats(min_value=0.1, max_value=0.8))
    @settings(max_examples=40, deadline=None)
    def test_more_servers_never_hurt_wait(self, service, load):
        """Adding a clone of the fastest instance cannot increase the mean
        wait (capacity strictly grows)."""
        mu_total = sum(1.0 / s for s in service)
        rate = load * mu_total
        base = estimate_fifo(np.asarray(service), rate)
        extended = estimate_fifo(
            np.asarray(service + [min(service)]), rate
        )
        assert extended.mean_wait_s <= base.mean_wait_s + 1e-9

    @given(service_times, st.floats(min_value=0.1, max_value=0.8))
    @settings(max_examples=40, deadline=None)
    def test_utilization_linear_in_rate(self, service, load):
        mu_total = sum(1.0 / s for s in service)
        a = estimate_fifo(np.asarray(service), load * mu_total)
        b = estimate_fifo(np.asarray(service), 0.5 * load * mu_total)
        assert a.utilization == pytest.approx(2 * b.utilization)


class TestShares:
    @given(service_times, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_shares_form_distribution(self, service, load):
        mu_total = sum(1.0 / s for s in service)
        est = estimate_fifo(np.asarray(service), load * mu_total)
        assert est.shares.sum() == pytest.approx(1.0)
        assert np.all(est.shares >= 0)

    @given(service_times, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_faster_never_gets_smaller_share(self, service, load):
        """Share is non-increasing in service time."""
        mu_total = sum(1.0 / s for s in service)
        est = estimate_fifo(np.asarray(service), load * mu_total)
        order = np.argsort(service)
        ordered_shares = est.shares[order]
        assert all(
            b <= a + 1e-12 for a, b in zip(ordered_shares, ordered_shares[1:])
        )


QUANTILES = (0.5, 0.95, 0.99)


def _close(a: float, b: float) -> bool:
    """Equal, or within the kernel's 1e-12 relative stopping width."""
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _stack(ests: list[QueueEstimate]) -> BatchQueueEstimate:
    """Equal-width one-row estimates as the rows of one batch."""
    def col(name):
        return np.array([getattr(e, name) for e in ests])

    return BatchQueueEstimate(
        rates_per_s=col("rate_per_s"), utilization=col("utilization"),
        overloaded=col("overloaded"), p_wait=col("p_wait"),
        mean_wait_s=col("mean_wait_s"), mean_service_s=col("mean_service_s"),
        shares=np.stack([e.shares for e in ests]),
        service_s=np.stack([e.service_s for e in ests]),
    )


class TestKernelAgainstReference:
    """The multisection kernel vs the plain 80-step bisection it replaced."""

    @given(service_times, st.floats(min_value=0.05, max_value=1.2))
    @settings(max_examples=80, deadline=None)
    def test_matches_bisection(self, service, load):
        mu_total = sum(1.0 / s for s in service)
        est = estimate_fifo(np.asarray(service), load * mu_total)
        for q in QUANTILES:
            got, ref = est.quantile_s(q), bisect_quantile_s(est, q)
            assert (got == np.inf) == est.overloaded == (ref == np.inf)
            assert _close(got, ref), (q, got, ref)

    @given(
        service_times,
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=30, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_wait_is_the_service_mixture(self, service, weights):
        """With ``p_wait == 0`` the CDF is a step function over the service
        times, so every quantile is one of them."""
        w = np.asarray(weights[: len(service)])
        est = QueueEstimate(
            rate_per_s=1.0, utilization=0.1, overloaded=False, p_wait=0.0,
            mean_wait_s=0.0, mean_service_s=float(np.mean(service)),
            shares=w / w.sum(), service_s=np.asarray(service),
        )
        for q in QUANTILES:
            got = est.quantile_s(q)
            assert _close(got, bisect_quantile_s(est, q))
            assert any(_close(got, s) for s in service)

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(
                st.lists(st.floats(min_value=0.001, max_value=0.2), min_size=12, max_size=12),
                st.floats(min_value=0.05, max_value=1.2),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_row_and_n_row_calls_agree(self, m, rows):
        ests = []
        for service, load in rows:
            service = np.asarray(service[:m])
            ests.append(estimate_fifo(service, load * float((1.0 / service).sum())))
        batch = _stack(ests)
        for q in QUANTILES:
            for est, got in zip(ests, batch.quantile_s(q)):
                assert _close(float(got), est.quantile_s(q))
