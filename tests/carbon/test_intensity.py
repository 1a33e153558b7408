"""Carbon-intensity trace queries and interpolation."""

import numpy as np
import pytest

from repro.carbon.intensity import CarbonIntensityTrace


def make_trace(interpolation="linear"):
    return CarbonIntensityTrace(
        times_h=np.array([0.0, 1.0, 2.0, 3.0]),
        values=np.array([100.0, 200.0, 150.0, 300.0]),
        name="t",
        interpolation=interpolation,
    )


class TestQueries:
    def test_at_sample_points(self):
        tr = make_trace()
        assert tr.at(1.0) == 200.0
        assert tr.at(3.0) == 300.0

    def test_linear_interpolation(self):
        assert make_trace().at(0.5) == pytest.approx(150.0)

    def test_step_interpolation_holds_previous(self):
        tr = make_trace("step")
        assert tr.at(0.99) == 100.0
        assert tr.at(1.0) == 200.0

    def test_clamped_outside_span(self):
        tr = make_trace()
        assert tr.at(-5.0) == 100.0
        assert tr.at(99.0) == 300.0

    def test_vectorized_query(self):
        tr = make_trace()
        out = tr.at(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(out, [100.0, 150.0, 200.0])

    def test_scalar_query_returns_float(self):
        assert isinstance(make_trace().at(1.5), float)

    def test_span_and_extrema(self):
        tr = make_trace()
        assert tr.span_h == 3.0
        assert tr.min() == 100.0
        assert tr.max() == 300.0

    def test_mean_is_time_weighted(self):
        tr = CarbonIntensityTrace(
            times_h=np.array([0.0, 1.0, 3.0]),
            values=np.array([100.0, 100.0, 300.0]),
        )
        # Trapezoid: 1h at 100 + 2h averaging 200 -> (100 + 400)/3.
        assert tr.mean() == pytest.approx(500.0 / 3.0)

    def test_len(self):
        assert len(make_trace()) == 4


class TestWindow:
    def test_window_preserves_values(self):
        tr = make_trace()
        w = tr.window(0.5, 2.5)
        assert w.span_h == pytest.approx(2.0)
        assert w.at(1.0) == pytest.approx(200.0)
        assert w.at(0.5) == pytest.approx(150.0)

    def test_window_out_of_range_raises(self):
        with pytest.raises(ValueError):
            make_trace().window(-1.0, 2.0)
        with pytest.raises(ValueError):
            make_trace().window(2.0, 1.0)


class TestValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 1.0]), values=np.array([100.0])
            )

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0]), values=np.array([100.0])
            )

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 0.0]), values=np.array([1.0, 2.0])
            )

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 1.0]), values=np.array([10.0, 0.0])
            )

    @pytest.mark.parametrize("index", [1, -1])
    @pytest.mark.parametrize("field", ["times_h", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, index, field, bad):
        # NaN compares False and an infinite last time still diffs
        # positive, so neither is caught by the ordering/sign checks.
        arrays = {
            "times_h": np.array([0.0, 1.0, 2.0]),
            "values": np.array([100.0, 110.0, 120.0]),
        }
        arrays[field][index] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CarbonIntensityTrace(**arrays)

    def test_bad_interpolation_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(
                times_h=np.array([0.0, 1.0]),
                values=np.array([1.0, 2.0]),
                interpolation="cubic",
            )

    def test_arrays_readonly(self):
        tr = make_trace()
        with pytest.raises(ValueError):
            tr.values[0] = 5.0
