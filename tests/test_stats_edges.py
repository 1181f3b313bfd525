"""Edge-case coverage for the statistics helpers.

The percentile helpers sit under every latency figure; their degenerate
inputs (no deliveries, a single delivery, a constant latency) are exactly
the cases lossy channels now produce routinely, so they get explicit
pins here.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import (
    StreamingLatencies,
    mean_ci,
    percentile,
    summarize,
)


class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.0) == 0.0
        assert percentile([], 1.0) == 0.0

    def test_single_sample_returns_the_value(self):
        for quantile in (0.0, 0.37, 0.5, 0.99, 1.0):
            assert percentile([0.125], quantile) == 0.125

    def test_all_equal_returns_the_value(self):
        assert percentile([2.5] * 7, 0.5) == 2.5
        assert percentile([2.5] * 7, 0.9) == 2.5

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], -0.01)
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], 1.01)

    def test_linear_interpolation(self):
        assert percentile([0.0, 1.0], 0.5) == 0.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    @given(
        values=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50),
        quantile=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_result_bounded_by_sample(self, values, quantile):
        ordered = sorted(values)
        result = percentile(ordered, quantile)
        # 1-ulp slack: a*(1-f) + a*f can overshoot a in float arithmetic.
        assert math.nextafter(ordered[0], -math.inf) <= result
        assert result <= math.nextafter(ordered[-1], math.inf)


class TestMeanCi:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mean_ci([])

    def test_single_sample_zero_width(self):
        interval = mean_ci([3.0])
        assert interval.mean == 3.0
        assert interval.half_width == 0.0
        assert interval.n == 1

    def test_all_equal_zero_width(self):
        interval = mean_ci([4.0] * 5)
        assert interval.mean == 4.0
        assert interval.half_width == 0.0

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0, 2.0], confidence=1.0)

    #: scipy's ``t.ppf((1 + confidence) / 2, df)``, recorded bit for bit
    #: before the scipy import moved into ``mean_ci``.  df 1, 2, 4 and 9
    #: are the bench presets (2 seeds), ``large_grid`` (3) and paper
    #: scale (5 or 10).  scipy's quantile is not correctly rounded (it is
    #: a few ulp off the true root for many pairs), so any other quantile
    #: implementation fails these pins.
    T_QUANTILES = {
        (1, 0.90): 6.313751514675037,
        (1, 0.95): 12.706204736174694,
        (1, 0.99): 63.656741162871526,
        (2, 0.90): 2.9199855803537242,
        (2, 0.95): 4.302652729749462,
        (2, 0.99): 9.924843200918287,
        (4, 0.90): 2.1318467863266495,
        (4, 0.95): 2.7764451051977934,
        (4, 0.99): 4.604094871349992,
        (9, 0.90): 1.833112932656237,
        (9, 0.95): 2.262157162798205,
        (9, 0.99): 3.249835541592126,
    }

    @pytest.mark.parametrize("df, confidence", sorted(T_QUANTILES))
    def test_half_width_pins_the_t_quantile(self, df, confidence):
        """``[0, n, ..., n]`` has variance exactly ``n``, so its standard
        error is exactly 1.0 and the half-width is the quantile itself."""
        n = df + 1
        interval = mean_ci([0.0] + [float(n)] * df, confidence)
        assert interval.mean == float(df)
        assert interval.half_width == self.T_QUANTILES[(df, confidence)]

    @pytest.mark.parametrize(
        "n, confidence, half_width",
        [
            (2, 0.95, 6.353102368087347),
            (3, 0.95, 2.48413771175033),
            (5, 0.90, 1.5074433190623229),
            (5, 0.95, 1.9632431614775572),
            (10, 0.99, 3.1114806432703017),
        ],
    )
    def test_half_width_of_a_spread_sample(self, n, confidence, half_width):
        interval = mean_ci([float(i) for i in range(1, n + 1)], confidence)
        assert interval.half_width == half_width

    def test_summarize_single(self):
        summary = summarize([2.0])
        assert summary == {
            "mean": 2.0,
            "std": 0.0,
            "min": 2.0,
            "max": 2.0,
            "n": 1.0,
        }


class TestStreamingLatencies:
    def test_empty_accumulator(self):
        acc = StreamingLatencies()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.percentile(0.5) == 0.0
        assert acc.percentile(1.0) == 0.0

    def test_quantile_out_of_range_rejected(self):
        acc = StreamingLatencies()
        acc.add(0.5)
        with pytest.raises(ValueError, match="quantile"):
            acc.percentile(-0.5)
        with pytest.raises(ValueError, match="quantile"):
            acc.percentile(2.0)

    def test_single_sample_exact_via_clamp(self):
        """min == max == sample, so the clamp returns the exact value."""
        acc = StreamingLatencies()
        acc.add(0.042)
        assert acc.mean == 0.042
        for quantile in (0.0, 0.5, 0.95, 1.0):
            assert acc.percentile(quantile) == 0.042

    def test_all_equal_exact_via_clamp(self):
        acc = StreamingLatencies()
        for _ in range(100):
            acc.add(0.25)
        assert acc.mean == pytest.approx(0.25)
        assert acc.percentile(0.5) == 0.25
        assert acc.percentile(0.99) == 0.25

    def test_below_low_and_above_high_clamped_to_observed(self):
        acc = StreamingLatencies()
        acc.add(1e-6)  # under LOW -> bin 0
        assert acc.percentile(0.5) == 1e-6
        hot = StreamingLatencies()
        hot.add(5e3)  # over HIGH -> last bin
        assert hot.percentile(0.5) == 5e3

    @given(
        values=st.lists(
            st.floats(1e-4, 1e3), min_size=1, max_size=200
        ),
        quantile=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_bounded_by_observed_range(self, values, quantile):
        acc = StreamingLatencies()
        for value in values:
            acc.add(value)
        estimate = acc.percentile(quantile)
        assert min(values) <= estimate <= max(values)

    @given(values=st.lists(st.floats(1e-3, 1e2), min_size=2, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_relative_error_within_bin_width(self, values):
        """Estimate lands within one bin width of its rank's sample.

        The accumulator resolves ``q * (n - 1)`` to the *sample* at the
        truncated rank (no interpolation), then reports that sample's
        bin midpoint — so the documented ~3.2% relative error is against
        the rank sample, not the interpolated percentile.
        """
        acc = StreamingLatencies()
        for value in values:
            acc.add(value)
        rank_sample = sorted(values)[int(0.5 * (len(values) - 1))]
        estimate = acc.percentile(0.5)
        width = math.log(acc.HIGH / acc.LOW) / (acc.BINS - 2)
        assert abs(math.log(estimate / rank_sample)) <= width + 1e-9
