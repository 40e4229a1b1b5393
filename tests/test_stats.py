import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcaspace import DataError, DistributionSummary, pearson, summarize
from rcaspace.stats import (
    QUARTILE_RULES,
    SYMMETRY_TOLERANCE,
    classify_skew,
    summary_table_text,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def five_number(q1, median, q3, minimum=None, maximum=None, mean=None, n=100):
    minimum = q1 if minimum is None else minimum
    maximum = q3 if maximum is None else maximum
    mean = median if mean is None else mean
    return DistributionSummary(
        n=n, minimum=minimum, q1=q1, median=median, mean=mean, q3=q3, maximum=maximum
    )


class TestSummarize:
    def test_constant_sample(self):
        s = summarize(np.ones(4))
        assert (s.minimum, s.q1, s.median, s.mean, s.q3, s.maximum) == (1.0,) * 6
        assert s.n == 4
        assert s.iqr == 0.0

    def test_five_point_ladder(self):
        s = summarize(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert s.q1 == 1.0
        assert s.median == 2.0
        assert s.mean == 2.0
        assert s.q3 == 3.0
        assert s.minimum == 0.0 and s.maximum == 4.0

    def test_interpolated_quartiles(self):
        # default rule interpolates at position 1 + p(n-1)
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.q1 == 1.75
        assert s.median == 2.5
        assert s.q3 == 3.25

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty distribution"):
            summarize(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            summarize(np.array([1.0, np.nan]))

    def test_accepts_plain_iterables(self):
        assert summarize([3, 1, 2]).median == 2.0

    def test_order_invariance(self):
        a = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        assert summarize(a) == summarize(np.sort(a))

    @settings(max_examples=60)
    @given(st.lists(finite_floats, min_size=1, max_size=40))
    @example([0.1, 0.1, 0.1])  # np.mean gives 0.10000000000000002 > max
    def test_ordering_invariant(self, xs):
        s = summarize(np.array(xs))
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum

    @settings(max_examples=60)
    @given(
        st.lists(finite_floats, min_size=2, max_size=30),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_equivariance(self, xs, a, b):
        base = summarize(np.array(xs))
        scaled = summarize(a * np.array(xs) + b)
        for field in ("minimum", "q1", "median", "mean", "q3", "maximum"):
            assert getattr(scaled, field) == pytest.approx(
                a * getattr(base, field) + b, rel=1e-9, abs=1e-6
            )

    def test_alternate_quartile_rule(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert summarize(values, quartile_rule="midpoint").q1 != summarize(values).q1
        assert "linear" in QUARTILE_RULES and QUARTILE_RULES[0] == "linear"

    def test_only_non_default_rules_call_numpy_quantile(self, monkeypatch):
        class QuantileCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise QuantileCalled

        monkeypatch.setattr("rcaspace.stats.np.quantile", refuse)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert summarize(values).q1 == 1.75
        with pytest.raises(QuantileCalled):
            summarize(values, "hazen")

    def test_unknown_rule_rejected(self):
        with pytest.raises(DataError, match="unknown quartile rule"):
            summarize(np.array([1.0]), quartile_rule="mystery")

    def test_as_dict_fields(self):
        s = summarize(np.array([1.0, 2.0, 9.0]))
        d = s.as_dict()
        assert d["n"] == 3
        assert d["median"] == s.median
        assert d["quartile_skew"] == s.quartile_skew

    def test_empty_summary_rejected(self):
        with pytest.raises(DataError, match="empty distribution"):
            DistributionSummary(
                n=0, minimum=0.0, q1=0.0, median=0.0, mean=0.0, q3=0.0, maximum=0.0
            )

    def test_non_monotone_summary_rejected(self):
        with pytest.raises(DataError, match="monotone"):
            DistributionSummary(
                n=3, minimum=0.0, q1=2.0, median=1.0, mean=1.0, q3=3.0, maximum=4.0
            )


#: Cells for the quartile differential: ties, signed zeros, subnormals, the
#: smallest normal and huge values of both signs (small enough that the
#: mean and the interpolation steps stay finite).
QUARTILE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 1e-310,
                     2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@settings(max_examples=400)
@given(st.lists(QUARTILE_CELLS, min_size=1, max_size=50))
@example([1.0, 2.0, 3.0, 4.0])
@example([0.0, -0.0, 1.0])
def test_quartiles_equal_numpy_for_every_rule(xs):
    """One sort gives np.quantile's quartiles and the array's extremes, bit
    for bit; a -0.0 ties with 0.0 in any order, so with one present they are
    only required to be equal."""
    arr = np.array(xs)
    signed_zero = bool(np.signbit(arr[arr == 0.0]).any())
    for rule in QUARTILE_RULES:
        s = summarize(arr, rule)
        got = np.array([s.q1, s.median, s.q3, s.minimum, s.maximum])
        want = np.array([*np.quantile(arr, [0.25, 0.5, 0.75], method=rule), arr.min(), arr.max()])
        if signed_zero:
            assert got.tolist() == want.tolist(), rule
        else:
            assert got.tobytes() == want.tobytes(), rule


class TestPearson:
    def test_perfect_positive(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(xs, xs) == 1.0

    def test_perfect_negative(self):
        xs = np.array([1.0, 2.0, 3.0])
        assert pearson(xs, -xs) == -1.0

    def test_power_of_two_multiple_is_exactly_one(self):
        # y = +/-2**k * x scales to +/-x bit for bit, and sqrt(s * s) == s
        rng = np.random.default_rng(2014)
        for _ in range(2000):
            x = rng.normal(size=rng.integers(2, 40)) * 10.0 ** rng.integers(-5, 6)
            sign = rng.choice([-1.0, 1.0])
            assert pearson(x, sign * 2.0 ** int(rng.integers(-30, 31)) * x) == sign

    def test_other_collinear_input_is_within_four_ulps_of_one(self):
        # y = x / v is collinear with x, but for about 30% of these v the
        # rounded r is below 1, by at most 4 * 2**-53
        rng = np.random.default_rng(2014)
        rs = np.array([pearson([0.0, v, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
                       for v in rng.uniform(0.5, 1.0, 2000)])
        assert np.count_nonzero(rs != 1.0) > 0
        assert 1.0 - 4 * 2.0**-53 <= rs.min() <= rs.max() <= 1.0

    def test_known_value(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ys = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        assert pearson(xs, ys) == pytest.approx(0.8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            pearson(np.array([1.0, 2.0]), np.array([1.0]))

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 2"):
            pearson(np.array([1.0]), np.array([1.0]))

    def test_constant_input_degenerate(self):
        with pytest.raises(DataError, match="degenerate correlation input"):
            pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("xs, ys", [
        pytest.param([1e300, 0, 0, 1], [1e300, 0, 0, 1], id="squares-overflow"),
        pytest.param([0, 1e-170, 0, 0], [0, 1, 0, 0], id="squares-underflow"),
    ])
    def test_extreme_magnitudes_correlate(self, xs, ys):
        with np.errstate(all="raise"):
            assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-15)
        assert pearson(xs, np.negative(ys)) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            pearson([1.0, bad, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="non-finite"):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0, bad])

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-1000, 1000), min_size=2, max_size=30),
        st.lists(st.integers(-1000, 1000), min_size=2, max_size=30),
    )
    def test_bounded_and_symmetric(self, xs, ys):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n], dtype=float)
        y = np.array(ys[:n], dtype=float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == pytest.approx(r, abs=1e-15)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=20, unique=True),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_affine_invariance(self, xs, a, b):
        x = np.array(xs, dtype=float)
        y = np.sin(x)  # deterministic nonlinear partner
        if np.ptp(y) == 0:
            return
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-9)


class TestSkewClassification:
    def test_right_skewed_quartiles(self):
        # upper half stretched well past the 15%-of-IQR symmetry band
        s = five_number(0.416, 0.827, 1.427, minimum=0.0, maximum=144.3, mean=1.289)
        assert classify_skew(s) == "right-skewed"
        assert s.quartile_skew == pytest.approx(0.189, abs=1e-12)

    def test_near_symmetric_quartiles(self):
        s = five_number(0.640, 0.952, 1.290, minimum=0.0, maximum=23.7, mean=1.116)
        assert classify_skew(s) == "symmetric"

    def test_left_skewed(self):
        assert classify_skew(five_number(0.0, 0.9, 1.0)) == "left-skewed"

    def test_constant_is_symmetric(self):
        assert classify_skew(five_number(2.0, 2.0, 2.0)) == "symmetric"

    def test_band_edge_is_inclusive(self):
        # quartile skew exactly equal to 0.15 * IQR stays symmetric
        s = five_number(0.0, 8.5, 20.0)  # skew = 3.0 == 0.15 * 20.0, exactly
        assert classify_skew(s) == "symmetric"
        assert classify_skew(five_number(0.0, 8.25, 20.0)) == "right-skewed"  # skew = 3.5

    def test_default_tolerance(self):
        assert SYMMETRY_TOLERANCE == 0.15


class TestSummaryTable:
    def test_header_and_alignment(self):
        rows = {"documents": summarize(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))}
        text = summary_table_text(rows)
        lines = text.splitlines()
        for header in ("Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max."):
            assert header in lines[0]
        assert lines[1].startswith("documents")
        assert "2.000" in lines[1]

    def test_three_decimal_formatting(self):
        text = summary_table_text({"x": five_number(0.5, 1.0, 2.0)})
        assert "0.500" in text and "1.000" in text and "2.000" in text
