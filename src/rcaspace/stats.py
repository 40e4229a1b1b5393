"""Distribution summaries of RCA values and cross-index correlation.

The summary mirrors the classic six-number console layout (Min, 1st Qu.,
Median, Mean, 3rd Qu., Max).  Quartiles default to linear interpolation
between order statistics (the convention placing q_p at position 1 + p(n-1)
among sorted values); the rule is configurable since published tables rarely
state it.

A distribution is called symmetric when the quartile skew
(q3 - median) - (median - q1) is at most 15% of the interquartile range in
magnitude; beyond that, the sign decides right- or left-skewed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

#: Quartile rules accepted by :func:`summarize` (numpy quantile methods).
QUARTILE_RULES = (
    "linear",
    "hazen",
    "weibull",
    "median_unbiased",
    "normal_unbiased",
    "interpolated_inverted_cdf",
    "inverted_cdf",
    "averaged_inverted_cdf",
    "closest_observation",
    "lower",
    "higher",
    "midpoint",
    "nearest",
)

#: |quartile skew| <= SYMMETRY_TOLERANCE * IQR classifies as symmetric.
SYMMETRY_TOLERANCE = 0.15


@dataclass(frozen=True)
class DistributionSummary:
    n: int
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError("empty distribution")
        if not (self.minimum <= self.q1 <= self.median <= self.q3 <= self.maximum):
            raise DataError("summary order statistics are not monotone")

    @property
    def quartile_skew(self) -> float:
        return (self.q3 - self.median) - (self.median - self.q1)

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "mean": self.mean,
            "q3": self.q3,
            "max": self.maximum,
            "quartile_skew": self.quartile_skew,
        }


def _quartiles(ordered: np.ndarray, rule: str) -> list[float]:
    """q1, median and q3 of the sorted ``ordered`` by ``rule``, as ``np.quantile`` gives them.

    The default ``linear`` rule is computed here, since ``np.quantile`` costs
    several times a whole summary: the virtual index is (n - 1) * p, and the
    weight t interpolates as numpy's ``_lerp`` does, from the upper end when
    it is at least 0.5.
    """
    if rule != "linear":
        return np.quantile(ordered, (0.25, 0.5, 0.75), method=rule).tolist()
    n = ordered.size
    if n == 1:  # numpy interpolates the value with itself, which gives it back, -0.0 too
        return [ordered.item(0)] * 3
    out = []
    for p in (0.25, 0.5, 0.75):
        v = (n - 1) * p
        i = int(v)  # v >= 0, so this is its floor, and at most n - 2
        a, b, t = ordered.item(i), ordered.item(i + 1), v - i
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def summarize(values: Iterable[float], quartile_rule: str = "linear") -> DistributionSummary:
    """Six-number summary of a non-empty list of finite reals.

    The values are sorted once; the quartiles equal ``np.quantile``'s with
    ``method=quartile_rule``, and the extremes are the sorted ends.
    """
    if quartile_rule not in QUARTILE_RULES:
        raise DataError(
            f"unknown quartile rule {quartile_rule!r} "
            f"(expected one of: {', '.join(QUARTILE_RULES)})"
        )
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError("empty distribution")
    ordered = np.sort(arr)  # NaN sorts last, so finite ends mean finite values
    minimum, maximum = ordered.item(0), ordered.item(-1)
    if not (math.isfinite(minimum) and math.isfinite(maximum)):
        raise DataError("distribution contains a non-finite value")
    q1, median, q3 = _quartiles(ordered, quartile_rule)
    return DistributionSummary(
        n=int(arr.size),
        minimum=minimum,
        q1=q1,
        median=median,
        # rounding can put the mean of equal values one ulp outside them
        mean=min(max(float(arr.mean()), minimum), maximum),
        q3=q3,
        maximum=maximum,
    )


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Standard Pearson correlation coefficient, clipped into [-1, 1].

    Inputs must be equal-length (>= 2), finite and both non-constant; zero
    variance raises ``DataError("degenerate correlation input")``.
    """
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise DataError("correlation needs at least 2 observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("correlation input contains a non-finite value")
    # scaled by the power of two that puts the largest magnitude in [0.5, 1):
    # exact barring subnormals, so r keeps every bit and no square overflows
    xc, yc = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    xc -= xc.mean()
    yc -= yc.mean()
    sxx = float((xc * xc).sum())
    syy = float((yc * yc).sum())
    if sxx == 0.0 or syy == 0.0:
        raise DataError("degenerate correlation input")
    # one square root of the product: r is exactly +/-1 when y is x times a power
    # of two (yc is then +/-xc bit for bit, and sqrt(s * s) == s); other collinear
    # input can land a few ulps inside +/-1
    r = float((xc * yc).sum()) / float(np.sqrt(sxx * syy))
    return min(1.0, max(-1.0, r))


def classify_skew(summary: DistributionSummary) -> str:
    """Classify a summary as right-skewed, symmetric, or left-skewed."""
    if abs(summary.quartile_skew) <= SYMMETRY_TOLERANCE * summary.iqr:
        return "symmetric"
    return "right-skewed" if summary.quartile_skew > 0 else "left-skewed"


def aligned_text(rows: Sequence[Sequence[str]], min_width: int = 0) -> str:
    """``rows`` as aligned plain-text lines: the first column left-aligned, the
    others right-aligned and at least ``min_width`` wide, cells two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    widths[1:] = [max(w, min_width) for w in widths[1:]]
    lines = []
    for first, *rest in rows:
        cells = [first.ljust(widths[0])] + [cell.rjust(w) for cell, w in zip(rest, widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def summary_table_text(summaries: Mapping[str, DistributionSummary]) -> str:
    """Aligned plain-text table: one row per distribution, six columns."""
    rows = [["", "Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max."]]
    for name, s in summaries.items():
        values = (s.minimum, s.q1, s.median, s.mean, s.q3, s.maximum)
        rows.append([name] + [f"{v:.3f}" for v in values])
    return aligned_text(rows)
