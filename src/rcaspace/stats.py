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

#: Hyndman & Fan's (alpha, beta) for the rules that interpolate at the
#: virtual index n*p + (alpha + p*(1 - alpha - beta)) - 1.
_ALPHA_BETA = {
    "interpolated_inverted_cdf": (0, 1),
    "hazen": (0.5, 0.5),
    "weibull": (0, 0),
    "median_unbiased": (1 / 3.0, 1 / 3.0),
    "normal_unbiased": (3 / 8.0, 3 / 8.0),
}

#: The rules that take an order statistic at (n - 1) * p, rounded as numpy
#: does ("nearest" rounds half to even).
_ROUNDED_INDEX = {"lower": math.floor, "higher": math.ceil, "nearest": round}

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


def _quantile(ordered: np.ndarray, p: float, rule: str) -> float:
    """The ``p`` quantile of the sorted ``ordered`` by ``rule``, as ``np.quantile`` gives it.

    The virtual indexes are Hyndman & Fan's (1996), computed with numpy's
    formulas in numpy's order of operations; the discrete rules pick numpy's
    order statistic, and the others interpolate as numpy's ``_lerp`` does,
    from the upper end when the weight is at least 0.5.
    """
    n = ordered.size
    if rule in _ROUNDED_INDEX:
        return ordered.item(_ROUNDED_INDEX[rule]((n - 1) * p))
    if rule in ("inverted_cdf", "closest_observation"):
        v = n * p - 1 if rule == "inverted_cdf" else n * p - 1 - 0.5
        k = math.floor(v)
        if v != k or (rule == "closest_observation" and k % 2 == 0):
            k += 1
        return ordered.item(max(k, 0))
    if rule == "linear":
        v = (n - 1) * p
    elif rule == "averaged_inverted_cdf":
        v = n * p - 1
    elif rule == "midpoint":
        v = 0.5 * (math.floor((n - 1) * p) + math.ceil((n - 1) * p))
    else:
        alpha, beta = _ALPHA_BETA[rule]
        v = n * p + (alpha + p * (1 - alpha - beta)) - 1
    if v >= n - 1:  # numpy reads index -1 here, so its weight is v - (-1)
        i, j, t = n - 1, n - 1, v + 1
    elif v < 0:
        i, j, t = 0, 0, v
    else:
        i = math.floor(v)
        j, t = i + 1, v - i
    if rule == "averaged_inverted_cdf":
        t = 0.5 if t == 0 else 1.0
    elif rule == "midpoint":
        t = 0.0 if v % 1 == 0 else 0.5
    a, b = ordered.item(i), ordered.item(j)
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


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
    return DistributionSummary(
        n=int(arr.size),
        minimum=minimum,
        q1=_quantile(ordered, 0.25, quartile_rule),
        median=_quantile(ordered, 0.5, quartile_rule),
        # rounding can put the mean of equal values one ulp outside them
        mean=min(max(float(arr.mean()), minimum), maximum),
        q3=_quantile(ordered, 0.75, quartile_rule),
        maximum=maximum,
    )


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Standard Pearson correlation coefficient, clipped into [-1, 1].

    Inputs must be equal-length (>= 2) and both non-constant; zero variance
    raises ``DataError("degenerate correlation input")``.
    """
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise DataError("correlation needs at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float((xc * xc).sum())
    syy = float((yc * yc).sum())
    if sxx == 0.0 or syy == 0.0:
        raise DataError("degenerate correlation input")
    # single square root keeps r exactly +/-1 for perfectly collinear input
    r = float((xc * yc).sum()) / float(np.sqrt(sxx * syy))
    return min(1.0, max(-1.0, r))


def classify_skew(summary: DistributionSummary) -> str:
    """Classify a summary as right-skewed, symmetric, or left-skewed."""
    if abs(summary.quartile_skew) <= SYMMETRY_TOLERANCE * summary.iqr:
        return "symmetric"
    return "right-skewed" if summary.quartile_skew > 0 else "left-skewed"


def summary_table_text(summaries: Mapping[str, DistributionSummary]) -> str:
    """Aligned plain-text table: one row per distribution, six columns."""
    headers = ["", "Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max."]
    rows = [headers]
    for name, s in summaries.items():
        rows.append(
            [name]
            + [f"{v:.3f}" for v in (s.minimum, s.q1, s.median, s.mean, s.q3)]
            + [f"{s.maximum:.3f}"]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
