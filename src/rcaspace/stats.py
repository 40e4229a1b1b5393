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


def summarize(values: Iterable[float], quartile_rule: str = "linear") -> DistributionSummary:
    """Six-number summary of a non-empty list of finite reals."""
    if quartile_rule not in QUARTILE_RULES:
        raise DataError(
            f"unknown quartile rule {quartile_rule!r} "
            f"(expected one of: {', '.join(QUARTILE_RULES)})"
        )
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError("empty distribution")
    if not np.all(np.isfinite(arr)):
        raise DataError("distribution contains a non-finite value")
    q1, median, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method=quartile_rule)
    minimum, maximum = float(arr.min()), float(arr.max())
    return DistributionSummary(
        n=int(arr.size),
        minimum=minimum,
        q1=float(q1),
        median=float(median),
        # rounding can put the mean of equal values one ulp outside them
        mean=min(max(float(arr.mean()), minimum), maximum),
        q3=float(q3),
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


def classify_skew(summary: DistributionSummary, tolerance: float = SYMMETRY_TOLERANCE) -> str:
    """Classify a summary as right-skewed, symmetric, or left-skewed."""
    if abs(summary.quartile_skew) <= tolerance * summary.iqr:
        return "symmetric"
    return "right-skewed" if summary.quartile_skew > 0 else "left-skewed"


def skewness_report(summaries: Mapping[str, DistributionSummary],
                    tolerance: float = SYMMETRY_TOLERANCE) -> dict[str, str]:
    """Classification of each named distribution by quartile skew."""
    return {name: classify_skew(summary, tolerance) for name, summary in summaries.items()}


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
