"""Revealed comparative advantage and the binary knowledge space.

For a production matrix X the RCA of country c in field f is the country's
internal share of f divided by f's share of world production:

    rca[c, f] = (X[c, f] / X[c, :].sum()) / (X[:, f].sum() / X.sum())

A country has a comparative advantage where rca >= 1 (the closed bound:
equality counts).  Cells whose country total or field world total is zero
have no defined RCA; they are recorded as 0 with a cleared ``defined_mask``
bit rather than crashing on sparse data, and a per-run warning reports how
many cells were affected.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedCellWarning
from .ingest import IndexKind, ProductionTable, _owned, _Result, freeze_grid

#: Comparative-advantage cutoff applied to RCA values (closed bound).
ADVANTAGE_THRESHOLD = 1.0


@dataclass(frozen=True, eq=False, slots=True)
class RcaMatrix(_Result):
    """Country x field RCA values plus the mask of well-defined cells."""

    index_kind: IndexKind
    countries: tuple[str, ...]
    fields: tuple[str, ...]
    values: np.ndarray  # float64, >= 0 where defined, 0 elsewhere
    defined_mask: np.ndarray  # bool, True where RCA is well-defined

    def __post_init__(self) -> None:
        freeze_grid(self, values=np.float64, defined_mask=bool)

    def n_undefined(self) -> int:
        return int((~self.defined_mask).sum())

    def defined_values(self) -> np.ndarray:
        """The RCA values of all defined cells (zeros included), flattened."""
        return self.values[self.defined_mask]


@dataclass(frozen=True, eq=False, slots=True)
class AdvantageMatrix(_Result):
    """Binary country x field matrix: 1 where RCA >= 1 and defined."""

    countries: tuple[str, ...]
    fields: tuple[str, ...]
    m: np.ndarray  # bool

    def __post_init__(self) -> None:
        freeze_grid(self, m=bool)


def compute_rca(table: ProductionTable) -> RcaMatrix:
    """Compute the RCA matrix of a production table.

    Raises DataError("empty production") when the grand total is zero,
    DataError when it overflows to inf, and DataError("non-finite RCA ...")
    when a cell's quotient overflows.
    Sums are accumulated with numpy's pairwise reduction, keeping the error
    bounded on large tables; results are deterministic.
    """
    x = table.values
    country_totals = x.sum(axis=1)
    field_totals = x.sum(axis=0)
    grand_total = country_totals.sum()
    if grand_total == 0.0:
        raise DataError("empty production")
    if not math.isfinite(grand_total):
        raise DataError("production total overflows float64 (sums to inf)")

    world_share = field_totals / grand_total
    active = country_totals > 0
    # A zero country total divides as 1: its cells are all zero.  A zero world
    # share (even of a positive field total, by underflow) divides as inf, so
    # its cells, each at most 1 after the first division, come out 0.
    with np.errstate(over="ignore"):  # an overflowing cell is the DataError below
        values = (x / np.where(active, country_totals, 1.0)[:, None]
                  / np.where(world_share > 0, world_share, np.inf))
    values += 0.0  # a -0.0 cell has RCA +0.0
    # Each cell is at most 1 after the first division, so only a subnormal
    # world share can overflow the quotient; one max finds that cell.
    if not math.isfinite(values.max()):
        c, f = np.unravel_index(np.argmax(values), values.shape)
        raise DataError(
            f"non-finite RCA at ({table.countries[c]}, {table.fields[f]}): the quotient "
            f"overflows because the field's world share {float(world_share[f])!r} is subnormal"
        )
    defined = active[:, None] & (field_totals > 0)

    n_undefined = defined.size - np.count_nonzero(defined)
    if n_undefined:
        warnings.warn(
            f"{n_undefined} RCA cell(s) undefined (zero country or field total); "
            "recorded as 0 and masked",
            UndefinedCellWarning,
            stacklevel=2,
        )
    return _owned(RcaMatrix, table.index_kind, table.countries, table.fields, values, defined)


def threshold_advantage(rca: RcaMatrix) -> AdvantageMatrix:
    """Binary knowledge-space matrix: 1 exactly where defined and RCA >= 1."""
    m = rca.defined_mask & (rca.values >= ADVANTAGE_THRESHOLD)
    return _owned(AdvantageMatrix, rca.countries, rca.fields, m)


def diversity(adv: AdvantageMatrix) -> np.ndarray:
    """Per-country count of fields with a comparative advantage (row sums)."""
    return np.add.reduce(adv.m, 1, np.int64)


def ubiquity(adv: AdvantageMatrix) -> np.ndarray:
    """Per-field count of countries with a comparative advantage (column sums)."""
    return np.add.reduce(adv.m, 0, np.int64)
