"""Min-conditional proximity networks over fields or over countries.

The proximity between two fields is their co-occurrence count (number of
countries with an advantage in both) divided by the larger of the two
ubiquities; between two countries, the number of shared advantage fields
divided by the larger diversity.  Dividing by the max is identical to taking
the minimum of the two conditional co-specialization probabilities, which
keeps the relation symmetric and conservative.

Pairs whose max ubiquity/diversity is zero get weight 0, not NaN: an
unproduced field is maximally non-proximate to everything, and a total
weight matrix stays export-safe.  Self-proximity is 1 for active nodes but
self-loops are excluded from node strength and from exports.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterator

import numpy as np

from .errors import DataError
from .ingest import _csv_head, _FloatMemo, BLOCK_ROWS, _long_csv_chunks, _owned
from .rca import AdvantageMatrix, diversity, ubiquity

MODES = ("fields", "countries")


@dataclass(frozen=True, eq=False)
class ProximityNetwork:
    """Symmetric weighted graph over fields or countries, weights in [0, 1].

    The constructor rejects a weight outside [0, 1] or NaN (``-0.0`` is in
    range), weights that are not bit for bit symmetric, and volumes that are
    not finite, non-negative numbers.
    """

    mode: str
    nodes: tuple[str, ...]
    weights: np.ndarray  # (n, n) symmetric, diagonal 1 for active nodes
    node_strength: np.ndarray  # sum of incident off-diagonal weights
    node_volume: np.ndarray  # raw production totals, used for node sizing

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DataError(f"unknown proximity mode {self.mode!r}")
        for name in ("weights", "node_strength"):  # copies: the caller keeps theirs
            object.__setattr__(self, name, np.array(getattr(self, name), np.float64, order="C"))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise DataError("duplicate node names")
        n = len(self.nodes)
        shapes = self.weights.shape, self.node_strength.shape
        if shapes != ((n, n), (n,)):
            raise DataError(f"weights and node strength shapes {shapes} do not match {n} nodes")
        if not np.all((self.weights >= 0.0) & (self.weights <= 1.0)):  # NaN fails both
            raise DataError("proximity weights must be in [0, 1]")
        bits = self.weights.view(np.int64)  # so a -0.0 does not pass for its 0.0
        if not np.array_equal(bits, bits.T):
            raise DataError("proximity weights must be symmetric")
        object.__setattr__(self, "node_volume", _node_volumes(self.node_volume, n))
        for arr in (self.weights, self.node_strength, self.node_volume):
            arr.setflags(write=False)


def _node_volumes(values, n: int) -> np.ndarray:
    """``values`` as a float64 copy: one finite, non-negative number per node."""
    try:
        volumes = np.array(values, dtype=np.float64)  # a copy: the caller keeps theirs
    except (TypeError, ValueError) as exc:
        raise DataError(f"node volumes must be numbers: {exc}") from None
    if volumes.shape != (n,):
        raise DataError(f"node volumes shape {volumes.shape} does not match {n} nodes")
    if not all(0 <= v < np.inf for v in volumes.tolist()):  # NaN fails both
        raise DataError("node volumes must be finite and non-negative")
    return volumes


def co_occurrence(adv: AdvantageMatrix, mode: str = "fields") -> np.ndarray:
    """Symmetric integer co-advantage counts; the diagonal equals Ubi or Div.

    The counts are computed exactly in float64, where BLAS does the product,
    and cast to int64.  The proximity networks divide that float64 product
    in place instead, so they hold no int64 copy.
    """
    if mode not in MODES:
        raise DataError(f"unknown proximity mode {mode!r}")
    return _product(adv, mode).astype(np.int64)


def _product(adv: AdvantageMatrix, mode: str) -> np.ndarray:
    """The co-advantage counts as float64, where BLAS computes them: every
    count is at most the number of countries or fields, far below 2**53, so
    the float64 sums are exact."""
    m = adv.m.astype(np.float64)
    return m.T @ m if mode == "fields" else m @ m.T


#: Cells per block of rows in the n x n stages (128 KiB of float64), so that
#: a block's temporaries are a small part of a weight matrix.
_BLOCK_CELLS = 1 << 14


def _row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of ``range(n)``, each of about ``_BLOCK_CELLS // n`` rows."""
    step = max(1, _BLOCK_CELLS // max(n, 1))
    return (slice(i, i + step) for i in range(0, n, step))


def _min_conditional_weights(co: np.ndarray) -> np.ndarray:
    """The float64 counts ``co``, divided in place by the larger of each
    pair's two totals, one block of rows at a time.

    A zero total divides as 1: its pairs have co-occurrence 0, so weight 0.
    The division of exact counts is the one of ``co / np.maximum.outer``, bit
    for bit, and no second n x n array is made.
    """
    totals = np.maximum(co.diagonal(), 1.0)  # a copy: the diagonal is divided too
    for rows in _row_blocks(len(totals)):
        block = co[rows]
        np.divide(block, np.maximum(totals[rows, None], totals), out=block)
    return co


def _network(mode: str, nodes: tuple[str, ...], co: np.ndarray, volumes) -> ProximityNetwork:
    weights = _min_conditional_weights(co)
    strength = weights.sum(axis=1) - weights.diagonal()
    volumes = np.zeros(len(nodes)) if volumes is None else _node_volumes(volumes, len(nodes))
    if len(set(nodes)) != len(nodes):  # an AdvantageMatrix may repeat a name
        raise DataError("duplicate node names")
    return _owned(ProximityNetwork, mode, nodes, weights, strength, volumes)


def field_proximity(adv: AdvantageMatrix, volumes=None) -> ProximityNetwork:
    """Proximity network between fields.

    ``volumes`` are the raw per-field production totals (for node sizing in
    exports); when omitted all volumes are zero and nodes render at the
    minimum radius.
    """
    return _network("fields", adv.fields, _product(adv, "fields"), volumes)


def country_proximity(adv: AdvantageMatrix, volumes=None) -> ProximityNetwork:
    """Proximity network between countries (transpose-dual of field_proximity)."""
    return _network("countries", adv.countries, _product(adv, "countries"), volumes)


def proximity_csv_chunks(net: ProximityNetwork) -> Iterator[str]:
    """The text of :func:`proximity_csv_text`, a group of rows at a time."""
    order = sorted(range(len(net.nodes)), key=net.nodes.__getitem__)
    heads = [_csv_head(net.nodes[i]) for i in order]
    at = np.array(order)
    weight = _FloatMemo(float.__repr__)
    n = len(heads)
    step = max(1, BLOCK_ROWS // max(n - 1, 1))  # rows of at most n - 1 lines

    def rows(i: int) -> list:
        # the weights of ranks i to i + step to the ranks after i, in name order
        by_name = net.weights.take(at[i:i + step], axis=0).take(at[i + 1:], axis=1)
        return [(heads[k], map(add, heads[k + 1:],
                               map(weight.__getitem__, by_name[k - i, k - i:].tolist())))
                for k in range(i, min(i + step, n - 1))]

    return _long_csv_chunks("node_a,node_b,weight", map(rows, range(0, n - 1, step)))


def proximity_csv_text(net: ProximityNetwork) -> str:
    """Serialize the weight matrix as ``node_a,node_b,weight`` long CSV.

    Every unordered pair appears once with a < b lexicographically, zero
    weights included, so the matrix can be reconstructed from the file.
    """
    return "".join(proximity_csv_chunks(net))
