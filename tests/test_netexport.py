import collections
import csv
import dataclasses
import io
import itertools
import json
import math
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcaspace import (
    AdvantageMatrix,
    DataError,
    ProximityNetwork,
    backbone,
    build_layout,
    country_proximity,
    emit,
    size_nodes,
)
from rcaspace import cli, netexport, proximity
from rcaspace.demo import write_demo_dataset
from rcaspace.netexport import PYTHON_LISTING_MAX_PAIRS
from rcaspace.proximity import MODES, proximity_csv_chunks, proximity_csv_text

from .oracles import reference_backbone


def net_from(weights, nodes=None, volumes=None, mode="fields"):
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    nodes = tuple(nodes) if nodes else tuple(f"N{i}" for i in range(n))
    strength = w.sum(axis=1) - np.diag(w)
    volumes = np.zeros(n) if volumes is None else np.asarray(volumes, dtype=float)
    return ProximityNetwork(mode, nodes, w, strength, volumes)


def triangle(w_ab=0.9, w_bc=0.8, w_ac=0.1):
    return net_from(
        [[1.0, w_ab, w_ac], [w_ab, 1.0, w_bc], [w_ac, w_bc, 1.0]],
        nodes=("A", "B", "C"),
    )


def components(nodes, edges):
    neighbors = {n: set() for n in nodes}
    for a, b, _ in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen, comps = set(), []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(neighbors[node] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


sym_weights = st.integers(2, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 100), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(
        lambda rows: (np.array(rows, dtype=float) + np.array(rows, dtype=float).T)
        / 200.0
    )
)


class TestBackbone:
    def test_forest_plus_threshold(self):
        kept = backbone(triangle(), threshold=0.5)
        assert kept == [("A", "B", 0.9), ("B", "C", 0.8)]

    def test_threshold_zero_keeps_all_positive(self):
        kept = backbone(triangle(), threshold=0.0)
        assert kept == [("A", "B", 0.9), ("A", "C", 0.1), ("B", "C", 0.8)]

    def test_threshold_one_keeps_only_forest_and_full_weights(self):
        kept = backbone(triangle(w_ac=1.0), threshold=1.0)
        # the weight-1 edge wins the first forest slot; 0.8 closes a cycle
        # and falls below the threshold, so it is dropped
        assert kept == [("A", "B", 0.9), ("A", "C", 1.0)]

    def test_threshold_validated(self):
        with pytest.raises(DataError, match="threshold"):
            backbone(triangle(), threshold=1.5)
        with pytest.raises(DataError, match="threshold"):
            backbone(triangle(), threshold=-0.1)

    def test_zero_weight_pairs_are_not_edges(self):
        net = net_from([[1.0, 0.0], [0.0, 1.0]], nodes=("A", "B"))
        assert backbone(net, threshold=0.0) == []

    def test_equal_weight_ties_break_lexicographically(self):
        net = net_from(
            [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]],
            nodes=("A", "B", "C"),
        )
        kept = backbone(net, threshold=0.6)
        assert kept == [("A", "B", 0.5), ("A", "C", 0.5)]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(41)
        raw = rng.random((8, 8))
        weights = (raw + raw.T) / 2.0
        np.fill_diagonal(weights, 1.0)
        net = net_from(weights)
        previous = None
        for threshold in (0.0, 0.3, 0.6, 0.9, 1.0):
            kept = set(backbone(net, threshold))
            if previous is not None:
                assert kept <= previous
            previous = kept

    @settings(max_examples=50)
    @given(sym_weights, st.floats(min_value=0.0, max_value=1.0))
    def test_connectivity_preserved(self, weights, threshold):
        np.fill_diagonal(weights, 1.0)
        net = net_from(weights)
        n = len(net.nodes)
        full = [
            (*sorted((net.nodes[i], net.nodes[j])), float(net.weights[i, j]))
            for i in range(n)
            for j in range(i + 1, n)
            if net.weights[i, j] > 0.0
        ]
        kept = backbone(net, threshold)
        assert components(net.nodes, kept) == components(net.nodes, full)
        kept_pairs = {(a, b) for a, b, _ in kept}
        assert kept_pairs <= {(a, b) for a, b, _ in full}
        assert kept == sorted(kept)

    @settings(max_examples=30)
    @given(sym_weights)
    def test_deterministic(self, weights):
        np.fill_diagonal(weights, 1.0)
        net = net_from(weights)
        assert backbone(net, 0.4) == backbone(net, 0.4)


#: The largest node count whose edges are listed in pure Python.
_SMALL_N = max(n for n in range(64) if n * (n - 1) // 2 <= PYTHON_LISTING_MAX_PAIRS)


@st.composite
def quarter_networks(draw):
    """Symmetric weights in quarter steps (ties are common), with isolated
    nodes and disconnected groups; shuffled names where "Z" < "a" < "É"."""
    n = draw(st.one_of(st.integers(0, _SMALL_N), st.integers(_SMALL_N + 1, _SMALL_N + 8)))
    names = draw(st.lists(st.text("ZaÉz", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    quarters = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    w = np.array(quarters, dtype=float).reshape(n, n) / 4.0
    w = np.triu(w) + np.triu(w, 1).T  # symmetric; the diagonal stays random
    groups = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=int)
    w[groups[:, None] != groups[None, :]] = 0.0
    w[groups == 3, :] = w[:, groups == 3] = 0.0  # group 3 nodes are isolated
    return net_from(w, names)


#: 340 names over "ZaÉz", enough for 60 distinct ones.
_NAME_POOL = ["".join(p) for k in range(1, 5) for p in itertools.product("ZaÉz", repeat=k)]


@st.composite
def numpy_listing_networks(draw):
    """The networks of ``quarter_networks`` on 15-60 nodes, which the numpy
    listing takes, drawn from one seed; names shuffled or in name order."""
    n = draw(st.integers(_SMALL_N + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = rng.choice(_NAME_POOL, n, replace=False).tolist()
    if draw(st.booleans()):
        names.sort()
    w = rng.integers(0, 5, (n, n)) / 4.0
    w = np.triu(w) + np.triu(w, 1).T  # symmetric; the diagonal stays random
    groups = rng.integers(0, draw(st.integers(1, 4)), n)
    w[groups[:, None] != groups[None, :]] = 0.0
    w[groups == 3, :] = w[:, groups == 3] = 0.0  # group 3 nodes are isolated
    return net_from(w, names)


def seeded_advantage(n, shuffled, seed=2014):
    """A seeded advantage matrix of ``n`` countries over 96 fields, whose
    country network is dense; a few countries have no advantage, so their
    nodes are isolated."""
    rng = np.random.default_rng(seed)
    m = rng.random((n, 96)) < 0.3
    m[rng.random(n) < 0.03] = False
    order = rng.permutation(n) if shuffled else range(n)
    fields = tuple(f"F{j:02d}" for j in range(96))
    return AdvantageMatrix(tuple(f"C{k:03d}" for k in order), fields, m)


class TestBackboneReference:
    @settings(max_examples=200, deadline=None)
    @given(
        quarter_networks(),
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_equals_string_kruskal(self, net, threshold):
        expected = reference_backbone(net.nodes, net.weights.tolist(), threshold)
        assert backbone(net, threshold) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        numpy_listing_networks(),
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_numpy_listing_equals_string_kruskal(self, net, threshold):
        expected = reference_backbone(net.nodes, net.weights.tolist(), threshold)
        assert backbone(net, threshold) == expected

    @pytest.mark.parametrize("shuffled", [False, True], ids=["name-order", "shuffled"])
    def test_min_conditional_network_equals_string_kruskal(self, shuffled):
        net = country_proximity(seeded_advantage(320, shuffled))
        for threshold in (0.0, 0.4):
            expected = reference_backbone(net.nodes, net.weights.tolist(), threshold)
            assert backbone(net, threshold) == expected

    def test_isolated_nodes_stop_the_forest_at_its_last_join(self, monkeypatch):
        # 30 connected nodes and 10 isolated ones: once the 30 form one tree,
        # no later block of pairs goes to the union-find
        rng = np.random.default_rng(7)
        w = np.triu(rng.random((40, 40)), 1)
        w[30:, :] = w[:, 30:] = 0.0
        net = net_from(w + w.T + np.eye(40), [f"n{k:02d}" for k in rng.permutation(40)])
        joins_per_block, real_union = [], netexport._union

        def union(parent, a, b):
            joined = real_union(parent, a, b)
            joins_per_block.append(len(joined))
            return joined

        monkeypatch.setattr(netexport, "_union", union)
        for threshold in (0.0, 0.4, 1.0):
            joins_per_block.clear()
            expected = reference_backbone(net.nodes, net.weights.tolist(), threshold)
            assert backbone(net, threshold) == expected
            assert sum(joins_per_block) == 29
            assert joins_per_block[-1] > 0

    def test_two_components_and_isolated_nodes_unite_only_while_joining(self, monkeypatch):
        # two dense groups of 25 and 15 nodes and 10 isolated ones: every
        # block that goes to the union-find joins a pair, and none comes after
        # the last join, though the paired nodes never form one tree
        rng = np.random.default_rng(16)
        w = np.triu(rng.random((50, 50)), 1)
        group = np.repeat([0, 1, 2], [25, 15, 10])
        w[group[:, None] != group[None, :]] = 0.0
        w[group == 2, :] = 0.0
        net = net_from(w + w.T + np.eye(50), [f"n{k:02d}" for k in rng.permutation(50)])
        joins_per_block, real_union = [], netexport._union

        def union(parent, a, b):
            joined = real_union(parent, a, b)
            joins_per_block.append(len(joined))
            return joined

        monkeypatch.setattr(netexport, "_union", union)
        for threshold in (0.0, 0.4, 1.0):
            joins_per_block.clear()
            expected = reference_backbone(net.nodes, net.weights.tolist(), threshold)
            assert backbone(net, threshold) == expected
            assert sum(joins_per_block) == 24 + 14
            assert min(joins_per_block) > 0
            assert joins_per_block[-1] > 0

    @pytest.mark.parametrize("n", [3, _SMALL_N + 1])
    def test_asymmetric_weights_rejected(self, n):
        # on either listing size, a pair that weighs differently in the two
        # triangles has no weight for the backbone and the proximity CSV to agree on
        weights = np.zeros((n, n))
        weights[0, 1], weights[1, 0] = 0.25, 0.75
        names = ["b", "a"] + [f"c{k}" for k in range(n - 2)]
        with pytest.raises(DataError, match="proximity weights must be symmetric"):
            net_from(weights, names)

    def test_signed_zero_pair_rejected(self):
        # -0.0 == 0.0, but the proximity CSV would write whichever sign sits in
        # its upper triangle
        with pytest.raises(DataError, match="proximity weights must be symmetric"):
            net_from(np.array([[1.0, -0.0], [0.0, 1.0]]), ["a", "b"])

    @pytest.mark.parametrize("n", [3, _SMALL_N + 1])
    def test_duplicate_node_names_rejected(self, n):
        # on either listing path a repeated name would yield an (A, A) edge
        names = ["A", "A"] + [f"n{k:02d}" for k in range(n - 2)]
        with pytest.raises(DataError, match="duplicate node names"):
            net_from(np.full((n, n), 0.5), names)


@st.composite
def grouped_networks(draw):
    """Networks of 2-60 shuffled names whose pairs inside each of up to 4
    groups are kept with probability 0.3 or 1.  A pair weighs 1 minus the
    larger of its nodes' values over ``top``, the values drawn in 0-3 (ties
    are many) or 0-10**6: the heaviest pairs gather on a few nodes, as in a
    min-conditional network."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    groups = rng.integers(0, draw(st.integers(1, 4)), n)
    density = draw(st.sampled_from([0.3, 1.0]))
    top = draw(st.sampled_from([4, 10**6]))
    value = rng.integers(0, top, n)
    paired = np.triu(groups[:, None] == groups, 1) & (rng.random((n, n)) < density)
    w = np.where(paired, 1.0 - np.maximum.outer(value, value) / top, 0.0)
    return net_from(w + w.T + np.eye(n), rng.choice(_NAME_POOL, n, replace=False).tolist())


def _matrix_rounds(net, rows, threshold=math.inf):
    """(the numpy backbone, the (parent, ends a, ends b, joins) of each round's
    union) with blocks of ``rows`` rows; at threshold inf, the forest alone."""
    rounds, real_union = [], netexport._union

    def union(parent, ends_a, ends_b):
        before = list(parent)
        joined = real_union(parent, ends_a, ends_b)
        rounds.append((before, ends_a, ends_b, len(joined)))
        return joined

    with mock.patch.object(proximity, "_BLOCK_CELLS", rows * len(net.nodes)), \
            mock.patch.object(netexport, "_union", union):
        return netexport._backbone_in_numpy(net.nodes, net.weights, threshold), rounds


def _pairs_by_rank(net):
    """{(rank p, rank q): weight} of the positive pairs p < q, ranked by name."""
    index = {name: k for k, name in enumerate(net.nodes)}
    at = [index[name] for name in sorted(net.nodes)]
    w = net.weights.tolist()
    return {(p, q): w[at[p]][at[q]] for p in range(len(at)) for q in range(p + 1, len(at))
            if w[at[p]][at[q]] > 0.0}


class TestChunkBoundaries:
    """The n^2 stages with their row blocks made 1 to 7 rows long, so that
    every round and block crosses them."""

    @settings(max_examples=150, deadline=None)
    @given(grouped_networks(), st.integers(1, 7))
    def test_rounds_join_and_do_not_depend_on_the_blocks(self, net, rows):
        forest, rounds = _matrix_rounds(net, rows)
        assert forest == reference_backbone(net.nodes, net.weights.tolist(), math.inf)
        assert all(joins for *_, joins in rounds)  # every round joins a pair
        # each block finds what one block of every row finds: the same rounds
        assert rounds == _matrix_rounds(net, len(net.nodes))[1]

    @settings(max_examples=100, deadline=None)
    @given(grouped_networks(), st.integers(1, 7))
    def test_each_round_unites_each_trees_heaviest_live_pair(self, net, rows):
        # Borůvka: a live pair has its ends in two trees of the forest the
        # round starts from; each tree with one takes the first of its live
        # pairs by weight descending, then by name pair, and a pair that two
        # trees take is united once
        weight = _pairs_by_rank(net)
        _, rounds = _matrix_rounds(net, rows)
        for parent, ends_a, ends_b, joins in rounds:
            roots = []
            for k in range(len(parent)):
                while parent[k] != k:
                    k = parent[k]
                roots.append(k)
            heaviest = {}
            for (p, q), w in weight.items():
                if roots[p] != roots[q]:
                    for tree in (roots[p], roots[q]):
                        heaviest[tree] = min(heaviest.get(tree, (math.inf,)), (-w, p, q))
            taken = sorted(zip(ends_a, ends_b))
            assert taken == sorted({(p, q) for _, p, q in heaviest.values()})
            assert joins == len(taken)
        # the rounds join the pairs of the forest, and no more
        forest = reference_backbone(net.nodes, net.weights.tolist(), math.inf)
        assert sum(joins for *_, joins in rounds) == len(forest)

    @settings(max_examples=100, deadline=None)
    @given(numpy_listing_networks(), st.integers(1, 7), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_numpy_listing_equals_python_listing(self, net, rows, threshold):
        # names in name order or shuffled, as numpy_listing_networks draws them
        expected = netexport._backbone_in_python(net.nodes, net.weights, threshold)
        with mock.patch.object(proximity, "_BLOCK_CELLS", rows * len(net.nodes)):
            assert netexport._backbone_in_numpy(net.nodes, net.weights, threshold) == expected

    @pytest.mark.parametrize("case", ["signed-zeros", "no-positive-pair", "one-positive-pair",
                                      "all-tied", "isolated-and-groups"])
    def test_edge_cases_equal_python_listing(self, case):
        n = 20
        rng = np.random.default_rng(23)
        w = np.triu(rng.integers(0, 5, (n, n)) / 4.0, 1)
        if case == "no-positive-pair":
            w[...] = 0.0
        elif case == "one-positive-pair":
            w[...] = 0.0
            w[3, 11] = 0.3
        elif case == "all-tied":  # one cut ties with every pair, across blocks
            w = np.triu(np.full((n, n), 0.5), 1)
        else:
            group = rng.integers(0, 4, n)
            w[group[:, None] != group] = 0.0
            w[group == 3] = 0.0  # group 3 nodes are isolated
        w = w + w.T + np.eye(n)
        if case == "signed-zeros":  # beside the 0.0 pairs; at threshold 0 neither is an edge
            signed = np.triu(rng.random((n, n)) < 0.3, 1)
            w[signed | signed.T] = -0.0
        net = net_from(w, [f"n{k:02d}" for k in rng.permutation(n)])
        assert case != "signed-zeros" or np.signbit(net.weights).any()
        for threshold in (0.0, 0.4, 0.5, 1.0):
            expected = netexport._backbone_in_python(net.nodes, net.weights, threshold)
            for rows in range(1, 8):
                assert _matrix_rounds(net, rows, threshold)[0] == expected, (threshold, rows)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_weights_divide_by_blocks_of_rows_bit_for_bit(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        adv = AdvantageMatrix(tuple(f"C{k}" for k in range(n)), ("F0", "F1", "F2", "F3"),
                              rng.random((n, 4)) < 0.5)
        co = proximity.co_occurrence(adv, "countries")
        totals = np.maximum(co.diagonal(), 1).astype(float)
        expected = co / np.maximum.outer(totals, totals)
        with mock.patch.object(proximity, "_BLOCK_CELLS", rows * n):
            weights = country_proximity(adv).weights
        assert np.array_equal(weights.view(np.int64), expected.view(np.int64))


class TestSymmetryContract:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(quarter_networks(), numpy_listing_networks()))
    def test_proximity_csv_agrees_with_backbone(self, net):
        # at threshold 0 the backbone holds every positive pair
        rows = csv.reader(io.StringIO(proximity_csv_text(net), newline=""))
        assert next(rows) == ["node_a", "node_b", "weight"]
        weight = {(a, b): float(w) for a, b, w in rows}
        for a, b, w in backbone(net, 0.0):
            assert weight[a, b] == w

    def test_pipeline_networks_pass_the_constructor(self, tmp_path):
        # every network the pipeline builds (without the constructor's checks)
        # is one the constructor accepts: the 10 demo networks and two dense ones
        data = cli.load_dataset(cli.RunConfig(write_demo_dataset(tmp_path), tmp_path / "out"))
        nets = [cli.proximity_network(a, mode) for a in data.analyses for mode in MODES]
        assert len(nets) == 10
        nets += [country_proximity(seeded_advantage(400, shuffled)) for shuffled in (False, True)]
        for net in nets:
            ProximityNetwork(net.mode, net.nodes, net.weights, net.node_strength, net.node_volume)


def _traced_peak(fn, *args):
    """(peak bytes that Python and numpy allocated during ``fn(*args)``, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


#: Peak memory of the n^2 stages, in weight matrices of the network, at 400
#: nodes: measured 1.24 for ``country_proximity`` and 0.47-0.52 for
#: ``backbone``, which lists no pair beyond its pool and its kept edges; set
#: when both measured about 2.24.
N_SQUARED_PEAK_BOUND = 2.6


@pytest.mark.parametrize("shuffled", [False, True], ids=["name-order", "shuffled"])
def test_n_squared_stages_peak_memory(shuffled):
    peak, net = _traced_peak(country_proximity, seeded_advantage(400, shuffled))
    assert peak < N_SQUARED_PEAK_BOUND * net.weights.nbytes, "country_proximity"
    peak, _ = _traced_peak(backbone, net)
    assert peak < N_SQUARED_PEAK_BOUND * net.weights.nbytes, "backbone"


#: Peak memory of each n^2 stage at 400 nodes, in weight matrices: measured
#: 1.24 for ``country_proximity`` (the weights it returns and a float64 copy
#: of the advantage matrix), 0.47-0.52 for ``backbone`` (one row block gathered
#: by name rank with its masks, the pool of a round's heaviest pairs, and the
#: edges at or above the threshold 0.4) and 0.10 for
#: streaming the proximity CSV, which must stay under half a matrix.  Another
#: n^2 array, or a stage's block grown to a third of a matrix, exceeds the
#: bound.
ONE_MATRIX_STAGE_BOUND = 1.5


@pytest.mark.parametrize("shuffled", [False, True], ids=["name-order", "shuffled"])
def test_n_squared_stages_hold_one_matrix(shuffled):
    peak, net = _traced_peak(country_proximity, seeded_advantage(400, shuffled))
    assert peak < ONE_MATRIX_STAGE_BOUND * net.weights.nbytes, "country_proximity"
    peak, _ = _traced_peak(backbone, net)
    assert peak < ONE_MATRIX_STAGE_BOUND * net.weights.nbytes, "backbone"
    peak, _ = _traced_peak(lambda: collections.deque(proximity_csv_chunks(net), 0))
    assert peak < 0.5 * net.weights.nbytes, "proximity_csv_chunks"


class TestOrderAndSize:
    def test_ascending_strength(self):
        net = net_from(
            [[0.0, 0.9, 0.9], [0.9, 0.0, 0.1], [0.9, 0.1, 0.0]],
            nodes=("A", "B", "C"),
        )
        # strengths: A=1.8, B=1.0, C=1.0; tie between B and C is alphabetic
        assert build_layout(net).nodes == ("B", "C", "A")

    def test_equal_strengths_alphabetical(self):
        net = net_from(np.zeros((3, 3)), nodes=("zeta", "alpha", "mid"))
        assert build_layout(net).nodes == ("alpha", "mid", "zeta")

    def test_radius_endpoints(self):
        net = net_from(np.zeros((2, 2)), volumes=[0.0, 100.0])
        assert size_nodes(net).tolist() == [8.0, 40.0]

    def test_area_proportional_to_volume(self):
        net = net_from(np.zeros((2, 2)), volumes=[25.0, 100.0])
        radii = size_nodes(net)
        # quarter volume -> half the radius span above the minimum
        assert radii[0] == 8.0 + 32.0 * 0.5
        assert radii[1] == 40.0

    def test_equal_volumes_equal_radii(self):
        net = net_from(np.zeros((3, 3)), volumes=[7.0, 7.0, 7.0])
        assert set(size_nodes(net).tolist()) == {40.0}

    def test_all_zero_volumes_min_radius(self):
        net = net_from(np.zeros((3, 3)))
        assert set(size_nodes(net).tolist()) == {8.0}


class TestBuildLayout:
    def test_ring_split_odd(self):
        net = net_from(np.diag([1.0] * 5))
        layout = build_layout(net)
        assert layout.ring == ("inner", "inner", "inner", "outer", "outer")

    def test_ring_split_even(self):
        net = net_from(np.diag([1.0] * 4))
        layout = build_layout(net)
        assert layout.ring == ("inner", "inner", "outer", "outer")

    def test_angles_evenly_spaced_per_ring(self):
        net = net_from(np.diag([1.0] * 5))
        layout = build_layout(net)
        inner = [float(layout.angle[i]) for i in range(3)]
        outer = [float(layout.angle[i]) for i in range(3, 5)]
        assert inner == [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        assert outer == [0.0, math.pi]

    def test_nodes_ascend_by_strength(self):
        net = net_from(
            [[0.0, 0.9, 0.9], [0.9, 0.0, 0.1], [0.9, 0.1, 0.0]],
            nodes=("A", "B", "C"),
        )
        layout = build_layout(net)
        assert layout.nodes == ("B", "C", "A")
        assert list(layout.strength) == sorted(layout.strength)

    def test_arrays_follow_node_order(self):
        net = net_from(
            [[0.0, 0.9, 0.9], [0.9, 0.0, 0.1], [0.9, 0.1, 0.0]],
            nodes=("A", "B", "C"),
            volumes=[10.0, 20.0, 30.0],
        )
        layout = build_layout(net)
        by_name = dict(zip(layout.nodes, layout.volume))
        assert by_name == {"A": 10.0, "B": 20.0, "C": 30.0}

    def test_edges_come_from_backbone(self):
        net = triangle()
        layout = build_layout(net, threshold=0.5)
        assert layout.edges == tuple(backbone(net, 0.5))

    def test_edge_ends_must_be_nodes(self):
        layout = build_layout(triangle(), threshold=0.0)
        with pytest.raises(DataError, match="'Z'"):
            dataclasses.replace(layout, edges=layout.edges + (("A", "Z", 0.5),))

    @pytest.mark.parametrize("name", ["strength", "volume", "ring", "angle", "radius"])
    def test_node_arrays_must_match_nodes(self, name):
        layout = build_layout(net_from(np.diag([1.0] * 2), nodes=("a", "b")), threshold=0.0)
        with pytest.raises(DataError, match=f"{name} must have one entry per node \\(2 nodes\\)"):
            dataclasses.replace(layout, **{name: getattr(layout, name)[:1]})


class TestEmit:
    def empty_layout(self):
        return build_layout(net_from(np.zeros((0, 0))))

    def test_empty_json_is_exact(self):
        assert emit(self.empty_layout(), "json") == b'{"nodes":[],"edges":[]}'

    def test_unknown_format(self):
        with pytest.raises(DataError, match="unknown format"):
            emit(self.empty_layout(), "pdf")

    def test_csv_rows(self):
        layout = build_layout(triangle(), threshold=0.5)
        text = emit(layout, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "node_a,node_b,weight"
        assert lines[1] == "A,B,0.9"
        assert lines[2] == "B,C,0.8"

    def test_json_round_trip(self):
        layout = build_layout(triangle(w_ab=1 / 3, w_bc=2 / 7), threshold=0.0)
        doc = json.loads(emit(layout, "json"))
        nodes = doc["nodes"]
        assert tuple(node["id"] for node in nodes) == layout.nodes
        assert tuple(node["ring"] for node in nodes) == layout.ring
        for key in ("strength", "volume", "angle", "radius"):
            # repr round-trips floats exactly
            assert [node[key] for node in nodes] == getattr(layout, key).tolist(), key
        assert tuple((e["a"], e["b"], e["weight"]) for e in doc["edges"]) == layout.edges

    def test_json_schema(self):
        doc = json.loads(emit(build_layout(triangle()), "json"))
        assert set(doc) == {"nodes", "edges"}
        assert set(doc["nodes"][0]) == {
            "id",
            "strength",
            "volume",
            "ring",
            "angle",
            "radius",
        }
        assert set(doc["edges"][0]) == {"a", "b", "weight"}

    def test_dot_structure(self):
        text = emit(build_layout(triangle(), threshold=0.5), "dot").decode()
        assert text.startswith("graph proximity {\n")
        assert text.rstrip().endswith("}")
        assert '"A" -- "B" [weight=0.9];' in text
        assert "np.float64" not in text

    def test_dot_quoting(self):
        net = net_from(
            [[0.0, 0.5], [0.5, 0.0]], nodes=('Na"me', "Other")
        )
        text = emit(build_layout(net, threshold=0.0), "dot").decode()
        assert '"Na\\"me"' in text

    def test_graphml_parses_and_types(self):
        layout = build_layout(triangle(), threshold=0.5)
        root = ET.fromstring(emit(layout, "graphml"))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        keys = {k.get("id"): k.get("attr.type") for k in root.iter(f"{ns}key")}
        assert keys["d_weight"] == "double"
        assert keys["d_ring"] == "string"
        nodes = list(root.iter(f"{ns}node"))
        edges = list(root.iter(f"{ns}edge"))
        assert len(nodes) == 3 and len(edges) == 2
        assert "np.float64" not in ET.tostring(root, encoding="unicode")

    def test_svg_parses_with_expected_shapes(self):
        layout = build_layout(triangle(), threshold=0.5)
        raw = emit(layout, "svg").decode()
        root = ET.fromstring(raw)
        ns = "{http://www.w3.org/2000/svg}"
        circles = list(root.iter(f"{ns}circle"))
        lines = list(root.iter(f"{ns}line"))
        texts = list(root.iter(f"{ns}text"))
        assert len(circles) == 2 + 3  # two ring guides plus one disc per node
        assert len(lines) == 2
        assert len(texts) == 3
        assert root.get("width") == "1000"

    def test_svg_single_node_position(self):
        net = net_from(np.zeros((1, 1)), nodes=("Solo",))
        raw = emit(build_layout(net), "svg").decode()
        # only node sits on the inner ring at angle 0: (500 + 300, 500)
        assert 'cx="800.00" cy="500.00"' in raw

    def test_byte_determinism_all_formats(self):
        rng = np.random.default_rng(59)
        raw = rng.random((6, 6))
        weights = (raw + raw.T) / 2.0
        np.fill_diagonal(weights, 1.0)
        volumes = rng.integers(1, 1000, size=6).astype(float)
        for fmt in ("dot", "graphml", "json", "csv", "svg"):
            first = emit(build_layout(net_from(weights, volumes=volumes)), fmt)
            second = emit(build_layout(net_from(weights, volumes=volumes)), fmt)
            assert first == second


#: The backbone's peak at 400 nodes and threshold 1.0, where it keeps the
#: forest and the pairs of weight 1, in weight matrices: measured 0.37 on the
#: dense network and 0.34 to 0.35 on one that keeps 2% of its pairs, both
#: mostly one block of rows gathered by name rank.  A list of every positive
#: pair, 16 bytes each, took the dense network to 1.34 and left the sparse
#: one at 0.33.
@pytest.mark.parametrize("shuffled", [False, True], ids=["name-order", "shuffled"])
def test_backbone_peak_does_not_grow_with_the_positive_pairs(shuffled):
    net = country_proximity(seeded_advantage(400, shuffled))
    keep = np.triu(np.random.default_rng(5).random(net.weights.shape) < 0.02, 1)
    sparse = net_from(np.where(keep | keep.T, net.weights, 0.0), net.nodes)
    dense_peak, _ = _traced_peak(backbone, net, 1.0)
    sparse_peak, _ = _traced_peak(backbone, sparse, 1.0)
    assert dense_peak < 0.5 * net.weights.nbytes
    assert abs(dense_peak - sparse_peak) < 0.1 * net.weights.nbytes
