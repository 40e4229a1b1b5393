import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from rcaspace import (
    AdvantageMatrix,
    DataError,
    co_occurrence,
    country_proximity,
    field_proximity,
)
from rcaspace import proximity
from rcaspace.proximity import MODES, ProximityNetwork, proximity_csv_text, SMALL_NETWORK_MAX_PAIRS

from .oracles import conditional_proximity_countries, conditional_proximity_fields


def adv_from(m, countries=None, fields=None):
    m = np.asarray(m, dtype=bool)
    n_c, n_f = m.shape
    countries = countries or tuple(f"C{i:02d}" for i in range(n_c))
    fields = fields or tuple(f"F{j:02d}" for j in range(n_f))
    return AdvantageMatrix(tuple(countries), tuple(fields), m)


binary_grids = hnp.arrays(
    dtype=np.bool_,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
)


class TestCoOccurrence:
    def test_field_counts(self):
        adv = adv_from([[1, 1, 0], [1, 0, 0]])
        co = co_occurrence(adv, "fields")
        assert co.tolist() == [[2, 1, 0], [1, 1, 0], [0, 0, 0]]

    def test_country_counts(self):
        adv = adv_from([[1, 1, 0], [1, 0, 0]])
        co = co_occurrence(adv, "countries")
        assert co.tolist() == [[2, 1], [1, 1]]

    def test_diagonal_is_ubiquity_or_diversity(self):
        rng = np.random.default_rng(5)
        m = rng.integers(0, 2, size=(6, 8)).astype(bool)
        adv = adv_from(m)
        assert np.array_equal(
            np.diag(co_occurrence(adv, "fields")), m.sum(axis=0)
        )
        assert np.array_equal(
            np.diag(co_occurrence(adv, "countries")), m.sum(axis=1)
        )

    def test_unknown_mode(self):
        with pytest.raises(DataError, match="unknown proximity mode"):
            co_occurrence(adv_from([[1]]), "widgets")


class TestCountKernel:
    """Above ``SMALL_NETWORK_MAX_PAIRS`` the counts are popcounts of packed
    advantage words; every count, and so every weight, equals bit for bit
    the float64 product kept here, on both sides of the rule."""

    @pytest.mark.parametrize("other", [63, 64, 65, 255, 256, 300])  # word edges, uint8 -> uint16
    @pytest.mark.parametrize("nodes", [14, 15, 150],
                             ids=["14-product", "15-kernel", "150-partial-block"])
    @pytest.mark.parametrize("mode", MODES)
    def test_counts_and_weights_equal_a_float64_product(self, monkeypatch, mode, nodes, other):
        rng = np.random.default_rng(1000 * nodes + other)
        m = rng.random((nodes, other)) < 0.5  # a row per node
        m[0] = True  # a count of ``other``, beyond a uint8 from 256
        m[1] = False  # an isolated node
        m[2, -1] = True  # the last bit of the last word
        adv = adv_from(m if mode == "countries" else m.T)
        if nodes == 150:  # 109 rows a block
            assert nodes % (proximity._BLOCK_CELLS // nodes)
        popcounts = []
        count = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda x: popcounts.append(x) or count(x))

        f = m.astype(np.float64)
        co = f @ f.T
        totals = np.maximum(co.diagonal(), 1.0)
        weights = co / np.maximum.outer(totals, totals)
        assert np.array_equal(proximity._product(adv, mode).view(np.int64), co.view(np.int64))
        assert np.array_equal(co_occurrence(adv, mode), co.astype(np.int64))
        net = (field_proximity if mode == "fields" else country_proximity)(adv)
        assert np.array_equal(net.weights.view(np.int64), weights.view(np.int64))
        assert bool(popcounts) == (nodes * (nodes - 1) // 2 > SMALL_NETWORK_MAX_PAIRS)


class TestFieldProximity:
    def test_shared_28_of_54(self):
        # two fields held by 28+9=37 and 28+26=54 countries, overlapping in 28
        rows = [[1, 1]] * 28 + [[1, 0]] * 9 + [[0, 1]] * 26
        net = field_proximity(adv_from(rows))
        w = net.weights[0, 1]
        assert w == 28 / 54
        assert f"{w:.2f}" == "0.52"
        assert int(w * 100) / 100 == 0.51

    def test_overlap_2_of_15(self):
        # one country with 15 advantaged fields, another with 11, sharing 2
        n_f = 24
        a = [1] * 15 + [0] * (n_f - 15)
        b = [0] * 13 + [1] * 11
        m = np.array([a, b], dtype=bool)
        assert m[0].sum() == 15 and m[1].sum() == 11
        assert (m[0] & m[1]).sum() == 2
        net = country_proximity(adv_from(m))
        assert net.weights[0, 1] == 2 / 15
        assert net.weights[0, 1] == pytest.approx(0.1333, abs=5e-5)

    def test_identical_columns_give_one(self):
        net = field_proximity(adv_from([[1, 1], [0, 0], [1, 1]]))
        assert net.weights[0, 1] == 1.0

    def test_disjoint_columns_give_zero(self):
        net = field_proximity(adv_from([[1, 0], [0, 1]]))
        assert net.weights[0, 1] == 0.0

    def test_diagonal(self):
        net = field_proximity(adv_from([[1, 0], [1, 0]]))
        assert net.weights[0, 0] == 1.0  # active field is fully similar to itself
        assert net.weights[1, 1] == 0.0  # never-advantaged field stays silent

    def test_symmetry_exact(self):
        rng = np.random.default_rng(13)
        m = rng.integers(0, 2, size=(9, 7)).astype(bool)
        net = field_proximity(adv_from(m))
        assert np.array_equal(net.weights, net.weights.T)

    def test_matches_exact_min_conditional_oracle(self):
        rng = np.random.default_rng(29)
        m = rng.integers(0, 2, size=(6, 5)).astype(bool)
        net = field_proximity(adv_from(m))
        expected = conditional_proximity_fields(m.astype(int).tolist())
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                assert net.weights[i, j] == float(expected[i][j])

    def test_country_is_transpose_dual(self):
        rng = np.random.default_rng(31)
        m = rng.integers(0, 2, size=(5, 6)).astype(bool)
        by_country = country_proximity(adv_from(m))
        by_field = field_proximity(adv_from(m.T))
        assert np.array_equal(by_country.weights, by_field.weights)

    @settings(max_examples=80)
    @given(binary_grids)
    def test_bounds_and_min_identity(self, m):
        adv = adv_from(m)
        net = field_proximity(adv)
        co = co_occurrence(adv, "fields")
        ubi = m.sum(axis=0)
        n_f = m.shape[1]
        assert (net.weights >= 0).all() and (net.weights <= 1).all()
        for i in range(n_f):
            for j in range(n_f):
                if ubi[i] == 0 or ubi[j] == 0:
                    assert net.weights[i, j] == 0.0
                    continue
                # dividing by the larger base equals taking the smaller
                # conditional probability, exactly, in floating point
                assert net.weights[i, j] == min(
                    co[i, j] / ubi[i], co[i, j] / ubi[j]
                )
                assert co[i, j] <= min(ubi[i], ubi[j])

    @settings(max_examples=60)
    @given(binary_grids)
    def test_country_mode_oracle(self, m):
        net = country_proximity(adv_from(m))
        expected = conditional_proximity_countries(m.astype(int).tolist())
        n_c = m.shape[0]
        for i in range(n_c):
            for j in range(n_c):
                if i != j:
                    assert net.weights[i, j] == float(expected[i][j])


class TestNetworkStructure:
    def test_nodes_follow_mode(self):
        adv = adv_from([[1, 0], [0, 1]], countries=("A", "B"), fields=("X", "Y"))
        assert field_proximity(adv).nodes == ("X", "Y")
        assert country_proximity(adv).nodes == ("A", "B")
        assert field_proximity(adv).mode == "fields"
        assert country_proximity(adv).mode == "countries"

    def test_strength_excludes_diagonal(self):
        net = field_proximity(adv_from([[1, 1], [1, 1]]))
        # both fields fully co-occur: off-diagonal weight 1, diagonal excluded
        assert net.node_strength.tolist() == [1.0, 1.0]

    def test_volumes_attached(self):
        adv = adv_from([[1, 0], [0, 1]])
        net = field_proximity(adv, volumes=np.array([10.0, 20.0]))
        assert net.node_volume.tolist() == [10.0, 20.0]

    def test_volumes_default_zero(self):
        net = field_proximity(adv_from([[1, 0]]))
        assert net.node_volume.tolist() == [0.0, 0.0]

    def test_volume_shape_checked(self):
        with pytest.raises(DataError, match="volumes"):
            field_proximity(adv_from([[1, 0]]), volumes=np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_volumes_finite_and_non_negative(self, bad):
        # a NaN or inf volume would make the SVG export draw radius "nan"
        adv = adv_from([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DataError, match="finite and non-negative"):
            field_proximity(adv, [bad, 1.0, 2.0])
        with pytest.raises(DataError, match="finite and non-negative"):
            country_proximity(adv, [1.0, bad])

    @pytest.mark.parametrize("weights, strength, volume, match", [
        (np.eye(3), np.zeros(2), np.ones(2), "weights and node strength shapes"),
        (np.eye(2), np.zeros(3), np.ones(2), "weights and node strength shapes"),
        (np.eye(2), np.zeros(2), np.ones(3), "volumes shape"),
        (np.eye(2), np.zeros(2), [np.nan, 1.0], "finite and non-negative"),
        (np.eye(2), np.zeros(2), [1.0, np.inf], "finite and non-negative"),
        (np.eye(2), np.zeros(2), [1.0, -2.0], "finite and non-negative"),
        (np.eye(2), np.zeros(2), ["p", "q"], "node volumes must be numbers"),
        ([[1.0, np.nan], [np.nan, 1.0]], np.zeros(2), np.ones(2), r"weights must be in \[0, 1\]"),
        ([[1.0, 2.0], [2.0, 1.0]], np.zeros(2), np.ones(2), r"weights must be in \[0, 1\]"),
        ([[1.0, -0.25], [-0.25, 1.0]], np.zeros(2), np.ones(2), r"weights must be in \[0, 1\]"),
        ([[np.inf, 0.5], [0.5, 1.0]], np.zeros(2), np.ones(2), r"weights must be in \[0, 1\]"),
    ], ids=["weights", "strength", "volume", "nan-volume", "inf-volume", "negative-volume",
            "text-volume", "nan-weight", "weight-above-one", "negative-weight", "inf-weight"])
    def test_constructor_checks_shapes_and_volumes(self, weights, strength, volume, match):
        with pytest.raises(DataError, match=match):
            ProximityNetwork("fields", ("a", "b"), weights, strength, volume)

    def test_constructor_rejects_unknown_mode(self):
        with pytest.raises(DataError, match="unknown proximity mode 'widgets'"):
            ProximityNetwork("widgets", ("a", "b"), np.eye(2), np.zeros(2), np.ones(2))

    def test_constructor_accepts_signed_zero_weights(self):
        net = ProximityNetwork("fields", ("a", "b"), [[1.0, -0.0], [-0.0, 1.0]],
                               np.zeros(2), np.ones(2))
        assert np.signbit(net.weights[0, 1])

    def test_volumes_must_be_numbers(self):
        adv = adv_from([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DataError, match="node volumes must be numbers"):
            field_proximity(adv, ["p", "q", "r"])
        with pytest.raises(DataError, match="node volumes must be numbers"):
            country_proximity(adv, [{}, 1.0])


class TestProximityCsv:
    def test_pairs_once_sorted_with_zeros(self):
        adv = adv_from([[1, 1, 0], [0, 1, 1]], fields=("Y", "X", "Z"))
        text = proximity_csv_text(field_proximity(adv))
        lines = text.splitlines()
        assert lines[0] == "node_a,node_b,weight"
        pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert pairs == [("X", "Y"), ("X", "Z"), ("Y", "Z")]
        assert len(lines) == 1 + 3  # all unordered pairs, zero weights included

    def test_weight_values(self):
        adv = adv_from([[1, 1]] * 3 + [[1, 0]] * 1, fields=("A", "B"))
        text = proximity_csv_text(field_proximity(adv))
        assert text.splitlines()[1] == "A,B,0.75"
