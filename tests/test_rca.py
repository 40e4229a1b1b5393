import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rcaspace import (
    DataError,
    UndefinedCellWarning,
    compute_rca,
    diversity,
    threshold_advantage,
    ubiquity,
)

from .oracles import rational_advantage, rational_rca


def rca_of(make_table, values, **kwargs):
    return compute_rca(make_table(values, **kwargs))


int_grids = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 500),
)


class TestComputeRca:
    def test_single_cell_is_one(self, make_table):
        rca = rca_of(make_table, [[17.0]])
        assert rca.values[0, 0] == 1.0
        assert rca.defined_mask[0, 0]

    def test_uniform_table_is_all_ones(self, make_table):
        rca = rca_of(make_table, np.full((4, 5), 3.0))
        assert np.array_equal(rca.values, np.ones((4, 5)))

    def test_two_by_two_reference_value(self, make_table):
        # one small producer heavily specialized in the first field, one
        # large producer spread across both
        rca = rca_of(make_table, [[16684.0, 157716.0], [1205544.0, 28515555.0]])
        assert rca.values[0, 0] == pytest.approx(2.3399, abs=5e-4)
        assert rca.values[0, 0] > 2.0

    def test_zero_country_row_masked(self, make_table):
        with pytest.warns(UndefinedCellWarning, match="2 RCA cell"):
            rca = rca_of(make_table, [[0.0, 0.0], [3.0, 4.0]])
        assert not rca.defined_mask[0].any()
        assert np.array_equal(rca.values[0], [0.0, 0.0])
        assert rca.defined_mask[1].all()
        assert rca.n_undefined() == 2

    def test_zero_field_column_masked(self, make_table):
        with pytest.warns(UndefinedCellWarning):
            rca = rca_of(make_table, [[1.0, 0.0], [3.0, 0.0]])
        assert not rca.defined_mask[:, 1].any()
        assert np.array_equal(rca.values[:, 1], [0.0, 0.0])

    def test_all_zero_table_rejected(self, make_table):
        with pytest.raises(DataError, match="empty production"):
            rca_of(make_table, np.zeros((2, 3)))

    def test_overflowing_cell_rejected(self, make_table):
        # F's world share, 1e-323, is subnormal: RCA(A, F) = 0.5 / 1e-323 overflows
        table = make_table([[5e-324, 5e-324], [5e-324, 1.0]], countries=("A", "B"),
                           fields=("F", "G"))
        with pytest.raises(DataError, match=r"non-finite RCA at \(A, F\).*"
                                            r"world share 1e-323 is subnormal"):
            with np.errstate(over="ignore"):
                compute_rca(table)

    def test_overflowing_cell_raises_without_a_numpy_warning(self, make_table):
        import warnings

        table = make_table([[5e-324, 5e-324], [5e-324, 1.0]], countries=("A", "B"),
                           fields=("F", "G"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning would raise first
            with pytest.raises(DataError, match=r"non-finite RCA at \(A, F\)"):
                compute_rca(table)

    def test_no_warning_when_all_defined(self, make_table):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rca = rca_of(make_table, [[1.0, 2.0], [3.0, 4.0]])
        assert rca.defined_mask.all()

    def test_matches_exact_rational_oracle(self, make_table):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 50, size=(5, 4)).astype(float)
        values[2, :] = 0.0
        values[:, 3] = 0.0
        with pytest.warns(UndefinedCellWarning):
            rca = rca_of(make_table, values)
        expected = rational_rca(values.astype(int).tolist())
        for c in range(5):
            for f in range(4):
                if expected[c][f] is None:
                    assert not rca.defined_mask[c, f]
                    assert rca.values[c, f] == 0.0
                else:
                    assert rca.defined_mask[c, f]
                    assert rca.values[c, f] == pytest.approx(
                        float(expected[c][f]), rel=1e-12
                    )

    def test_defined_values_excludes_masked(self, make_table):
        with pytest.warns(UndefinedCellWarning):
            rca = rca_of(make_table, [[0.0, 0.0], [3.0, 4.0]])
        assert rca.defined_values().shape == (2,)

    @settings(max_examples=80)
    @given(int_grids)
    def test_weighted_mean_identity(self, grid):
        values = grid.astype(float)
        if values.sum() == 0:
            return
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedCellWarning)
            from rcaspace import IndexKind, ProductionTable

            n_c, n_f = values.shape
            table = ProductionTable(
                IndexKind.DOCUMENTS,
                tuple(f"C{i}" for i in range(n_c)),
                tuple(f"F{j}" for j in range(n_f)),
                values,
            )
            rca = compute_rca(table)
        country_tot = values.sum(axis=1)
        grand = values.sum()
        weights = country_tot / grand
        field_tot = values.sum(axis=0)
        for f in range(n_f):
            if field_tot[f] == 0:
                continue
            mean = float(weights @ rca.values[:, f])
            assert mean == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50)
    @given(int_grids, st.integers(1, 1000))
    def test_scale_invariance(self, grid, k):
        values = grid.astype(float)
        if values.sum() == 0:
            return
        import warnings

        from rcaspace import IndexKind, ProductionTable

        n_c, n_f = values.shape
        countries = tuple(f"C{i}" for i in range(n_c))
        fields = tuple(f"F{j}" for j in range(n_f))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedCellWarning)
            base = compute_rca(
                ProductionTable(IndexKind.DOCUMENTS, countries, fields, values)
            )
            scaled = compute_rca(
                ProductionTable(IndexKind.DOCUMENTS, countries, fields, values * k)
            )
        assert np.array_equal(base.defined_mask, scaled.defined_mask)
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-12, atol=0)

    def test_permutation_equivariance(self, make_table):
        rng = np.random.default_rng(11)
        values = rng.integers(1, 90, size=(4, 5)).astype(float)
        rca = rca_of(make_table, values)
        perm_c = np.array([2, 0, 3, 1])
        perm_f = np.array([4, 2, 0, 1, 3])
        permuted = rca_of(make_table, values[np.ix_(perm_c, perm_f)])
        np.testing.assert_array_equal(
            permuted.values, rca.values[np.ix_(perm_c, perm_f)]
        )


class TestThresholdAdvantage:
    def test_boundary_is_inclusive(self, make_table):
        # uniform table puts every cell exactly on the threshold
        adv = threshold_advantage(rca_of(make_table, np.full((3, 3), 2.0)))
        assert adv.m.all()

    def test_just_below_threshold_excluded(self, make_table):
        rca = rca_of(make_table, [[99.0, 101.0], [101.0, 99.0]])
        adv = threshold_advantage(rca)
        assert np.array_equal(adv.m, [[False, True], [True, False]])

    def test_undefined_cells_never_advantaged(self, make_table):
        with pytest.warns(UndefinedCellWarning):
            rca = rca_of(make_table, [[0.0, 0.0], [3.0, 4.0]])
        adv = threshold_advantage(rca)
        assert not adv.m[0].any()

    def test_matches_exact_rational_oracle(self, make_table):
        rng = np.random.default_rng(23)
        for _ in range(25):
            values = rng.integers(0, 9, size=(4, 4))
            if values.sum() == 0:
                continue
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UndefinedCellWarning)
                adv = threshold_advantage(rca_of(make_table, values.astype(float)))
            expected = rational_advantage(values.tolist())
            assert adv.m.tolist() == [[bool(x) for x in row] for row in expected]

    @settings(max_examples=60)
    @given(
        int_grids,
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(1, 50),
    )
    def test_monotone_in_single_cell(self, grid, ci, fi, bump):
        # raising one cell can only switch that cell's advantage on, not off
        values = grid.astype(float)
        if values.sum() == 0:
            return
        c, f = ci % values.shape[0], fi % values.shape[1]
        import warnings

        from rcaspace import IndexKind, ProductionTable

        n_c, n_f = values.shape
        countries = tuple(f"C{i}" for i in range(n_c))
        fields = tuple(f"F{j}" for j in range(n_f))

        def adv_cell(vals):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UndefinedCellWarning)
                rca = compute_rca(
                    ProductionTable(IndexKind.DOCUMENTS, countries, fields, vals)
                )
            return threshold_advantage(rca).m[c, f]

        before = adv_cell(values)
        bumped = values.copy()
        bumped[c, f] += bump
        after = adv_cell(bumped)
        assert after >= before


class TestDiversityUbiquity:
    def test_row_and_column_sums(self, make_table):
        adv = threshold_advantage(
            rca_of(make_table, [[9.0, 1.0, 1.0], [1.0, 9.0, 9.0]])
        )
        div = diversity(adv)
        ubi = ubiquity(adv)
        assert div.tolist() == [int(adv.m[0].sum()), int(adv.m[1].sum())]
        assert ubi.tolist() == [int(adv.m[:, j].sum()) for j in range(3)]

    def test_totals_agree(self, make_table):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 40, size=(6, 7)).astype(float)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedCellWarning)
            adv = threshold_advantage(rca_of(make_table, values))
        assert diversity(adv).sum() == ubiquity(adv).sum() == adv.m.sum()

    def test_integer_dtype(self, make_table):
        adv = threshold_advantage(rca_of(make_table, [[1.0, 2.0], [2.0, 1.0]]))
        assert diversity(adv).dtype == np.int64
        assert ubiquity(adv).dtype == np.int64

    def test_every_active_country_has_some_advantage(self, make_table):
        # each country with production has at least one field at or above
        # its own average concentration
        rng = np.random.default_rng(19)
        for _ in range(20):
            values = rng.integers(1, 30, size=(5, 5)).astype(float)
            adv = threshold_advantage(rca_of(make_table, values))
            assert (diversity(adv) >= 1).all()
