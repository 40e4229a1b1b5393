"""End-to-end acceptance checks with pinned expected values and runtimes.

Each test is one acceptance criterion; the conftest hook prints one
PASS/FAIL line per criterion.  Tolerances are stated inline and are part of
the contract:

1. A 2x2 table with the quoted Hong Kong / Computer Science margins yields
   RCA in [2.33, 2.35] (and > 2), in under 1 ms.
2. Field proximity for ubiquities 37 and 54 sharing 28 countries equals
   28/54 exactly; it prints as 0.52 at two decimals and truncates to 0.51.
   Under 1 ms.
3. Country proximity for diversities 15 and 11 sharing 2 fields equals 2/15
   (~= 0.1333).  Under 1 ms.
4. On 1,000 random tables (up to 50x27, integer entries up to 1e6), every
   field's production-weighted mean RCA is 1 within 1e-9.  Under 10 s.
5. Pipeline RCA / advantage / diversity / ubiquity / proximity agree with an
   exact integer-arithmetic oracle over an enumeration of small tables with
   entries in {0,1,2,3}: exhaustively for every shape up to 8 cells,
   exhaustively over binary entries for the 3x3..4x4 shapes, plus a
   deterministic stride through the full {0..3} space of those shapes
   (4^16 tables for 4x4 alone make the literal full sweep infeasible in any
   runtime; the stride keeps coverage of the large shapes unbiased and
   reproducible).  Advantage, diversity, ubiquity and proximity must match
   exactly; RCA values within 1e-14 relative (pipeline divides twice, the
   oracle once).  Under 60 s.
6. On 1,000 random binary matrices, co/max(u1,u2) equals
   min(co/u1, co/u2) bit-for-bit for every pair with u1,u2 > 0, in both
   modes.  Under 5 s.
7. Two consecutive `report` runs over the bundled demo dataset produce
   byte-identical output trees across all five export formats.
8. (Conditional: set RCASPACE_FULL_MANIFEST to a manifest of the full
   1996-2011 dataset.)  Summary statistics within +/-0.01 (maxima +/-0.5)
   under some configurable quartile rule, ubiquity counts exact, and the
   three cross-index Pearson correlations within +/-0.01.
"""
import math
import os
import time
import warnings

import numpy as np
import pytest

from rcaspace import (
    AdvantageMatrix,
    DataError,
    IndexKind,
    ProductionTable,
    UndefinedCellWarning,
    compute_rca,
    country_proximity,
    diversity,
    field_proximity,
    pearson,
    summarize,
    threshold_advantage,
    ubiquity,
)
from rcaspace.cli import main as cli_main
from rcaspace.demo import write_demo_dataset
from rcaspace.ingest import (
    load_manifest,
    parse_production_csv,
    resolve_labels,
    validate_alignment,
)
from rcaspace.stats import QUARTILE_RULES

from . import oracles

MS = 1e-3


def best_time(fn, repeats=5):
    fn()  # warm-up excluded from timing
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def names(prefix, n):
    return tuple(f"{prefix}{i:03d}" for i in range(n))


def table_of(values, kind=IndexKind.DOCUMENTS):
    values = np.asarray(values, dtype=float)
    return ProductionTable(
        kind, names("C", values.shape[0]), names("F", values.shape[1]), values
    )


# --------------------------------------------------------------------------
# 1. worked example: Hong Kong / Computer Science


def test_hong_kong_computer_science_rca():
    """RCA in [2.33, 2.35] for the quoted production margins, < 1 ms."""
    # 2x2 table whose margins equal the quoted counts: Hong Kong produced
    # 16,684 of its 174,400 documents in Computer Science; world Computer
    # Science is 1,222,228 of 29,895,499 total documents.
    hk_cs, hk_total = 16_684, 174_400
    world_cs, world_total = 1_222_228, 29_895_499
    table = table_of(
        [
            [hk_cs, hk_total - hk_cs],
            [world_cs - hk_cs, world_total - hk_total - (world_cs - hk_cs)],
        ]
    )
    rca = compute_rca(table)
    value = float(rca.values[0, 0])
    assert 2.33 <= value <= 2.35
    assert value > 2.0  # "more than 2 times" the field's world share
    assert best_time(lambda: compute_rca(table)) < 1 * MS


# --------------------------------------------------------------------------
# 2. worked example: field proximity 28 shared of max(37, 54)


def test_field_proximity_worked_example():
    """phi == 28/54 exactly; 0.52 rounded, 0.51 truncated; < 1 ms."""
    # 37 countries advantaged in the first field, 54 in the second, 28 in
    # both; 63 distinct countries in all
    rows = [[1, 1]] * 28 + [[1, 0]] * 9 + [[0, 1]] * 26
    adv = AdvantageMatrix(names("C", 63), ("CmpScn", "DcsSci"), np.array(rows, bool))
    net = field_proximity(adv)
    assert int(net.weights[0, 0] * 0 + adv.m[:, 0].sum()) == 37
    assert int(adv.m[:, 1].sum()) == 54
    phi = float(net.weights[0, 1])
    assert phi == 28 / 54
    assert f"{phi:.2f}" == "0.52"
    assert math.floor(phi * 100) / 100 == 0.51
    assert best_time(lambda: field_proximity(adv)) < 1 * MS


# --------------------------------------------------------------------------
# 3. worked example: country proximity 2 shared of max(15, 11)


def test_country_proximity_worked_example():
    """phi == 2/15 (~0.1333) for diversities 15 and 11 sharing 2 fields; < 1 ms."""
    first = [1] * 15 + [0] * 12
    second = [0] * 16 + [1] * 11
    second[0] = second[1] = 1
    second[16] = second[17] = 0
    m = np.array([first, second], dtype=bool)
    assert m[0].sum() == 15 and m[1].sum() == 11 and (m[0] & m[1]).sum() == 2
    adv = AdvantageMatrix(("USA", "China"), names("F", 27), m)
    net = country_proximity(adv)
    phi = float(net.weights[0, 1])
    assert phi == 2 / 15
    assert phi == pytest.approx(0.1333, abs=5e-5)
    assert best_time(lambda: country_proximity(adv)) < 1 * MS


# --------------------------------------------------------------------------
# 4. weighted-mean identity on random tables


def test_weighted_mean_rca_identity():
    """Production-weighted mean RCA is 1 (+/-1e-9) per field; 1,000 tables < 10 s."""
    rng = np.random.default_rng(19962011)
    start = time.perf_counter()
    worst = 0.0
    fields_checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndefinedCellWarning)
        for _ in range(1000):
            n_c = int(rng.integers(1, 51))
            n_f = int(rng.integers(1, 28))
            values = rng.integers(0, 1_000_001, size=(n_c, n_f)).astype(float)
            if values.sum() == 0:
                values[0, 0] = 1.0
            rca = compute_rca(table_of(values))
            weights = values.sum(axis=1) / values.sum()
            field_totals = values.sum(axis=0)
            means = weights @ rca.values
            live = field_totals > 0
            fields_checked += int(live.sum())
            if live.any():
                worst = max(worst, float(np.abs(means[live] - 1.0).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max |weighted mean - 1| = {worst:.3e}"
    assert fields_checked >= 10_000
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 5. exact-arithmetic oracle equivalence over small integer tables


def _digit_tables(indices, shape, base):
    """Decode lexicographic table numbers into (n, rows, cols) digit grids."""
    cells = shape[0] * shape[1]
    powers = base ** np.arange(cells, dtype=np.int64)
    digits = (indices[:, None] // powers[None, :]) % base
    return digits.reshape(-1, *shape)


def _exact_oracle(batch):
    """Exact evaluation of every pipeline quantity for integer tables.

    Integer cross-multiplication decides the advantage threshold without any
    rounding, and each reported float is a single correctly-rounded division
    of two exactly-representable integers.
    """
    row = batch.sum(axis=2)
    col = batch.sum(axis=1)
    total = batch.sum(axis=(1, 2))
    defined = (row[:, :, None] > 0) & (col[:, None, :] > 0)
    lhs = batch * total[:, None, None]
    rhs = row[:, :, None] * col[:, None, :]
    rca = np.zeros(batch.shape, dtype=np.float64)
    np.divide(lhs, rhs, out=rca, where=defined)
    m = defined & (lhs >= rhs)
    div = m.sum(axis=2)
    ubi = m.sum(axis=1)
    m_int = m.astype(np.int64)

    def phi(co, totals):
        larger = np.maximum(totals[:, :, None], totals[:, None, :])
        out = np.zeros(co.shape, dtype=np.float64)
        np.divide(co, larger, out=out, where=larger > 0)
        return out

    co_fields = np.einsum("nij,nik->njk", m_int, m_int)
    co_countries = np.einsum("nij,nkj->nik", m_int, m_int)
    return {
        "defined": defined,
        "rca": rca,
        "m": m,
        "div": div,
        "ubi": ubi,
        "phi_fields": phi(co_fields, ubi),
        "phi_countries": phi(co_countries, div),
    }


def _pipeline_batch(batch, countries, fields):
    """Run every table through the public pipeline, collecting all outputs."""
    n, n_c, n_f = batch.shape
    out = {
        "defined": np.zeros((n, n_c, n_f), bool),
        "rca": np.zeros((n, n_c, n_f)),
        "m": np.zeros((n, n_c, n_f), bool),
        "div": np.zeros((n, n_c), np.int64),
        "ubi": np.zeros((n, n_f), np.int64),
        "phi_fields": np.zeros((n, n_f, n_f)),
        "phi_countries": np.zeros((n, n_c, n_c)),
    }
    floats = batch.astype(np.float64)
    for i in range(n):
        table = ProductionTable(IndexKind.DOCUMENTS, countries, fields, floats[i])
        rca = compute_rca(table)
        adv = threshold_advantage(rca)
        out["defined"][i] = rca.defined_mask
        out["rca"][i] = rca.values
        out["m"][i] = adv.m
        out["div"][i] = diversity(adv)
        out["ubi"][i] = ubiquity(adv)
        out["phi_fields"][i] = field_proximity(adv).weights
        out["phi_countries"][i] = country_proximity(adv).weights
    return out


def _cross_check_fraction_oracle(batch, expected, picks):
    """Spot-check the vectorized oracle against direct rational brute force."""
    for i in picks:
        grid = batch[i].tolist()
        rational = oracles.rational_rca(grid)
        for c, row in enumerate(rational):
            for f, cell in enumerate(row):
                if cell is None:
                    assert not expected["defined"][i, c, f]
                else:
                    assert expected["rca"][i, c, f] == float(cell)
        assert expected["m"][i].tolist() == [
            [bool(x) for x in row] for row in oracles.rational_advantage(grid)
        ]
        m_grid = expected["m"][i].astype(int).tolist()
        phi_f = oracles.conditional_proximity_fields(m_grid)
        for a in range(batch.shape[2]):
            for b in range(batch.shape[2]):
                if a != b:
                    assert expected["phi_fields"][i, a, b] == float(phi_f[a][b])


def test_exact_oracle_equivalence_small_integer_tables():
    """Pipeline equals the exact oracle over ~230k enumerated tables; < 60 s."""
    start = time.perf_counter()
    shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    small = [s for s in shapes if s[0] * s[1] <= 8]
    large = [s for s in shapes if s[0] * s[1] > 8]
    rng = np.random.default_rng(4)

    plans = []
    for shape in small:
        full = np.arange(4 ** (shape[0] * shape[1]), dtype=np.int64)
        plans.append((shape, 4, full))
    for shape in large:
        full = np.arange(2 ** (shape[0] * shape[1]), dtype=np.int64)
        plans.append((shape, 2, full))
    for shape in large:
        span = 4 ** (shape[0] * shape[1])
        stride = (span // 4000) | 1
        plans.append((shape, 4, np.arange(1, span, stride)[:4000]))

    checked = 0
    for shape, base, indices in plans:
        batch = _digit_tables(indices, shape, base)
        live = batch.sum(axis=(1, 2)) > 0
        if not live.all():
            # the all-zero table must be rejected, not silently evaluated
            with pytest.raises(DataError, match="empty production"):
                compute_rca(table_of(np.zeros(shape)))
            batch = batch[live]
        expected = _exact_oracle(batch)
        countries, fields = names("C", shape[0]), names("F", shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedCellWarning)
            got = _pipeline_batch(batch, countries, fields)
        assert np.array_equal(got["defined"], expected["defined"]), shape
        assert np.array_equal(got["m"], expected["m"]), shape
        assert np.array_equal(got["div"], expected["div"]), shape
        assert np.array_equal(got["ubi"], expected["ubi"]), shape
        assert np.array_equal(got["phi_fields"], expected["phi_fields"]), shape
        assert np.array_equal(got["phi_countries"], expected["phi_countries"]), shape
        assert np.allclose(got["rca"], expected["rca"], rtol=1e-14, atol=0.0), shape
        picks = rng.integers(0, len(batch), size=min(10, len(batch)))
        _cross_check_fraction_oracle(batch, expected, picks)
        checked += len(batch)

    elapsed = time.perf_counter() - start
    exhaustive = sum(4 ** (r * c) for r, c in small) + sum(
        2 ** (r * c) for r, c in large
    )
    assert checked == exhaustive - len(plans) + len(large) + 4 * 4000
    assert elapsed < 60.0, f"took {elapsed:.1f}s for {checked} tables"


# --------------------------------------------------------------------------
# 6. min-conditional estimator identity on random binary matrices


def test_min_conditional_estimator_identity():
    """co/max(u1,u2) == min(co/u1, co/u2) bit-for-bit; 1,000 matrices < 5 s."""
    rng = np.random.default_rng(37)
    start = time.perf_counter()
    pairs_checked = 0
    country_names, field_names = names("C", 40), names("F", 30)
    for _ in range(1000):
        n_c = int(rng.integers(2, 41))
        n_f = int(rng.integers(2, 31))
        m = rng.integers(0, 2, size=(n_c, n_f)).astype(bool)
        mi = m.astype(np.int64)
        adv = AdvantageMatrix(country_names[:n_c], field_names[:n_f], m)
        for net, totals in (
            (field_proximity(adv), mi.sum(axis=0)),
            (country_proximity(adv), mi.sum(axis=1)),
        ):
            co = (mi.T @ mi) if net.mode == "fields" else (mi @ mi.T)
            with np.errstate(divide="ignore", invalid="ignore"):
                conditionals = np.minimum(
                    co / totals[:, None], co / totals[None, :]
                )
            both = (totals[:, None] > 0) & (totals[None, :] > 0)
            assert np.array_equal(net.weights[both], conditionals[both])
            pairs_checked += int(both.sum())
    elapsed = time.perf_counter() - start
    assert pairs_checked > 100_000
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 7. byte-identical report runs


def test_report_runs_byte_identical(tmp_path):
    """Two `report` runs over the demo dataset write identical trees."""
    manifest = write_demo_dataset(tmp_path / "data")
    trees = []
    for run in ("first", "second"):
        out = tmp_path / run
        argv = ["report", "--manifest", str(manifest), "--out", str(out)]
        for fmt in ("json", "svg", "dot", "graphml", "csv"):
            argv += ["--format", fmt]
        assert cli_main(argv) == 0
        trees.append(
            {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    first, second = trees
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert len(first) > 50  # all five formats, every index, both modes


# --------------------------------------------------------------------------
# 8. conditional: published tables from the full 1996-2011 dataset

TABLE_SUMMARY = {
    # min, q1, median, mean, q3, max
    IndexKind.DOCUMENTS: (0.0, 0.416, 0.827, 1.289, 1.427, 144.3),
    IndexKind.CITATIONS: (0.0, 0.271, 0.741, 1.349, 1.420, 110.0),
    IndexKind.H_INDEX: (0.0, 0.640, 0.952, 1.116, 1.290, 23.7),
}

TABLE_UBIQUITY = {
    # label: (documents, citations, h_index)
    "Agr-BlgScn": (178, 179, 165),
    "Art-Hmn": (76, 54, 79),
    "Bch-Gnt-MlcBlg": (24, 18, 87),
    "Bsn-Mng-Acc": (67, 45, 68),
    "ChmEng": (53, 68, 74),
    "Chm": (55, 60, 81),
    "CmpScn": (37, 44, 64),
    "DcsSci": (54, 57, 55),
    "Dnt": (67, 64, 65),
    "Ert-PlnScn": (124, 122, 128),
    "Ecn-Ecnm-Fnn": (82, 52, 79),
    "Enr": (84, 98, 96),
    "Eng": (38, 58, 83),
    "EnvScn": (172, 166, 153),
    "HltPrf": (53, 32, 63),
    "Inm-Mcr": (141, 130, 120),
    "MtrScn": (42, 60, 72),
    "Mth": (72, 79, 80),
    "Mdc": (124, 102, 141),
    "Mlt": (84, 34, 47),
    "Nrsc": (34, 24, 59),
    "Nrs": (75, 46, 69),
    "Phr-Txc-Phr": (70, 72, 97),
    "Phy-Ast": (53, 59, 71),
    "Psy": (40, 27, 59),
    "SclScn": (126, 115, 139),
    "Vtr": (126, 130, 113),
}

EXPECTED_CORRELATIONS = {
    (IndexKind.DOCUMENTS, IndexKind.CITATIONS): 0.539,
    (IndexKind.CITATIONS, IndexKind.H_INDEX): 0.681,
    (IndexKind.DOCUMENTS, IndexKind.H_INDEX): 0.632,
}

FULL_MANIFEST_VAR = "RCASPACE_FULL_MANIFEST"


def _summary_matches(summary, expected):
    minimum, q1, median, mean, q3, maximum = expected
    return (
        abs(summary.minimum - minimum) <= 0.01
        and abs(summary.q1 - q1) <= 0.01
        and abs(summary.median - median) <= 0.01
        and abs(summary.mean - mean) <= 0.01
        and abs(summary.q3 - q3) <= 0.01
        and abs(summary.maximum - maximum) <= 0.5
    )


@pytest.mark.skipif(
    FULL_MANIFEST_VAR not in os.environ,
    reason=f"set {FULL_MANIFEST_VAR} to a manifest of the full dataset",
)
def test_full_dataset_tables_and_correlations():
    """Published summary stats (+/-0.01, maxima +/-0.5), exact ubiquity counts,
    and cross-index correlations (+/-0.01) from the user-supplied dataset."""
    manifest = load_manifest(os.environ[FULL_MANIFEST_VAR])
    wanted = (IndexKind.DOCUMENTS, IndexKind.CITATIONS, IndexKind.H_INDEX)
    by_kind = {entry.index: entry for entry in manifest.tables}
    missing = [k.value for k in wanted if k not in by_kind]
    assert not missing, f"manifest lacks tables for: {', '.join(missing)}"
    tables = validate_alignment(
        [
            resolve_labels(parse_production_csv(by_kind[k].resolved, k))
            for k in wanted
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndefinedCellWarning)
        rcas = {t.index_kind: compute_rca(t) for t in tables}

    # ubiquity counts are quartile-rule independent and must match exactly
    field_order = tables[0].fields
    for position, kind in enumerate(wanted):
        adv = threshold_advantage(rcas[kind])
        ubi_by_label = dict(zip(field_order, ubiquity(adv).tolist()))
        missing_fields = sorted(set(TABLE_UBIQUITY) - set(ubi_by_label))
        assert not missing_fields, f"dataset lacks fields: {missing_fields}"
        mismatches = {
            label: (ubi_by_label[label], counts[position])
            for label, counts in TABLE_UBIQUITY.items()
            if ubi_by_label[label] != counts[position]
        }
        assert not mismatches, f"{kind.value} ubiquity (got, expected): {mismatches}"

    # some configurable quartile rule must reproduce every summary row
    matched_rule = None
    for rule in QUARTILE_RULES:
        summaries = {
            kind: summarize(rcas[kind].defined_values(), rule) for kind in wanted
        }
        if all(
            _summary_matches(summaries[kind], TABLE_SUMMARY[kind]) for kind in wanted
        ):
            matched_rule = rule
            break
    assert matched_rule is not None, "no quartile rule reproduces the summary table"

    for (kind_a, kind_b), expected_r in EXPECTED_CORRELATIONS.items():
        r = pearson(rcas[kind_a].values.ravel(), rcas[kind_b].values.ravel())
        assert r == pytest.approx(expected_r, abs=0.01), (kind_a, kind_b)
