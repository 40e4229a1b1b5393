import csv
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcaspace import (
    AdvantageMatrix,
    DataError,
    FIELD_LABELS,
    IndexKind,
    ProductionTable,
    ProximityNetwork,
    RcaMatrix,
    UnknownFieldWarning,
    parse_production_csv,
    resolve_labels,
    validate_alignment,
)
from rcaspace import ingest
from rcaspace.ingest import load_manifest, normalize_name, production_csv_text


def parse(text, kind=IndexKind.DOCUMENTS):
    """``text`` written byte for byte to a file, then parsed from its path."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        return parse_production_csv(path, kind)


class TestIndexKind:
    def test_five_kinds(self):
        assert [k.value for k in IndexKind] == [
            "documents",
            "citations",
            "self_citations",
            "citations_per_document",
            "h_index",
        ]

    def test_parse_valid(self):
        assert IndexKind.parse("h_index") is IndexKind.H_INDEX

    @pytest.mark.parametrize("bad", ["hindex", "Documents", "", "papers"])
    def test_parse_invalid(self, bad):
        with pytest.raises(DataError, match="unknown index kind"):
            IndexKind.parse(bad)


class TestLabelRegistry:
    def test_has_27_entries(self):
        assert len(FIELD_LABELS) == 27

    def test_known_labels(self):
        assert FIELD_LABELS["Computer Science"] == "CmpScn"
        assert FIELD_LABELS["Decision Sciences"] == "DcsSci"
        assert FIELD_LABELS["Medicine"] == "Mdc"
        assert FIELD_LABELS["Biochemistry, Genetics and Molecular Biology"] == "Bch-Gnt-MlcBlg"

    def test_uniqueness(self):
        names = list(FIELD_LABELS)
        labels = list(FIELD_LABELS.values())
        assert len(set(names)) == 27
        assert len(set(labels)) == 27


class TestParseLongCsv:
    def test_basic_construction(self):
        table = parse("country,field,value\nA,Mth,10\nA,Chm,0\nB,Mth,5\n")
        assert table.countries == ("A", "B")
        assert table.fields == ("Mth", "Chm")
        assert np.array_equal(table.values, [[10.0, 0.0], [5.0, 0.0]])

    def test_header_only(self):
        with pytest.raises(DataError, match="no data rows"):
            parse("country,field,value\n")

    def test_empty_file(self):
        with pytest.raises(DataError, match="header"):
            parse("")

    def test_negative_value_line_number(self):
        with pytest.raises(DataError, match=r"negative value at line 2"):
            parse("country,field,value\nA,Mth,-3\n")

    def test_non_numeric_line_number(self):
        with pytest.raises(DataError, match=r"non-numeric value 'lots' at line 3"):
            parse("country,field,value\nA,Mth,1\nB,Mth,lots\n")

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            parse("country,field,value\nA,Mth,nan\n")

    def test_duplicate_cell(self):
        with pytest.raises(DataError, match=r"duplicate cell \(A, Mth\) at line 3"):
            parse("country,field,value\nA,Mth,1\nA,Mth,2\n")

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match=r"expected 3 columns, got 2 at line 2"):
            parse("country,field,value\nA,Mth\n")

    def test_bad_header(self):
        with pytest.raises(DataError, match="invalid header"):
            parse("nation,field,value\nA,Mth,1\n")

    def test_quoted_fields(self):
        table = parse(
            'country,field,value\n"Korea, South","Business, Management and Accounting",7\n'
        )
        assert table.countries == ("Korea, South",)
        assert table.fields == ("Business, Management and Accounting",)
        assert table.values[0, 0] == 7.0

    def test_unicode_nfc_and_trim(self):
        # decomposed e + combining acute must merge with the composed form
        table = parse(
            "country,field,value\nPérou ,Mth,1\nPérou,Chm,2\n"
        )
        assert table.countries == ("Pérou",)
        assert table.values.shape == (1, 2)

    def test_empty_name_rejected(self):
        with pytest.raises(DataError, match="empty country name at line 2"):
            parse('country,field,value\n"",Mth,1\n')

    def test_blank_lines_skipped(self):
        table = parse("country,field,value\n\nA,Mth,1\n\n")
        assert table.values[0, 0] == 1.0

    def test_missing_pairs_become_zero(self):
        table = parse("country,field,value\nA,Mth,1\nB,Chm,2\n")
        assert np.array_equal(table.values, [[1.0, 0.0], [0.0, 2.0]])

    def test_accepts_path(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("country,field,value\nA,Mth,1\n", encoding="utf-8")
        assert parse_production_csv(p, IndexKind.CITATIONS).values[0, 0] == 1.0


class TestResolveLabels:
    def test_full_names_replaced(self):
        table = parse(
            "country,field,value\nA,Computer Science,1\nA,Decision Sciences,2\n"
        )
        resolved = resolve_labels(table)
        assert resolved.fields == ("CmpScn", "DcsSci")

    def test_unknown_name_warns_and_passes_through(self):
        table = parse("country,field,value\nA,Alchemy,1\n")
        with pytest.warns(UnknownFieldWarning, match="Alchemy"):
            resolved = resolve_labels(table)
        assert resolved.fields == ("Alchemy",)

    def test_label_passes_through_silently(self):
        table = parse("country,field,value\nA,CmpScn,1\n")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = resolve_labels(table)
        assert resolved.fields == ("CmpScn",)

    def test_cell_sum_preserved(self):
        table = parse("country,field,value\nA,Computer Science,3\nB,Alchemy,4\n")
        with pytest.warns(UnknownFieldWarning):
            resolved = resolve_labels(table)
        assert resolved.values.sum() == table.values.sum()

    def test_collision_names_both_fields(self):
        table = parse("country,field,value\nA,Mathematics,3\nA,Mth,7\n")
        with pytest.raises(DataError) as info:
            resolve_labels(table)
        assert str(info.value) == "fields 'Mathematics' and 'Mth' both resolve to 'Mth'"


class TestValidateAlignment:
    def test_union_semantics(self, make_table):
        t1 = make_table([[1.0]], countries=("A",), fields=("X",))
        t2 = make_table([[2.0]], countries=("B",), fields=("Y",))
        a1, a2 = validate_alignment([t1, t2])
        assert a1.countries == a2.countries == ("A", "B")
        assert a1.fields == a2.fields == ("X", "Y")
        assert a1.values[0, 0] == 1.0 and a1.values[1, 1] == 0.0
        assert a2.values[1, 1] == 2.0 and a2.values[0, 0] == 0.0

    def test_single_table_sorted(self, make_table):
        t = make_table([[1.0, 2.0], [3.0, 4.0]], countries=("B", "A"), fields=("Y", "X"))
        (aligned,) = validate_alignment([t])
        assert aligned.countries == ("A", "B")
        assert aligned.fields == ("X", "Y")
        assert np.array_equal(aligned.values, [[4.0, 3.0], [2.0, 1.0]])

    def test_idempotent(self, make_table):
        t1 = make_table([[1.0, 0.0]], countries=("B",), fields=("X", "Y"))
        t2 = make_table([[5.0]], countries=("A",), fields=("Y",))
        once = validate_alignment([t1, t2])
        twice = validate_alignment(once)
        assert once == twice

    def test_identical_tables_stay_identical(self, make_table):
        t = make_table([[1.0, 2.0]], countries=("A",), fields=("X", "Y"))
        a1, a2 = validate_alignment([t, t])
        assert a1 == a2

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            validate_alignment([])

    def test_sum_preserved(self, make_table):
        t1 = make_table([[1.0, 2.0]], countries=("B",), fields=("X", "Y"))
        t2 = make_table([[4.0], [8.0]], countries=("A", "C"), fields=("Z",))
        for before, after in zip([t1, t2], validate_alignment([t1, t2])):
            assert after.values.sum() == before.values.sum()


names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x24F),
    min_size=1,
    max_size=8,
).map(normalize_name).filter(bool)


@st.composite
def tables(draw, max_side=5):
    countries = draw(st.lists(names, min_size=1, max_size=max_side, unique=True))
    fields = draw(st.lists(names, min_size=1, max_size=max_side, unique=True))
    values = draw(
        st.lists(
            st.lists(st.integers(0, 999), min_size=len(fields), max_size=len(fields)),
            min_size=len(countries),
            max_size=len(countries),
        )
    )
    return ProductionTable(
        IndexKind.DOCUMENTS,
        tuple(countries),
        tuple(fields),
        np.array(values, dtype=float),
    )


class TestRoundTrip:
    @settings(max_examples=60)
    @given(tables())
    def test_parse_serialize_parse_identity(self, table):
        text = production_csv_text(table)
        reparsed = parse(text, table.index_kind)
        assert reparsed == table
        assert production_csv_text(reparsed) == text

    @settings(max_examples=40)
    @given(tables())
    def test_alignment_idempotent_property(self, table):
        once = validate_alignment([table])
        twice = validate_alignment(once)
        assert once == twice

    def test_float_cells_roundtrip_exactly(self, make_table):
        table = make_table([[0.1, 2.340953, 1e-12]])
        reparsed = parse(production_csv_text(table), table.index_kind)
        assert reparsed == table

    @pytest.mark.parametrize("countries, fields", [
        pytest.param(["a", "b", "c"], ["x", "y"], id="too-few-rows"),
        pytest.param(["a"], ["x"], id="too-many-cells"),
    ])
    def test_matrix_shape_must_match_names(self, countries, fields):
        with pytest.raises(DataError, match=r"matrix shape \(2, 2\) does not match"):
            ingest.matrix_csv_text(countries, fields, np.ones((2, 2)))


class TestManifest:
    def test_load(self, tmp_path):
        (tmp_path / "d.csv").write_text("country,field,value\nA,Mth,1\n")
        manifest = {
            "dataset_name": "tiny",
            "period": "2000-2001",
            "tables": [{"index": "documents", "path": "d.csv"}],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        loaded = load_manifest(path)
        assert loaded.dataset_name == "tiny"
        assert loaded.tables[0].index is IndexKind.DOCUMENTS
        assert loaded.tables[0].resolved.exists()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="invalid JSON"):
            load_manifest(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"dataset_name": "x", "tables": []}))
        with pytest.raises(DataError, match="missing key"):
            load_manifest(path)

    @pytest.mark.parametrize("raw, message", [
        pytest.param([], "expected a JSON object", id="not-an-object"),
        pytest.param({"dataset_name": "x", "period": "p", "tables": []},
                     "'tables' must be a non-empty list", id="no-tables"),
        pytest.param({"dataset_name": "x", "period": "p", "tables": {"index": "documents"}},
                     "'tables' must be a non-empty list", id="tables-not-a-list"),
        pytest.param({"dataset_name": "x", "period": "p", "tables": [{"index": "documents"}]},
                     "each table needs 'index' and 'path'", id="table-without-path"),
        pytest.param({"dataset_name": "x", "period": "p", "tables": ["d.csv"]},
                     "each table needs 'index' and 'path'", id="table-not-an-object"),
    ])
    def test_schema_errors(self, tmp_path, raw, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match=f"manifest {re.escape(str(path))}: {message}"):
            load_manifest(path)

    def test_unknown_index_kind(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {"dataset_name": "x", "period": "p", "tables": [{"index": "papers", "path": "a"}]}
            )
        )
        with pytest.raises(DataError, match="unknown index kind"):
            load_manifest(path)

    def test_duplicate_index_kind(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "dataset_name": "x",
                    "period": "p",
                    "tables": [
                        {"index": "documents", "path": "a"},
                        {"index": "documents", "path": "b"},
                    ],
                }
            )
        )
        with pytest.raises(DataError, match="duplicate index kind"):
            load_manifest(path)


class TestProductionTableInvariants:
    def test_negative_rejected(self):
        with pytest.raises(DataError, match="negative"):
            ProductionTable(IndexKind.DOCUMENTS, ("A",), ("X",), np.array([[-1.0]]))

    def test_duplicate_country_rejected(self):
        with pytest.raises(DataError, match="duplicate country"):
            ProductionTable(
                IndexKind.DOCUMENTS, ("A", "A"), ("X",), np.zeros((2, 1))
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="shape"):
            ProductionTable(IndexKind.DOCUMENTS, ("A",), ("X",), np.zeros((2, 2)))

    def test_values_are_immutable(self, make_table):
        table = make_table([[1.0]])
        with pytest.raises(ValueError):
            table.values[0, 0] = 5.0


NAMES = ("A", "B")
GRID = {"countries": NAMES, "fields": NAMES}


@pytest.mark.parametrize("cls, scalars, arrays", [
    pytest.param(ProductionTable, {"index_kind": IndexKind.DOCUMENTS, **GRID},
                 {"values": [[1.0, 2.0], [3.0, 0.5]]}, id="ProductionTable"),
    pytest.param(RcaMatrix, {"index_kind": IndexKind.DOCUMENTS, **GRID},
                 {"values": [[1.5, 0.0], [0.5, 1.0]], "defined_mask": [[True, False], [True, True]]},
                 id="RcaMatrix"),
    pytest.param(AdvantageMatrix, GRID, {"m": [[True, False], [False, True]]}, id="AdvantageMatrix"),
    pytest.param(ProximityNetwork, {"mode": "fields", "nodes": NAMES},
                 {"weights": [[1.0, 0.5], [0.5, 1.0]], "node_strength": [0.5, 0.5],
                  "node_volume": [3.0, 4.0]}, id="ProximityNetwork"),
])
def test_stored_arrays_are_frozen_copies(cls, scalars, arrays):
    """Every stored array is read-only and owned: the caller's array, already
    of the stored dtype, can change after construction without changing the object."""
    callers = {name: np.array(value) for name, value in arrays.items()}
    obj = cls(**scalars, **callers)
    for name, theirs in callers.items():
        stored = getattr(obj, name)
        assert not stored.flags.writeable, name
        assert not np.shares_memory(stored, theirs), name
        before = stored.copy()
        theirs[...] = np.logical_not(theirs)
        assert np.array_equal(stored, before), name


@pytest.mark.parametrize("arrays", [
    pytest.param({"values": np.zeros((2, 1)), "defined_mask": np.ones((2, 2), bool)}, id="values"),
    pytest.param({"values": np.zeros((2, 2)), "defined_mask": np.ones(4, bool)}, id="defined_mask"),
])
def test_rca_matrix_shape_checked(arrays):
    with pytest.raises(DataError, match="shape"):
        RcaMatrix(IndexKind.DOCUMENTS, ["A", "B"], ["X", "Y"], **arrays)


def test_computed_arrays_are_owned_and_frozen(make_table):
    """Arrays the library computes are stored without a copy, yet read-only
    and apart from the caller's table and volumes; names are still checked."""
    from rcaspace import compute_rca, country_proximity, field_proximity, threshold_advantage

    table = make_table([[1.0, 2.0, 0.0], [3.0, 0.5, 4.0]])
    rca = compute_rca(table)
    adv = threshold_advantage(rca)
    volumes = [np.array([1.0, 2.0, 3.0]), np.array([5.0, 6.0])]
    nets = [field_proximity(adv, volumes[0]), country_proximity(adv, volumes[1])]
    stored = [rca.values, rca.defined_mask, adv.m]
    stored += [getattr(net, name) for net in nets
               for name in ("weights", "node_strength", "node_volume")]
    for arr in stored:
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, theirs) for theirs in (table.values, *volumes))
    with pytest.warns(UnknownFieldWarning):
        assert resolve_labels(table).values is table.values
    for aligned in validate_alignment([table, make_table([[1.0]], countries=("C",))]):
        assert not aligned.values.flags.writeable
    assert isinstance(adv.countries, tuple) and isinstance(nets[0].nodes, tuple)
    repeated = AdvantageMatrix(["A", "A"], ["X", "X"], np.ones((2, 2), bool))
    for build in (field_proximity, country_proximity):
        with pytest.raises(DataError, match="duplicate node names"):
            build(repeated)


# Base names, each with the spellings a file may use for it: quoting needs,
# an embedded newline (which shifts the line numbers after it), NFD forms and
# surrounding whitespace, all of which must merge with the first spelling.
COUNTRY_SPELLINGS = (
    ("A",),
    ("Korea, South", " Korea, South "),
    ('The "Quoted" Republic',),
    ("New\nZealand",),
    ("P\u00e9rou", "Pe\u0301rou", "Pe\u0301rou "),
    ("C\u00f4te d'Ivoire", "Co\u0302te d'Ivoire"),
    ("Z",),
)
FIELD_SPELLINGS = (
    ("Mth",),
    ("Economics, Econometrics and Finance",),
    ("M\u00e9decine", "Me\u0301decine"),
    ('Say "when"',),
    ("Chm", " Chm"),
)
GOOD_VALUES = ("0", "3", "-0", "12.5", "1e2", " 7 ", "1_000", "\u0663", "0.1")
BAD_VALUES = ("x", "", "-3", "nan", "NaN", "inf", "-inf", "1e999", "1__0")
# Rows the long reader must not take as data: all-blank rows (skipped),
# ragged rows, empty names, and a bare carriage return, which ends a row in
# mid-line.
JUNK_ROWS = ("", "   ", ",,", " , , ", "A,Mth", "A,Mth,1,2", '"",Mth,1', "A, ,1",
             "Bad\rRow,Mth,1")
# A field over the csv module's default size limit, a csv.Error.
OVERSIZED_ROW = "C,Mth," + "1" * 200_000


def _csv_cell(text, quote_all):
    if quote_all or any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def long_csv_texts(draw):
    """Long CSV texts; most are valid, the rest carry a few injected faults."""
    quote_all = draw(st.booleans())

    def row(*texts):
        return ",".join(_csv_cell(t, quote_all) for t in texts)

    def spelled(c, f, value):
        return row(draw(st.sampled_from(COUNTRY_SPELLINGS[c])),
                   draw(st.sampled_from(FIELD_SPELLINGS[f])), value)

    header = draw(st.sampled_from(
        ["country,field,value"] * 6 + [" Country ,FIELD,value", "nation,field,value", None]
    ))
    cells = draw(st.lists(
        st.tuples(st.integers(0, len(COUNTRY_SPELLINGS) - 1),
                  st.integers(0, len(FIELD_SPELLINGS) - 1)),
        unique=True, max_size=20,
    ))
    rows = [spelled(c, f, draw(st.sampled_from(GOOD_VALUES))) for c, f in cells]
    for fault in draw(st.lists(st.sampled_from(["junk", "value", "duplicate"]), max_size=3)):
        if fault == "junk":
            text = draw(st.sampled_from(JUNK_ROWS))
        elif fault == "duplicate" and cells:
            text = spelled(*draw(st.sampled_from(cells)), "5")
        else:
            text = row("Y", draw(st.sampled_from(["Mth", "Chm"])),
                       draw(st.sampled_from(BAD_VALUES)))
        rows.insert(draw(st.integers(0, len(rows))), text)
    lines = ([] if header is None else [header]) + rows
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if lines else "")


def _table_or_error(parse):
    try:
        return parse()
    except DataError as exc:
        return str(exc)


def _assert_same(result, expected):
    if isinstance(expected, str):
        assert result == expected
    else:
        assert isinstance(result, ProductionTable), result
        assert result == expected
        assert np.array_equal(np.signbit(result.values), np.signbit(expected.values))


class TestBlockReader:
    """The columnar byte reader against the per-row core it falls back to."""

    def check(self, text, block_bytes, accept=False):
        """``text`` (or raw bytes) in a file parses as the per-row reader reads
        it, and the byte reader declines only what that reader rejects
        (nothing, if ``accept``); returns the per-row reader's result."""
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
                tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "t.csv"
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            result = _table_or_error(lambda: parse_production_csv(path, IndexKind.DOCUMENTS))
            with open(path, "rb") as stream:
                expected = _table_or_error(
                    lambda: ingest._table_per_row(stream, IndexKind.DOCUMENTS))
            with open(path, "rb") as stream:
                blocks = ingest._table_in_byte_blocks(stream, IndexKind.DOCUMENTS)
        _assert_same(result, expected)
        assert blocks is not None or not accept
        if blocks is not None:
            _assert_same(blocks, expected)
        else:  # the byte reader declines only what the per-row reader rejects
            assert isinstance(expected, str), expected
        return expected

    @staticmethod
    def declined(text, block_bytes):
        """``text``, which the byte reader must decline, as the per-row reader reads it."""
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            assert ingest._table_in_byte_blocks(io.BytesIO(text.encode()), IndexKind.DOCUMENTS) is None
            return parse(text)

    @settings(max_examples=300, deadline=None)
    @given(long_csv_texts(), st.sampled_from([1, 2, 3, 5, 64, ingest.BLOCK_BYTES]))
    def test_matches_per_row_core(self, text, block_bytes):
        self.check(text, block_bytes)

    @settings(max_examples=100, deadline=None)
    @given(long_csv_texts(), st.sampled_from([1, 2, 5, 16]))
    def test_separators_are_found_a_strip_at_a_time(self, text, strip):
        with mock.patch.object(ingest, "_STRIP", strip):
            self.check(text, 64)

    @pytest.mark.parametrize(
        "text, expected",
        [
            (f"country,field,value\nA,Mth,1\nA,Chm,x\nB,Mth,2\n{OVERSIZED_ROW}\n",
             "non-numeric value 'x' at line 3"),
            (f"country,field,value\nA,Mth,1\n{OVERSIZED_ROW}\nA,Chm,x\n",
             "malformed CSV at line 3: field larger than field limit (131072)"),
            ("country,field,value\nA,Mth,1\nB,Mth,2\nC,Mth,3\nD,Mth,-1\n",
             "negative value at line 5"),
            ("country,field,value\nA,Mth,1\nB,Mth,2\nC,Mth,inf\n",
             "non-finite value 'inf' at line 4"),
            ('country,field,value\n"New\nZealand",Mth,1\nB,Mth,2\nA,Chm,3\nA,Chm,4\n',
             "duplicate cell (A, Chm) at line 6 (first at line 5)"),
            ("country,field,value\r\nP\u00e9rou,Mth,1\r\nB,Mth,2\r\nPe\u0301rou,Mth,3\r\n",
             "duplicate cell (P\u00e9rou, Mth) at line 4 (first at line 2)"),
            ("country,field,value\n", "no data rows"),
            ("\n \n", "empty file: missing country,field,value header"),
            ("country,field,value\nA,Mth,1\n , ,5\n", "empty country name at line 3"),
            ("country,field,value\nBad\rRow,Mth,1\n", "expected 3 columns, got 1 at line 2"),
            ("country,field,value\nA,Mth,1\nB, ,2\n", "empty field name at line 3"),
        ],
        ids=["bad-value-before-csv-error", "csv-error-before-bad-value", "error-in-later-block",
             "infinite-in-later-block", "duplicate-across-blocks", "nfd-duplicate-across-blocks",
             "header-only", "blank-file", "blank-names-with-a-value", "bare-carriage-return",
             "blank-field-name"],
    )
    def test_errors_name_first_bad_line(self, text, expected):
        assert self.check(text, block_bytes=16) == expected

    @pytest.mark.parametrize("blank_row", ["", ",,"])
    def test_merges_and_skips_across_blocks(self, blank_row):
        text = (f"country,field,value\nB,Mth,1\n{blank_row}\nP\u00e9rou,Mth,-0\n\n"
                "Z,Chm,2\nPe\u0301rou ,Chm,1_000\n")
        table = self.check(text, block_bytes=16)
        assert table.countries == ("B", "P\u00e9rou", "Z")
        assert table.fields == ("Mth", "Chm")
        assert table.values.tolist() == [[1.0, 0.0], [-0.0, 1000.0], [0.0, 2.0]]
        assert np.signbit(table.values[1, 0])
        with mock.patch.object(ingest, "BLOCK_BYTES", 16):
            blocks = ingest._table_in_byte_blocks(io.BytesIO(text.encode()), IndexKind.DOCUMENTS)
        # blank lines and rows of blank cells are dropped in the blocks
        assert blocks is not None

    @pytest.mark.parametrize("block_bytes", [5, 512])
    @pytest.mark.parametrize("line, row, columns", [(601, "C29,F19,1,9", 4), (650, "C32,F8", 2)],
                             ids=["four-columns", "two-columns"])
    def test_wrong_column_count_in_a_later_block(self, block_bytes, line, row, columns):
        rows = [f"C{r // 20},F{r % 20},1" for r in range(700)]
        rows[line - 2] = row  # the header is line 1
        text = "country,field,value\n" + "\n".join(rows) + "\n"
        expected = f"expected 3 columns, got {columns} at line {line}"
        assert self.check(text, block_bytes) == expected

    @pytest.mark.parametrize("block_bytes", [5, 512])
    def test_blank_lines_inside_a_block(self, block_bytes):
        text = "country,field,value\nA,Mth,1\nB,Mth,2\n\n\nA,Chm,3\n\nB,Chm,4\n"
        table = self.check(text, block_bytes, accept=True)
        assert table.values.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("block_bytes", [5, 512])
    def test_name_first_seen_in_the_third_block(self, block_bytes):
        # k countries and k fields, every name in the first k rows, so the
        # second block knows all its names and the third brings a new one
        # (rows of 9 to 10 bytes put row 2 * block_bytes // 8 in the third)
        k = math.isqrt(block_bytes // 2) + 2
        rows = [[f"C{r % k}", f"F{(r // k + r) % k}", "1"] for r in range(k * k)]
        rows[max(k, 2 * block_bytes // 8)][0] = "Zed"
        text = "country,field,value\n" + "".join(",".join(row) + "\n" for row in rows)
        table = self.check(text, block_bytes, accept=True)
        assert table.countries == tuple(f"C{c}" for c in range(k)) + ("Zed",)
        assert table.values.sum() == k * k

    @pytest.mark.parametrize("block_bytes", [22, 24, 25])
    def test_quoted_newline_across_a_block_cut(self, block_bytes):
        # the first read ends inside "New\nZealand" (header: bytes 0-19),
        # before, at and after its newline
        text = 'country,field,value\n"New\nZealand",Mth,1\nB,"M\nth",2\n'
        table = self.check(text, block_bytes, accept=True)
        assert table.countries == ("New\nZealand", "B")
        assert table.fields == ("Mth", "M\nth")

    @pytest.mark.parametrize("size, declined", [(512, False), (513, True)])
    def test_field_over_max_is_read_per_row(self, size, declined):
        name = '"' + "x" * (size - 2) + '"'  # quotes count
        text = f"country,field,value\n{name},Mth,1\nB,Mth,2\n"
        assert parse(text).countries == ("x" * (size - 2), "B")
        blocks = ingest._table_in_byte_blocks(io.BytesIO(text.encode()), IndexKind.DOCUMENTS)
        assert (blocks is None) == declined

    @pytest.mark.parametrize("quoted", [csv.QUOTE_ALL, csv.QUOTE_NONNUMERIC])
    def test_quoted_header_takes_the_fast_path(self, quoted):
        # as csv.writer and R's write.csv quote a header, with a quoted blank row
        text = io.StringIO()
        csv.writer(text, quoting=quoted).writerows(
            [("country", "field", "value"), ("A", "Mth", 1), (" ", "", ""), ("B", "x,y", 2.5)])
        table = self.check(text.getvalue(), ingest.BLOCK_BYTES, accept=True)
        assert table.fields == ("Mth", "x,y")

    def test_fingerprint_collisions_are_caught(self):
        # fingerprints made of the first 5 bytes alone: the two countries
        # collide, and only the word-by-word check keeps them apart, so the
        # reader must decline rather than merge them
        text = "country,field,value\nLong name here,Mth,1\nLong nameX,Chm,2\n"
        multipliers = np.zeros_like(ingest._MULTIPLIERS)
        multipliers[0] = 1 << ingest._SPAN_BITS
        with mock.patch.object(ingest, "_MULTIPLIERS", multipliers):
            assert ingest._table_in_byte_blocks(io.BytesIO(text.encode()),
                                                IndexKind.DOCUMENTS) is None
            assert parse(text).countries == ("Long name here", "Long nameX")

    @pytest.mark.parametrize("first, later", [("Long nam", "Long name here"),
                                              ("Long name here", "Long nam")])
    def test_collisions_of_other_widths_are_caught(self, first, later):
        # the same fingerprints as above, with the two names in two blocks:
        # the later name is wider or narrower than every spelling so far
        text = f"country,field,value\n{first},Mth,1\n{later},Chm,2\n"
        multipliers = np.zeros_like(ingest._MULTIPLIERS)
        multipliers[0] = 1 << ingest._SPAN_BITS
        with mock.patch.object(ingest, "_MULTIPLIERS", multipliers), \
                mock.patch.object(ingest, "BLOCK_BYTES", 16):
            assert ingest._table_in_byte_blocks(io.BytesIO(text.encode()),
                                                IndexKind.DOCUMENTS) is None
            assert parse(text).countries == (first, later)

    @pytest.mark.parametrize("row, country", [('"a"b"",Mth,1', 'ab""'), ('"a" ,Mth,1', "a"),
                                              ('a"b,Mth,1', 'a"b')])
    def test_irregular_quotes_are_read_per_row(self, row, country):
        # the csv module reads these quotes leniently; the byte reader declines
        text = f"country,field,value\n{row}\nB,Mth,2\n"
        assert ingest._table_in_byte_blocks(io.BytesIO(text.encode()), IndexKind.DOCUMENTS) is None
        assert parse(text).countries == (country, "B")

    def test_float_spellings_on_the_fast_path(self):
        # values are read by Python's float: underscores between digits, and
        # whitespace around the number
        text = "country,field,value\nA,Mth,1_0\nB,Mth, 7 \n"
        with mock.patch.object(ingest, "_table_per_row", side_effect=AssertionError):
            assert parse(text).values.tolist() == [[10.0], [7.0]]

    @pytest.mark.parametrize("block_bytes", [16, 64, ingest.BLOCK_BYTES])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_digit_spellings_match_the_per_row_reader(self, block_bytes, eol):
        # lengths 1 to 10 (9 and 10 digits go to float), leading zeros, and
        # names of digits, so a short value's word runs on into the next
        # row's digits
        values = ["0", "7", "00", "10", "007", "1234", "01234", "99999", "123456", "1234567",
                  "00000000", "00000001", "10000000", "12345678", "99999999", "100000000",
                  "999999999", "0000000000", "1234567890"]
        rows = [f"{i + 10},{i % 3},{value}" for i, value in enumerate(values)]
        table = self.check("country,field,value" + eol + eol.join(rows) + eol, block_bytes,
                           accept=True)
        assert table.values[np.arange(len(values)), np.arange(len(values)) % 3].tolist() == [
            float(value) for value in values]
        assert not np.signbit(table.values).any()

    @pytest.mark.parametrize("block_bytes", [16, 64, ingest.BLOCK_BYTES])
    @pytest.mark.parametrize("value", ["", " ", "+1", "0" * 9, "1" * 9, "1" * 16])
    def test_spans_not_of_one_to_eight_digits(self, block_bytes, value):
        # after 8 digit-only rows, so the block reads its values from their
        # words: an empty span, and one over 8 bytes, are left to float
        text = "country,field,value\n" + "".join(f"D{k},F,{10 ** k}\n" for k in range(8))
        self.check(text + f"X,F,{value}\nY,F,5\n", block_bytes)

    @pytest.mark.parametrize("position", range(8))
    def test_each_byte_at_each_position_of_eight_digits(self, position):
        # the byte after 8 digit-only rows, so the block reads its values
        # arithmetically: each of the 256 byte values in one file, then every
        # spelling that file accepts again in one table at three block sizes
        head = b"country,field,value\n" + b"".join(b"D%d,F,%d\n" % (k, 10 ** k) for k in range(8))
        accepted = []
        for byte in range(256):
            spelling = b"12345678"[:position] + bytes([byte]) + b"12345678"[position + 1:]
            if isinstance(self.check(head + b"X,F," + spelling + b"\nY,F,5\n", ingest.BLOCK_BYTES),
                          ProductionTable):
                accepted.append(spelling)
        assert {b"12345678"[:position] + bytes([d]) + b"12345678"[position + 1:]
                for d in b"0123456789"} <= set(accepted)
        assert not {b"/", b":"} & {s[position:position + 1] for s in accepted}
        text = head + b"".join(b"X%d,F,%s\n" % (k, s) for k, s in enumerate(accepted))
        for block_bytes in (16, 64, ingest.BLOCK_BYTES):
            self.check(text, block_bytes, accept=True)

    @pytest.mark.parametrize("block_bytes", [16, 64, ingest.BLOCK_BYTES])
    @pytest.mark.parametrize("digit_rows", [1, 3])
    def test_blocks_mix_digit_spans_with_other_spellings(self, block_bytes, digit_rows):
        # digit_rows in every 4 rows are digits: blocks read mostly by float,
        # then mostly from their words, with the GOOD_VALUES between them
        rows = [f"C{r},F{r % 7},{r * 7919 % 10 ** (r % 9 + 1) if r % 4 < digit_rows else value}"
                for r, value in enumerate(GOOD_VALUES * 40)]
        table = self.check("country,field,value\n" + "\n".join(rows) + "\n", block_bytes,
                           accept=True)
        assert table.values.shape == (len(rows), 7)

    def test_integers_are_read_without_float(self):
        # an all-digit table gives _values no cell: its one call is the
        # dtype probe with no cells; other spellings still take the fast path
        text = "country,field,value\n" + "".join(
            f"C{r},F{r % 5},{r * 7919 % 10 ** (r % 8 + 1)}\n" for r in range(20000))
        with mock.patch.object(ingest, "_values", wraps=ingest._values) as values, \
                mock.patch.object(ingest, "_table_per_row", side_effect=AssertionError):
            table = parse(text)
        assert values.call_args_list == [mock.call([])]
        _assert_same(table, ingest._table_per_row(io.BytesIO(text.encode()), IndexKind.DOCUMENTS))
        spellings = ["-0", "1_000", " 7 ", "12.5", '"12"', "\u0663"]
        text = "country,field,value\n" + "".join(
            f"C{r},F,{spelling}\n" for r, spelling in enumerate(spellings * 3 + ["8"] * 12))
        with mock.patch.object(ingest, "_table_per_row", side_effect=AssertionError):
            table = parse(text)
        assert table.values[:6, 0].tolist() == [-0.0, 1000.0, 7.0, 12.5, 12.0, 3.0]
        assert np.signbit(table.values[0, 0])

    def test_large_table_takes_the_fast_path(self):
        # 2,000 rows in 3 blocks, with quoted, comma and NFD names and \r\n
        # line ends: parsed without the per-row reader
        countries = ["A", "Korea, South", 'The "Quoted" Republic', "Pe\u0301rou", "Z"] * 8
        fields = [f"F{j}" for j in range(50)]
        lines = ["country,field,value"] + [
            f"{_csv_cell(c + str(i), False)},{f},{i * 50 + j}"
            for i, c in enumerate(countries) for j, f in enumerate(fields)]
        text = "\r\n".join(lines) + "\r\n"
        expected = self.check(text, 1 << 14, accept=True)
        assert len(text.encode()) > 2 << 14
        with mock.patch.object(ingest, "BLOCK_BYTES", 1 << 14), \
                mock.patch.object(ingest, "_table_per_row", side_effect=AssertionError), \
                tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            _assert_same(parse_production_csv(path, IndexKind.DOCUMENTS), expected)
        assert expected.countries[3] == "P\u00e9rou3"
        assert expected.values.shape == (40, 50)


    @pytest.mark.parametrize("block_bytes", [4096, ingest.BLOCK_BYTES])
    def test_long_field_declines_before_its_words_are_read(self, block_bytes):
        # a 3,000-byte name, then short rows to the block's end: the words
        # of the last rows' names, read that wide, would run past the buffer
        rows = ["x" * 3000 + ",Mth,1"] + [f"C{k:05d},Mth,1" for k in range(block_bytes // 13)]
        text = "country,field,value\n" + "\n".join(rows) + "\n"
        assert len(text) > block_bytes
        table = self.declined(text, block_bytes)
        assert table.countries[0] == "x" * 3000 and len(table.countries) == len(rows)

    @pytest.mark.parametrize("block_bytes", [4096, ingest.BLOCK_BYTES])
    def test_long_carried_line_declines_before_the_buffer_fills(self, block_bytes):
        # a line of commas carried over 4 * _MAX_FIELD bytes, then rows that
        # end where the buffer does if the carried bytes are kept: the last
        # row's field would start within the buffer's last word
        size = block_bytes + 5 * ingest._MAX_FIELD + 8  # the byte reader's buffer
        rows = [f"C{k:04d},Mth,1" for k in range(100)]  # 11 bytes and a newline each
        text = "country,field,value\n" + "," * (size - 1 - 12 * len(rows)) + "\n" + "".join(
            row + "\n" for row in rows)
        assert len(text) == 20 + size and size - 1 - 12 * len(rows) > block_bytes
        table = self.declined(text, block_bytes)
        assert table.countries == tuple(f"C{k:04d}" for k in range(100))

    def test_span_index_fits_its_bits(self):
        # a data row takes at least 3 bytes, and a block holds BLOCK_BYTES
        # after a carried line of up to 4 * _MAX_FIELD: a span index wider
        # than _SPAN_BITS would spill into the fingerprint, and every file of
        # that many rows would be read per row
        assert (ingest.BLOCK_BYTES + 4 * ingest._MAX_FIELD) // 3 < 1 << ingest._SPAN_BITS

    def test_parse_peak_does_not_grow_with_the_file(self, tmp_path):
        # one grid of 300 x 125 cells, once with its names padded so that the
        # file is 4 times larger; every name is in the first rows, so the
        # matrix is allocated once.  Measured: 5.38 and 2.83 BLOCK_BYTES above
        # the values with the integer values read from their words (5.39 and
        # 2.84 when every value went through the spelling dictionary), and 3.9
        # for the padded file when a block's separators are searched in one
        # pass rather than a strip at a time.
        extra = []
        for pad in ("", "." * 36):
            path = tmp_path / f"pad{len(pad)}.csv"
            path.write_text("country,field,value\n" + "".join(
                f"Country {r % 300}{pad},Field {(r // 300 + r) % 125}{pad},{r % 97}\n"
                for r in range(300 * 125)), encoding="utf-8")
            assert path.stat().st_size > 3 * ingest.BLOCK_BYTES
            tracemalloc.start()
            try:
                with mock.patch.object(ingest, "_table_per_row", side_effect=AssertionError):
                    table = parse_production_csv(path, IndexKind.DOCUMENTS)
                extra.append(tracemalloc.get_traced_memory()[1] - table.values.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[0] < 6 * ingest.BLOCK_BYTES
        assert extra[1] < 3.25 * ingest.BLOCK_BYTES  # the larger file holds less

    def test_grown_table_owns_its_values(self):
        # 40 countries over 16-byte blocks: the matrix grows to 64 rows, and
        # the table keeps a copy of its 40, not a view of the 64
        text = "country,field,value\n" + "".join(f"C{r:02d},Mth,{r}\n" for r in range(40))
        with mock.patch.object(ingest, "BLOCK_BYTES", 16):
            table = ingest._table_in_byte_blocks(io.BytesIO(text.encode()), IndexKind.DOCUMENTS)
        assert table.values.shape == (40, 1)
        assert table.values.base is None
        assert table.values[:, 0].tolist() == list(range(40))


class TestBadUtf8:
    """Bad UTF-8 is named by the line of its first bad byte, counted as csv counts lines."""

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_late_bad_byte_names_its_line(self, tmp_path, end):
        # 20,001 lines with \xff at line 15,002 (test_fault_three_blocks_in
        # puts one past the byte reader's third block)
        rows = [b"country,field,value"] + [f"C{r // 40},F{r % 40},1".encode() for r in range(20000)]
        rows[15001] = b"C\xff" + rows[15001][1:]
        path = tmp_path / "t.csv"
        path.write_bytes(end.encode().join(rows) + end.encode())
        with pytest.raises(DataError) as raised:
            parse_production_csv(path, IndexKind.DOCUMENTS)
        assert str(raised.value) == "input is not valid UTF-8 (invalid start byte) at line 15002"

    @pytest.mark.parametrize("data, line", [
        (b'country,field,value\r\n"A\nB",Mth,1\r\rP\xc3\xa9rou,Chm,1\r\nX\xc3\xc3,Mth,2\r\n', 6),
        (b"country,field,value\r\nA,Mth,1\r\n\xe2\x82(,Mth,1\r\n", 3),
        (b"country,field,value\nA,Mth,1\nA\xc3", 3),
        (b"country,field,value\nA\xf0\x9f\x98\x80\xff\nB,Mth,1\n", 2),
    ], ids=["quoted-newline-and-bare-cr", "bad-continuation", "ends-inside-a-character",
            "bad-byte-after-a-cut-character"])
    def test_line_is_counted_across_block_cuts(self, tmp_path, data, line):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        for block_bytes in range(1, len(data) + 1):
            with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
                    pytest.raises(DataError, match=f"^input is not valid UTF-8 .* at line {line}$"):
                parse_production_csv(path, IndexKind.DOCUMENTS)

    @pytest.mark.parametrize("data, message", [
        (b"country,field,value\nA,Mth,-1\nB\xff,Mth,1\n", "negative value at line 2"),
        (b"country,field,value\nA\xff,Mth,1\nB,Mth,-1\n",
         "input is not valid UTF-8 (invalid start byte) at line 2"),
        (b'country,field,value\n"A\nB",Mth,1\nC\xff,Mth,1\n',
         "input is not valid UTF-8 (invalid start byte) at line 4"),
        (b'country,field,value\n"A\nB",Mth,-1\nC\xff,Mth,1\n', "negative value at line 3"),
    ], ids=["value-before-bad-utf8", "bad-utf8-before-value", "bad-byte-after-quoted-newline",
            "value-after-quoted-newline-before-bad-utf8"])
    def test_first_fault_in_line_order_is_named(self, tmp_path, data, message):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(DataError) as raised:
            parse_production_csv(path, IndexKind.DOCUMENTS)
        assert str(raised.value) == message


@pytest.mark.parametrize("fault, message", [
    (lambda row: row[:-1] + b"-1", "negative value at line {}"),
    (lambda row: b"C\xff" + row[1:], "input is not valid UTF-8 (invalid start byte) at line {}"),
], ids=["negative", "bad-utf8"])
def test_fault_three_blocks_in(tmp_path, fault, message):
    # the first row that starts 3 byte-reader blocks in holds the fault
    rows = [b"country,field,value"] + [f"C{r // 40},F{r % 40},1".encode()
                                       for r in range(3 * ingest.BLOCK_BYTES // 8)]
    starts = np.cumsum([0] + [len(row) + 1 for row in rows])  # each line's first byte
    k = int(np.searchsorted(starts, 3 * ingest.BLOCK_BYTES))
    rows[k] = fault(rows[k])
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    with pytest.raises(DataError) as raised:
        parse_production_csv(path, IndexKind.DOCUMENTS)
    assert str(raised.value) == message.format(k + 1)
    assert k + 1 < len(rows)


class TestSourceKinds:
    """The one kind of source, a path, ends a row at a bare carriage return."""

    @pytest.mark.parametrize("parse, text", [
        (parse_production_csv, "country,field,value\nA,Mth,1\rB,Mth,2"),
        (parse_production_csv, "country,field,value\r\nA,Mth,1\rB,Mth,2\r\n"),
    ])
    def test_bare_carriage_return_ends_a_row(self, tmp_path, parse, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        table = parse(path, IndexKind.DOCUMENTS)
        assert table.countries == ("A", "B")
        assert table.values.tolist() == [[1.0], [2.0]]
