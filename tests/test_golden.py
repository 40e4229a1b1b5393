"""Byte-identity gate for every text artifact.

Any change to a written byte (quoting, value format, row order, header)
changes a digest.  Regenerate them only for a deliberate, documented format
change.
"""
import dataclasses
import hashlib
import json
import unicodedata

import numpy as np

from rcaspace import IndexKind, ProductionTable
from rcaspace.cli import main
from rcaspace.ingest import (
    BLOCK_ROWS,
    FIELD_LABELS,
    matrix_csv_text,
    parse_production_csv,
    production_csv_text,
)
from rcaspace.netexport import FORMATS, build_layout, emit
from rcaspace.proximity import (
    ProximityNetwork,
    country_proximity,
    field_proximity,
    proximity_csv_text,
)
from rcaspace.rca import compute_rca, threshold_advantage

DEMO_TREE_SHA256 = "c197f13e36700362087234eb488a5d21d1d8fa6a7abd81cee17c84b4f1da4432"
TINY_SHA256 = "d310f9c440ec59e4c906d9e0f3a9bc76b0203d7775fc3c2afb041c5e48de24fa"
MULTI_BLOCK_SHA256 = "3ec527c1df45ad4d5288e77513991861923b82ef91be4edf58f7dfa17a51b3e0"
LARGE_SHA256 = "6ab0f91b9110c1a3f15fb2cf22f63a892e28ad3d7ceea667cead3da021dfeb05"

# Names that need CSV quoting (comma, double quote) and NFC normalization
# (the accents are written decomposed and must come out composed).
LONG_CSV = (
    "country,field,value\n"
    "\"The \"\"Quoted\"\" Republic\",\"Economics, Econometrics and Finance\",3\n"
    "\"The \"\"Quoted\"\" Republic\",Mathematics,0.1\n"
    "Co\u0302te d'Ivoire,\"Economics, Econometrics and Finance\",0\n"
    "Co\u0302te d'Ivoire,Me\u0301decine,12.5\n"
    "Co\u0302te d'Ivoire,Mathematics,7\n"
    "Plain,Me\u0301decine,2\n"
    "Plain,Mathematics,5\n"
    "Plain,\"Say \"\"when\"\"\",4\n"
    "\"The \"\"Quoted\"\" Republic\",\"Say \"\"when\"\"\",6e0\n"
)


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def test_demo_tree_all_formats(tmp_path, capsys):
    argv = ["demo", "--out", str(tmp_path)]
    for fmt in FORMATS:
        argv += ["--format", fmt]
    assert main(argv) == 0
    assert _tree_digest(tmp_path) == DEMO_TREE_SHA256


def _tiny_artifacts(table):
    rca = compute_rca(table)
    adv = threshold_advantage(rca)
    parts = [
        production_csv_text(table),
        matrix_csv_text(rca.countries, rca.fields, rca.values),
        matrix_csv_text(adv.countries, adv.fields, adv.m.astype(int)),
    ]
    for net in (
        field_proximity(adv, table.field_totals()),
        country_proximity(adv, table.country_totals()),
    ):
        parts.append(proximity_csv_text(net))
        parts.append(emit(build_layout(net, 0.5), "csv").decode("utf-8"))
    return "\x1e".join(parts).encode("utf-8")


def test_tiny_quoting_and_nfc(tmp_path):
    path = tmp_path / "long.csv"
    path.write_bytes(LONG_CSV.encode("utf-8"))
    long = parse_production_csv(path, IndexKind.DOCUMENTS)
    assert "C\u00f4te d'Ivoire" in long.countries
    assert hashlib.sha256(_tiny_artifacts(long)).hexdigest() == TINY_SHA256


def test_writers_keep_exact_values():
    # An int64 above 2**53 is written exactly, and -0.0 stays apart from 0.0
    # in weights.  The expected texts are those of the previous writers.
    big = np.array([[2**53 + 1], [0]], dtype=np.int64)
    assert matrix_csv_text(["A", "B,x"], ["M"], big) == (
        'country,field,value\nA,M,9007199254740993\n"B,x",M,0\n'
    )
    net = ProximityNetwork(
        "fields", ("b", "a", "c"),
        np.array([[1.0, -0.0, 0.0], [-0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]),
        np.array([0.0, 0.5, 0.5]), np.array([1.0, 1.0, 1.0]),
    )
    assert proximity_csv_text(net) == "node_a,node_b,weight\na,b,-0.0\na,c,0.5\nb,c,0.0\n"
    layout = dataclasses.replace(
        build_layout(net, 0.0), edges=(("a", "b", -0.0), ("a", "c", 0.0))
    )
    assert emit(layout, "csv") == b"node_a,node_b,weight\na,b,-0.0\na,c,0.0\n"


def _multi_block_csv():
    """A long CSV of some 2200 rows in a fixed shuffled order, built without RNG.

    Names need quoting (commas, double quotes) and half the rows spell the
    accented ones in NFD, so spellings merge within and across blocks.
    Some cells are absent and some values are -0 or fractional.
    """
    n_c, n_f = 40, 64
    fields = list(FIELD_LABELS)
    fields += [f"M\u00e9decine {j}" for j in range(n_f - len(fields))]
    countries = [(f"Republic {c}, The", f'The "Quoted" {c}', f"C\u00f4te {c}", f"Plain {c}")[c % 4]
                 for c in range(n_c)]
    rows = []
    for c in range(n_c):
        for f in range(n_f):
            if (c * f) % 7 == 3:
                continue
            base = (3 * (c + 1) * (f + 2) + 7 * (c + f + 1)) % 29
            value = base * (1 + (c + 2 * f) % 5)
            text = "-0" if value == 0 and (c + f) % 3 == 0 else (
                repr(value / 8) if f % 9 == 4 else str(value))
            rows.append((countries[c], fields[f], text))
    lines = ["country,field,value"]
    for k in range(len(rows)):  # 7919 is prime and does not divide len(rows): a permutation
        country, field, text = rows[k * 7919 % len(rows)]
        if k % 2:
            country = unicodedata.normalize("NFD", country)
            field = unicodedata.normalize("NFD", field)
        lines.append(",".join(
            '"' + t.replace('"', '""') + '"' if any(ch in t for ch in ',"') else t
            for t in (country, field, text)
        ))
    return "\n".join(lines) + "\n"


def test_multi_block_long_csv(tmp_path):
    text = _multi_block_csv()
    assert text.count("\n") > 4 * BLOCK_ROWS
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode("utf-8"))
    table = parse_production_csv(path, IndexKind.DOCUMENTS)
    assert table.values.shape == (40, 64)
    digest = hashlib.sha256(
        json.dumps([table.countries, table.fields]).encode("utf-8") + table.values.tobytes()
    )
    assert digest.hexdigest() == MULTI_BLOCK_SHA256


def _large_table():
    """A 72 x 40 table built from a fixed formula, without RNG.

    Its networks have 780 and 2556 node pairs.  The names need CSV, XML, DOT
    and JSON escaping, some are non-ASCII or NFD, and the counts repeat, have
    zeros and have fractional cells.
    """
    marks = (",", '"', "<", ">", "&", "'", "\\", "\u00e9", "e\u0301", "\u4e2d", "")
    countries = tuple(f"Country {c}{marks[c % len(marks)]}" for c in range(72))
    fields = tuple(f"Field{marks[(3 * f) % len(marks)]} {f}" for f in range(40))
    values = np.array([
        [((7 * c + 11 * f + c * f) % 23) * (1 + (c + f) % 4) if (c + 2 * f) % 9 else 0
         for f in range(40)] for c in range(72)
    ], dtype=float)
    values[::5, ::7] += 0.25
    return ProductionTable(IndexKind.CITATIONS, countries, fields, values)


def test_large_tables_and_networks():
    table = _large_table()
    rca = compute_rca(table)
    adv = threshold_advantage(rca)
    digest = hashlib.sha256()
    for text in (production_csv_text(table),
                 matrix_csv_text(rca.countries, rca.fields, rca.values),
                 matrix_csv_text(adv.countries, adv.fields, adv.m.astype(int))):
        digest.update(text.encode("utf-8"))
    kept = 0
    for net in (field_proximity(adv, table.field_totals()),
                country_proximity(adv, table.country_totals())):
        assert len(net.nodes) * (len(net.nodes) - 1) // 2 > 100
        digest.update(proximity_csv_text(net).encode("utf-8"))
        for threshold in (0.0, 0.4):
            layout = build_layout(net, threshold)
            kept += len(layout.edges)
            for fmt in FORMATS:
                digest.update(emit(layout, fmt))
    assert kept > 2000
    assert digest.hexdigest() == LARGE_SHA256
