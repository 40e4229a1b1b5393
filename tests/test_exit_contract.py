"""Fuzzing the exit contract of ``cli.main`` (MacIver et al., *Hypothesis*, JOSS 2019).

Whatever the manifest, the tables and the options, a run ends in exit 0
(success), 2 (I/O failure), 3 (bad data) or 64 (usage) and no exception
escapes ``main``.  The inputs mix broken and deeply nested manifests, bad
UTF-8 and a byte order mark, NUL and other odd table paths, ragged rows,
NaN, infinities and magnitudes from 5e-324 to 1e308, bare carriage returns
and bad option values.
"""
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from rcaspace.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main

KINDS = ("documents", "citations", "h_index")
# a full name and a label of the registry, a name it lacks, and names that need CSV quoting
FIELDS = ("Mathematics", "Chm", "Widgetry", 'say "x"', "a,b")
COUNTRIES = ("A", "B", "Cé", "a,b", " C ")
VALUES = st.one_of(st.sampled_from(("0", "1", "7", " 7 ", "1_0", "-0.0", "0.5", "5e-324",
                                    "2.2250738585072014e-308", "1e308",
                                    "1.7976931348623157e308")),
                   st.floats(0.0, 1e6).map(repr))
BAD_VALUES = ("-1", "nan", "inf", "-inf", "", "x", "1e999")
TABLE_PATHS = ("a\x00b.csv", "\ud800.csv", "", ".", "/", "..", "absent.csv", "x" * 300,
               "sub/../documents.csv")
# None most of the time, so that most runs get as far as writing their outputs
TABLE_FAULTS = (None,) * 20 + ("value", "name", "ragged", "bom", "bad-utf8", "header")
MANIFEST_FAULTS = (None,) * 10 + ("nested", "not-json", "bom") + ("odd",) * 5
GOOD_OPTIONS = (("--threshold", "0.3"), ("--threshold", "1e-300"), ("--threshold", "1"),
                ("--quartile-rule", "hazen"), ("--format", "svg"), ("--format", "dot"),
                ("--format", "graphml"), ("--format", "csv"), ("--joint-cells",))
BAD_OPTIONS = (("--threshold", "nan"), ("--threshold", "-1"), ("--threshold", "x"),
               ("--quartile-rule", "bogus"), ("--format", "pdf"), ("--index", "bogus"),
               ("--frobnicate",), ("--index", "citations"))
COMMANDS = ("rca", "proximity fields", "network countries", "stats", "report")


@st.composite
def tables(draw):
    """The bytes of one table, now and then broken in one place."""
    rows = draw(st.lists(st.tuples(st.sampled_from(COUNTRIES), st.sampled_from(FIELDS), VALUES),
                         min_size=1, max_size=8, unique_by=lambda row: row[:2]))
    lines = [["country", "field", "value"]] + [list(r) for r in rows]
    fault = draw(st.sampled_from(TABLE_FAULTS))
    k = draw(st.integers(1, len(lines) - 1))
    if fault == "value":
        lines[k][2] = draw(st.sampled_from(BAD_VALUES))
    elif fault == "name":  # empty, or a label that a full name of the table resolves to
        lines[k][draw(st.integers(0, 1))] = draw(st.sampled_from(("", " ", "Mth")))
    elif fault == "ragged":
        lines[k] = lines[k][:draw(st.integers(0, 2))] or lines[k] + ["9"]
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = io.StringIO()
    csv.writer(text, lineterminator=end).writerows(lines)
    data = text.getvalue().encode("utf-8")
    if fault == "bom":
        data = b"\xef\xbb\xbf" + data
    elif fault == "bad-utf8":
        data = data[:len(data) // 2] + b"\xff" + data[len(data) // 2:]
    elif fault == "header":
        data = b"country,value,field" + data[len("country,field,value"):]
    return data


@st.composite
def manifests(draw, kinds):
    """The bytes of a manifest naming ``kinds``, now and then not JSON or with an odd value."""
    fault = draw(st.sampled_from(MANIFEST_FAULTS))
    if fault == "nested":
        depth = draw(st.sampled_from((1, 50, 5_000, 100_000)))
        opener, closer = draw(st.sampled_from((("[", "]"), ('{"a":', "}"))))
        return (opener * depth + "0" * (opener != "[") + closer * depth).encode()
    if fault == "not-json":
        return draw(st.one_of(st.binary(max_size=40), st.text(max_size=40).map(str.encode)))
    entries = [{"index": k, "path": f"{k}.csv"} for k in kinds]
    doc = {"dataset_name": "fuzz", "period": "p", "tables": entries}
    if fault == "odd":
        key, value = draw(st.sampled_from((
            ("path", st.sampled_from(TABLE_PATHS)),
            ("index", st.sampled_from(("bogus", 3, None, "documents"))),
            ("dataset_name", st.sampled_from(("\ud800", 10**10, None, ["x"]))),
            ("period", st.text(max_size=5)),
            ("tables", st.sampled_from(([], {}, "x", [1])))),
        ))
        (entries[0] if key in ("path", "index") else doc)[key] = draw(value)
    data = json.dumps(doc).encode()
    return b"\xef\xbb\xbf" + data if fault == "bom" else data


@st.composite
def runs(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
    options = draw(st.lists(st.sampled_from(GOOD_OPTIONS), max_size=3))
    if draw(st.booleans()):
        options.append(("--index", kinds[-1]))
    if draw(st.integers(0, 7)) == 0:
        options.insert(draw(st.integers(0, len(options))), draw(st.sampled_from(BAD_OPTIONS)))
    return (draw(manifests(kinds)), {k: draw(tables()) for k in kinds},
            draw(st.sampled_from(COMMANDS)), [arg for option in options for arg in option])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_run_ends_in_a_contract_exit_code(run):
    manifest_bytes, table_bytes, command, options = run
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "manifest.json").write_bytes(manifest_bytes)
        for kind, data in table_bytes.items():
            (root / f"{kind}.csv").write_bytes(data)
        argv = [*command.split(), "--manifest", str(root / "manifest.json"),
                "--out", str(root / "out"), *options]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors, --help and --version
                code = exc.code
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_IO, EXIT_DATA, EXIT_USAGE), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code == EXIT_DATA:
        assert stderr.getvalue().startswith("rcaspace: error: ")
