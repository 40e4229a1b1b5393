import builtins
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from rcaspace import AdvantageMatrix, IndexKind, cli
from rcaspace.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from rcaspace.errors import DataError
from rcaspace.ingest import matrix_csv_chunks
from rcaspace.netexport import build_layout, emit_chunks
from rcaspace.proximity import field_proximity

from .oracles import reference_emit, reference_matrix_csv_text

DOCS_CSV = "country,field,value\nA,Mth,10\nA,Chm,2\nB,Mth,3\nB,Chm,9\n"
CITS_CSV = "country,field,value\nA,Mth,8\nA,Chm,1\nB,Mth,2\nB,Chm,12\n"
H_CSV = "country,field,value\nA,Mth,5\nA,Chm,5\nB,Mth,4\nB,Chm,6\n"
# One country: every RCA value is 1, so no index pair has a Pearson r.
ONE_COUNTRY = {
    "documents": "country,field,value\nA,Mth,3\nA,Chm,7\n",
    "citations": "country,field,value\nA,Mth,5\nA,Chm,1\n",
}


# What `rcaspace demo` prints after its artifact listing.  Tied entries of
# the top-k lists print in name order.
DEMO_SUMMARY = """\
dataset: rcaspace-demo (1996-2011)
index                     median RCA   mean RCA  skew
documents                      0.747      1.001  right-skewed
citations                      0.755      1.001  right-skewed
self_citations                 0.831      1.000  right-skewed
citations_per_document         0.777      1.000  right-skewed
h_index                        0.874      0.999  symmetric

cross-index Pearson correlations of RCA values:
  documents ~ citations: r = -0.230
  documents ~ self_citations: r = -0.015
  documents ~ citations_per_document: r = +0.035
  documents ~ h_index: r = -0.270
  citations ~ self_citations: r = -0.106
  citations ~ citations_per_document: r = -0.031
  citations ~ h_index: r = +0.051
  self_citations ~ citations_per_document: r = -0.181
  self_citations ~ h_index: r = -0.003
  citations_per_document ~ h_index: r = -0.111

most diverse countries (documents):
  Drumstan          Div = 12
  Genovia           Div = 12
  Krakozhia         Div = 12
  Arcadia           Div = 11
  Hyrkania          Div = 11
most ubiquitous fields (documents):
  Ert-PlnScn        Ubi = 7
  CmpScn            Ubi = 6
  DcsSci            Ubi = 6
  Enr               Ubi = 6
  Mdc               Ubi = 6
"""


def write_dataset(tmp_path, tables=None):
    tables = tables if tables is not None else {
        "documents": DOCS_CSV,
        "citations": CITS_CSV,
        "h_index": H_CSV,
    }
    entries = []
    for kind, text in tables.items():
        name = f"{kind}.csv"
        (tmp_path / name).write_text(text, encoding="utf-8")
        entries.append({"index": kind, "path": name})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"dataset_name": "tiny", "period": "2000", "tables": entries})
    )
    return manifest


# What each command writes for the 3-index dataset of write_dataset, in the
# order it lists the files on stdout.
COMMAND_OUTPUTS = {
    "rca": [
        "rca_documents.csv", "advantage_documents.csv",
        "rca_citations.csv", "advantage_citations.csv",
        "rca_h_index.csv", "advantage_h_index.csv",
        "rca_summary.json",
    ],
    "proximity fields": [
        "proximity_fields_documents.csv", "network_fields_documents.json",
        "proximity_fields_citations.csv", "network_fields_citations.json",
        "proximity_fields_h_index.csv", "network_fields_h_index.json",
        "proximity_summary.json",
    ],
    "proximity countries": [
        "proximity_countries_documents.csv", "network_countries_documents.json",
        "proximity_countries_citations.csv", "network_countries_citations.json",
        "proximity_countries_h_index.csv", "network_countries_h_index.json",
        "proximity_summary.json",
    ],
    "network fields": [
        "network_fields_documents.json", "network_fields_citations.json",
        "network_fields_h_index.json",
    ],
    "network countries": [
        "network_countries_documents.json", "network_countries_citations.json",
        "network_countries_h_index.json",
    ],
    "stats": ["stats.json", "stats.txt"],
    "report": [
        "rca_documents.csv", "advantage_documents.csv",
        "rca_citations.csv", "advantage_citations.csv",
        "rca_h_index.csv", "advantage_h_index.csv",
        "proximity_fields_documents.csv", "network_fields_documents.json",
        "proximity_fields_citations.csv", "network_fields_citations.json",
        "proximity_fields_h_index.csv", "network_fields_h_index.json",
        "proximity_countries_documents.csv", "network_countries_documents.json",
        "proximity_countries_citations.csv", "network_countries_citations.json",
        "proximity_countries_h_index.csv", "network_countries_h_index.json",
        "report.json", "report.txt",
    ],
}


@pytest.mark.parametrize("command", list(COMMAND_OUTPUTS))
def test_command_writes_and_lists_exactly_its_outputs(tmp_path, capsys, command):
    manifest = write_dataset(tmp_path)
    out = tmp_path / "out"
    argv = command.split() + ["--manifest", str(manifest), "--out", str(out)]
    assert main(argv) == EXIT_OK
    expected = COMMAND_OUTPUTS[command]
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [str(out / name) for name in expected]
    assert captured.err == ""


class TestRcaCommand:
    def test_writes_matrices_and_summary(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = main(["rca", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_OK
        for kind in ("documents", "citations", "h_index"):
            assert (out / f"rca_{kind}.csv").exists()
            assert (out / f"advantage_{kind}.csv").exists()
        summary = json.loads((out / "rca_summary.json").read_text())
        assert summary["dataset"]["name"] == "tiny"
        listed = capsys.readouterr().out.splitlines()
        assert str(out / "rca_summary.json") in listed

    def test_advantage_matrix_is_binary(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        out = tmp_path / "out"
        assert main(["rca", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        lines = (out / "advantage_documents.csv").read_text().splitlines()
        assert lines[0] == "country,field,value"
        cells = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert len(cells) == 4  # every country x field pair, zeros included
        assert set(cells) <= {"0", "1"}

    def test_index_restriction(self, tmp_path):
        manifest = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["rca", "--manifest", str(manifest), "--index", "citations", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "rca_citations.csv").exists()
        assert not (out / "rca_documents.csv").exists()

    def test_index_missing_from_manifest(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        code = main(
            ["rca", "--manifest", str(manifest), "--index", "h_index",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_DATA
        assert "no table for index" in capsys.readouterr().err


# Each table has a field the label registry lacks (a warning of the parse
# stage) and a country with no production (a warning of the analysis stage).
def _two_stage_csv(scale):
    return (f"country,field,value\nA,Mth,{10 * scale}\nA,Widgetry,2\nB,Mth,3\n"
            f"B,Widgetry,{9 * scale}\nZ,Mth,0\nZ,Widgetry,0\n")


class TestLoadStage:
    def test_tables_follow_index_kind_order_and_parse_warnings_come_first(
            self, tmp_path, capsys):
        kinds = [k.value for k in reversed(IndexKind)]
        manifest = write_dataset(tmp_path, {k: _two_stage_csv(i + 1) for i, k in enumerate(kinds)})
        out = tmp_path / "out"
        argv = ["report", "--manifest", str(manifest), "--out", str(out),
                "--index", "h_index", "--index", "documents", "--index", "h_index"]
        assert main(argv) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert [i["index"] for i in doc["inputs"]] == ["documents", "h_index"]
        assert list(doc["rca_stats"]) == ["documents", "h_index"]
        assert [(c["a"], c["b"]) for c in doc["correlations"]] == [("documents", "h_index")]
        assert doc["config"]["indexes"] == ["h_index", "documents"]
        unknown = "field name 'Widgetry' is not in the label registry; kept as-is"
        undefined = ("2 RCA cell(s) undefined (zero country or field total); "
                     "recorded as 0 and masked")
        assert doc["warnings"] == [f"documents: {unknown}", f"h_index: {unknown}",
                                   f"documents: {undefined}", f"h_index: {undefined}"]
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in doc["warnings"])

    def test_a_repeated_index_is_loaded_once(self, tmp_path):
        manifest = write_dataset(tmp_path)
        cfg = cli.RunConfig(manifest, tmp_path / "out",
                            indexes=(IndexKind.CITATIONS, IndexKind.DOCUMENTS, IndexKind.CITATIONS))
        data = cli.load_dataset(cfg)
        assert [a.kind for a in data.analyses] == [IndexKind.DOCUMENTS, IndexKind.CITATIONS]
        assert [i["index"] for i in data.inputs] == ["documents", "citations"]

    def test_no_index_is_a_data_error(self, tmp_path):
        cfg = cli.RunConfig(write_dataset(tmp_path), tmp_path / "out", indexes=())
        with pytest.raises(DataError, match="requires at least one table"):
            cli.load_dataset(cfg)


@pytest.mark.parametrize("command, opens", [(["network", "countries"], 1), (["rca"], 2)],
                         ids=["network", "rca"])
def test_a_table_is_read_again_only_for_the_digest_a_summary_reports(
        tmp_path, monkeypatch, command, opens):
    # rca writes rca_summary.json, which lists each input's sha256; network writes no summary
    manifest = write_dataset(tmp_path)
    tables = {"documents.csv", "citations.csv", "h_index.csv"}
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([*command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert Counter(name for name in opened if name in tables) == dict.fromkeys(tables, opens)


class _FailsAfterFirstChunk:
    """Text chunks whose stream breaks after the first one."""

    def __iter__(self):
        yield "new"
        raise OSError("the stream broke after its first chunk")


class TestErrorContract:
    def test_missing_manifest_is_io_error(self, tmp_path):
        code = main(
            ["rca", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_IO

    def test_missing_data_file_is_io_error(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "dataset_name": "x",
                    "period": "p",
                    "tables": [{"index": "documents", "path": "absent.csv"}],
                }
            )
        )
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_all_zero_table_is_data_error(self, tmp_path, capsys):
        manifest = write_dataset(
            tmp_path, {"documents": "country,field,value\nA,Mth,0\nB,Chm,0\n"}
        )
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "empty production" in capsys.readouterr().err

    def test_invalid_utf8_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"dataset_name": "\xff", "period": "p", "tables": []}')
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert f"manifest {manifest}: invalid JSON" in capsys.readouterr().err

    def test_byte_order_mark_makes_the_header_invalid(self, tmp_path, capsys):
        # the mark is read as part of the first header cell, not skipped
        manifest = write_dataset(tmp_path, {"documents": "\ufeff" + DOCS_CSV})
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "rcaspace: error: documents.csv: invalid header "
            "['\\ufeffcountry', 'field', 'value']: expected country,field,value\n")

    def test_unknown_index_kind_names_the_manifest(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        manifest.write_text(manifest.read_text().replace('"documents"', '"bogus"'))
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"rcaspace: error: manifest {manifest}: unknown index kind 'bogus' (expected one of: "
            "documents, citations, self_citations, citations_per_document, h_index)\n"
        )

    def test_deeply_nested_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"manifest {manifest}: invalid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("table, cause", [
        # the Mth total, and so the grand total, overflows to inf
        ("A,Mth,1e308\nB,Mth,1e308\nA,Chm,1\n", "overflows"),
        # the world share of F underflows to 0, so RCA(A, F) is inf
        ("A,F,5e-324\nA,G,5e-324\nB,F,5e-324\nB,G,1\n", "non-finite"),
    ], ids=["overflowing-total", "underflowing-share"])
    def test_analysis_error_names_its_index(self, tmp_path, capsys, table, cause):
        manifest = write_dataset(tmp_path, {"documents": "country,field,value\n" + table})
        out = tmp_path / "o"
        code = main(["report", "--manifest", str(manifest), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("rcaspace: error: documents: ")
        assert cause in err
        assert not out.exists()

    @pytest.mark.parametrize("fields, cause", [
        ('"tables": [{"index": "documents", "path": "a\\u0000b.csv"}]', "embedded null byte"),
        ('"tables": [{"index": "documents", "path": "\\ud800.csv"}]', "surrogates not allowed"),
        ('"tables": [{"index": "documents", "path": "documents.csv"}], "period": "\\udfff"',
         "surrogates not allowed"),
        ('"tables": [], "period": ' + "9" * 5000, "invalid JSON (Exceeds the limit"),
    ], ids=["nul-in-path", "surrogate-in-path", "surrogate-in-period", "int-too-long"])
    def test_manifest_value_that_is_no_text_is_data_error(self, tmp_path, capsys, fields, cause):
        write_dataset(tmp_path, {"documents": DOCS_CSV})
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"dataset_name": "x", "period": "p", ' + fields + "}")
        out = tmp_path / "o"
        code = main(["report", "--manifest", str(manifest), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(f"rcaspace: error: manifest {manifest}: ")
        assert cause in err
        assert not out.exists()

    def test_symlink_loop_as_table_is_io_error(self, tmp_path, capsys):
        (tmp_path / "loop.csv").symlink_to("loop.csv")
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        manifest.write_text(manifest.read_text().replace("documents.csv", "loop.csv"))
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert "loop.csv" in capsys.readouterr().err

    def test_invalid_utf8_table_is_data_error(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        (tmp_path / "documents.csv").write_bytes(b"country,field,value\nA,M\xffth,1\n")
        code = main(["rca", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "documents.csv: input is not valid UTF-8" in capsys.readouterr().err

    def test_label_collision_names_file_and_fields(self, tmp_path, capsys):
        manifest = write_dataset(
            tmp_path, {"documents": "country,field,value\nA,Mathematics,3\nA,Mth,7\n"})
        out = tmp_path / "o"
        code = main(["report", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "rcaspace: error: documents.csv: fields 'Mathematics' and 'Mth' both resolve to 'Mth'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("data, replace", [
        pytest.param("\ud800", os.replace, id="unencodable-text"),
        pytest.param(["new"], mock.Mock(side_effect=OSError("rename failed")), id="failed-rename"),
        pytest.param(_FailsAfterFirstChunk(), os.replace, id="stream-fails-midway"),
    ])
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, data, replace):
        target = tmp_path / "report.json"
        target.write_bytes(b"old")
        with mock.patch.object(os, "replace", replace), \
                pytest.raises((UnicodeEncodeError, OSError)):
            cli._write_bytes(target, data)
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_table_error_names_file_and_line(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, {
            "documents": DOCS_CSV,
            "citations": "country,field,value\nA,Mth,1\nB,Mth,-2\n",
        })
        code = main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "rcaspace: error: citations.csv: negative value at line 3\n" in capsys.readouterr().err

    def test_out_of_memory_is_one_line_and_exit_3(self, tmp_path, monkeypatch, capsys):
        # the backstop for an n×n stage that cannot be allocated
        def too_large(analysis, mode):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr(cli, "proximity_network", too_large)
        manifest = write_dataset(tmp_path)
        code = main(["network", "countries", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "rcaspace: error: out of memory: Unable to allocate 74.5 GiB for an array "
            "with shape (100000, 100000)\n")

    def test_bad_threshold_is_data_error(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        code = main(
            ["report", "--manifest", str(manifest), "--threshold", "1.5",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["rca", "--manifest", "m.json", "--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_mode_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["proximity", "widgets", "--manifest", "m.json"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_format_choice_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["network", "fields", "--manifest", "m.json", "--format", "pdf"])
        assert exc.value.code == EXIT_USAGE

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "rcaspace" in capsys.readouterr().out


class TestStreamedWrites:
    """The CLI writes each file a block of rows at a time, never holding it whole.

    Held whole, the text alone is as large as the file, and its encoded copy
    as large again, so a peak below half the file's size shows the stream.
    """

    @staticmethod
    def _write_peak(path, make_chunks, *args) -> int:
        """Peak bytes allocated while the CLI's write path writes ``make_chunks(*args)``."""
        tracemalloc.start()
        try:
            cli._write_bytes(path, make_chunks(*args))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_paper_scale_rca_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.random((240, 313)) * 4.0 * (rng.random((240, 313)) > 0.2)
        grid = tuple(f"C{i:03d}" for i in range(240)), tuple(f"F{j:03d}" for j in range(313))
        path = tmp_path / "rca_documents.csv"
        peak = self._write_peak(path, matrix_csv_chunks, *grid, values)
        assert path.read_text(encoding="utf-8") == reference_matrix_csv_text(*grid, values)
        assert peak < 0.5 * path.stat().st_size

    def test_graphml_of_thousands_of_edges(self, tmp_path):
        rng = np.random.default_rng(7)
        m = rng.random((30, 120)) < 0.5
        adv = AdvantageMatrix(tuple(f"C{i:02d}" for i in range(30)),
                              tuple(f"F{j:03d}" for j in range(120)), m)
        layout = build_layout(field_proximity(adv, m.sum(axis=0)), threshold=0.0)
        assert len(layout.edges) >= 5000
        path = tmp_path / "network_fields_documents.graphml"
        peak = self._write_peak(path, emit_chunks, layout, "graphml")
        assert path.read_bytes() == reference_emit(layout, "graphml")
        assert peak < 0.5 * path.stat().st_size


class TestNetworkAndProximity:
    def test_network_formats(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        out = tmp_path / "out"
        code = main(
            ["network", "fields", "--manifest", str(manifest), "--out", str(out),
             "--format", "dot", "--format", "svg"]
        )
        assert code == EXIT_OK
        assert (out / "network_fields_documents.dot").exists()
        assert (out / "network_fields_documents.svg").exists()
        assert not (out / "network_fields_documents.json").exists()

    def test_proximity_writes_matrix_and_summary(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        out = tmp_path / "out"
        code = main(
            ["proximity", "countries", "--manifest", str(manifest), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "proximity_countries_documents.csv").exists()
        assert (out / "network_countries_documents.json").exists()
        summary = json.loads((out / "proximity_summary.json").read_text())
        assert summary["proximity_exports"] == ["proximity_countries_documents.csv"]

    def test_single_country_yields_empty_edge_list(self, tmp_path):
        manifest = write_dataset(
            tmp_path, {"documents": "country,field,value\nA,Mth,3\nA,Chm,7\n"}
        )
        out = tmp_path / "out"
        code = main(
            ["network", "countries", "--manifest", str(manifest), "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "network_countries_documents.json").read_text())
        assert len(doc["nodes"]) == 1
        assert doc["edges"] == []


class TestStatsAndReport:
    def test_stats_outputs(self, tmp_path):
        manifest = write_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "stats.json").read_text())
        assert set(doc["rca_stats"]) == {"documents", "citations", "h_index"}
        text = (out / "stats.txt").read_text()
        assert "Pearson correlations" in text
        assert "Ubiquity per field" in text

    def test_report_correlation_count(self, tmp_path):
        manifest = write_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["correlations"]) == 3
        assert all("r_joint" not in c for c in doc["correlations"])

    def test_report_joint_cells_flag(self, tmp_path):
        manifest = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["report", "--manifest", str(manifest), "--joint-cells", "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert all("r_joint" in c for c in doc["correlations"])

    def test_single_index_report_has_no_correlations(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        out = tmp_path / "out"
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["correlations"] == []

    def test_degenerate_pair_reports_null_r(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, ONE_COUNTRY)
        out = tmp_path / "out"
        code = main(["report", "--manifest", str(manifest), "--joint-cells", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["correlations"] == [{
            "a": "documents", "b": "citations",
            "r": None, "reason": "degenerate correlation input",
            "r_joint": None, "reason_joint": "degenerate correlation input",
        }]
        warned = [
            "documents ~ citations: r is null (degenerate correlation input)",
            "documents ~ citations: r_joint is null (degenerate correlation input)",
        ]
        assert doc["warnings"] == warned
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warned)
        text = (out / "report.txt").read_text()
        assert "  documents ~ citations: r = n/a  (jointly defined cells: r = n/a)\n" in text

    def test_report_writes_all_artifact_groups(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        out = tmp_path / "out"
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert {
            "rca_documents.csv",
            "advantage_documents.csv",
            "proximity_fields_documents.csv",
            "proximity_countries_documents.csv",
            "network_fields_documents.json",
            "network_countries_documents.json",
            "report.json",
            "report.txt",
        } <= names

    def test_quartile_rule_is_recorded_and_applied(self, tmp_path):
        manifest = write_dataset(tmp_path, {"documents": DOCS_CSV})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["stats", "--manifest", str(manifest), "--out", str(out_a)])
        main(["stats", "--manifest", str(manifest), "--quartile-rule", "midpoint",
              "--out", str(out_b)])
        doc_a = json.loads((out_a / "stats.json").read_text())
        doc_b = json.loads((out_b / "stats.json").read_text())
        assert doc_a["config"]["quartile_rule"] == "linear"
        assert doc_b["config"]["quartile_rule"] == "midpoint"
        assert (
            doc_a["rca_stats"]["documents"]["q1"]
            != doc_b["rca_stats"]["documents"]["q1"]
        )


class TestDemoCommand:
    def test_demo_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out)]) == EXIT_OK
        assert (out / "data" / "manifest.json").exists()
        assert (out / "analysis" / "report.json").exists()
        assert (out / "analysis" / "network_fields_documents.svg").exists()
        doc = json.loads((out / "analysis" / "report.json").read_text())
        assert len(doc["correlations"]) == 10  # five indexes, all pairs
        assert doc["warnings"] == []
        stdout = capsys.readouterr().out
        assert "demo dataset:" in stdout

    def test_demo_prints_digest(self, tmp_path, capsys):
        assert main(["demo", "--out", str(tmp_path)]) == EXIT_OK
        listed, digest = capsys.readouterr().out.split("\n\n", 1)
        analysis = tmp_path / "analysis"
        assert sorted(listed.splitlines()) == sorted(str(p) for p in analysis.iterdir())
        manifest = tmp_path / "data" / "manifest.json"
        assert digest == DEMO_SUMMARY + f"\ndemo dataset: {manifest}\nanalysis: {analysis}\n"

    def test_digest_prints_na_for_a_degenerate_pair(self, tmp_path, monkeypatch, capsys):
        def write_one_country(directory):
            directory.mkdir(parents=True)
            write_dataset(directory, ONE_COUNTRY)

        monkeypatch.setattr("rcaspace.cli.write_demo_dataset", write_one_country)
        assert main(["demo", "--out", str(tmp_path)]) == EXIT_OK
        assert "  documents ~ citations: r = n/a\n" in capsys.readouterr().out

    def test_demo_runs_are_reproducible(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["demo", "--out", str(out_a)]) == EXIT_OK
        assert main(["demo", "--out", str(out_b)]) == EXIT_OK
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcaspace", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("rcaspace ")
