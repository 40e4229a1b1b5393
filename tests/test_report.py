import hashlib
import json

import numpy as np
import pytest

from rcaspace import DataError, IndexKind, parse_production_csv
from rcaspace.report import (
    analyze_index,
    build_report,
    correlation_pairs,
    sha256_file,
)


def analysis_for(make_table, values, kind):
    return analyze_index(make_table(values, kind=kind))


@pytest.fixture
def three_analyses(make_table):
    tables = {
        IndexKind.DOCUMENTS: [[10.0, 2.0], [3.0, 9.0]],
        IndexKind.CITATIONS: [[8.0, 1.0], [2.0, 12.0]],
        IndexKind.H_INDEX: [[5.0, 5.0], [4.0, 6.0]],
    }
    return [analysis_for(make_table, v, k) for k, v in tables.items()]


class TestAnalyzeIndex:
    def test_fields_are_consistent(self, make_table):
        a = analysis_for(make_table, [[10.0, 2.0], [3.0, 9.0]], IndexKind.DOCUMENTS)
        assert a.kind is IndexKind.DOCUMENTS
        assert a.diversity.tolist() == a.advantage.m.sum(axis=1).tolist()
        assert a.ubiquity.tolist() == a.advantage.m.sum(axis=0).tolist()
        assert a.summary.n == 4

    def test_summary_covers_only_defined_cells(self, make_table):
        with pytest.warns(UserWarning):
            a = analyze_index(make_table([[0.0, 0.0], [3.0, 9.0]]))
        assert a.summary.n == 2
        assert a.rca.n_undefined() == 2


class TestCorrelationPairs:
    def test_pairs_follow_index_order(self, three_analyses):
        pairs = correlation_pairs(list(reversed(three_analyses)))
        assert [(p["a"], p["b"]) for p in pairs] == [
            ("documents", "citations"),
            ("documents", "h_index"),
            ("citations", "h_index"),
        ]

    def test_r_matches_direct_computation(self, three_analyses, make_table):
        from rcaspace import pearson

        docs, cits, _ = three_analyses
        (pair,) = correlation_pairs([docs, cits])
        assert pair["r"] == pearson(docs.rca.values.ravel(), cits.rca.values.ravel())

    def test_joint_cells_key(self, three_analyses):
        pairs = correlation_pairs(three_analyses, joint_cells=True)
        assert all("r_joint" in p for p in pairs)
        pairs = correlation_pairs(three_analyses)
        assert all("r_joint" not in p for p in pairs)

    def test_misaligned_tables_rejected(self, make_table):
        a = analyze_index(make_table([[1.0, 2.0]], countries=("A",)))
        b = analyze_index(
            make_table([[2.0, 1.0]], countries=("B",), kind=IndexKind.CITATIONS)
        )
        with pytest.raises(DataError, match="cell-aligned"):
            correlation_pairs([a, b])

    def test_single_analysis_no_pairs(self, three_analyses):
        assert correlation_pairs(three_analyses[:1]) == []


class TestBuildReport:
    def make_report(self, analyses, **kwargs):
        return build_report(
            dataset_name="unit",
            period="2000",
            analyses=analyses,
            config={"formats": ["json"]},
            inputs=[],
            proximity_exports=[],
            warnings_seen=[],
            **kwargs,
        )

    def test_tables_keyed_by_name(self, three_analyses):
        doc = self.make_report(three_analyses).to_dict()
        assert set(doc["ubiquity"]) == {"F00", "F01"}
        assert set(doc["diversity"]) == {"C00", "C01"}
        assert set(doc["ubiquity"]["F00"]) == {
            "documents",
            "citations",
            "h_index",
        }

    def test_json_is_deterministic_and_versioned(self, three_analyses):
        r1 = self.make_report(three_analyses).to_json()
        r2 = self.make_report(three_analyses).to_json()
        assert r1 == r2
        doc = json.loads(r1)
        assert doc["tool"]["name"] == "rcaspace"
        assert doc["dataset"] == {"name": "unit", "period": "2000"}
        assert len(doc["correlations"]) == 3

    def test_text_sections(self, three_analyses):
        text = self.make_report(three_analyses).to_text()
        assert "RCA distribution summaries" in text
        assert "Pearson correlations" in text
        assert "Ubiquity per field" in text
        assert "Diversity per country" in text

    def test_undefined_cell_counts(self, make_table):
        with pytest.warns(UserWarning):
            a = analyze_index(make_table([[0.0, 0.0], [3.0, 9.0]]))
        report = self.make_report([a])
        assert report.to_dict()["undefined_cells"] == {"documents": 2}

    def test_negative_zero_cell_reports_unsigned_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("country,field,value\na,x,-0\na,y,1\nb,x,2\nb,y,3\n", encoding="utf-8")
        table = parse_production_csv(path, IndexKind.DOCUMENTS)
        a = analyze_index(table)
        assert a.rca.values[0, 0] == 0.0 and not np.signbit(a.rca.values[0, 0])
        assert not np.signbit(a.summary.minimum)
        report = self.make_report([a])
        assert json.loads(report.to_json())["rca_stats"]["documents"]["min"] == 0.0
        assert '"min": -0.0' not in report.to_json()
        assert "-0.000" not in report.to_text()


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"abc" * 100000)
        assert sha256_file(p) == hashlib.sha256(b"abc" * 100000).hexdigest()
