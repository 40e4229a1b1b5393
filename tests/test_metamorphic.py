"""Metamorphic relations of the full report (Chen et al., *Metamorphic testing*, 1998).

Both follow from the RCA definition (Balassa 1965) and are checked on the
bundled demo dataset with every network format:

- the order of the data rows of an input is not data, so shuffling them
  changes only the inputs' sha256 in ``report.json``;
- RCA is a ratio of shares, so multiplying every value by 4 (a power of two,
  so every quotient is exact) leaves every matrix, proximity and network
  CSV and every SVG byte-identical; only the node volumes and the inputs'
  sha256 change.
"""
import csv
import io
import json
import random
import re

import pytest

from rcaspace.cli import EXIT_OK, main
from rcaspace.demo import write_demo_dataset
from rcaspace.netexport import FORMATS


def _report_tree(manifest, out):
    argv = ["report", "--manifest", str(manifest), "--out", str(out)]
    for fmt in FORMATS:
        argv += ["--format", fmt]
    assert main(argv) == EXIT_OK
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _rewrite_tables(data_dir, rewrite):
    for path in data_dir.glob("*.csv"):
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(rewrite(rows)), encoding="utf-8")


def _shuffled(rows):
    rows = list(rows)
    random.Random(len(rows)).shuffle(rows)
    return rows


def _times_four(rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for country, field, value in csv.reader(rows):
        writer.writerow([country, field, repr(4 * float(value))])
    return [text.getvalue()]


@pytest.fixture
def demo_tree(tmp_path):
    manifest = write_demo_dataset(tmp_path / "data")
    return manifest, _report_tree(manifest, tmp_path / "base")


def _without_input_digests(report_json):
    doc = json.loads(report_json)
    digests = [entry.pop("sha256") for entry in doc["inputs"]]
    return doc, digests


def _assert_only_digests_differ(base, changed):
    (doc_a, sha_a), (doc_b, sha_b) = map(_without_input_digests, (base, changed))
    assert doc_a == doc_b
    assert all(a != b for a, b in zip(sha_a, sha_b, strict=True))


def test_shuffled_rows_change_only_the_input_digests(demo_tree, tmp_path):
    manifest, base = demo_tree
    _rewrite_tables(manifest.parent, _shuffled)
    changed = _report_tree(manifest, tmp_path / "shuffled")
    assert sorted(changed) == sorted(base)
    for name in base:
        if name != "report.json":
            assert changed[name] == base[name], name
    _assert_only_digests_differ(base["report.json"], changed["report.json"])


# the node volume in each network format that carries it
VOLUME = {
    ".dot": re.compile(rb"volume=([^,]*),"),
    ".graphml": re.compile(rb'<data key="d_volume">([^<]*)</data>'),
}


def test_values_times_four_change_only_volumes_and_input_digests(demo_tree, tmp_path):
    manifest, base = demo_tree
    _rewrite_tables(manifest.parent, _times_four)
    changed = _report_tree(manifest, tmp_path / "times-four")
    assert sorted(changed) == sorted(base)
    volumes_checked = 0
    for name, before in base.items():
        after = changed[name]
        suffix = name[name.rindex("."):]
        if name == "report.json":
            _assert_only_digests_differ(before, after)
        elif name.startswith("network_") and suffix == ".json":
            doc_a, doc_b = json.loads(before), json.loads(after)
            for node_a, node_b in zip(doc_a["nodes"], doc_b["nodes"], strict=True):
                assert node_b.pop("volume") == 4 * node_a.pop("volume")
                volumes_checked += 1
            assert doc_a == doc_b, name
        elif name.startswith("network_") and suffix in VOLUME:
            pattern = VOLUME[suffix]
            assert pattern.sub(b"V", after) == pattern.sub(b"V", before), name
            assert [4 * float(v) for v in pattern.findall(before)] == [
                float(v) for v in pattern.findall(after)], name
        else:  # the matrices, proximity and network CSVs, SVGs, report.txt
            assert after == before, name
    assert volumes_checked > 0
