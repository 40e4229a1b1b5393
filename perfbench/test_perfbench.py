"""Tests of the benchmark itself, at tiny sizes.

Run from the root of an rcaspace checkout::

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("report_categories", "countries_network", "small_tables")


def _bench(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "# fail_frac 0 ratio " in proc.stdout


def test_a_second_seed_works_and_changes_the_inputs(tmp_path):
    a = gen.make_dataset(tmp_path / "a", 1, 2, 12, 30, "x")
    b = gen.make_dataset(tmp_path / "b", 2, 2, 12, 30, "x")
    again = gen.make_dataset(tmp_path / "c", 1, 2, 12, 30, "x")
    for kind in ("documents", "citations"):
        assert a["files"][kind].read_bytes() == again["files"][kind].read_bytes()
        assert a["files"][kind].read_bytes() != b["files"][kind].read_bytes()
    small_a = gen.make_small_tables(tmp_path / "s1.npz", 1, 50)
    small_b = gen.make_small_tables(tmp_path / "s2.npz", 2, 50)
    assert not np.array_equal(small_a["flat"][:40], small_b["flat"][:40])
    digests = []
    for seed in (11, 11, 12):
        proc = _bench(ROOT, "countries_network", 0, seed=seed)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
        digests.append(next(line for line in proc.stdout.splitlines()
                            if line.startswith("# check:")).split("output digest ")[1])
    assert digests[0] == digests[1] != digests[2]


def test_inputs_need_quoting_and_normalization(tmp_path):
    data = gen.make_dataset(tmp_path, 5, 1, 200, 40, "x")
    raw = data["files"]["documents"].read_text(encoding="utf-8")
    names = data["countries"] + data["fields"]
    assert any("," in n for n in names) and any('"' in n for n in names)
    assert any(not n.isascii() for n in names)
    assert any(ch in raw for ch in ("́", "̈", "̃"))  # NFD combining marks
    assert set(data["unregistered"]) and "Mth" in data["fields"]
    x = data["tables"]["documents"]
    assert 0.1 < np.mean(x == 0) < 0.35
    assert (x.sum(axis=1) == 0).any() and (x.sum(axis=0) == 0).any()


def _run_cli(tmp_path: Path, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "rcaspace", *argv], cwd=tmp_path, env=env,
                   check=True, capture_output=True, timeout=120)


def _flip_digit_after(path: Path, marker: bytes) -> None:
    data = bytearray(path.read_bytes())
    at = data.index(marker) + len(marker)
    while not chr(data[at]).isdigit():
        at += 1
    data[at] = ord(str((int(chr(data[at])) + 1) % 10))
    path.write_bytes(bytes(data))


CORRUPTIONS = (
    ("rca_documents.csv", b"\n"),
    ("advantage_citations.csv", b"\n"),
    ("proximity_fields_h_index.csv", b"\n"),
    ("network_countries_documents.json", b'"weight":'),
    ("network_fields_citations.json", b'"angle":'),
    ("network_fields_documents.svg", b'<line x1="'),
    ("network_countries_self_citations.graphml", b'<data key="d_weight">'),
    ("network_fields_h_index.dot", b"[weight="),
    ("network_countries_documents.csv", b"\n"),
    ("report.json", b'"median": '),
    ("report.txt", b"Ubiquity per field\n"),
)


def test_one_corrupted_output_byte_is_caught(tmp_path):
    data = gen.make_dataset(tmp_path / "in", 4, 5, 14, 36, "corrupt")
    out = tmp_path / "out"
    formats = check.FORMATS
    argv = ["report", "--manifest", str(data["manifest"]), "--out", str(out)]
    _run_cli(tmp_path, argv + [arg for fmt in formats for arg in ("--format", fmt)])
    assert check.check_cli_tree(out, data, "report", formats) == []
    digest = check.tree_digest(out)
    for name, marker in CORRUPTIONS:
        pristine = (out / name).read_bytes()
        _flip_digit_after(out / name, marker)
        assert check.check_cli_tree(out, data, "report", formats), name
        assert check.tree_digest(out) != digest, name
        (out / name).write_bytes(pristine)
    rng = np.random.default_rng(0)
    files = sorted(p for p in out.iterdir())
    for _ in range(20):
        path = files[int(rng.integers(len(files)))]
        data_bytes = bytearray(path.read_bytes())
        data_bytes[int(rng.integers(len(data_bytes)))] ^= 0x01
        pristine = path.read_bytes()
        path.write_bytes(bytes(data_bytes))
        assert check.tree_digest(out) != digest, path.name
        path.write_bytes(pristine)


def test_one_corrupted_small_table_output_is_caught(tmp_path):
    small = gen.make_small_tables(tmp_path / "small.npz", 2, 40)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import child
        import warnings

        from rcaspace.errors import UndefinedCellWarning

        spec = {"small": str(small["path"]), "small_names": str(tmp_path / "small.names.json")}
        result: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedCellWarning)
            outputs = child._small_tables_loop(spec, result)
        child._small_tables_digests(outputs, str(tmp_path / "dump"))
    finally:
        sys.path.remove(str(ROOT / "src"))
    with np.load(tmp_path / "dump.npz") as arrays:
        dump = {key: arrays[key].copy() for key in arrays.files}
    layouts = json.loads((tmp_path / "dump.layouts.json").read_text(encoding="utf-8"))
    assert check.check_small_tables(small, dump, layouts) == []
    dump["rca"][7] += 0.5
    assert check.check_small_tables(small, dump, layouts)
    dump["rca"][7] -= 0.5
    doc = json.loads(layouts[3][1])
    doc["nodes"][0]["strength"] += 1.0
    layouts[3] = (layouts[3][0], json.dumps(doc))
    assert check.check_small_tables(small, dump, layouts) == [3]


def test_self_time_subtracts_children():
    dump = {  # root 0..100 with children 10..30 and 40..90; 40..90 has a child 50..60
        "names": ["cli.main", "ingest.parse", "netexport.layout", "netexport.backbone"],
        "starts": [0, 10, 40, 50],
        "ends": [100, 30, 90, 60],
        "parents": [-1, 0, 0, 2],
        "counters": {},
    }
    scale = {k: [v * 1_000_000 for v in dump[k]] for k in ("starts", "ends")}
    own = spans.self_times(dump | scale)
    assert own == {"cli.main": 30.0, "ingest.parse": 20.0, "netexport.layout": 40.0,
                   "netexport.backbone": 10.0}
    assert spans.top_level_ms(dump | scale, "cli.main") == {"ingest.parse": 20.0,
                                                           "netexport.layout": 50.0}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "report_categories", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
