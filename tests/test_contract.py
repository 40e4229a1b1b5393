"""The command-line contract, run as ``python -m rcaspace`` in a subprocess:
each test asserts the exit code and output bytes that a user of the installed
console script sees."""
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rcaspace.demo import write_demo_dataset

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def rcaspace(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "rcaspace", *args], env=env,
                          capture_output=True, text=True)


def test_numpy_computed_quartile_rule_is_recorded(tmp_path):
    """A rule that ``np.quantile`` computes (not the built-in ``linear``) runs
    through the command line and is recorded in ``stats.json``."""
    write_demo_dataset(tmp_path / "data")
    run = rcaspace("stats", "--quartile-rule", "hazen",
                   "--manifest", str(tmp_path / "data" / "manifest.json"),
                   "--out", str(tmp_path / "hazen"))
    assert run.returncode == 0, run.stderr
    assert '"quartile_rule": "hazen"' in (tmp_path / "hazen" / "stats.json").read_text()


@pytest.fixture(scope="module")
def countries_750(tmp_path_factory):
    """The manifest of the perfbench generator's seed-1 countries table, 750 x 96."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = tmp_path_factory.mktemp("countries-750")
    return gen.make_dataset(data, 1, 1, 750, 96, "pinned")["manifest"]


def _network_digest(manifest: Path, threshold: str, fmt: str, out: Path) -> str:
    run = rcaspace("network", "countries", "--threshold", threshold, "--format", fmt,
                   "--manifest", str(manifest), "--out", str(out))
    assert run.returncode == 0, run.stderr[-2000:]
    return hashlib.sha256((out / f"network_countries_documents.{fmt}").read_bytes()).hexdigest()


#: At threshold 1 the CSV holds the spanning forest and the pairs of weight 1,
#: at 0 every positive pair, which every format is pinned on.
PINNED_750 = [
    ("0", "csv", "deb67711c1a74eb942035b2dfed4e8b92c81c0ae642fba005d4ceba3a767248d"),
    ("0", "json", "2be9435d21c417811bab4a43d34c22888aa7eb5d6298afe02a7053bba3405a6c"),
    ("0", "dot", "598184f87471e673299c34ba284c024e9572d0d7b55ac143983b98f102908d74"),
    ("0", "graphml", "2310eeb5ebc412c081c424046877c4a19ae3417d4a8baf5e9d2fb0c9f97f2d35"),
    ("0", "svg", "3170b4de3348bfb27096f4dc15f4bca84a106ecc4ae660997822a147c08dd804"),
    ("1", "csv", "3e3a92f78acceb332dafca3558e818ac0d62a0d0e4e844869e6ad7505ff519a5"),
]


@pytest.mark.parametrize("threshold, fmt, digest", PINNED_750,
                         ids=[f"{t}-{f}" for t, f, _ in PINNED_750])
def test_backbone_of_750_countries_is_pinned(countries_750, tmp_path, threshold, fmt, digest):
    assert _network_digest(countries_750, threshold, fmt, tmp_path / "out") == digest


def test_backbone_of_750_countries_with_bare_cr_ends_is_pinned(countries_750, tmp_path):
    """The same table with bare ``\\r`` line ends, which the byte reader declines:
    the per-row reader reads it into the same network."""
    shutil.copy(countries_750, tmp_path / "manifest.json")
    table = (countries_750.parent / "documents.csv").read_bytes()
    (tmp_path / "documents.csv").write_bytes(table.replace(b"\n", b"\r"))
    assert _network_digest(tmp_path / "manifest.json", "1", "csv", tmp_path / "out") == (
        "3e3a92f78acceb332dafca3558e818ac0d62a0d0e4e844869e6ad7505ff519a5")
