"""The command-line contract, run as ``python -m rcaspace`` in a subprocess:
each test asserts the exit code and output bytes that a user of the installed
console script sees."""
import os
import subprocess
import sys
from pathlib import Path

from rcaspace.demo import write_demo_dataset

SRC = Path(__file__).resolve().parents[1] / "src"


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
