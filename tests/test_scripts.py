"""End-to-end runs of ``scripts/threshold_sweep.py`` on the bundled demo dataset.

The script loads data through the CLI's pipeline assembly
(``cli.load_dataset``), so its numbers must match the CLI's.  The demo's
own digest is checked in ``test_cli.py``.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SWEEP_FIELDS_DOCUMENTS = """\
fields network of rcaspace-demo / documents: 27 nodes
threshold  edges  components  mean degree
     0.00    309           1        22.89
     0.10    309           1        22.89
     0.20    289           1        21.41
     0.30    195           1        14.44
     0.40    161           1        11.93
     0.50     91           1         6.74
     0.60     49           1         3.63
     0.70     27           1         2.00
     0.80     26           1         1.93
     0.90     26           1         1.93
     1.00     26           1         1.93
"""

SWEEP_COUNTRIES_CITATIONS = """\
countries network of rcaspace-demo / citations: 12 nodes
threshold  edges  components  mean degree
     0.00     66           1        11.00
     0.25     57           1         9.50
     0.50     15           1         2.50
     0.75     11           1         1.83
     1.00     11           1         1.83
"""


def run_script(name, *args, code=0):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc


def test_threshold_sweep_fields():
    assert run_script("threshold_sweep.py").stdout == SWEEP_FIELDS_DOCUMENTS


def test_threshold_sweep_countries():
    proc = run_script(
        "threshold_sweep.py", "--mode", "countries", "--index", "citations", "--steps", "5"
    )
    assert proc.stdout == SWEEP_COUNTRIES_CITATIONS


def test_threshold_sweep_missing_index(tmp_path):
    (tmp_path / "documents.csv").write_text("country,field,value\nA,Mth,1\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        '{"dataset_name": "tiny", "period": "2000",'
        ' "tables": [{"index": "documents", "path": "documents.csv"}]}'
    )
    proc = run_script(
        "threshold_sweep.py", "--manifest", str(manifest), "--index", "h_index", code=3
    )
    assert "h_index" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("steps", ["-1", "0"])
def test_threshold_sweep_rejects_fewer_than_one_step(steps):
    proc = run_script("threshold_sweep.py", "--steps", steps, code=2)
    assert f"argument --steps: expected at least 1, got {steps}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_threshold_sweep_missing_manifest_is_io_error(tmp_path):
    missing = tmp_path / "absent" / "manifest.json"
    proc = run_script("threshold_sweep.py", "--manifest", str(missing), code=2)
    assert proc.stderr.startswith("error: ") and str(missing) in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
