import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcaspace

SRC = Path(__file__).resolve().parents[1] / "src"

# The library surface.  A name added to or removed from it is an API change:
# update this list, README and CHANGES.md together.
PUBLIC_API = [
    "AdvantageMatrix",
    "DataError",
    "DistributionSummary",
    "FIELD_LABELS",
    "IndexKind",
    "NetworkLayout",
    "ProductionTable",
    "ProximityNetwork",
    "RcaMatrix",
    "UndefinedCellWarning",
    "UnknownFieldWarning",
    "__version__",
    "backbone",
    "build_layout",
    "co_occurrence",
    "compute_rca",
    "country_proximity",
    "diversity",
    "emit",
    "field_proximity",
    "parse_production_csv",
    "pearson",
    "resolve_labels",
    "size_nodes",
    "summarize",
    "threshold_advantage",
    "ubiquity",
    "validate_alignment",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert rcaspace.__all__ == PUBLIC_API
    assert all(hasattr(rcaspace, name) for name in PUBLIC_API)


#: Top-level modules that ``import rcaspace.cli`` must not load: a start-up
#: cost (urllib.request, http, email and ssl come in through xml.sax.saxutils)
#: that no command needs.
IMPORT_BUDGET_EXCLUDED = {"urllib", "http", "email", "ssl", "socket", "xml"}

# Modules that site preloads (urllib among them, on some installs) are in
# ``before``, so only what the import itself loads is counted.
NEW_TOP_LEVEL_MODULES = """
import sys
before = set(sys.modules)
import rcaspace.cli
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_import_stays_off_the_network_and_xml_stack():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-c", NEW_TOP_LEVEL_MODULES], env=env,
                           capture_output=True, text=True, check=True)
    loaded = set(child.stdout.split())
    assert "rcaspace" in loaded
    assert not loaded & IMPORT_BUDGET_EXCLUDED, sorted(loaded & IMPORT_BUDGET_EXCLUDED)


# Runs one command on the demo dataset; its last line says whether OpenSSL's
# libcrypto (``_hashlib``) was loaded before rcaspace and after the command.
HASHLIB_AFTER_COMMAND = """
import json, sys
from pathlib import Path
preloaded = "_hashlib" in sys.modules
from rcaspace import cli
from rcaspace.demo import write_demo_dataset
data = Path(sys.argv[1])
write_demo_dataset(data)
code = cli.main([*sys.argv[2:], "--manifest", str(data / "manifest.json"),
                 "--out", str(data / "out")])
print(json.dumps({"preloaded": preloaded, "code": code, "loaded": "_hashlib" in sys.modules}))
"""


@pytest.mark.parametrize("command, digests", [(["network", "countries"], False), (["rca"], True)],
                         ids=["network", "rca"])
def test_libcrypto_is_loaded_only_by_a_command_that_takes_digests(tmp_path, command, digests):
    # hashlib maps libcrypto, about 3.4 MB resident; only the summaries report input digests
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-c", HASHLIB_AFTER_COMMAND, str(tmp_path), *command],
                           env=env, capture_output=True, text=True, check=True)
    state = json.loads(child.stdout.splitlines()[-1])
    if state["preloaded"]:
        pytest.skip("the interpreter loads _hashlib before rcaspace")
    assert state == {"preloaded": False, "code": 0, "loaded": digests}
    if digests:
        inputs = json.loads((tmp_path / "out" / "rca_summary.json").read_text())["inputs"]
        assert inputs and all(
            entry["sha256"] == hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
            for entry in inputs)
