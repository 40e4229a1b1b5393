import copy
import dataclasses
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rcaspace
from rcaspace.ingest import _owned
from rcaspace.report import IndexAnalysis, analyze_index
from rcaspace.stats import QUARTILE_RULES, classify_skew

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

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


def _results():
    """One result of each of the seven result types, from one small analysis."""
    table = rcaspace.ProductionTable(rcaspace.IndexKind.DOCUMENTS, ("A", "B"), ("X", "Y", "Z"),
                                     np.array([[1.0, 2.0, 0.0], [3.0, 0.5, 4.0]]))
    analysis = analyze_index(table)
    net = rcaspace.field_proximity(analysis.advantage, table.field_totals())
    return (table, analysis.rca, analysis.advantage, analysis, analysis.summary, net,
            rcaspace.build_layout(net, 0.0))


RESULTS = {type(obj).__name__: obj for obj in _results()}
#: The types whose public constructor stores read-only copies of its arrays.
FREEZING = {"ProductionTable", "RcaMatrix", "AdvantageMatrix", "ProximityNetwork", "NetworkLayout",
            "IndexAnalysis"}


def test_analysis_arrays_are_read_only():
    """An analysis hands out no array that a caller could change under it."""
    analysis = analyze_index(RESULTS["ProductionTable"])
    for arr in (analysis.diversity, analysis.ubiquity, analysis.rca.values, analysis.advantage.m):
        assert not arr.flags.writeable


def test_analysis_constructor_stores_read_only_copies():
    """``IndexAnalysis(table, quartile_rule)`` computes every part from its table: one
    read-only int64 diversity count per country and one ubiquity count per field of
    its own, the row and column sums of its advantage matrix.
    A table that is not a ``ProductionTable`` and an unknown quartile rule raise
    DataError; a computed part can be neither given nor replaced."""
    table = RESULTS["ProductionTable"]
    analysis = IndexAnalysis(table)
    assert _same(analysis, RESULTS["IndexAnalysis"]) and analysis.kind is table.index_kind
    for name, axis, n in (("diversity", 1, 2), ("ubiquity", 0, 3)):
        stored = getattr(analysis, name)
        assert stored.dtype == np.int64 and stored.shape == (n,), name
        assert not stored.flags.writeable, name
        assert np.array_equal(stored, analysis.advantage.m.sum(axis)), name
        assert not np.shares_memory(stored, analysis.advantage.m), name
    with pytest.raises(rcaspace.DataError,
                       match=r"^IndexAnalysis\.table must be a ProductionTable$"):
        IndexAnalysis(table="x")
    with pytest.raises(rcaspace.DataError, match=r"^unknown quartile rule 'bogus' "):
        IndexAnalysis(table, "bogus")
    for rule in (np.array(["linear", "hazen"]), np.array(["hazen"])):
        with pytest.raises(rcaspace.DataError, match=r"^unknown quartile rule array\("):
            IndexAnalysis(table, rule)
        with pytest.raises(rcaspace.DataError, match=r"^unknown quartile rule array\("):
            dataclasses.replace(analysis, quartile_rule=rule)
    for f in dataclasses.fields(IndexAnalysis):
        if not f.init:
            value = getattr(analysis, f.name)
            with pytest.raises(ValueError, match=rf"\b{f.name}\b.*init=False"):
                dataclasses.replace(analysis, **{f.name: value})
            with pytest.raises(TypeError):
                IndexAnalysis(table, **{f.name: value})
    with pytest.raises(TypeError):
        dataclasses.replace(analysis, kind=rcaspace.IndexKind.CITATIONS)


@pytest.mark.parametrize("count", [1.5, -2.7, -1, float("nan"), float("inf"), 2**63],
                         ids=["fractional", "negative-fractional", "negative", "nan", "inf",
                              "too-large"])
def test_analysis_counts_are_whole_numbers_at_least_zero(count):
    """No caller sets a diversity or ubiquity count, so one that no int64 holds
    exactly cannot be stored: the counts are computed, whole and >= 0."""
    analysis = RESULTS["IndexAnalysis"]
    for name in ("diversity", "ubiquity"):
        counts = [*getattr(analysis, name).tolist()[1:], count]
        with pytest.raises(ValueError, match=rf"\b{name}\b.*init=False"):
            dataclasses.replace(analysis, **{name: counts})
        with pytest.raises(TypeError):
            IndexAnalysis(analysis.table, **{name: counts})
        stored = getattr(analysis, name)
        assert stored.dtype == np.int64 and (stored >= 0).all(), name


small_tables = st.builds(
    lambda kind, values: rcaspace.ProductionTable(
        kind, tuple(f"C{i}" for i in range(values.shape[0])),
        tuple(f"F{j}" for j in range(values.shape[1])), values),
    st.sampled_from(rcaspace.IndexKind),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)),
               elements=st.integers(0, 9).map(float)).filter(lambda v: v.sum() > 0))


@pytest.mark.filterwarnings("ignore::rcaspace.UndefinedCellWarning")
@pytest.mark.parametrize("rule", QUARTILE_RULES)
@settings(max_examples=25, deadline=None)
@given(table=small_tables, other=small_tables)
def test_no_public_way_builds_an_analysis_whose_parts_disagree(rule, table, other):
    """Built by ``analyze_index`` or the constructor, copied, unpickled, or
    replaced in its table or rule, an analysis holds exactly what its table gives."""
    first = IndexAnalysis(table, rule)
    built = [analyze_index(table, rule), first, IndexAnalysis(table=table, quartile_rule=rule),
             *(how(first) for how in COPIES.values()),
             dataclasses.replace(IndexAnalysis(other, rule), table=table),
             dataclasses.replace(IndexAnalysis(table, "nearest" if rule == "linear" else "linear"),
                                 quartile_rule=rule)]
    rca = rcaspace.compute_rca(table)
    summary = rcaspace.summarize(rca.defined_values(), rule)
    for analysis in built:
        assert _same(analysis.table, table) and analysis.quartile_rule == rule
        assert analysis.kind is table.index_kind
        assert _same(analysis.rca, rca) and _same(analysis.summary, summary)
        assert _same(analysis.advantage, rcaspace.threshold_advantage(rca))
        assert analysis.skew_class == classify_skew(summary)
        for counts, axis in ((analysis.diversity, 1), (analysis.ubiquity, 0)):
            assert _same(counts, analysis.advantage.m.sum(axis, dtype=np.int64))
            assert not counts.flags.writeable


def _same(a, b) -> bool:
    """Equal field by field, arrays in dtype and value, nested results too."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("path", ["constructor", "owned"])
@pytest.mark.parametrize("name", sorted(RESULTS))
def test_results_are_slotted_and_frozen(name, path):
    """Each result type, built by its public constructor (from its ``init`` fields)
    or as the library builds it (``_owned``), holds no attribute dict, refuses
    assignment, keeps its arrays read-only, and survives pickle, deepcopy and replace."""
    cls = type(RESULTS[name])
    values = {f.name: getattr(RESULTS[name], f.name) for f in dataclasses.fields(cls)}
    # writeable copies, so that what is read-only was made so by this build
    values = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in values.items()}
    init = {f.name: values[f.name] for f in dataclasses.fields(cls) if f.init}
    obj = cls(**init) if path == "constructor" else _owned(cls, *values.values())
    assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, next(iter(values)), None)
    # a name that is not a field has no slot; CPython's frozen __setattr__ of a
    # slotted class raises TypeError for it rather than FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        obj.extra = None
    if path == "owned" or name in FREEZING:
        arrays = [v for v in (getattr(obj, k) for k in values) if isinstance(v, np.ndarray)]
        assert all(not arr.flags.writeable for arr in arrays)
    assert _same(obj, RESULTS[name])
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), dataclasses.replace(obj)):
        assert type(twin) is cls and not hasattr(twin, "__dict__")
        assert _same(twin, obj)


COPIES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _owned_writeable(name: str, **changes):
    """``RESULTS[name]`` with ``changes``, built as the library builds a result
    (``_owned``, no check) and then handed writeable arrays."""
    cls = type(RESULTS[name])
    values = {f.name: getattr(RESULTS[name], f.name) for f in dataclasses.fields(cls)}
    values.update(changes)
    obj = _owned(cls, *values.values())
    for key, value in values.items():
        if isinstance(value, np.ndarray):
            object.__setattr__(obj, key, value.copy())
    return obj


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(RESULTS))
def test_copies_are_checked_and_read_only(name, how):
    """pickle, deepcopy and copy rebuild a result from its ``init`` fields through its
    public constructor: the copy has equal fields and read-only arrays of its own, and
    a result holding a value its constructor rejects cannot be copied."""
    obj = _owned_writeable(name)
    twin = COPIES[how](obj)
    assert type(twin) is type(obj) and not hasattr(twin, "__dict__")
    assert _same(twin, obj)
    for f in dataclasses.fields(twin):
        arr, theirs = getattr(twin, f.name), getattr(obj, f.name)
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable and not np.shares_memory(arr, theirs), f.name
    # an array of the wrong shape, or else 0 as the first field (a summary's n, an analysis's table)
    init = [f.name for f in dataclasses.fields(obj) if f.init]
    spoiled = next(({k: np.zeros(0)} for k in init if isinstance(getattr(obj, k), np.ndarray)),
                   {init[0]: 0})
    bad = _owned_writeable(name, **spoiled)
    with pytest.raises(rcaspace.DataError):
        COPIES[how](bad)


def test_readme_library_example_runs():
    """README's "Library use" block runs as written and its comment's value holds."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = float(re.search(r"# rca\.values\[0, 0\] ~= ([0-9.]+)", code).group(1))
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["rca"].values[0, 0] == pytest.approx(expected, abs=0.005)
    assert b"<svg" in namespace["svg"]
