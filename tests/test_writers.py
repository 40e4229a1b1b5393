"""The text writers give the same bytes as the per-pair reference writers.

The references in ``oracles.py`` format every pair and every edge on its own;
the writers under test quote each name once per call, format each distinct
weight once and format the cells of a matrix in one pass.
"""
import unicodedata
from xml.sax.saxutils import escape, quoteattr

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rcaspace.ingest import BLOCK_ROWS, matrix_csv_text
from rcaspace.netexport import (
    FORMATS,
    NetworkLayout,
    _xml_escape,
    _xml_quoteattr,
    build_layout,
    emit,
)
from rcaspace.proximity import ProximityNetwork, proximity_csv_text

from .oracles import reference_emit, reference_matrix_csv_text, reference_proximity_csv_text

# Names that each writer must quote or escape, in NFC, NFD and non-ASCII forms.
# 'it\'s "x"' holds both quotes, so an XML attribute writes its " as &quot;.
TRICKY_NAMES = ("a,b", 'say "x"', "<tag>", "&amp", "it's", 'it\'s "x"', "back\\slash", "Z",
                "a", "", unicodedata.normalize("NFC", "M\u00e9decine"),
                unicodedata.normalize("NFD", "M\u00e9decine"),
                "\u4e2d\u56fd", "line\nbreak", "tab\tcr\r", "\u00a0nbsp", "emoji \U0001f600")
names = st.one_of(st.sampled_from(TRICKY_NAMES), st.text(max_size=4))
# Weights that repeat, the zeros of both signs, the smallest subnormal and 1.0.
WEIGHTS = (0.0, -0.0, 5e-324, 1.0, 0.5, 0.25, 1 / 3, 2 / 3, 0.1, 2.2250738585072014e-308)
weights = st.one_of(st.sampled_from(WEIGHTS), st.floats(0.0, 1.0))
node_values = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0, 8.0, 40.0, float("nan"),
                                          float("inf"), -float("inf"), 1e16)),
                        st.floats(allow_nan=True, allow_infinity=True))
node_counts = st.one_of(st.integers(1, 3), st.integers(0, 9))


@st.composite
def networks(draw):
    nodes = draw(st.lists(names, min_size=draw(node_counts) or 1, max_size=9, unique=True))
    n = len(nodes)
    w = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    # symmetric with a random diagonal; a sum would turn each -0.0 into 0.0
    w = np.where(np.tri(n, k=-1, dtype=bool), w.T, w)
    volumes = np.array(draw(st.lists(st.sampled_from((0.0, 1.0, 3.0, 1e6)),
                                     min_size=n, max_size=n)))
    return ProximityNetwork("fields", tuple(nodes), w, w.sum(axis=1) - np.diag(w), volumes)


@st.composite
def layouts(draw):
    """Built from a network, or made by hand with any node values and edges."""
    if draw(st.booleans()):
        return build_layout(draw(networks()), draw(st.sampled_from((0.0, 0.4, 1.0))))
    n = draw(node_counts)
    nodes = tuple(draw(st.lists(names, min_size=n, max_size=n, unique=True)))
    if draw(st.booleans()):
        columns = [np.array(draw(st.lists(node_values, min_size=n, max_size=n)))
                   for _ in range(3)]
    else:  # integer columns are written as floats too
        columns = [np.array(draw(st.lists(st.integers(-3, 50), min_size=n, max_size=n)),
                            dtype=np.int64) for _ in range(3)]
    angle = np.array(draw(st.lists(st.one_of(st.floats(-10.0, 10.0), st.just(float("nan"))),
                                   min_size=n, max_size=n)))
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), weights),
                          max_size=12)) if nodes else []
    if draw(st.booleans()):  # numpy scalars, as a caller's own layout may hold
        edges = [(a, b, np.float64(w)) for a, b, w in edges]
    return NetworkLayout(
        mode="fields", nodes=nodes, strength=columns[0], volume=columns[1],
        ring=tuple(draw(st.lists(st.sampled_from(("inner", "outer")),
                                 min_size=n, max_size=n))),
        angle=angle, radius=columns[2], edges=tuple(sorted(edges)),
    )


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_emitters_match_reference(layout):
    for fmt in FORMATS:
        assert emit(layout, fmt) == reference_emit(layout, fmt), fmt


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(st.sampled_from("&<>\"'\n\r\tx\u00e9"))))
def test_xml_helpers_match_saxutils(text):
    assert _xml_escape(text) == escape(text)
    assert _xml_quoteattr(text) == quoteattr(text)


@settings(max_examples=200, deadline=None)
@given(networks())
def test_proximity_csv_matches_reference(net):
    assert proximity_csv_text(net) == reference_proximity_csv_text(net)


CELLS = (0, -0.0, 0.0, 2**53 + 1, 1e16, 5e-324, 1.5, 1 / 3, 3.0, 2**63 - 1,
         float("nan"), float("inf"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(("float64", "float32", "int64", "int32", "uint64", "bool")), st.data())
def test_matrix_csv_matches_reference(n_c, n_f, dtype, data):
    countries = data.draw(st.lists(names, min_size=n_c, max_size=n_c, unique=True))
    fields = data.draw(st.lists(names, min_size=n_f, max_size=n_f, unique=True))
    if dtype == "float64":
        cells = st.one_of(st.sampled_from([c for c in CELLS if isinstance(c, float)]),
                          st.floats(allow_nan=True, allow_infinity=True))
    elif dtype == "float32":
        cells = st.one_of(st.sampled_from((0.0, -0.0, 1.5, 1 / 3, 3.0, 2.0**24 + 2, 1e-45,
                                           float("nan"), float("inf"))),
                          st.floats(width=32, allow_nan=True, allow_infinity=True))
    elif dtype == "int64":
        cells = st.one_of(st.sampled_from((0, 1, 2**53 + 1, 2**63 - 1, -2**63, -5)),
                          st.integers(-2**63, 2**63 - 1))
    elif dtype == "int32":
        cells = st.one_of(st.sampled_from((0, 1, -5, 2**31 - 1, -2**31)),
                          st.integers(-2**31, 2**31 - 1))
    elif dtype == "uint64":
        cells = st.one_of(st.sampled_from((0, 1, 2**53 + 1, 2**63, 2**63 + 1, 2**64 - 1)),
                          st.integers(0, 2**64 - 1))
    else:
        cells = st.booleans()
    values = np.array(data.draw(st.lists(cells, min_size=n_c * n_f, max_size=n_c * n_f)),
                      dtype=dtype).reshape(n_c, n_f)
    assert matrix_csv_text(countries, fields, values) == \
        reference_matrix_csv_text(countries, fields, values)


def test_writers_match_reference_across_chunks():
    """Outputs of several ``BLOCK_ROWS`` chunks join to the reference bytes."""
    rng = np.random.default_rng(3)
    names_ = tuple(f"n,{i:04d}" for i in range(2 * BLOCK_ROWS + 1))
    for values in (rng.random((300, 5)) * 3.0 // 0.5, rng.random((3, BLOCK_ROWS // 2 + 1)) < 0.5):
        countries, fields = names_[:values.shape[0]], names_[:values.shape[1]]
        assert matrix_csv_text(countries, fields, values) == \
            reference_matrix_csv_text(countries, fields, values)
    n = 40  # 780 pairs in rows of 39 to 1 lines
    w = np.triu(rng.random((n, n)) // 0.25 / 4.0, 1)
    w = w + w.T + np.eye(n)
    net = ProximityNetwork("fields", names_[:n][::-1], w, w.sum(axis=1) - 1.0, np.ones(n))
    assert proximity_csv_text(net) == reference_proximity_csv_text(net)
    ends = rng.integers(0, len(names_), size=(len(names_), 2))
    layout = NetworkLayout(
        mode="fields", nodes=names_, strength=rng.random(len(names_)),
        volume=np.ones(len(names_)), ring=("inner", "outer") * BLOCK_ROWS + ("inner",),
        angle=rng.random(len(names_)), radius=rng.random(len(names_)) * 40.0,
        edges=tuple(sorted({(names_[a], names_[b], 0.25 * (a % 4)) for a, b in ends})),
    )
    for fmt in FORMATS:
        assert emit(layout, fmt) == reference_emit(layout, fmt), fmt
