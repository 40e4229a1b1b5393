"""Renderable network artifacts from proximity matrices.

Backbone filtering keeps a maximum-weight spanning forest (so a connected
network stays connected) plus every edge at or above a weight threshold.
Nodes are ordered counterclockwise by ascending strength (sum of incident
weights, computed before any filtering), sized so that node area is
proportional to raw production volume, and placed on a double circular
layout: the lower-strength half of the nodes on the inner ring, the rest on
the outer ring, each ring independently ordered counterclockwise starting at
angle 0 with its minimum-strength node.

All emitters are deterministic: identical inputs produce byte-identical
DOT, GraphML, JSON, CSV and SVG output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError
from .ingest import _csv_head, _FloatMemo, _joined, _owned
from .proximity import ProximityNetwork, _row_blocks

FORMATS = ("dot", "graphml", "json", "csv", "svg")

#: Default backbone weight threshold (CLI-overridable).
DEFAULT_THRESHOLD = 0.4
#: Node radius range in display units.
MIN_RADIUS = 8.0
MAX_RADIUS = 40.0

#: SVG geometry: fixed viewport and the two concentric ring radii.
SVG_SIZE = 1000
SVG_INNER_RADIUS = 300.0
SVG_OUTER_RADIUS = 450.0

Edge = tuple[str, str, float]


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """A laid-out network: ring/angle/radius per node plus retained edges.

    Node arrays are aligned with ``nodes``, which is ordered by ascending
    strength (ties broken lexicographically).  ``ring`` holds "inner" or
    "outer"; ``angle`` is in radians, counterclockwise from angle 0.  Each
    node array must have one entry per node, and both ends of every edge must
    be nodes (DataError otherwise), so that every emitter draws every node
    and every edge.
    """

    mode: str
    nodes: tuple[str, ...]
    strength: np.ndarray
    volume: np.ndarray
    ring: tuple[str, ...]
    angle: np.ndarray
    radius: np.ndarray
    edges: tuple[Edge, ...]  # (a, b, weight), a < b, sorted lexicographically

    def __post_init__(self) -> None:
        n = len(self.nodes)
        uneven = [name for name in ("strength", "volume", "ring", "angle", "radius")
                  if np.shape(getattr(self, name)) != (n,)]
        if uneven:
            raise DataError(f"{', '.join(uneven)} must have one entry per node ({n} nodes)")
        strays = {end for a, b, _ in self.edges for end in (a, b)}.difference(self.nodes)
        if strays:
            raise DataError(f"edge end(s) not among the nodes: {sorted(strays)}")


#: Networks with at most this many node pairs (14 nodes) list their edges in
#: pure Python over ``weights.tolist()``, about 0.7 us a pair; larger ones run the
#: numpy rounds, some 150-230 us per call but far less per pair.  The two cost the
#: same between about 190 and 330 pairs, so 15 to 20 nodes pay up to 0.1 ms more.
PYTHON_LISTING_MAX_PAIRS = 100


def _union(parent: list[int], a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Union-find over the pairs (a[k], b[k]) in order; the k that joined two trees."""
    joined = []
    for k, (x, y) in enumerate(zip(a, b)):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[y] = x
            joined.append(k)
    return joined


def _backbone_in_python(nodes: tuple[str, ...], weights: np.ndarray,
                        threshold: float) -> list[Edge]:
    n = len(nodes)
    rows = weights.tolist()
    edges = []  # (-weight, name a, name b, index a, index b): sorted, in Kruskal order
    for i in range(n):
        for j in range(i + 1, n):
            w = rows[i][j]
            if w > 0.0:
                edges.append((-w, nodes[i], nodes[j], i, j) if nodes[i] < nodes[j]
                             else (-w, nodes[j], nodes[i], j, i))
    edges.sort()
    forest = set(_union(list(range(n)), [e[3] for e in edges], [e[4] for e in edges]))
    return sorted((a, b, -w) for k, (w, a, b, _, _) in enumerate(edges)
                  if k in forest or -w >= threshold)


def _backbone_in_numpy(nodes: tuple[str, ...], weights: np.ndarray,
                       threshold: float) -> list[Edge]:
    n = len(nodes)
    order = sorted(range(n), key=nodes.__getitem__)  # rank -> node index
    at, in_order = np.array(order), order == list(range(n))  # every pipeline network is in order
    lowest = max(threshold, np.nextafter(0.0, 1.0))  # w >= lowest: positive and >= threshold
    tree = np.arange(n, dtype=np.int32)  # rank -> the rank at the root of its tree
    parent = tree.tolist()
    end = np.zeros(n, np.intp)  # rank -> the other end of its heaviest live pair
    heaviest = np.zeros(n)  # its weight; 0 once the rank has no positive live pair
    todo, paired = np.arange(n), None  # the ranks to scan; the ranks with a positive pair
    kept = []  # the pairs >= threshold, then the joins lighter than it
    while True:  # Borůvka: each tree unites its heaviest live pair
        for rows in _row_blocks(n):
            ranks = todo[rows]
            if not ranks.size:
                break
            w = weights.take(at[ranks], axis=0)  # a copy, masked in place
            if not in_order:
                w = w.take(at, axis=1)
            if paired is None:  # the first round lists the threshold edges
                keys = np.flatnonzero(w >= lowest)
                p, q = np.divmod(keys, n)
                p += rows.start
                upper = q > p
                kept.append((p[upper], q[upper], w.take(keys[upper])))
                w[np.arange(len(w)), ranks] = 0.0  # each rank is a tree of its own
            else:  # a live pair has its ends in two trees; a dead one weighs 0 here
                w *= tree[ranks, None] != tree
            end[ranks] = w.argmax(axis=1)  # the first of equal weights: the lowest name pair
            heaviest[ranks] = w[np.arange(len(w)), end[ranks]]
        ends = np.flatnonzero(heaviest > 0.0)
        if paired is None:
            paired = ends
        if not ends.size:
            break
        # each tree's heaviest live pair, then its lowest name pair p * n + q
        roots, w = tree[ends], heaviest[ends]
        top = np.zeros(n)
        np.maximum.at(top, roots, w)
        tied = w == top[roots]
        pair = np.full(n, n * n)
        np.minimum.at(pair, roots[tied],
                      (np.minimum(ends, end[ends]) * n + np.maximum(ends, end[ends]))[tied])
        keys, once = np.unique(pair[roots], return_index=True)  # a pair two trees chose, once
        (p, q), w = np.divmod(keys, n), top[roots[once]]
        _union(parent, p.tolist(), q.tolist())  # a strict order: every pair joins two trees
        light = w < threshold  # the joins that the threshold did not list
        kept.append((p[light], q[light], w[light]))
        tree = np.array(parent, np.int32)
        while not np.array_equal(tree, tree[tree]):
            tree = tree[tree]
        parent = tree.tolist()
        if (tree[paired] == tree[paired[0]]).all():  # one tree holds every paired rank
            break
        # a rank whose pair is still live keeps it: the live pairs only shrink
        todo = np.flatnonzero((heaviest > 0.0) & (tree == tree[end]))
    p, q, w = map(np.concatenate, zip(*kept))
    del kept
    by_name = np.argsort(p.astype(np.int64) * n + q, kind="stable")  # one sorted run, then joins
    p, q, w = (a.take(by_name).tolist() for a in (p, q, w))
    del by_name
    names = [nodes[k] for k in order]
    return list(zip(map(names.__getitem__, p), map(names.__getitem__, q), w))


def backbone(net: ProximityNetwork, threshold: float = DEFAULT_THRESHOLD) -> list[Edge]:
    """Retained edge list: max-weight spanning forest plus edges >= threshold.

    The edges of the network are the positive-weight node pairs, weighed by
    the network's symmetric weight matrix.  Kruskal takes the edges by weight
    descending, ties broken by the node names in code-point order, so the
    forest is unique.  At threshold 0 every edge is retained.  Edges come back
    as (a, b, weight) with a < b, sorted by name.

    Networks with at most ``PYTHON_LISTING_MAX_PAIRS`` node pairs list their
    edges in pure Python.  Larger ones resolve the names to ranks once and run
    Borůvka's algorithm over the weight matrix, a block of rows at a time,
    without listing every edge.  An edge is live while its ends are in two
    trees.  Each round finds, with one masked argmax per row, the heaviest
    live edge of each rank whose edge from an earlier round has died, ties
    going to the lowest name pair; each tree then unites the heaviest of its
    ranks' edges.  The first round also lists the edges at or above the
    threshold.  Both ways give the same edges.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"backbone threshold must be in [0, 1], got {threshold}")
    n = len(net.nodes)
    if n * (n - 1) // 2 <= PYTHON_LISTING_MAX_PAIRS:
        return _backbone_in_python(net.nodes, net.weights, threshold)
    return _backbone_in_numpy(net.nodes, net.weights, threshold)


def size_nodes(net: ProximityNetwork) -> np.ndarray:
    """Display radii aligned with net.nodes; node area tracks volume.

    radius = MIN_RADIUS + (MAX_RADIUS - MIN_RADIUS) * sqrt(volume / max_volume),
    the sqrt making the drawn area proportional to the volume.  All-zero
    volumes collapse every node to MIN_RADIUS.
    """
    volumes = net.node_volume  # finite and non-negative, as ProximityNetwork checks
    top = volumes.max() if volumes.size else 0.0
    if top == 0.0:
        return np.full(volumes.shape, MIN_RADIUS)
    return MIN_RADIUS + (MAX_RADIUS - MIN_RADIUS) * np.sqrt(volumes / top)


def build_layout(net: ProximityNetwork, threshold: float = DEFAULT_THRESHOLD) -> NetworkLayout:
    """Order, ring-assign, place and size the nodes; filter the edges."""
    keys = list(zip(net.node_strength.tolist(), net.nodes))
    order = sorted(range(len(keys)), key=keys.__getitem__)  # ascending strength, then name
    n = len(order)
    n_inner = (n + 1) // 2  # lower-strength half, odd counts lean inner
    at = np.array(order, dtype=np.intp)
    return _owned(
        NetworkLayout,
        net.mode,
        tuple(map(net.nodes.__getitem__, order)),
        net.node_strength[at],
        net.node_volume[at],
        ("inner",) * n_inner + ("outer",) * (n - n_inner),
        np.array([2.0 * math.pi * k / m for m in (n_inner, n - n_inner) for k in range(m)],
                 dtype=np.float64),
        size_nodes(net)[at],
        tuple(backbone(net, threshold)),
    )


def emit_chunks(layout: NetworkLayout, format: str) -> Iterator[str]:
    """The text of :func:`emit` in chunks of nodes, then of edges; the format is checked first."""
    try:
        writer = _EMITTERS[format]
    except KeyError:
        raise DataError(
            f"unknown format {format!r} (expected one of: {', '.join(FORMATS)})"
        ) from None
    return writer(layout)


def emit(layout: NetworkLayout, format: str) -> bytes:
    """Serialize a layout to one of: dot, graphml, json, csv, svg."""
    return "".join(emit_chunks(layout, format)).encode("utf-8")


#: json's own spelling of the floats that repr writes as nan, inf and -inf
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(value: float) -> str:
    text = repr(float(value))
    return _JSON_NON_FINITE.get(text, text)


def _node_rows(layout: NetworkLayout) -> Iterator[tuple[str, float, float, str, float, float]]:
    """(name, strength, volume, ring, angle, radius) of each node, numbers as Python scalars."""
    return zip(layout.nodes, layout.strength.tolist(), layout.volume.tolist(), layout.ring,
               layout.angle.tolist(), layout.radius.tolist())


def _emit_json(layout: NetworkLayout) -> Iterator[str]:
    """What ``json.dumps`` writes for the layout, with separators "," and ":"."""
    quoted = dict(zip(layout.nodes, map(encode_basestring_ascii, layout.nodes)))
    number = _json_number  # a node's numbers rarely repeat: only the weights are memoized
    yield '{"nodes":['
    yield from _joined((
        f'{{"id":{quoted[name]},"strength":{number(s)},"volume":{number(v)},'
        f'"ring":{encode_basestring_ascii(r)},"angle":{number(t)},"radius":{number(d)}}}'
        for name, s, v, r, t, d in _node_rows(layout)), ",")
    yield '],"edges":['
    weight = _FloatMemo(_json_number)
    yield from _joined((f'{{"a":{quoted[a]},"b":{quoted[b]},"weight":{weight[w]}}}'
                        for a, b, w in layout.edges), ",")
    yield "]}"


def _emit_csv(layout: NetworkLayout) -> Iterator[str]:
    heads = dict(zip(layout.nodes, map(_csv_head, layout.nodes)))
    weight = _FloatMemo(float.__repr__)
    yield "node_a,node_b,weight\n"
    yield from _joined(f"{heads[a]}{heads[b]}{weight[w]}\n" for a, b, w in layout.edges)


def _dot_quote(name: str) -> str:
    """``name`` as a DOT string: in double quotes, with ``\\`` and ``"`` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit_dot(layout: NetworkLayout) -> Iterator[str]:
    quoted = dict(zip(layout.nodes, map(_dot_quote, layout.nodes)))
    weight = _FloatMemo(float.__repr__)
    yield "graph proximity {\n"
    yield from _joined(
        f"  {quoted[name]} [strength={float(s)!r}, volume={float(v)!r}, ring=\"{r}\", "
        f"angle={float(t)!r}, radius={float(d)!r}];\n"
        for name, s, v, r, t, d in _node_rows(layout))
    yield from _joined(f"  {quoted[a]} -- {quoted[b]} [weight={weight[w]}];\n"
                       for a, b, w in layout.edges)
    yield "}\n"


def _xml_escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` escaped, as ``xml.sax.saxutils.escape``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_quoteattr(text: str) -> str:
    """``text`` as an XML attribute value, quoted, as ``xml.sax.saxutils.quoteattr``.

    Newline, carriage return and tab become character references; the value
    goes in double quotes, or in single quotes if it holds ``"`` but no
    ``'``, and if it holds both, each ``"`` becomes ``&quot;``.
    """
    text = _xml_escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


_GRAPHML_KEYS = (
    ("d_strength", "node", "strength", "double"),
    ("d_volume", "node", "volume", "double"),
    ("d_ring", "node", "ring", "string"),
    ("d_angle", "node", "angle", "double"),
    ("d_radius", "node", "radius", "double"),
    ("d_weight", "edge", "weight", "double"),
)


def _emit_graphml(layout: NetworkLayout) -> Iterator[str]:
    quoted = dict(zip(layout.nodes, map(_xml_quoteattr, layout.nodes)))
    weight = _FloatMemo(float.__repr__)
    yield "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n',
        *(f'  <key id="{key_id}" for="{domain}" attr.name="{attr}" attr.type="{attr_type}"/>\n'
          for key_id, domain, attr, attr_type in _GRAPHML_KEYS),
        '  <graph id="proximity" edgedefault="undirected">\n',
    ])
    yield from _joined(
        f"    <node id={quoted[name]}>\n"
        f'      <data key="d_strength">{float(s)!r}</data>\n'
        f'      <data key="d_volume">{float(v)!r}</data>\n'
        f'      <data key="d_ring">{_xml_escape(r)}</data>\n'
        f'      <data key="d_angle">{float(t)!r}</data>\n'
        f'      <data key="d_radius">{float(d)!r}</data>\n'
        "    </node>\n"
        for name, s, v, r, t, d in _node_rows(layout))
    yield from _joined(
        f"    <edge source={quoted[a]} target={quoted[b]}>\n"
        f'      <data key="d_weight">{weight[w]}</data>\n'
        "    </edge>\n"
        for a, b, w in layout.edges)
    yield "  </graph>\n</graphml>\n"


def _emit_svg(layout: NetworkLayout) -> Iterator[str]:
    center = SVG_SIZE / 2.0
    rings = [SVG_INNER_RADIUS if ring == "inner" else SVG_OUTER_RADIUS for ring in layout.ring]
    # the node centres; y is flipped so increasing angle reads counterclockwise on screen
    centres = [(center + r * math.cos(theta), center - r * math.sin(theta))
               for r, theta in zip(rings, layout.angle.tolist())]
    # formatted once and drawn by the node and by each of its edges
    xy = {name: (f"{x:.2f}", f"{y:.2f}") for name, (x, y) in zip(layout.nodes, centres)}
    width = _FloatMemo(lambda w: f"{6.0 * w:.3f}")

    def node(name: str, x: float, y: float, radius: float) -> str:
        cx, cy = xy[name]
        # label just outside the node, pushed away from the ring center
        dx = x - center
        dy = y - center
        norm = math.hypot(dx, dy) or 1.0
        lx = x + (dx / norm) * (radius + 6.0)
        ly = y + (dy / norm) * (radius + 6.0)
        anchor = "start" if dx >= 0 else "end"
        return (
            f'  <circle cx="{cx}" cy="{cy}" r="{radius:.2f}" '
            'fill="#4878b0" stroke="#16324f" stroke-width="1.5"/>\n'
            f'  <text x="{lx:.2f}" y="{ly:.2f}" font-family="Helvetica,sans-serif" '
            f'font-size="14" text-anchor="{anchor}">{_xml_escape(name)}</text>\n'
        )

    yield "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n',
        f'  <rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n',
        *(f'  <circle cx="{center:.1f}" cy="{center:.1f}" r="{guide:.1f}" '
          'fill="none" stroke="#eeeeee" stroke-width="1"/>\n'
          for guide in (SVG_INNER_RADIUS, SVG_OUTER_RADIUS)),
    ])
    yield from _joined(f'  <line x1="{xy[a][0]}" y1="{xy[a][1]}" x2="{xy[b][0]}" y2="{xy[b][1]}" '
                       f'stroke="#607090" stroke-width="{width[w]}" stroke-opacity="0.6"/>\n'
                       for a, b, w in layout.edges)
    yield from _joined(node(name, x, y, radius) for name, (x, y), radius
                       in zip(layout.nodes, centres, layout.radius.tolist()))
    yield "</svg>\n"


_EMITTERS = {
    "json": _emit_json,
    "csv": _emit_csv,
    "dot": _emit_dot,
    "graphml": _emit_graphml,
    "svg": _emit_svg,
}
