"""Independent brute-force oracles used to check the numeric pipeline.

Everything here is computed with exact rational arithmetic (or plain integer
counting) straight from the definitions, deliberately avoiding the vectorized
code paths under test.  The reference backbone and text writers are the
straightforward per-pair implementations the library replaced.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from xml.sax.saxutils import escape, quoteattr

import numpy as np


def rational_rca(values):
    """Exact RCA per cell from an integer matrix; None where undefined."""
    rows = [sum(row) for row in values]
    cols = [sum(col) for col in zip(*values)]
    total = sum(rows)
    out = []
    for i, row in enumerate(values):
        out_row = []
        for j, x in enumerate(row):
            if rows[i] > 0 and cols[j] > 0:
                out_row.append(Fraction(x * total, rows[i] * cols[j]))
            else:
                out_row.append(None)
        out.append(out_row)
    return out


def rational_advantage(values):
    """Binary advantage matrix from exact RCA (closed >= 1 bound)."""
    rca = rational_rca(values)
    return [
        [cell is not None and cell >= 1 for cell in row]
        for row in rca
    ]


def row_sums(matrix):
    return [sum(bool(cell) for cell in row) for row in matrix]


def col_sums(matrix):
    return [sum(bool(row[j]) for row in matrix) for j in range(len(matrix[0]))]


def conditional_proximity_fields(m):
    """Min conditional co-advantage probability per field pair, by counting.

    P(f1 | f2) = |countries advantaged in both| / |countries advantaged in f2|;
    the pair weight is the minimum of the two conditionals.  Pairs where a
    side has no advantaged country at all get weight 0.
    """
    n_fields = len(m[0])
    ubi = col_sums(m)
    out = [[Fraction(0)] * n_fields for _ in range(n_fields)]
    for a in range(n_fields):
        for b in range(n_fields):
            both = sum(1 for row in m if row[a] and row[b])
            if ubi[a] == 0 or ubi[b] == 0:
                out[a][b] = Fraction(0)
            else:
                out[a][b] = min(Fraction(both, ubi[a]), Fraction(both, ubi[b]))
    return out


def conditional_proximity_countries(m):
    transposed = [list(col) for col in zip(*m)]
    return conditional_proximity_fields(transposed)



class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def reference_backbone(nodes, weights, threshold):
    """Kruskal backbone over tuples of node names, straight from the definition.

    The edges are the pairs of nodes i < j (in ``nodes`` order) with
    ``weights[i][j] > 0``, named (a, b) with a < b.  Kruskal takes them by
    weight descending, then by name pair; the result is the spanning forest
    plus every edge at or above ``threshold``, sorted by name pair.
    """
    edges = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            w = float(weights[i][j])
            if w > 0.0:
                a, b = sorted((nodes[i], nodes[j]))
                edges.append((a, b, w))
    forest = _UnionFind(nodes)
    retained = set()
    for a, b, w in sorted(edges, key=lambda e: (-e[2], e[0], e[1])):
        if forest.union(a, b):
            retained.add((a, b))
    for a, b, w in edges:
        if w >= threshold:
            retained.add((a, b))
    return sorted((a, b, w) for a, b, w in edges if (a, b) in retained)


# Reference text writers: each pair, cell and edge is quoted and formatted on
# its own.  The library's writers must give the same bytes.

def _csv_quote(text):
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _long_csv_text(header, names_a, names_b, pairs, values):
    quoted_a = [_csv_quote(name) for name in names_a]
    quoted_b = quoted_a if names_b is names_a else [_csv_quote(name) for name in names_b]
    lines = [header]
    lines.extend(f"{quoted_a[i]},{quoted_b[j]},{v}" for (i, j), v in zip(pairs, values))
    lines.append("")
    return "\n".join(lines)


def _format_cell(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def reference_matrix_csv_text(countries, fields, values):
    countries, fields = tuple(countries), tuple(fields)
    return _long_csv_text(
        "country,field,value",
        countries,
        fields,
        itertools.product(range(len(countries)), range(len(fields))),
        [_format_cell(v) for v in np.asarray(values).ravel().tolist()],
    )


def reference_proximity_csv_text(net):
    order = sorted(range(len(net.nodes)), key=net.nodes.__getitem__)
    by_name = net.weights[np.ix_(order, order)]
    return _long_csv_text(
        "node_a,node_b,weight",
        net.nodes,
        net.nodes,
        itertools.combinations(order, 2),
        [repr(float(w)) for w in by_name[np.triu_indices(len(order), 1)].tolist()],
    )


def _emit_json(layout):
    doc = {
        "nodes": [
            {
                "id": name,
                "strength": float(layout.strength[i]),
                "volume": float(layout.volume[i]),
                "ring": layout.ring[i],
                "angle": float(layout.angle[i]),
                "radius": float(layout.radius[i]),
            }
            for i, name in enumerate(layout.nodes)
        ],
        "edges": [{"a": a, "b": b, "weight": w} for a, b, w in layout.edges],
    }
    return json.dumps(doc, separators=(",", ":"))


def _emit_csv(layout):
    index = {name: i for i, name in enumerate(layout.nodes)}
    return _long_csv_text(
        "node_a,node_b,weight",
        layout.nodes,
        layout.nodes,
        [(index[a], index[b]) for a, b, _ in layout.edges],
        [repr(float(w)) for _, _, w in layout.edges],
    )


def _dot_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit_dot(layout):
    lines = ["graph proximity {"]
    for i, name in enumerate(layout.nodes):
        lines.append(
            f"  {_dot_quote(name)} [strength={float(layout.strength[i])!r}, "
            f"volume={float(layout.volume[i])!r}, ring=\"{layout.ring[i]}\", "
            f"angle={float(layout.angle[i])!r}, radius={float(layout.radius[i])!r}];"
        )
    for a, b, w in layout.edges:
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={float(w)!r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPHML_KEYS = (
    ("d_strength", "node", "strength", "double"),
    ("d_volume", "node", "volume", "double"),
    ("d_ring", "node", "ring", "string"),
    ("d_angle", "node", "angle", "double"),
    ("d_radius", "node", "radius", "double"),
    ("d_weight", "edge", "weight", "double"),
)


def _emit_graphml(layout):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for key_id, domain, attr, attr_type in _GRAPHML_KEYS:
        lines.append(
            f'  <key id="{key_id}" for="{domain}" '
            f'attr.name="{attr}" attr.type="{attr_type}"/>'
        )
    lines.append('  <graph id="proximity" edgedefault="undirected">')
    for i, name in enumerate(layout.nodes):
        lines.append(f"    <node id={quoteattr(name)}>")
        lines.append(f'      <data key="d_strength">{float(layout.strength[i])!r}</data>')
        lines.append(f'      <data key="d_volume">{float(layout.volume[i])!r}</data>')
        lines.append(f'      <data key="d_ring">{escape(layout.ring[i])}</data>')
        lines.append(f'      <data key="d_angle">{float(layout.angle[i])!r}</data>')
        lines.append(f'      <data key="d_radius">{float(layout.radius[i])!r}</data>')
        lines.append("    </node>")
    for a, b, w in layout.edges:
        lines.append(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>")
        lines.append(f'      <data key="d_weight">{float(w)!r}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


_SVG_SIZE = 1000
_SVG_INNER_RADIUS = 300.0
_SVG_OUTER_RADIUS = 450.0


def _svg_positions(layout):
    center = _SVG_SIZE / 2.0
    positions = {}
    for i, name in enumerate(layout.nodes):
        ring_radius = _SVG_INNER_RADIUS if layout.ring[i] == "inner" else _SVG_OUTER_RADIUS
        theta = float(layout.angle[i])
        positions[name] = (
            center + ring_radius * math.cos(theta),
            center - ring_radius * math.sin(theta),
        )
    return positions


def _emit_svg(layout):
    center = _SVG_SIZE / 2.0
    pos = _svg_positions(layout)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'  <rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for guide in (_SVG_INNER_RADIUS, _SVG_OUTER_RADIUS):
        lines.append(
            f'  <circle cx="{center:.1f}" cy="{center:.1f}" r="{guide:.1f}" '
            'fill="none" stroke="#eeeeee" stroke-width="1"/>'
        )
    for a, b, w in layout.edges:
        (x1, y1), (x2, y2) = pos[a], pos[b]
        lines.append(
            f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#607090" stroke-width="{6.0 * float(w):.3f}" stroke-opacity="0.6"/>'
        )
    for i, name in enumerate(layout.nodes):
        x, y = pos[name]
        lines.append(
            f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="{float(layout.radius[i]):.2f}" '
            'fill="#4878b0" stroke="#16324f" stroke-width="1.5"/>'
        )
        dx = x - center
        dy = y - center
        norm = math.hypot(dx, dy) or 1.0
        lx = x + (dx / norm) * (float(layout.radius[i]) + 6.0)
        ly = y + (dy / norm) * (float(layout.radius[i]) + 6.0)
        anchor = "start" if dx >= 0 else "end"
        lines.append(
            f'  <text x="{lx:.2f}" y="{ly:.2f}" font-family="Helvetica,sans-serif" '
            f'font-size="14" text-anchor="{anchor}">{escape(name)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_REFERENCE_EMITTERS = {
    "json": _emit_json,
    "csv": _emit_csv,
    "dot": _emit_dot,
    "graphml": _emit_graphml,
    "svg": _emit_svg,
}


def reference_emit(layout, fmt):
    """The bytes ``netexport.emit(layout, fmt)`` must return."""
    return _REFERENCE_EMITTERS[fmt](layout).encode("utf-8")
