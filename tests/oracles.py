"""Independent brute-force oracles used to check the numeric pipeline.

Everything here is computed with exact rational arithmetic (or plain integer
counting) straight from the definitions, deliberately avoiding the vectorized
code paths under test.
"""
from __future__ import annotations

from fractions import Fraction


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
