"""Output check against an independent numpy reference.

Nothing here imports rcaspace.  The reference recomputes RCA, the advantage
matrix, diversity/ubiquity, proximity weights, layouts and the backbone from
the generator's own matrices, then compares every artifact the program wrote.
Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from gen import DATASET_PERIOD, INDEX_KINDS, table_of

THRESHOLD = 0.4  # the CLI's default backbone threshold
MIN_RADIUS, MAX_RADIUS = 8.0, 40.0
SVG_CENTER, SVG_INNER, SVG_OUTER = 500.0, 300.0, 450.0
RTOL = 1e-12
FORMATS = ("json", "svg", "graphml", "dot", "csv")


def tree_digest(out_dir: Path) -> str:
    """sha256 over every (relative path, content) pair of an output tree."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# reference kernels


def rca_reference(x: np.ndarray):
    """RCA values (0 where undefined) and the mask of defined cells."""
    ct = x.sum(axis=1)
    ft = x.sum(axis=0)
    defined = (ct[:, None] > 0) & (ft[None, :] > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rca = (x / ct[:, None]) / (ft / x.sum())[None, :]
    return np.where(defined, rca, 0.0), defined


def proximity_reference(m: np.ndarray) -> np.ndarray:
    """Min-conditional weights between the rows of a 0/1 matrix."""
    m = m.astype(np.float64)
    co = m @ m.T
    total = np.diag(co)
    larger = np.maximum.outer(total, total)
    return np.divide(co, larger, out=np.zeros_like(co), where=larger > 0)


def _close(got, want, rtol=RTOL) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=1e-300))


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def kruskal_forest(names, w: np.ndarray) -> set[tuple[int, int]]:
    """Maximum-weight spanning forest over positive pairs.

    Ties go to the lexicographically smaller (name_a, name_b) pair, a < b.
    Returned pairs are node indices (i, j) with i < j.
    """
    n = len(names)
    iu, ju = np.triu_indices(n, 1)
    wv = w[iu, ju]
    positive = wv > 0
    iu, ju, wv = iu[positive], ju[positive], wv[positive]
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=names.__getitem__)] = np.arange(n)
    lo = np.minimum(rank[iu], rank[ju])
    hi = np.maximum(rank[iu], rank[ju])
    order = np.lexsort((hi, lo, -wv))
    parent = list(range(n))
    forest: set[tuple[int, int]] = set()
    for i, j in zip(iu[order].tolist(), ju[order].tolist()):
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[rj] = ri
            forest.add((i, j))
            if len(forest) == n - 1:
                break
    return forest


def _components(n: int, pairs) -> int:
    parent = list(range(n))
    count = n
    for i, j in pairs:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[rj] = ri
            count -= 1
    return count


# --------------------------------------------------------------------------
# layouts and network files


def check_backbone(edges, names, w: np.ndarray, where: str) -> list[str]:
    """Kept edges = max spanning forest + every pair at or above THRESHOLD."""
    index = {name: i for i, name in enumerate(names)}
    kept: set[tuple[int, int]] = set()
    for a, b, weight in edges:
        if a not in index or b not in index or not a < b:
            return [f"{where}: bad edge endpoints ({a!r}, {b!r})"]
        i, j = sorted((index[a], index[b]))
        if not w[i, j] > 0 or not _close(weight, w[i, j]):
            return [f"{where}: edge ({a}, {b}) weight {weight!r} != {w[i, j]!r}"]
        kept.add((i, j))
    if len(kept) != len(edges):
        return [f"{where}: duplicate edges"]
    if [e[:2] for e in edges] != sorted(e[:2] for e in edges):
        return [f"{where}: edges not sorted by (a, b)"]
    iu, ju = np.triu_indices(len(names), 1)
    strong = w[iu, ju] >= THRESHOLD
    forest = kruskal_forest(names, w)
    expected = forest | set(zip(iu[strong].tolist(), ju[strong].tolist()))
    problems = []
    if kept != expected:
        problems.append(f"{where}: {len(kept ^ expected)} edge(s) differ from "
                        "forest + threshold backbone")
    if _components(len(names), kept) != len(names) - len(forest):
        problems.append(f"{where}: kept edges do not span every component")
    return problems


def check_layout(doc: dict, names, w: np.ndarray, volume: np.ndarray, where: str) -> list[str]:
    """A JSON layout against reference weights and node volumes."""
    nodes = doc["nodes"]
    ids = [node["id"] for node in nodes]
    if sorted(ids) != sorted(names):
        return [f"{where}: node set differs"]
    n = len(ids)
    index = {name: i for i, name in enumerate(names)}
    order = [index[name] for name in ids]
    strength = np.array([node["strength"] for node in nodes])
    problems = []
    if not _close(strength, (w.sum(axis=1) - np.diag(w))[order], rtol=1e-9):
        problems.append(f"{where}: node strengths differ")
    if list(zip(strength.tolist(), ids)) != sorted(zip(strength.tolist(), ids)):
        problems.append(f"{where}: nodes not ordered by (strength, name)")
    if not _close([node["volume"] for node in nodes], volume[order]):
        problems.append(f"{where}: node volumes differ")
    n_inner = (n + 1) // 2
    rings = ["inner" if k < n_inner else "outer" for k in range(n)]
    angles = [2.0 * math.pi * k / n_inner for k in range(n_inner)]
    angles += [2.0 * math.pi * k / (n - n_inner) for k in range(n - n_inner)]
    if [node["ring"] for node in nodes] != rings:
        problems.append(f"{where}: ring assignment differs")
    if not _close([node["angle"] for node in nodes], angles):
        problems.append(f"{where}: angles differ")
    top = volume.max() if volume.size else 0.0
    radius = (np.full(n, MIN_RADIUS) if top == 0 else
              MIN_RADIUS + (MAX_RADIUS - MIN_RADIUS) * np.sqrt(volume[order] / top))
    if not _close([node["radius"] for node in nodes], radius):
        problems.append(f"{where}: radii differ")
    edges = [(e["a"], e["b"], e["weight"]) for e in doc["edges"]]
    return problems + check_backbone(edges, names, w, where)


_DOT_NODE = re.compile(
    r'  "((?:[^"\\]|\\.)*)" \[strength=(\S+), volume=(\S+), '
    r'ring="(inner|outer)", angle=(\S+), radius=(\S+)\];')
_DOT_EDGE = re.compile(r'  "((?:[^"\\]|\\.)*)" -- "((?:[^"\\]|\\.)*)" \[weight=(\S+)\];')
_GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"
_SVG = "{http://www.w3.org/2000/svg}"


def _dot_name(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def _node_rows(doc: dict) -> list[tuple]:
    return [(n["id"], n["strength"], n["volume"], n["ring"], n["angle"], n["radius"])
            for n in doc["nodes"]]


def _edge_rows(doc: dict) -> list[tuple]:
    return [(e["a"], e["b"], e["weight"]) for e in doc["edges"]]


def check_other_format(fmt: str, data: bytes, doc: dict, where: str) -> list[str]:
    """A non-JSON network file must carry exactly the JSON layout's content."""
    text = data.decode("utf-8")
    if fmt == "csv":
        rows = list(csv.reader(text.splitlines()))
        got_edges = [(a, b, float(w)) for a, b, w in rows[1:]]
        ok = rows[:1] == [["node_a", "node_b", "weight"]] and got_edges == _edge_rows(doc)
        return [] if ok else [f"{where}: edges differ from the JSON layout"]
    if fmt == "dot":
        lines = text.splitlines()
        nodes = [_DOT_NODE.fullmatch(line) for line in lines[1:1 + len(doc["nodes"])]]
        edges = [_DOT_EDGE.fullmatch(line) for line in lines[1 + len(doc["nodes"]):-1]]
        if lines[0] != "graph proximity {" or lines[-1] != "}" or None in nodes + edges:
            return [f"{where}: malformed DOT"]
        got_nodes = [(_dot_name(m[1]), float(m[2]), float(m[3]), m[4], float(m[5]), float(m[6]))
                     for m in nodes]
        got_edges = [(_dot_name(m[1]), _dot_name(m[2]), float(m[3])) for m in edges]
        ok = got_nodes == _node_rows(doc) and got_edges == _edge_rows(doc)
        return [] if ok else [f"{where}: DOT differs from the JSON layout"]
    root = ET.fromstring(data)
    if fmt == "graphml":
        graph = root.find(f"{_GRAPHML}graph")
        got_nodes = []
        for node in graph.iter(f"{_GRAPHML}node"):
            values = {d.get("key"): d.text for d in node}
            got_nodes.append((node.get("id"), float(values["d_strength"]),
                              float(values["d_volume"]), values["d_ring"],
                              float(values["d_angle"]), float(values["d_radius"])))
        got_edges = [(e.get("source"), e.get("target"), float(e[0].text))
                     for e in graph.iter(f"{_GRAPHML}edge")]
        ok = got_nodes == _node_rows(doc) and got_edges == _edge_rows(doc)
        return [] if ok else [f"{where}: GraphML differs from the JSON layout"]
    return _check_svg(root, doc, where)


def _check_svg(root, doc: dict, where: str) -> list[str]:
    pos = {}
    for node in doc["nodes"]:
        ring = SVG_INNER if node["ring"] == "inner" else SVG_OUTER
        pos[node["id"]] = (SVG_CENTER + ring * math.cos(node["angle"]),
                           SVG_CENTER - ring * math.sin(node["angle"]))
    lines = root.findall(f"{_SVG}line")
    circles = root.findall(f"{_SVG}circle")[2:]
    texts = root.findall(f"{_SVG}text")
    if len(lines) != len(doc["edges"]) or len(circles) != len(doc["nodes"]):
        return [f"{where}: SVG element counts differ"]
    for line, edge in zip(lines, doc["edges"]):
        want = (*pos[edge["a"]], *pos[edge["b"]], 6.0 * edge["weight"])
        got = [float(line.get(k)) for k in ("x1", "y1", "x2", "y2", "stroke-width")]
        if max(abs(g - w) for g, w in zip(got, want)) > 0.006:
            return [f"{where}: SVG edge ({edge['a']}, {edge['b']}) misplaced"]
    for circle, text, node in zip(circles, texts, doc["nodes"]):
        want = (*pos[node["id"]], node["radius"])
        got = [float(circle.get(k)) for k in ("cx", "cy", "r")]
        if max(abs(g - w) for g, w in zip(got, want)) > 0.006 or text.text != node["id"]:
            return [f"{where}: SVG node {node['id']!r} misplaced"]
    return []


# --------------------------------------------------------------------------
# CLI output trees


def _long_csv(path: Path, header: list[str]):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: bad header")
    body = rows[1:]
    return [r[0] for r in body], [r[1] for r in body], np.array([float(r[2]) for r in body])


def _grid_names(countries, fields):
    return ([c for c in countries for _ in fields], list(fields) * len(countries))


def expected_files(command: str, kinds, formats) -> list[str]:
    if command == "network":
        return [f"network_countries_{k}.{fmt}" for k in kinds for fmt in formats]
    names = [f"{p}_{k}.csv" for k in kinds for p in ("rca", "advantage")]
    for mode in ("fields", "countries"):
        for k in kinds:
            names.append(f"proximity_{mode}_{k}.csv")
            names.extend(f"network_{mode}_{k}.{fmt}" for fmt in formats)
    return names + ["report.json", "report.txt"]


def check_cli_tree(out: Path, data: dict, command: str, formats) -> list[str]:
    """Every file a ``report`` or ``network countries`` run wrote."""
    kinds = list(data["tables"])
    countries, fields = data["countries"], data["fields"]
    want = sorted(expected_files(command, kinds, formats))
    got = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    if got != want:
        return [f"output files differ: missing {sorted(set(want) - set(got))}, "
                f"extra {sorted(set(got) - set(want))}"]
    problems: list[str] = []
    rca, adv = {}, {}
    for kind in kinds:
        x = data["tables"][kind]
        ref, defined = rca_reference(x)
        if command == "network":
            rca[kind], adv[kind] = ref, defined & (ref >= 1.0)
            continue
        grid = _grid_names(countries, fields)
        a, b, values = _long_csv(out / f"rca_{kind}.csv", ["country", "field", "value"])
        if (a, b) != grid:
            return problems + [f"rca_{kind}.csv: cell names or order differ"]
        got_rca = values.reshape(x.shape)
        if not _close(got_rca, ref):
            problems.append(f"rca_{kind}.csv: RCA values differ from the reference")
        a, b, values = _long_csv(out / f"advantage_{kind}.csv", ["country", "field", "value"])
        m = values.reshape(x.shape)
        boundary = np.abs(ref - 1.0) <= 1e-9
        if (a, b) != grid or not np.array_equal(m, (defined & (got_rca >= 1.0)).astype(float)):
            problems.append(f"advantage_{kind}.csv: not (defined & RCA >= 1)")
        elif not np.array_equal((m == 1)[~boundary], (defined & (ref >= 1.0))[~boundary]):
            problems.append(f"advantage_{kind}.csv: differs from the reference")
        rca[kind], adv[kind] = got_rca, m == 1
    modes = ("countries",) if command == "network" else ("fields", "countries")
    for kind in kinds:
        x = data["tables"][kind]
        for mode in modes:
            names = fields if mode == "fields" else countries
            base = adv[kind].T if mode == "fields" else adv[kind]
            w = proximity_reference(base)
            volume = x.sum(axis=0) if mode == "fields" else x.sum(axis=1)
            if command == "report":
                name = f"proximity_{mode}_{kind}.csv"
                a, b, values = _long_csv(out / name, ["node_a", "node_b", "weight"])
                iu, ju = np.triu_indices(len(names), 1)
                if a != [names[i] for i in iu] or b != [names[j] for j in ju]:
                    problems.append(f"{name}: pair names or order differ")
                elif not _close(values, w[iu, ju]):
                    problems.append(f"{name}: weights differ from the reference")
            stem = f"network_{mode}_{kind}"
            doc = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
            problems += check_layout(doc, names, w, volume, f"{stem}.json")
            for fmt in formats:
                if fmt != "json":
                    path = out / f"{stem}.{fmt}"
                    problems += check_other_format(fmt, path.read_bytes(), doc, path.name)
    if command == "report":
        problems += _check_report(out, data, rca, adv, formats)
    return problems


def _summary(values: np.ndarray) -> dict:
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"n": values.size, "min": values.min(), "q1": q1, "median": median,
            "mean": values.mean(), "q3": q3, "max": values.max(),
            "quartile_skew": (q3 - median) - (median - q1)}


def _skew_class(s: dict) -> str:
    if abs(s["quartile_skew"]) <= 0.15 * (s["q3"] - s["q1"]):
        return "symmetric"
    return "right-skewed" if s["quartile_skew"] > 0 else "left-skewed"


def _check_report(out: Path, data: dict, rca: dict, adv: dict, formats) -> list[str]:
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    kinds = [k for k in INDEX_KINDS if k in data["tables"]]
    problems = []
    inputs = [{"index": k, "path": f"{k}.csv",
               "sha256": hashlib.sha256(data["files"][k].read_bytes()).hexdigest()}
              for k in kinds]
    config = {"indexes": "all", "backbone_threshold": THRESHOLD, "quartile_rule": "linear",
              "joint_cells": False, "formats": list(formats)}
    exports = [f"proximity_{mode}_{k}.csv" for mode in ("fields", "countries") for k in kinds]
    if doc.get("tool", {}).get("name") != "rcaspace":
        problems.append("report.json: tool name differs")
    expect = {
        "dataset": {"name": data["dataset_name"], "period": DATASET_PERIOD},
        "config": config,
        "inputs": inputs,
        "proximity_exports": exports,
        "undefined_cells": {k: int((~rca_reference(data["tables"][k])[1]).sum()) for k in kinds},
        "diversity": {c: {k: int(adv[k][i].sum()) for k in kinds}
                      for i, c in enumerate(data["countries"])},
        "ubiquity": {f: {k: int(adv[k][:, j].sum()) for k in kinds}
                     for j, f in enumerate(data["fields"])},
    }
    for key, value in expect.items():
        if doc.get(key) != value:
            problems.append(f"report.json: {key} differs")
    for k in kinds:
        ref, defined = rca_reference(data["tables"][k])
        want = _summary(ref[defined])
        got = doc["rca_stats"][k]
        if got["n"] != want["n"] or not _close([got[s] for s in want], list(want.values()), 1e-9):
            problems.append(f"report.json: rca_stats[{k}] differs")
        if doc["skewness"][k] != _skew_class(got):
            problems.append(f"report.json: skewness[{k}] differs")
    pairs = [(a, b) for i, a in enumerate(kinds) for b in kinds[i + 1:]]
    got_pairs = [(c["a"], c["b"]) for c in doc["correlations"]]
    want_r = [np.corrcoef(rca[a].ravel(), rca[b].ravel())[0, 1] for a, b in pairs]
    if got_pairs != pairs or not np.allclose([c["r"] for c in doc["correlations"]],
                                             want_r, rtol=0, atol=1e-9):
        problems.append("report.json: correlations differ")
    registry_warnings = sum("not in the label registry" in w for w in doc["warnings"])
    if registry_warnings != len(kinds) * len(data["unregistered"]):
        problems.append("report.json: unknown-field warnings missing")
    text = (out / "report.txt").read_text(encoding="utf-8")
    return problems + _check_report_text(text, doc, kinds, data["dataset_name"])


def _check_report_text(text: str, doc: dict, kinds: list[str], dataset: str) -> list[str]:
    """report.txt must render exactly the (checked) content of report.json."""
    lines = text.split("\n")
    header = [f"dataset: {dataset} ({DATASET_PERIOD})", "", "RCA distribution summaries (defined cells)"]
    if lines[:3] != header:
        return ["report.txt: header differs"]
    stats = ("min", "q1", "median", "mean", "q3", "max")
    rows = [line.split() for line in lines[4:4 + len(kinds)]]
    problems = []
    if rows != [[k] + [f"{doc['rca_stats'][k][s]:.3f}" for s in stats] for k in kinds]:
        problems.append("report.txt: summary table differs")
    expected = [f"  {k}: {doc['skewness'][k]}" for k in kinds]
    expected += [f"  {c['a']} ~ {c['b']}: r = {c['r']:.3f}" for c in doc["correlations"]]
    if any(line not in lines for line in expected):
        problems.append("report.txt: skewness or correlation lines differ")
    for title, table in (("Ubiquity per field", doc["ubiquity"]),
                         ("Diversity per country", doc["diversity"])):
        at = lines.index(title) if title in lines else -1
        if at < 0 or lines[at + 1].split() != kinds:
            problems.append(f"report.txt: {title} header differs")
            continue
        got = {}
        for line in lines[at + 2:at + 2 + len(table)]:
            name, *counts = line.rsplit(maxsplit=len(kinds))
            got[name.rstrip()] = dict(zip(kinds, map(int, counts)))
        if got != table:
            problems.append(f"report.txt: {title} differs")
    warned = lines[lines.index("warnings:") + 1:] if "warnings:" in lines else []
    if [line for line in warned if line] != [f"  - {w}" for w in doc["warnings"]]:
        problems.append("report.txt: warnings differ")
    return problems


# --------------------------------------------------------------------------
# small tables


def check_small_tables(small: dict, dump: dict, layouts: list) -> list[int]:
    """Per-table outputs of the library loop; returns the indices of bad tables."""
    bad_tables = []
    cursor = {key: 0 for key in dump}
    countries, fields = small["countries"], small["fields"]
    for k in range(len(small["shapes"])):
        x = table_of(small, k)
        r, c = x.shape
        got = {}
        for key, size in (("rca", r * c), ("defined", r * c), ("adv", r * c),
                          ("div", r), ("ubi", c), ("fw", c * c), ("cw", r * r)):
            got[key] = dump[key][cursor[key]:cursor[key] + size]
            cursor[key] += size
        ref, defined = rca_reference(x)
        m = defined & (ref >= 1.0)
        got_m = got["adv"].reshape(r, c).astype(bool)
        boundary = np.abs(ref - 1.0) <= 1e-9
        fw, cw = proximity_reference(got_m.T), proximity_reference(got_m)
        bad = (not _close(got["rca"], ref.ravel())
               or not np.array_equal(got["defined"].astype(bool), defined.ravel())
               or not np.array_equal(got_m[~boundary], m[~boundary])
               or not np.array_equal(got["div"], got_m.sum(axis=1))
               or not np.array_equal(got["ubi"], got_m.sum(axis=0))
               or not _close(got["fw"], fw.ravel())
               or not _close(got["cw"], cw.ravel()))
        if layouts[k] is None:
            bad = True
        else:
            bad = bad or bool(
                check_layout(json.loads(layouts[k][0]), fields[:c], fw, x.sum(axis=0), "")
                or check_layout(json.loads(layouts[k][1]), countries[:r], cw, x.sum(axis=1), ""))
        if bad:
            bad_tables.append(k)
    return bad_tables
