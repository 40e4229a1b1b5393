"""Outside-in tracing: spans around rcaspace's public functions.

The program is not edited.  :func:`install` replaces each public function at
every ``rcaspace`` module attribute that refers to it (the defining module,
plus the names that ``cli``, ``report`` and the package imported), so calls
made inside the package, such as ``build_layout`` calling ``backbone``, are
caught too.  Spans (name, start, end, parent) are kept in memory and written
out when the operation ends; self time is computed afterwards as a span's
duration minus the durations of its children.

Counters are taken at the same boundaries by hooks that run after a span has
closed.  Each hook runs inside a ``trace.count`` span of its own, so its cost
is subtracted from the enclosing layer and is never charged to a layer.
"""
from __future__ import annotations

import os
import sys
from time import perf_counter_ns

import numpy as np

ROOT = -1


class Tracer:
    """Span recorder for one single-threaded operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack = [ROOT]

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter_ns()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name, fn, hook=None):
        """``fn`` timed as span ``name`` (a string, or a function of the call's
        arguments); ``hook(tracer, result, *args)`` updates counters."""

        def traced(*args, **kwargs):
            sid = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hid = self._open("trace.count")
                try:
                    hook(self, result, *args, **kwargs)
                finally:
                    self._close(hid)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": self.counters,
        }


def _file_rows(tracer, result, source, *args, **kwargs):
    with open(source, "rb") as fh:
        data = fh.read()
    tracer.add("ingest.bytes_read", len(data))
    tracer.add("ingest.rows_parsed", data.count(b"\n") - 1)


def _text_bytes(counter):
    def hook(tracer, result, *args, **kwargs):
        tracer.add(counter, len(result.encode("utf-8")))
    return hook


def _rca(tracer, result, *args, **kwargs):
    tracer.add("rca.calls", 1)
    tracer.add("rca.undefined_cells", result.n_undefined())


def _stats_call(tracer, result, *args, **kwargs):
    tracer.add("stats.calls", 1)


def _cooc(tracer, result, adv, mode="fields"):
    c, f = adv.m.shape
    n, k = (f, c) if mode == "fields" else (c, f)
    tracer.add("proximity.cooc_ops", 2 * n * n * k)


def _network(tracer, net, *args, **kwargs):
    n = len(net.nodes)
    tracer.add("proximity.networks", 1)
    tracer.add("proximity.pairs", n * (n - 1) // 2)
    tracer.add("proximity.positive_pairs",
               int(np.count_nonzero(np.triu(net.weights, 1) > 0)))


def _backbone(tracer, edges, *args, **kwargs):
    tracer.add("netexport.edges_kept", len(edges))


def _layout(tracer, result, *args, **kwargs):
    tracer.add("netexport.layouts", 1)


def _emitted(tracer, data, *args, **kwargs):
    tracer.add("netexport.emit_bytes", len(data))


def _emit_name(layout, fmt):
    return f"netexport.emit_{fmt}"


def install(tracer: Tracer) -> None:
    """Wrap rcaspace's public functions; rcaspace must already be imported."""
    from rcaspace import cli, ingest, netexport, proximity, rca, report, stats

    targets = (
        (ingest, "load_manifest", "ingest.load_manifest", None),
        (ingest, "parse_production_csv", "ingest.parse", _file_rows),
        (ingest, "resolve_labels", "ingest.resolve", None),
        (ingest, "validate_alignment", "ingest.align", None),
        (ingest, "matrix_csv_text", "ingest.matrix_csv", _text_bytes("ingest.matrix_csv_bytes")),
        (rca, "compute_rca", "rca.compute", _rca),
        (rca, "threshold_advantage", "rca.threshold", None),
        (stats, "summarize", "stats.summarize", _stats_call),
        (stats, "pearson", "stats.pearson", _stats_call),
        (report, "analyze_index", "report.analyze", None),
        (report, "build_report", "report.build", None),
        (report, "sha256_file", "report.sha256", None),
        (proximity, "co_occurrence", "proximity.cooc", _cooc),
        (proximity, "field_proximity", "proximity.network", _network),
        (proximity, "country_proximity", "proximity.network", _network),
        (proximity, "proximity_csv_text", "proximity.csv", _text_bytes("proximity.csv_bytes")),
        (netexport, "backbone", "netexport.backbone", _backbone),
        (netexport, "build_layout", "netexport.layout", _layout),
        (netexport, "emit", _emit_name, _emitted),
        (cli, "main", "cli.main", None),
    )
    modules = [m for name, m in sys.modules.items()
               if name == "rcaspace" or name.startswith("rcaspace.")]
    for module, attr, name, hook in targets:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    for method in ("to_json", "to_text"):
        original = getattr(report.AnalysisReport, method)
        setattr(report.AnalysisReport, method, tracer.wrap("report.serialize", original))


def self_times(dump: dict) -> dict[str, float]:
    """Summed self time in ms per span name."""
    parents = np.asarray(dump["parents"], dtype=np.int64)
    duration = np.asarray(dump["ends"], dtype=np.int64) - np.asarray(dump["starts"], dtype=np.int64)
    covered = np.zeros(duration.size, dtype=np.int64)
    inner = parents >= 0
    np.add.at(covered, parents[inner], duration[inner])
    own = (duration - covered) / 1e6
    totals: dict[str, float] = {}
    for name, ms in zip(dump["names"], own.tolist()):
        totals[name] = totals.get(name, 0.0) + ms
    return totals


def top_level_ms(dump: dict, root: str) -> dict[str, float]:
    """Summed duration in ms, per name, of the direct children of ``root`` spans."""
    names = dump["names"]
    roots = {i for i, name in enumerate(names) if name == root}
    totals: dict[str, float] = {}
    for name, start, end, parent in zip(names, dump["starts"], dump["ends"], dump["parents"]):
        if parent in roots:
            totals[name] = totals.get(name, 0.0) + (end - start) / 1e6
    return totals


def tree_counts(out_dir) -> tuple[int, int]:
    """Files and bytes under an output directory."""
    files = total = 0
    for dirpath, _, filenames in os.walk(out_dir):
        for filename in filenames:
            files += 1
            total += os.path.getsize(os.path.join(dirpath, filename))
    return files, total


#: Spans whose summed self time is reported as ``<span>_ms``.
TIMED_SPANS = (
    "ingest.load_manifest", "ingest.parse", "ingest.resolve", "ingest.align",
    "ingest.matrix_csv", "rca.compute", "rca.threshold", "stats.summarize",
    "stats.pearson", "report.analyze", "report.build", "report.serialize",
    "report.sha256", "proximity.cooc", "proximity.network", "proximity.csv",
    "netexport.backbone", "netexport.layout", "netexport.emit_json",
    "netexport.emit_svg", "netexport.emit_graphml", "netexport.emit_dot",
    "netexport.emit_csv",
)
#: Counters reported as they were counted, with their units.
COUNTERS = {
    "ingest.rows_parsed": "count", "ingest.bytes_read": "bytes",
    "ingest.matrix_csv_bytes": "bytes", "rca.calls": "count",
    "rca.undefined_cells": "count", "stats.calls": "count",
    "proximity.pairs": "count", "proximity.positive_pairs": "count",
    "proximity.cooc_ops": "count", "proximity.csv_bytes": "bytes",
    "netexport.edges_kept": "count", "netexport.emit_bytes": "bytes",
    "cli.files_written": "count", "cli.bytes_written": "bytes",
}
#: Every per-layer metric, in the order printed, with its unit.
LAYER_UNITS = {
    **{f"{span}_ms": "ms" for span in TIMED_SPANS},
    "cli.untraced_ms": "ms",
    **COUNTERS,
    "rca.us_per_call": "us", "proximity.us_per_call": "us",
    "netexport.us_per_call": "us", "netexport.kept_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation (``trace.overhead_frac`` aside)."""
    own = self_times(dump)
    counters = dump["counters"]
    out = {f"{span}_ms": own.get(span, 0.0) for span in TIMED_SPANS}
    out["cli.untraced_ms"] = own.get("cli.main", 0.0)
    out.update({name: float(counters.get(name, 0)) for name in COUNTERS})
    emit_ms = sum(out[f"netexport.emit_{fmt}_ms"] for fmt in ("json", "svg", "graphml", "dot", "csv"))
    out["rca.us_per_call"] = 1000.0 * _ratio(
        out["rca.compute_ms"] + out["rca.threshold_ms"], out["rca.calls"])
    out["proximity.us_per_call"] = 1000.0 * _ratio(
        out["proximity.cooc_ms"] + out["proximity.network_ms"],
        counters.get("proximity.networks", 0))
    out["netexport.kept_ratio"] = _ratio(out["netexport.edges_kept"], out["proximity.positive_pairs"])
    out["netexport.us_per_call"] = 1000.0 * _ratio(
        out["netexport.backbone_ms"] + out["netexport.layout_ms"] + emit_ms,
        counters.get("netexport.layouts", 0))
    return out
