"""Assembly of the analysis report: per-index RCA summaries, skewness
classes, cross-index Pearson correlations, and the diversity/ubiquity tables.

Reports are self-describing (tool version, configuration, input digests) and
contain no timestamps, so identical inputs and configuration always produce
byte-identical report files.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError
from .ingest import IndexKind, ProductionTable, _Result, _set
from .rca import AdvantageMatrix, RcaMatrix, compute_rca, diversity, threshold_advantage, ubiquity
from .stats import (DistributionSummary, aligned_text, classify_skew, pearson, summarize,
                    summary_table_text)


@dataclass(frozen=True, eq=False, slots=True)
class IndexAnalysis(_Result):
    """The RCA pipeline run on ``table``, each part computed from it: ``rca``, the RCA >= 1
    ``advantage`` matrix, its row and column sums ``diversity`` and ``ubiquity`` (int64), and
    the ``summary`` by ``quartile_rule`` of the defined RCA cells, zeros included.  ``kind`` is
    the table's index kind.  ``dataclasses.replace`` of a computed part raises ValueError."""

    table: ProductionTable
    quartile_rule: str = "linear"
    rca: RcaMatrix = field(init=False)
    advantage: AdvantageMatrix = field(init=False)
    diversity: np.ndarray = field(init=False)
    ubiquity: np.ndarray = field(init=False)
    summary: DistributionSummary = field(init=False)
    skew_class: str = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.table, ProductionTable):
            raise DataError("IndexAnalysis.table must be a ProductionTable")
        _set(self, "rca", compute_rca(self.table))
        _set(self, "advantage", threshold_advantage(self.rca))
        _set(self, "summary", summarize(self.rca.defined_values(), self.quartile_rule))
        for name, counts in (("diversity", diversity), ("ubiquity", ubiquity)):
            _set(self, name, arr := counts(self.advantage))
            arr.setflags(write=False)
        _set(self, "skew_class", classify_skew(self.summary))

    @property
    def kind(self) -> IndexKind:
        return self.table.index_kind


def analyze_index(table: ProductionTable, quartile_rule: str = "linear") -> IndexAnalysis:
    """The RCA pipeline for one table: ``IndexAnalysis(table, quartile_rule)``."""
    return IndexAnalysis(table, quartile_rule)


def correlation_pairs(analyses: list[IndexAnalysis], joint_cells: bool = False) -> list[dict]:
    """Pearson r between the RCA distributions of every index pair.

    Tables must be cell-aligned.  By default the correlation runs over the
    full aligned grid with undefined cells as 0; with ``joint_cells`` the
    restriction to cells defined in both indexes is reported alongside.
    An r that is not defined (constant RCA, or fewer than 2 cells) is None,
    and ``"reason"`` (``"reason_joint"`` for ``"r_joint"``) says why.
    """
    by_order = sorted(analyses, key=lambda a: list(IndexKind).index(a.kind))
    out = []
    for a, b in itertools.combinations(by_order, 2):
        if a.rca.countries != b.rca.countries or a.rca.fields != b.rca.fields:
            raise DataError(
                "correlation requires cell-aligned tables; run validate_alignment first"
            )
        entry = {"a": a.kind.value, "b": b.kind.value}
        _correlate(entry, "r", a.rca.values.ravel(), b.rca.values.ravel())
        if joint_cells:
            both = a.rca.defined_mask & b.rca.defined_mask
            _correlate(entry, "r_joint", a.rca.values[both], b.rca.values[both])
        out.append(entry)
    return out


def _correlate(entry: dict, key: str, xs: np.ndarray, ys: np.ndarray) -> None:
    try:
        entry[key] = pearson(xs, ys)
    except DataError as exc:
        entry[key] = None
        entry["reason" + key[1:]] = str(exc)


def sha256_file(path: str | Path) -> str:
    """The sha256 of the file at ``path``, as a hex string.

    ``hashlib`` is imported here, not at module top: it maps OpenSSL's libcrypto,
    about 3.4 MB of resident memory, so only the commands that write a summary's
    input digests pay for it, at their first digest.
    """
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class AnalysisReport:
    """The serializable result of a pipeline run; its per-index tables derive from ``analyses``."""

    dataset_name: str
    period: str
    config: dict
    inputs: list[dict]
    analyses: list[IndexAnalysis]
    correlations: list[dict]
    proximity_exports: list[str]
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        kinds = [a.kind.value for a in self.analyses]
        first = self.analyses[0]
        return {
            "tool": {"name": "rcaspace", "version": __version__},
            "dataset": {"name": self.dataset_name, "period": self.period},
            "config": self.config,
            "inputs": self.inputs,
            "rca_stats": {k: a.summary.as_dict() for k, a in zip(kinds, self.analyses)},
            "skewness": {k: a.skew_class for k, a in zip(kinds, self.analyses)},
            "correlations": self.correlations,
            "diversity": {name: {k: int(a.diversity[i]) for k, a in zip(kinds, self.analyses)}
                          for i, name in enumerate(first.advantage.countries)},
            "ubiquity": {name: {k: int(a.ubiquity[j]) for k, a in zip(kinds, self.analyses)}
                         for j, name in enumerate(first.advantage.fields)},
            "proximity_exports": self.proximity_exports,
            "undefined_cells": {k: a.rca.n_undefined() for k, a in zip(kinds, self.analyses)},
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        doc = self.to_dict()
        lines = [
            f"dataset: {self.dataset_name} ({self.period})",
            "",
            "RCA distribution summaries (defined cells)",
            summary_table_text({a.kind.value: a.summary for a in self.analyses}).rstrip("\n"),
            "",
        ]
        for name, shape in doc["skewness"].items():
            lines.append(f"  {name}: {shape}")
        if self.correlations:
            lines.append("")
            lines.append("Pearson correlations between RCA distributions")
            for entry in self.correlations:
                extra = ""
                if "r_joint" in entry:
                    extra = f"  (jointly defined cells: r = {_r_text(entry['r_joint'])})"
                lines.append(f"  {entry['a']} ~ {entry['b']}: r = {_r_text(entry['r'])}{extra}")
        lines.append("")
        lines.append(_count_table_text("Ubiquity per field", doc["ubiquity"]))
        lines.append(_count_table_text("Diversity per country", doc["diversity"]))
        if self.warnings:
            lines.append("warnings:")
            lines.extend(f"  - {w}" for w in self.warnings)
            lines.append("")
        return "\n".join(lines)


def _r_text(r: float | None) -> str:
    return "n/a" if r is None else f"{r:.3f}"


def _count_table_text(title: str, table: dict[str, dict[str, int]]) -> str:
    columns = list(next(iter(table.values())))
    rows = [[" ", *columns]]
    rows += [[name, *(str(counts[c]) for c in columns)] for name, counts in table.items()]
    return f"{title}\n" + aligned_text(rows, min_width=6)


def build_report(
    dataset_name: str,
    period: str,
    analyses: list[IndexAnalysis],
    config: dict,
    inputs: list[dict],
    proximity_exports: list[str],
    warnings_seen: list[str],
    joint_cells: bool = False,
) -> AnalysisReport:
    """Aggregate per-index analyses into one AnalysisReport, warning of each null r."""
    analyses = sorted(analyses, key=lambda a: list(IndexKind).index(a.kind))
    correlations = correlation_pairs(analyses, joint_cells)
    null_r = [f"{e['a']} ~ {e['b']}: {key} is null ({e['reason' + key[1:]]})"
              for e in correlations for key in ("r", "r_joint") if key in e and e[key] is None]
    return AnalysisReport(
        dataset_name=dataset_name,
        period=period,
        config=config,
        inputs=inputs,
        analyses=analyses,
        correlations=correlations,
        proximity_exports=proximity_exports,
        warnings=warnings_seen + null_r,
    )
