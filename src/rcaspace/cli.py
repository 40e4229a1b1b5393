"""Command-line front end: ingest -> rca -> proximity -> stats -> export.

Subcommands map one-to-one onto the independently reproducible artifacts
(``rca``, ``proximity``, ``stats``, ``network``, ``report``) plus ``demo``,
which materializes a bundled synthetic dataset, analyzes it and prints a
digest, so the tool can be exercised with zero external data.

Exit codes: 0 success, 2 I/O failure, 3 data validation failure, 64 usage.
All outputs are written atomically (temp file + rename) and contain no
timestamps, so identical inputs and configuration produce byte-identical
output trees.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings as warnings_module
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .demo import write_demo_dataset
from .errors import DataError
from .ingest import (
    FIELD_LABELS,
    IndexKind,
    ProductionTable,
    load_manifest,
    matrix_csv_text,
    parse_production_csv,
    resolve_labels,
    validate_alignment,
)
from .netexport import DEFAULT_THRESHOLD, FORMATS, build_layout, emit
from .proximity import MODES, country_proximity, field_proximity, proximity_csv_text
from .report import IndexAnalysis, analyze_index, build_report, correlation_pairs, sha256_file
from .stats import QUARTILE_RULES

EXIT_OK = 0
EXIT_IO = 2
EXIT_DATA = 3
EXIT_USAGE = 64


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one pipeline invocation."""

    manifest: Path
    out: Path
    indexes: tuple[IndexKind, ...] | None = None  # None: every manifest entry
    threshold: float = DEFAULT_THRESHOLD
    quartile_rule: str = "linear"
    joint_cells: bool = False
    formats: tuple[str, ...] = ("json",)

    def as_dict(self) -> dict:
        return {
            "indexes": [k.value for k in self.indexes] if self.indexes else "all",
            "backbone_threshold": self.threshold,
            "quartile_rule": self.quartile_rule,
            "joint_cells": self.joint_cells,
            "formats": list(self.formats),
        }


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_bytes(path: Path, data: bytes) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


@dataclass
class _LoadedDataset:
    dataset_name: str
    period: str
    inputs: list[dict]
    analyses: list[IndexAnalysis]
    warnings: list[str] = field(default_factory=list)


def _load_dataset(cfg: RunConfig) -> _LoadedDataset:
    manifest = load_manifest(cfg.manifest)
    entries = list(manifest.tables)
    if cfg.indexes is not None:
        available = {e.index: e for e in entries}
        missing = [k.value for k in cfg.indexes if k not in available]
        if missing:
            raise DataError(
                f"manifest has no table for index(es): {', '.join(missing)}"
            )
        entries = [available[k] for k in cfg.indexes]
    entries.sort(key=lambda e: list(IndexKind).index(e.index))

    collected: list[str] = []
    tables: list[ProductionTable] = []
    inputs: list[dict] = []
    for entry in entries:
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            try:
                table = parse_production_csv(entry.resolved, entry.index)
            except DataError as exc:
                raise DataError(f"{entry.path}: {exc}") from None
            table = resolve_labels(table, FIELD_LABELS)
        collected.extend(f"{entry.index.value}: {w.message}" for w in caught)
        tables.append(table)
        inputs.append(
            {
                "index": entry.index.value,
                "path": entry.path,
                "sha256": sha256_file(entry.resolved),
            }
        )
    tables = validate_alignment(tables)

    analyses = []
    for table in tables:
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            analyses.append(analyze_index(table, cfg.quartile_rule))
        collected.extend(f"{table.index_kind.value}: {w.message}" for w in caught)
    return _LoadedDataset(manifest.dataset_name, manifest.period, inputs, analyses, collected)


def _proximity_network(analysis: IndexAnalysis, mode: str):
    if mode == "fields":
        return field_proximity(analysis.advantage, analysis.table.field_totals())
    return country_proximity(analysis.advantage, analysis.table.country_totals())


def _write_rca_csvs(cfg: RunConfig, data: _LoadedDataset) -> list[str]:
    written = []
    for a in data.analyses:
        rca_name = f"rca_{a.kind.value}.csv"
        adv_name = f"advantage_{a.kind.value}.csv"
        _write_text(
            cfg.out / rca_name,
            matrix_csv_text(a.rca.countries, a.rca.fields, a.rca.values),
        )
        _write_text(
            cfg.out / adv_name,
            matrix_csv_text(
                a.advantage.countries, a.advantage.fields, a.advantage.m.astype(int)
            ),
        )
        written.extend([rca_name, adv_name])
    return written


def _write_networks(cfg: RunConfig, data: _LoadedDataset, mode: str,
                    include_matrix_csv: bool) -> list[str]:
    written = []
    for a in data.analyses:
        net = _proximity_network(a, mode)
        if include_matrix_csv:
            name = f"proximity_{mode}_{a.kind.value}.csv"
            _write_text(cfg.out / name, proximity_csv_text(net))
            written.append(name)
        layout = build_layout(net, cfg.threshold)
        for fmt in cfg.formats:
            name = f"network_{mode}_{a.kind.value}.{fmt}"
            _write_bytes(cfg.out / name, emit(layout, fmt))
            written.append(name)
    return written


#: The summary files each command writes after its artifacts, from one report.
SUMMARIES = {
    "rca": ("rca_summary.json",),
    "proximity": ("proximity_summary.json",),
    "network": (),
    "stats": ("stats.json", "stats.txt"),
    "report": ("report.json", "report.txt"),
}


def run(cfg: RunConfig, command: str, mode: str | None = None) -> _LoadedDataset:
    """Load the dataset and write what ``command`` makes of it.

    ``rca`` and ``report`` write the RCA and advantage matrices; ``proximity``
    and ``network`` write the networks of ``mode`` (with the proximity
    matrices, except for ``network``), and ``report`` those of both modes;
    then come the command's ``SUMMARIES``.
    """
    data = _load_dataset(cfg)
    written = _write_rca_csvs(cfg, data) if command in ("rca", "report") else []
    modes = MODES if command == "report" else (mode,) if mode else ()
    for m in modes:
        written += _write_networks(cfg, data, m, include_matrix_csv=command != "network")
    summaries = SUMMARIES[command]
    if summaries:
        report = build_report(
            dataset_name=data.dataset_name,
            period=data.period,
            analyses=data.analyses,
            config=cfg.as_dict(),
            inputs=data.inputs,
            proximity_exports=[n for n in written if n.startswith("proximity_")],
            warnings_seen=data.warnings,
            joint_cells=cfg.joint_cells,
        )
        for name in summaries:
            _write_text(cfg.out / name,
                        report.to_json() if name.endswith(".json") else report.to_text())
    _echo_written(cfg.out, written + list(summaries), data.warnings)
    return data


#: How many of the most diverse countries and most ubiquitous fields the demo prints.
DEMO_TOP = 5


def cmd_demo(cfg: RunConfig) -> None:
    """Write the bundled dataset to ``cfg.manifest``'s directory, report on it, print a digest."""
    write_demo_dataset(cfg.manifest.parent)
    data = run(cfg, "report")
    print(f"\ndataset: {data.dataset_name} ({data.period})")
    print(f"{'index':24s}  {'median RCA':>10s}  {'mean RCA':>9s}  skew")
    for a in data.analyses:
        print(f"{a.kind.value:24s}  {a.summary.median:10.3f}  {a.summary.mean:9.3f}  {a.skew_class}")
    print("\ncross-index Pearson correlations of RCA values:")
    for pair in correlation_pairs(data.analyses):
        print(f"  {pair['a']} ~ {pair['b']}: r = {pair['r']:+.3f}")
    first = data.analyses[0]
    print(f"\nmost diverse countries ({first.kind.value}):")
    _print_top(first.table.countries, first.diversity, "Div")
    print(f"most ubiquitous fields ({first.kind.value}):")
    _print_top(first.table.fields, first.ubiquity, "Ubi")
    print(f"\ndemo dataset: {cfg.manifest}")
    print(f"analysis: {cfg.out}")


def _print_top(names: tuple[str, ...], counts, label: str) -> None:
    # aligned names are in name order and sorted() is stable, so ties print in name order
    counts = counts.tolist()
    for i in sorted(range(len(names)), key=lambda i: -counts[i])[:DEMO_TOP]:
        print(f"  {names[i]:16s}  {label} = {counts[i]}")


def _echo_written(out: Path, names: list[str], warnings_seen: list[str]) -> None:
    for message in warnings_seen:
        print(f"warning: {message}", file=sys.stderr)
    for name in names:
        print(out / name)


def _add_pipeline_options(p: argparse.ArgumentParser, with_manifest: bool = True) -> None:
    if with_manifest:
        p.add_argument("--manifest", required=True, help="dataset manifest (JSON)")
        p.add_argument(
            "--index",
            action="append",
            choices=[k.value for k in IndexKind],
            help="restrict to this index kind (repeatable; default: all in manifest)",
        )
    p.add_argument("--out", default="rcaspace-out", help="output directory")
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="backbone weight threshold in [0, 1]",
    )
    p.add_argument(
        "--format",
        action="append",
        choices=list(FORMATS),
        help="network output format (repeatable; default: json)",
    )
    p.add_argument(
        "--quartile-rule",
        default="linear",
        choices=list(QUARTILE_RULES),
        help="quartile interpolation rule for summaries",
    )
    p.add_argument(
        "--joint-cells",
        action="store_true",
        help="also report correlations restricted to cells defined in both indexes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rcaspace",
        description="RCA analytics of country x field scientific production",
    )
    parser.add_argument(
        "--version", action="version", version=f"rcaspace {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_rca = sub.add_parser("rca", help="write per-index RCA and advantage matrices")
    _add_pipeline_options(p_rca)

    p_prox = sub.add_parser("proximity", help="write proximity matrices and networks")
    p_prox.add_argument("mode", choices=list(MODES), help="node set of the network")
    _add_pipeline_options(p_prox)

    p_net = sub.add_parser("network", help="write backbone-filtered network files")
    p_net.add_argument("mode", choices=list(MODES), help="node set of the network")
    _add_pipeline_options(p_net)

    p_stats = sub.add_parser("stats", help="write distribution and correlation stats")
    _add_pipeline_options(p_stats)

    p_report = sub.add_parser("report", help="run the full pipeline into one report")
    _add_pipeline_options(p_report)

    p_demo = sub.add_parser("demo", help="write the bundled dataset, report on it, print a digest")
    _add_pipeline_options(p_demo, with_manifest=False)
    p_demo.set_defaults(out="rcaspace-demo")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if not 0.0 <= args.threshold <= 1.0:
        raise DataError(f"--threshold must be in [0, 1], got {args.threshold}")
    indexes = None
    if getattr(args, "index", None):
        indexes = tuple(dict.fromkeys(IndexKind.parse(k) for k in args.index))
    out = Path(args.out)
    if args.command == "demo":
        manifest, out, formats = out / "data" / "manifest.json", out / "analysis", ("json", "svg")
    else:
        manifest, formats = Path(args.manifest), ("json",)
    return RunConfig(
        manifest=manifest,
        out=out,
        indexes=indexes,
        threshold=args.threshold,
        quartile_rule=args.quartile_rule,
        joint_cells=args.joint_cells,
        formats=tuple(dict.fromkeys(args.format)) if args.format else formats,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "demo":
            cmd_demo(cfg)
        else:
            run(cfg, args.command, getattr(args, "mode", None))
        return EXIT_OK
    except DataError as exc:
        print(f"rcaspace: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"rcaspace: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
