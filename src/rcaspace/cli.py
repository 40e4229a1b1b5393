"""Command-line front end: ingest -> rca -> proximity -> stats -> export.

Subcommands map one-to-one onto the independently reproducible artifacts
(``rca``, ``proximity``, ``stats``, ``network``, ``report``) plus ``demo``,
which materializes a bundled synthetic dataset, analyzes it and prints a
digest, so the tool can be exercised with zero external data.

Exit codes: 0 success, 2 I/O failure, 3 data validation failure or an input too
large to hold in memory, 64 usage.
Writes stream: each file is written a block of rows at a time, and is never
held whole.  Each is still replaced atomically (temp file + rename), but a run
is not: one that fails keeps the files it wrote before the failure.  Outputs
contain no timestamps, so identical inputs and configuration produce
byte-identical output trees.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings as warnings_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from . import __version__
from .demo import write_demo_dataset
from .errors import DataError
from .ingest import (
    IndexKind,
    load_manifest,
    matrix_csv_chunks,
    parse_production_csv,
    resolve_labels,
    validate_alignment,
)
from .netexport import DEFAULT_THRESHOLD, FORMATS, build_layout, emit_chunks
from .proximity import MODES, country_proximity, field_proximity, proximity_csv_chunks
from .report import AnalysisReport, IndexAnalysis, analyze_index, build_report, sha256_file
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


def _write_bytes(path: Path, chunks: Iterable[str]) -> None:
    """Atomic write of text ``chunks``, each UTF-8-encoded as it comes: temp
    file in the target directory, then rename.  The temp file is made as
    ``open(path, "w")`` makes a file, with mode 0o666 less the umask, which
    the rename keeps."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunk.encode("utf-8") for chunk in chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class _LoadedDataset:
    dataset_name: str
    period: str
    inputs: list[dict]
    analyses: list[IndexAnalysis]
    warnings: list[str] = field(default_factory=list)


def load_dataset(cfg: RunConfig, digests: bool = False) -> _LoadedDataset:
    """Parse, label, align and analyze ``cfg``'s tables, once each and in ``IndexKind`` order.

    With ``digests``, each input also gets the sha256 of its file, as the summaries report it.
    """
    manifest = load_manifest(cfg.manifest)
    available = {e.index: e for e in manifest.tables}
    wanted = available if cfg.indexes is None else cfg.indexes
    if missing := [k.value for k in wanted if k not in available]:
        raise DataError(f"manifest has no table for index(es): {', '.join(missing)}")
    entries = [available[k] for k in IndexKind if k in wanted]
    collected: list[str] = []

    def stage(kind: IndexKind, where: str, fn, *args):
        """``fn(*args)``; its DataError is prefixed with ``where``, its warnings with ``kind``."""
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            try:
                result = fn(*args)
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from None
        collected.extend(f"{kind.value}: {w.message}" for w in caught)
        return result

    # The pipeline functions are looked up at each call, not bound ahead, so a tracer can wrap
    # them. The tables are aligned at once, so the unaligned ones are freed before the analyses.
    tables = validate_alignment([stage(e.index, e.path, lambda p, k: resolve_labels(
        parse_production_csv(p, k)), e.resolved, e.index) for e in entries])
    inputs = [{"index": e.index.value, "path": e.path} for e in entries]
    if digests:  # taken right after the parse
        for entry, e in zip(inputs, entries):
            entry["sha256"] = sha256_file(e.resolved)
    analyses = [stage(t.index_kind, t.index_kind.value, analyze_index, t, cfg.quartile_rule)
                for t in tables]
    return _LoadedDataset(manifest.dataset_name, manifest.period, inputs, analyses, collected)


def proximity_network(analysis: IndexAnalysis, mode: str):
    """The ``mode`` network of ``analysis``, its nodes sized by production totals."""
    if mode == "fields":
        return field_proximity(analysis.advantage, analysis.table.field_totals())
    return country_proximity(analysis.advantage, analysis.table.country_totals())


@dataclass(frozen=True)
class Command:
    help: str
    modes: tuple[str, ...] | None  # network node sets; None: the one given on the command line
    matrices: bool  # the RCA and advantage matrices
    proximity: bool  # the proximity matrix of each network
    summaries: tuple[str, ...]  # written last, from one report


#: What each subcommand writes, in the order of the fields, each per index but the summaries.
COMMANDS = {
    "rca": Command("write per-index RCA and advantage matrices",
                   (), True, False, ("rca_summary.json",)),
    "proximity": Command("write proximity matrices and networks",
                         None, False, True, ("proximity_summary.json",)),
    "network": Command("write backbone-filtered network files", None, False, False, ()),
    "stats": Command("write distribution and correlation stats",
                     (), False, False, ("stats.json", "stats.txt")),
    "report": Command("run the full pipeline into one report",
                      MODES, True, True, ("report.json", "report.txt")),
    "demo": Command("write the bundled dataset, report on it, print a digest",
                    MODES, True, True, ("report.json", "report.txt")),
}


def _write_artifacts(cfg: RunConfig, data: _LoadedDataset, command: str,
                     mode: str | None) -> tuple[list[str], AnalysisReport | None]:
    """Write what ``COMMANDS[command]`` declares, each artifact as it is made.

    Returns the names and the report the summaries were written from, if any.
    """
    spec = COMMANDS[command]
    written = []
    report = None

    def write(name: str, chunks: Iterable[str]) -> None:
        _write_bytes(cfg.out / name, chunks)
        written.append(name)

    # The *_chunks writers, not their joined *_text and emit forms, so no file is held whole.
    if spec.matrices:
        for a in data.analyses:
            grid = a.rca.countries, a.rca.fields  # the advantage matrix's too
            write(f"rca_{a.kind.value}.csv", matrix_csv_chunks(*grid, a.rca.values))
            write(f"advantage_{a.kind.value}.csv", matrix_csv_chunks(*grid, a.advantage.m))
    for m in (mode,) if spec.modes is None else spec.modes:
        for a in data.analyses:
            net = proximity_network(a, m)
            if spec.proximity:
                write(f"proximity_{m}_{a.kind.value}.csv", proximity_csv_chunks(net))
            layout = build_layout(net, cfg.threshold)
            for fmt in cfg.formats:
                write(f"network_{m}_{a.kind.value}.{fmt}", emit_chunks(layout, fmt))
    if spec.summaries:
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
        for name in spec.summaries:
            write(name, [report.to_json() if name.endswith(".json") else report.to_text()])
    return written, report


def run(cfg: RunConfig, command: str, mode: str | None = None) -> AnalysisReport | None:
    """Load the dataset, write and list what ``command`` makes of it; the report, if any."""
    data = load_dataset(cfg, digests=bool(COMMANDS[command].summaries))
    written, report = _write_artifacts(cfg, data, command, mode)
    for message in report.warnings if report else data.warnings:
        print(f"warning: {message}", file=sys.stderr)
    for name in written:
        print(cfg.out / name)
    return report


#: How many of the most diverse countries and most ubiquitous fields the demo prints.
DEMO_TOP = 5


def cmd_demo(cfg: RunConfig) -> None:
    """Write the bundled dataset to ``cfg.manifest``'s directory, report on it, print a digest."""
    write_demo_dataset(cfg.manifest.parent)
    report = run(cfg, "demo")
    print(f"\ndataset: {report.dataset_name} ({report.period})")
    print(f"{'index':24s}  {'median RCA':>10s}  {'mean RCA':>9s}  skew")
    for a in report.analyses:
        print(f"{a.kind.value:24s}  {a.summary.median:10.3f}  {a.summary.mean:9.3f}  {a.skew_class}")
    print("\ncross-index Pearson correlations of RCA values:")
    for pair in report.correlations:
        r = "n/a" if pair["r"] is None else f"{pair['r']:+.3f}"
        print(f"  {pair['a']} ~ {pair['b']}: r = {r}")
    first = report.analyses[0]
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rcaspace",
        description="RCA analytics of country x field scientific production",
    )
    parser.add_argument(
        "--version", action="version", version=f"rcaspace {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.modes is None:
            p.add_argument("mode", choices=list(MODES), help="node set of the network")
        if name != "demo":  # the demo writes its own manifest under --out
            p.add_argument("--manifest", required=True, help="dataset manifest (JSON)")
            p.add_argument(
                "--index",
                action="append",
                choices=[k.value for k in IndexKind],
                help="restrict to this index kind (repeatable; default: all in manifest)",
            )
        p.add_argument("--out", default="rcaspace-demo" if name == "demo" else "rcaspace-out",
                       help="output directory")
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
    except MemoryError as exc:
        print(f"rcaspace: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
