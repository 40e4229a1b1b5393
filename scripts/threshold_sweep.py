#!/usr/bin/env python3
"""Sweep the backbone weight threshold and tabulate how the filtered network
changes: retained edges, connected components, and mean node degree.

The spanning forest keeps every component connected at any threshold, so the
component count should stay flat while edge count drops toward n-1 — this
script makes that visible on a real dataset (or the bundled demo when no
manifest is given).
"""
import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from rcaspace.cli import RunConfig, load_dataset, proximity_network
from rcaspace.demo import write_demo_dataset
from rcaspace.errors import DataError
from rcaspace.ingest import IndexKind
from rcaspace.netexport import _union, backbone


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", type=Path, default=None,
                        help="dataset manifest (default: bundled demo data)")
    parser.add_argument("--index", default="documents",
                        choices=[k.value for k in IndexKind])
    parser.add_argument("--mode", default="fields", choices=["fields", "countries"])
    parser.add_argument("--steps", type=int, default=11,
                        help="number of evenly spaced thresholds in [0, 1]")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error(f"argument --steps: expected at least 1, got {args.steps}")

    with tempfile.TemporaryDirectory(prefix="rcaspace-sweep-") as scratch:
        manifest = args.manifest or write_demo_dataset(Path(scratch) / "data")
        cfg = RunConfig(manifest=manifest, out=Path(scratch),
                        indexes=(IndexKind.parse(args.index),))
        try:
            data = load_dataset(cfg)
        except (DataError, OSError) as exc:  # the exit codes of the rcaspace command
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, DataError) else 2
    for message in data.warnings:
        print(f"warning: {message}", file=sys.stderr)
    (analysis,) = data.analyses
    net = proximity_network(analysis, args.mode)

    n = len(net.nodes)
    index = {name: i for i, name in enumerate(net.nodes)}
    print(f"{args.mode} network of {data.dataset_name} / {analysis.kind.value}: {n} nodes")
    print(f"{'threshold':>9s}  {'edges':>5s}  {'components':>10s}  {'mean degree':>11s}")
    for threshold in np.linspace(0.0, 1.0, args.steps):
        edges = backbone(net, float(round(threshold, 6)))
        comps = n - len(_union(list(range(n)), [index[a] for a, _, _ in edges],
                               [index[b] for _, b, _ in edges]))
        mean_degree = 2 * len(edges) / n if n else 0.0
        print(f"{threshold:9.2f}  {len(edges):5d}  {comps:10d}  {mean_degree:11.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
