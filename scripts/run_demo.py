#!/usr/bin/env python3
"""Materialize the bundled demo dataset, run the full pipeline, and print
the headline numbers: per-index RCA summaries, skew classes, cross-index
correlations, and the most diverse countries / most ubiquitous fields.

Everything written under --out is byte-reproducible: run it twice and diff.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from rcaspace.cli import RunConfig, cmd_report
from rcaspace.demo import write_demo_dataset
from rcaspace.report import correlation_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("demo-run"),
                        help="output directory (default: ./demo-run)")
    parser.add_argument("--threshold", type=float, default=0.4,
                        help="backbone weight threshold")
    parser.add_argument("--top", type=int, default=5,
                        help="how many top countries/fields to print")
    args = parser.parse_args()

    manifest_path = write_demo_dataset(args.out / "data")
    cfg = RunConfig(
        manifest=manifest_path,
        out=args.out / "analysis",
        threshold=args.threshold,
        formats=("json", "svg", "graphml"),
    )
    data = cmd_report(cfg)
    analyses = data.analyses

    print()
    print(f"dataset: {data.dataset_name} ({data.period})")
    print(f"{'index':24s}  {'median RCA':>10s}  {'mean RCA':>9s}  skew")
    for a in analyses:
        print(
            f"{a.kind.value:24s}  {a.summary.median:10.3f}  "
            f"{a.summary.mean:9.3f}  {a.skew_class}"
        )

    print()
    print("cross-index Pearson correlations of RCA values:")
    for pair in correlation_pairs(analyses):
        print(f"  {pair['a']} ~ {pair['b']}: r = {pair['r']:+.3f}")

    docs = analyses[0]
    # aligned rows and columns are in name order; stable sorting breaks ties by name
    div_order = np.argsort(-docs.diversity, kind="stable")[: args.top]
    ubi_order = np.argsort(-docs.ubiquity, kind="stable")[: args.top]
    print()
    print(f"most diverse countries ({docs.kind.value}):")
    for i in div_order:
        print(f"  {docs.table.countries[i]:16s}  Div = {int(docs.diversity[i])}")
    print(f"most ubiquitous fields ({docs.kind.value}):")
    for j in ubi_order:
        print(f"  {docs.table.fields[j]:16s}  Ubi = {int(docs.ubiquity[j])}")
    print()
    print(f"artifacts: {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
