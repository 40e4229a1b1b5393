"""Bundled synthetic dataset so the tool can be exercised with zero external
data.

Twelve fictional countries times the 27 canonical fields, for all five
production indexes.  Values come from a fixed integer formula (no RNG
anywhere in the pipeline), so the demo dataset and everything derived from
it is bit-reproducible.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ingest import FIELD_LABELS, IndexKind, ProductionTable, production_csv_text

DEMO_COUNTRIES = (
    "Arcadia",
    "Borduria",
    "Caledonia",
    "Drumstan",
    "Elbonia",
    "Freedonia",
    "Genovia",
    "Hyrkania",
    "Illyria",
    "Jotunheim",
    "Krakozhia",
    "Latveria",
)

DEMO_FIELDS = tuple(FIELD_LABELS)

DEMO_DATASET_NAME = "rcaspace-demo"
DEMO_PERIOD = "1996-2011"


def demo_table(kind: IndexKind) -> ProductionTable:
    """Deterministic production table for one index kind."""
    k = list(IndexKind).index(kind)
    n_c, n_f = len(DEMO_COUNTRIES), len(DEMO_FIELDS)
    values = np.zeros((n_c, n_f))
    for c in range(n_c):
        for f in range(n_f):
            base = (3 * (c + 1) * (f + 2) + 7 * k * (c + f + 1)) % 29
            values[c, f] = base * (1 + (c + 2 * f + 3 * k) % 5)
    return ProductionTable(kind, DEMO_COUNTRIES, DEMO_FIELDS, values)


def write_demo_dataset(directory: str | Path) -> Path:
    """Materialize the demo CSV files plus manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for kind in IndexKind:
        filename = f"{kind.value}.csv"
        (directory / filename).write_text(
            production_csv_text(demo_table(kind)), encoding="utf-8"
        )
        entries.append({"index": kind.value, "path": filename})
    manifest = {
        "dataset_name": DEMO_DATASET_NAME,
        "period": DEMO_PERIOD,
        "tables": entries,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path
