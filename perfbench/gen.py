"""Seeded synthetic inputs for the benchmark, written without rcaspace.

The generator owns its CSV writer (the standard ``csv`` module), so a change
to rcaspace's writers can change neither the inputs nor the set-up time.
Every input is a pure function of the workload size and the seed.

Production values are heavy-tailed (log-normal country size x field
popularity x noise) with about 20% zero cells, plus all-zero countries and
all-zero fields, so the undefined-cell and warning paths run.  Names carry
commas and double quotes that need CSV quoting, and non-ASCII letters, some
of them written in decomposed (NFD) form so ingest has to NFC-normalize them.
"""
from __future__ import annotations

import csv
import json
import unicodedata
from pathlib import Path

import numpy as np

#: The 27 SCImago subject areas and the short labels ingest maps them to.
#: Kept here, not imported, so the output check does not trust the program's
#: own registry.
REGISTRY = (
    ("Mathematics", "Mth"),
    ("Physics and Astronomy", "Phy-Ast"),
    ("Chemistry", "Chm"),
    ("Chemical Engineering", "ChmEng"),
    ("Multidisciplinary", "Mlt"),
    ("Agricultural and Biological Sciences", "Agr-BlgScn"),
    ("Earth and Planetary Sciences", "Ert-PlnScn"),
    ("Veterinary", "Vtr"),
    ("Energy", "Enr"),
    ("Environmental Science", "EnvScn"),
    ("Materials Science", "MtrScn"),
    ("Engineering", "Eng"),
    ("Economics, Econometrics and Finance", "Ecn-Ecnm-Fnn"),
    ("Business, Management and Accounting", "Bsn-Mng-Acc"),
    ("Social Sciences", "SclScn"),
    ("Arts and Humanities", "Art-Hmn"),
    ("Psychology", "Psy"),
    ("Decision Sciences", "DcsSci"),
    ("Computer Science", "CmpScn"),
    ("Neuroscience", "Nrsc"),
    ("Biochemistry, Genetics and Molecular Biology", "Bch-Gnt-MlcBlg"),
    ("Health Professions", "HltPrf"),
    ("Immunology and Microbiology", "Inm-Mcr"),
    ("Pharmacology, Toxicology and Pharmaceutics", "Phr-Txc-Phr"),
    ("Nursing", "Nrs"),
    ("Dentistry", "Dnt"),
    ("Medicine", "Mdc"),
)

INDEX_KINDS = (
    "documents",
    "citations",
    "self_citations",
    "citations_per_document",
    "h_index",
)

DATASET_PERIOD = "1996-2011"

_SYLLABLES = (
    "ar", "bel", "cor", "dra", "el", "fen", "gor", "hal", "is", "jan", "kor",
    "lun", "mar", "nor", "os", "pel", "qua", "ros", "sal", "tor", "ul", "var",
    "wes", "xan", "yor", "zel", "ré", "sø", "mü", "ña", "ço", "lã", "ôr", "ïs",
)
_SUBJECT_WORDS = (
    "Algebra", "Ecology", "Optics", "Geometry", "Genetics", "Logic",
    "Acoustics", "Hydrology", "Robotics", "Virology", "Topology", "Oncology",
    "Rheology", "Ethics", "Linguistics", "Catalysis", "Études", "Sémantique",
    "Ökonomie", "Análisis",
)
_SUBJECT_PREFIXES = (
    "Applied", "Theoretical", "Clinical", "Computational", "Experimental",
    "Molecular", "Industrial", "Comparative", "Statistical", "Structural",
)


def _country_names(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct NFC country names, some needing quoting or NFC."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        k = int(rng.integers(2, 5))
        stem = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), k))
        name = stem[0].upper() + stem[1:]
        roll = rng.random()
        if roll < 0.05:
            name = f"{name}, Republic of"
        elif roll < 0.08:
            name = f'{name} "{_SYLLABLES[int(rng.integers(len(_SYLLABLES)))].title()}"'
        name = unicodedata.normalize("NFC", name)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _field_names(rng: np.random.Generator, n: int) -> list[str]:
    """The 27 registry full names plus ``n - 27`` unregistered categories."""
    if n < len(REGISTRY):
        raise ValueError(f"need at least {len(REGISTRY)} fields, got {n}")
    names = [name for name, _ in REGISTRY]
    taken = set(names) | {label for _, label in REGISTRY}
    serial = 0
    while len(names) < n:
        serial += 1
        prefix = _SUBJECT_PREFIXES[int(rng.integers(len(_SUBJECT_PREFIXES)))]
        word = _SUBJECT_WORDS[int(rng.integers(len(_SUBJECT_WORDS)))]
        roll = rng.random()
        if roll < 0.1:
            name = f"{prefix} {word}, {serial}"
        elif roll < 0.15:
            name = f'"{word}" {prefix} {serial}'
        else:
            name = f"{prefix} {word} {serial}"
        name = unicodedata.normalize("NFC", name)
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


_LABELS = dict(REGISTRY)


def label_of(field_name: str) -> str:
    """The name ingest should give a field: its label if registered."""
    return _LABELS.get(field_name, field_name)


def _production(rng: np.random.Generator, n_c: int, n_f: int, kind: str) -> np.ndarray:
    size = rng.lognormal(0.0, 1.6, n_c)
    popularity = rng.lognormal(0.0, 0.9, n_f)
    noise = rng.lognormal(0.0, 2.2, (n_c, n_f))
    x = np.floor(40.0 * size[:, None] * popularity[None, :] * noise + 1.0)
    x[rng.random((n_c, n_f)) < 0.2] = 0.0
    x[rng.choice(n_c, max(1, n_c // 100), replace=False), :] = 0.0
    x[:, rng.choice(n_f, max(1, n_f // 100), replace=False)] = 0.0
    if kind == "citations":
        x = np.floor(x * rng.lognormal(2.0, 0.5, (n_c, n_f)))
    elif kind == "self_citations":
        x = np.floor(x * rng.lognormal(0.0, 0.5, (n_c, n_f)))
    elif kind == "citations_per_document":
        x = np.round(np.where(x > 0, rng.lognormal(1.5, 0.6, (n_c, n_f)), 0.0), 2)
    elif kind == "h_index":
        x = np.floor(np.sqrt(x))
    return x


def _maybe_nfd(name: str, rng: np.random.Generator) -> str:
    return unicodedata.normalize("NFD", name) if not name.isascii() and rng.random() < 0.5 else name


def _write_table(path: Path, countries, fields, values, rng: np.random.Generator) -> None:
    """Long CSV with shuffled rows; half of the scattered zero cells omitted.

    Zero cells of all-zero rows and columns are always written, so every name
    appears in every file.  About half the non-ASCII names are written in
    NFD form.
    """
    nonzero = values != 0
    keep = nonzero | (rng.random(values.shape) < 0.5)
    keep |= ~nonzero.any(axis=1)[:, None]
    keep |= ~nonzero.any(axis=0)[None, :]
    written_c = [_maybe_nfd(c, rng) for c in countries]
    written_f = [_maybe_nfd(f, rng) for f in fields]
    rows_i, cols_j = np.nonzero(keep)
    order = rng.permutation(rows_i.size)
    integral = bool(np.all(values == np.floor(values)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("country", "field", "value"))
        for k in order.tolist():
            i, j = int(rows_i[k]), int(cols_j[k])
            v = values[i, j]
            text = str(int(v)) if integral or v == 0 else f"{v:.2f}"
            out.writerow((written_c[i], written_f[j], text))


def make_dataset(directory: Path, seed: int, n_indexes: int, n_countries: int,
                 n_fields: int, name: str) -> dict:
    """Write one manifest plus ``n_indexes`` CSVs; return what was generated.

    The returned dict holds, per index kind, the dense matrix over the NFC
    country names and field *labels* in sorted order: the aligned table
    ingest is expected to build.
    """
    rng = np.random.default_rng([seed, n_indexes, n_countries, n_fields])
    directory.mkdir(parents=True, exist_ok=True)
    countries = _country_names(rng, n_countries)
    fields = _field_names(rng, n_fields)
    labels = [label_of(f) for f in fields]
    row_order = sorted(range(n_countries), key=countries.__getitem__)
    col_order = sorted(range(n_fields), key=labels.__getitem__)
    kinds = INDEX_KINDS[:n_indexes]
    tables = {}
    entries = []
    for kind in kinds:
        values = _production(rng, n_countries, n_fields, kind)
        filename = f"{kind}.csv"
        _write_table(directory / filename, countries, fields, values, rng)
        tables[kind] = values[np.ix_(row_order, col_order)]
        entries.append({"index": kind, "path": filename})
    manifest = {"dataset_name": name, "period": DATASET_PERIOD, "tables": entries}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                             encoding="utf-8")
    return {
        "manifest": directory / "manifest.json",
        "dataset_name": name,
        "countries": [countries[i] for i in row_order],
        "fields": [labels[j] for j in col_order],
        "unregistered": [f for f in fields if label_of(f) == f],
        "tables": tables,
        "files": {kind: directory / f"{kind}.csv" for kind in kinds},
    }


def make_small_tables(path: Path, seed: int, n_tables: int) -> dict:
    """``n_tables`` integer tables of 1-4 x 1-5 cells with entries 0-3.

    No table is all zero, since an all-zero table is rejected by design and
    every operation of the workload has to succeed.
    """
    rng = np.random.default_rng([seed, n_tables])
    shapes = np.stack([rng.integers(1, 5, n_tables), rng.integers(1, 6, n_tables)], axis=1)
    sizes = shapes[:, 0] * shapes[:, 1]
    flat = rng.integers(0, 4, int(sizes.sum())).astype(np.float64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for k in range(n_tables):
        cells = flat[offsets[k]:offsets[k + 1]]
        if not cells.any():
            cells[int(rng.integers(cells.size))] = float(rng.integers(1, 4))
    countries = _country_names(rng, 4)
    fields = [label for _, label in REGISTRY[:5]]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, shapes=shapes, offsets=offsets, flat=flat)
    (path.with_suffix(".names.json")).write_text(
        json.dumps({"countries": countries, "fields": fields}), encoding="utf-8"
    )
    return {"path": path, "shapes": shapes, "offsets": offsets, "flat": flat,
            "countries": countries, "fields": fields}


def table_of(small: dict, k: int) -> np.ndarray:
    """The k-th small table as a (rows, cols) float64 array."""
    r, c = (int(v) for v in small["shapes"][k])
    return small["flat"][small["offsets"][k]:small["offsets"][k + 1]].reshape(r, c)
