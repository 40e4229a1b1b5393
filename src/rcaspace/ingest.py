"""Parsing, validation and normalization of country x field production tables.

The input is a long-form CSV with a mandatory ``country,field,value`` header
(UTF-8, comma separated, double-quoted fields allowed), one file per
production index, read by :func:`parse_production_csv`.  Name matching is
exact after Unicode NFC normalization and surrounding-whitespace trim; there
is no fuzzy matching, silent merges being worse than warnings.

Absent (country, field) cells are materialized as zeros so that downstream
world-share denominators are complete sums.
"""
from __future__ import annotations

import csv
import enum
import functools
import itertools
import json
import math
import os
import types
import unicodedata
import warnings
from dataclasses import dataclass
from operator import add
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, UnknownFieldWarning


class IndexKind(enum.Enum):
    """The five production indexes a table can hold."""

    DOCUMENTS = "documents"
    CITATIONS = "citations"
    SELF_CITATIONS = "self_citations"
    CITATIONS_PER_DOCUMENT = "citations_per_document"
    H_INDEX = "h_index"

    @classmethod
    def parse(cls, text: str) -> "IndexKind":
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(kind.value for kind in cls)
            raise DataError(
                f"unknown index kind {text!r} (expected one of: {valid})"
            ) from None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def normalize_name(name: str) -> str:
    """NFC-normalize and trim a country or field name."""
    return unicodedata.normalize("NFC", name).strip()


#: The 27 canonical fields of knowledge of the SCImago country/journal rank
#: classification and the short labels used in exports and visualizations,
#: as a read-only ``full name: label`` mapping.
FIELD_LABELS = types.MappingProxyType({
    "Mathematics": "Mth",
    "Physics and Astronomy": "Phy-Ast",
    "Chemistry": "Chm",
    "Chemical Engineering": "ChmEng",
    "Multidisciplinary": "Mlt",
    "Agricultural and Biological Sciences": "Agr-BlgScn",
    "Earth and Planetary Sciences": "Ert-PlnScn",
    "Veterinary": "Vtr",
    "Energy": "Enr",
    "Environmental Science": "EnvScn",
    "Materials Science": "MtrScn",
    "Engineering": "Eng",
    "Economics, Econometrics and Finance": "Ecn-Ecnm-Fnn",
    "Business, Management and Accounting": "Bsn-Mng-Acc",
    "Social Sciences": "SclScn",
    "Arts and Humanities": "Art-Hmn",
    "Psychology": "Psy",
    "Decision Sciences": "DcsSci",
    "Computer Science": "CmpScn",
    "Neuroscience": "Nrsc",
    "Biochemistry, Genetics and Molecular Biology": "Bch-Gnt-MlcBlg",
    "Health Professions": "HltPrf",
    "Immunology and Microbiology": "Inm-Mcr",
    "Pharmacology, Toxicology and Pharmaceutics": "Phr-Txc-Phr",
    "Nursing": "Nrs",
    "Dentistry": "Dnt",
    "Medicine": "Mdc",
})
_LABELS = frozenset(FIELD_LABELS.values())


def freeze_grid(obj, **dtypes) -> None:
    """Store ``obj``'s countries and fields as tuples, and each array named in
    ``dtypes`` as a read-only, C-contiguous copy of that dtype with a row per
    country and a column per field (DataError otherwise).

    For the ``__post_init__`` of a frozen result dataclass: the one copy keeps
    any caller from changing the object by writing to its own array.
    """
    countries, fields = tuple(obj.countries), tuple(obj.fields)
    object.__setattr__(obj, "countries", countries)
    object.__setattr__(obj, "fields", fields)
    for name, dtype in dtypes.items():
        arr = np.array(getattr(obj, name), dtype=dtype, order="C")
        if arr.shape != (len(countries), len(fields)):
            raise DataError(
                f"{type(obj).__name__}.{name} shape {arr.shape} does not match "
                f"{len(countries)} countries x {len(fields)} fields"
            )
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _owned(cls, *values):
    """A ``cls`` holding ``values`` as they are, without running ``__post_init__``.

    For results the library has just built: the arrays are its own, so
    they are frozen in place with no copy, and each check of the public
    constructor already holds by construction.  A check that does not hold
    by construction is the caller's to make.
    """
    obj = object.__new__(cls)
    stored = vars(obj)
    for name, value in zip(cls.__dataclass_fields__, values):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        stored[name] = value
    return obj


@dataclass(frozen=True, eq=False)
class ProductionTable:
    """A dense non-negative country x field matrix for one production index."""

    index_kind: IndexKind
    countries: tuple[str, ...]
    fields: tuple[str, ...]
    values: np.ndarray  # shape (len(countries), len(fields)), float64

    def __post_init__(self) -> None:
        freeze_grid(self, values=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise DataError("production table contains a non-finite value")
        if self.values.size and self.values.min() < 0:
            raise DataError("production table contains a negative value")
        if len(set(self.countries)) != len(self.countries):
            raise DataError("duplicate country names")
        if len(set(self.fields)) != len(self.fields):
            raise DataError("duplicate field names")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductionTable):
            return NotImplemented
        return (
            self.index_kind == other.index_kind
            and self.countries == other.countries
            and self.fields == other.fields
            and np.array_equal(self.values, other.values)
        )

    def country_totals(self) -> np.ndarray:
        return self.values.sum(axis=1)

    def field_totals(self) -> np.ndarray:
        return self.values.sum(axis=0)


def _is_blank(row: list[str]) -> bool:
    return not "".join(row).strip()


def _table_per_row(stream: IO[str], index_kind: IndexKind) -> ProductionTable:
    """The long table read one row at a time; every error names its file line.

    Row and column orders follow first appearance; absent cells become zeros.
    """
    normalize = functools.lru_cache(maxsize=None)(normalize_name)  # once per spelling
    countries: dict[str, int] = {}
    fields: dict[str, int] = {}
    first_line: dict[tuple[int, int], int] = {}  # (row, column) -> line, in value order
    values: list[float] = []
    reader = csv.reader(stream)
    rows = itertools.filterfalse(_is_blank, reader)
    try:
        header = next(rows, None)
        if header is None:
            raise DataError("empty file: missing country,field,value header")
        if not _is_long_header(header):
            raise DataError(f"invalid header {header!r}: expected country,field,value")
        for row in rows:
            line = reader.line_num
            if len(row) != 3:
                raise DataError(f"expected 3 columns, got {len(row)} at line {line}")
            country, field = normalize(row[0]), normalize(row[1])
            if not country:
                raise DataError(f"empty country name at line {line}")
            if not field:
                raise DataError(f"empty field name at line {line}")
            value = _parse_value(row[2], line)
            key = (countries.setdefault(country, len(countries)),
                   fields.setdefault(field, len(fields)))
            if key in first_line:
                raise DataError(
                    f"duplicate cell ({country}, {field}) at line {line} "
                    f"(first at line {first_line[key]})"
                )
            first_line[key] = line
            values.append(value)
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # the file is decoded as it is read
        raise DataError(f"input is not valid UTF-8: {exc}") from None

    if not values:
        raise DataError("no data rows")
    matrix = np.zeros((len(countries), len(fields)))
    matrix[tuple(zip(*first_line))] = values
    return _owned(ProductionTable, index_kind, tuple(countries), tuple(fields), matrix)


def _parse_value(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric value {text.strip()!r} at line {line}") from None
    if 0.0 <= value < math.inf:
        return value
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text.strip()!r} at line {line}")
    raise DataError(f"negative value at line {line}")


#: Rows converted per block; a row's strings die with its block.  Measured on
#: a 65k-row, 2.4 MB table: parse time is flat from 128 to 2048 rows, while
#: the parse's rise in peak RSS grows with the block (6.5 MB at 512 rows,
#: 7.0 MB at 1024, 11.9 MB at 8192; 17.5 MB when every row is held).
BLOCK_ROWS = 512


def _is_long_header(row: list[str]) -> bool:
    return [h.strip().lower() for h in row] == ["country", "field", "value"]


def _codes(spellings: Sequence[str], code: dict[str, int],
           names: dict[str, int]) -> np.ndarray:
    """Codes of ``spellings``; each new spelling is normalized once.

    When every spelling already has a code, one dict lookup per row gives
    them.  Otherwise the new spellings, in order of first appearance, get
    the codes that ``names`` gives their normalized names, and the lookup is
    made again.  An empty name raises ValueError.
    """
    try:
        return np.fromiter(map(code.__getitem__, spellings), np.intp, len(spellings))
    except KeyError:
        for spelling in dict.fromkeys(spellings):
            if spelling not in code:
                name = normalize_name(spelling)
                if not name:
                    raise ValueError("empty name")
                code[spelling] = names.setdefault(name, len(names))
    return _codes(spellings, code, names)


def _long_table_in_blocks(reader: Iterator[list[str]],
                          index_kind: IndexKind) -> ProductionTable | None:
    """The long table read ``BLOCK_ROWS`` rows at a time, or None when a check fails.

    A failed check, a csv error or a duplicate cell returns None without
    naming the line; the caller rereads the file with :func:`_table_per_row`.
    A block is checked whole: every row must have 3 columns, every value must
    be finite and not negative and every name must normalize to a nonempty
    one.  Blank lines and all-blank rows (``,,`` or whitespace) are dropped
    from a block that fails its checks, and the block is checked again.
    Same table as :func:`_table_per_row` otherwise.
    """
    countries: dict[str, int] = {}
    fields: dict[str, int] = {}
    country_code: dict[str, int] = {}  # spelling -> code
    field_code: dict[str, int] = {}

    def columns(block: list[list[str]]):
        country_col, field_col, texts = zip(*block, strict=True)  # else ValueError
        values = np.fromiter(map(float, texts), np.float64, len(texts))
        if not np.all((values >= 0.0) & (values < np.inf)):
            raise ValueError("value out of range")
        return (_codes(country_col, country_code, countries),
                _codes(field_col, field_code, fields), values)

    parts = []
    try:
        header = next(itertools.filterfalse(_is_blank, reader), None)
        if header is None or not _is_long_header(header):
            return None
        for block in iter(lambda: list(itertools.islice(reader, BLOCK_ROWS)), []):
            try:
                parts.append(columns(block))
            except ValueError:
                kept = list(itertools.filterfalse(_is_blank, block))
                if len(kept) == len(block):
                    return None
                if kept:
                    parts.append(columns(kept))
    except (csv.Error, ValueError):
        return None
    if not parts:
        return None
    rows, cols, values = map(np.concatenate, zip(*parts))
    cells = rows * len(fields) + cols
    seen = np.zeros(len(countries) * len(fields), dtype=bool)
    seen[cells] = True
    if np.count_nonzero(seen) != cells.size:
        return None
    matrix = np.zeros((len(countries), len(fields)))
    matrix[rows, cols] = values
    return _owned(ProductionTable, index_kind, tuple(countries), tuple(fields), matrix)


def parse_production_csv(path: str | Path, index_kind: IndexKind) -> ProductionTable:
    """Parse the long-form ``country,field,value`` CSV at ``path`` into a ProductionTable.

    The file is read as UTF-8, and a row ends at ``\\n``, ``\\r\\n`` or a
    bare ``\\r``.  Row and column orders follow first appearance in the file.
    Duplicate (country, field) rows are an error; pairs absent from the file
    become zero cells.  Every error message carries the offending line number.

    The rows are converted a block of whole columns at a time.  A file the
    blocks decline, bad or not, is read again from the start by
    :func:`_table_per_row`.  Only that reader writes error messages, so an
    error names the first bad line in file order.
    """
    with open(path, "r", encoding="utf-8", newline="") as stream:
        table = _long_table_in_blocks(csv.reader(stream), index_kind)
        if table is None:
            stream.seek(0)
            table = _table_per_row(stream, index_kind)
    return table


def resolve_labels(table: ProductionTable) -> ProductionTable:
    """Replace field full names by their ``FIELD_LABELS`` labels.

    Names already equal to a label pass through silently; names matching
    neither side pass through unchanged with an UnknownFieldWarning.  Two
    fields that resolve to one name, such as ``Mathematics`` and ``Mth``,
    raise DataError.  The new table shares the values array of ``table``.
    """
    source_of: dict[str, str] = {}  # resolved name -> the field it came from
    for name in table.fields:
        label = FIELD_LABELS.get(name, name)
        if label not in _LABELS:
            warnings.warn(
                f"field name {name!r} is not in the label registry; kept as-is",
                UnknownFieldWarning,
                stacklevel=2,
            )
        if label in source_of:
            raise DataError(
                f"fields {source_of[label]!r} and {name!r} both resolve to {label!r}"
            )
        source_of[label] = name
    return _owned(ProductionTable, table.index_kind, table.countries, tuple(source_of),
                  table.values)


def validate_alignment(tables: Sequence[ProductionTable]) -> list[ProductionTable]:
    """Align tables onto the union of their countries and fields.

    The output tables share one canonical (lexicographic) row and column
    order, zero-filled where a table had no cell, so cross-index operations
    are cell-aligned.  Idempotent.
    """
    if not tables:
        raise DataError("validate_alignment requires at least one table")
    all_countries = tuple(sorted(set().union(*(t.countries for t in tables))))
    all_fields = tuple(sorted(set().union(*(t.fields for t in tables))))
    country_pos = {name: i for i, name in enumerate(all_countries)}
    field_pos = {name: j for j, name in enumerate(all_fields)}
    aligned = []
    for table in tables:
        values = np.zeros((len(all_countries), len(all_fields)))
        rows = [country_pos[c] for c in table.countries]
        cols = [field_pos[f] for f in table.fields]
        values[np.ix_(rows, cols)] = table.values
        aligned.append(_owned(ProductionTable, table.index_kind, all_countries, all_fields, values))
    return aligned


class _FloatMemo(dict):
    """A dict that fills in a missing value with ``fmt(float(value))``, its text.

    A writer makes one per call, so it formats each distinct value once.
    -0.0 == 0.0 would make them one key, so a zero is formatted at each
    lookup and never kept; it keeps its sign.
    """

    __slots__ = ("fmt",)

    def __init__(self, fmt: Callable[[float], str]) -> None:
        self.fmt = fmt

    def __missing__(self, value: float) -> str:
        text = self.fmt(float(value))
        if value:
            self[value] = text
        return text


def _csv_head(name: str) -> str:
    """``name`` as it starts a CSV cell: quoted if it must be, then a comma.

    The only CSV quoting of the writers: a line ``a,b,value`` is
    ``_csv_head(a) + _csv_head(b) + value``.
    """
    if "," in name or '"' in name or "\n" in name or "\r" in name:
        return '"' + name.replace('"', '""') + '",'
    return name + ","


def _joined(items: Iterable[str], sep: str = "") -> Iterator[str]:
    """``sep.join(items)`` as chunks of ``BLOCK_ROWS`` items each."""
    items, lead = iter(items), ""
    while block := list(itertools.islice(items, BLOCK_ROWS)):
        yield lead + sep.join(block)
        if len(block) < BLOCK_ROWS:  # the last block: no second slice for a small layout
            break
        lead = sep


def _long_csv_chunks(header: str,
                     groups: Iterable[Iterable[tuple[str, Iterable[str]]]]) -> Iterator[str]:
    """``header``'s line, then one chunk per group of rows of ``a,b,value`` lines.

    Each row ``(head_a, tails)`` gives one line ``head_a + tail`` per tail,
    and has at least one; the heads come quoted by :func:`_csv_head` and the
    tails are ``b,value`` pieces, so a row is joined without a format per line.
    """
    yield header + "\n"
    for rows in groups:
        yield "".join([head + ("\n" + head).join(tails) + "\n" for head, tails in rows])


def matrix_csv_chunks(countries: Iterable[str], fields: Iterable[str],
                      values: np.ndarray) -> Iterator[str]:
    """The text of :func:`matrix_csv_text`, a block of about ``BLOCK_ROWS`` lines at a time.

    The shape is checked at the call.  A block's cells are formatted in one
    pass; a bool matrix's lines are picked from two pieces per field.
    """
    heads_c, heads_f = list(map(_csv_head, countries)), list(map(_csv_head, fields))
    cells = np.asarray(values)
    if cells.shape != (len(heads_c), len(heads_f)):
        raise DataError(f"matrix shape {cells.shape} does not match "
                        f"{len(heads_c)} countries x {len(heads_f)} fields")
    n_f = len(heads_f)
    step = max(1, BLOCK_ROWS // max(n_f, 1))  # whole countries
    pieces = [(head + "0", head + "1") for head in heads_f] if cells.dtype == bool else None

    def tails(block: np.ndarray) -> list:
        if pieces is not None:
            return [map(tuple.__getitem__, pieces, row) for row in block.tolist()]
        block = block.ravel()
        texts = list(map(repr, block.tolist()))
        if block.dtype.kind == "f":
            integral = np.flatnonzero(np.isfinite(block) & (np.trunc(block) == block))
            for k, value in zip(integral.tolist(), block[integral].tolist()):
                texts[k] = str(int(value))
        return [map(add, heads_f, texts[k:k + n_f]) for k in range(0, len(texts), n_f)]

    return _long_csv_chunks("country,field,value", (
        zip(heads_c[i:i + step], tails(cells[i:i + step]))
        for i in range(0, len(heads_c) if n_f else 0, step)))


def matrix_csv_text(countries: Iterable[str], fields: Iterable[str], values: np.ndarray) -> str:
    """Serialize any country x field matrix to the long CSV form.

    All cells are written (zeros included) so that parsing the output
    reconstructs the exact same matrix; integral cells are written as
    integers, the others with repr, so they round-trip bit-exactly.  The
    cells are formatted from the ints themselves (so an int64 above 2**53
    stays exact), floats with ``repr``, after which the finite integral
    floats, -0.0 among them, are rewritten as ints.
    ``values`` must have a row per country and a column per field.
    """
    return "".join(matrix_csv_chunks(countries, fields, values))


def production_csv_text(table: ProductionTable) -> str:
    """Serialize a ProductionTable to its canonical long CSV form."""
    return matrix_csv_text(table.countries, table.fields, table.values)


@dataclass(frozen=True)
class ManifestEntry:
    index: IndexKind
    path: str  # as written in the manifest, relative to the manifest file
    resolved: Path


@dataclass(frozen=True)
class Manifest:
    dataset_name: str
    period: str
    tables: tuple[ManifestEntry, ...]


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a dataset manifest (JSON).

    Schema: ``{"dataset_name": text, "period": text,
    "tables": [{"index": kind, "path": relative path}]}``.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8, an int too long
            raise DataError(f"manifest {path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"manifest {path}: expected a JSON object")
    try:
        dataset_name = raw["dataset_name"]
        period = raw["period"]
        raw_tables = raw["tables"]
    except KeyError as exc:
        raise DataError(f"manifest {path}: missing key {exc}") from None
    if not isinstance(raw_tables, list) or not raw_tables:
        raise DataError(f"manifest {path}: 'tables' must be a non-empty list")
    entries = []
    seen: set[IndexKind] = set()
    for item in raw_tables:
        if not isinstance(item, dict) or "index" not in item or "path" not in item:
            raise DataError(f"manifest {path}: each table needs 'index' and 'path'")
        try:
            kind = IndexKind.parse(str(item["index"]))
        except DataError as exc:
            raise DataError(f"manifest {path}: {exc}") from None
        if kind in seen:
            raise DataError(f"manifest {path}: duplicate index kind {kind.value!r}")
        seen.add(kind)
        entries.append((kind, str(item["path"])))
    try:  # a NUL byte, or a lone surrogate that UTF-8 cannot encode, in a path or a name
        names = str(dataset_name), str(period)
        "".join(names).encode("utf-8")
        # realpath, not Path.resolve: a symlink loop fails at open, as an I/O error
        tables = tuple(ManifestEntry(kind, rel, Path(os.path.realpath(path.parent / rel)))
                       for kind, rel in entries)
    except ValueError as exc:
        raise DataError(f"manifest {path}: {exc}") from None
    return Manifest(*names, tables)
