"""Parsing, validation and normalization of country x field production tables.

The input is a long-form CSV with a mandatory ``country,field,value`` header
(UTF-8, comma separated, double-quoted fields allowed), one file per
production index, read by :func:`parse_production_csv`.  Name matching is
exact after Unicode NFC normalization and surrounding-whitespace trim; there
is no fuzzy matching, silent merges being worse than warnings.

Absent (country, field) cells are materialized as zeros so that downstream
world-share denominators are complete sums.

A file is parsed by a columnar byte reader: numpy finds the separators in
blocks of raw bytes, values of 1 to 8 ASCII digits are computed from their
bytes, and only the other distinct spellings of each column are decoded.  A
file it declines, bad or not, is read again by a per-row ``csv`` reader, the
only one that writes error messages.  That reader decodes each line as it
reaches it, so the first bad line is the one named, whatever its fault.
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


def _table_per_row(stream: IO[bytes], index_kind: IndexKind) -> ProductionTable:
    """The long table read one row at a time; every error names its file line.

    Each line of the binary ``stream`` is decoded as ``csv`` reaches it, so
    a fault of any kind is named in line order.  Row and column orders
    follow first appearance; absent cells become zeros.
    """
    normalize = functools.lru_cache(maxsize=None)(normalize_name)  # once per spelling
    countries: dict[str, int] = {}
    fields: dict[str, int] = {}
    first_line: dict[tuple[int, int], int] = {}  # (row, column) -> line, in value order
    values: list[float] = []
    reader = csv.reader(_decoded_lines(stream))
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

    if not values:
        raise DataError("no data rows")
    matrix = np.zeros((len(countries), len(fields)))
    matrix[tuple(zip(*first_line))] = values
    return _owned(ProductionTable, index_kind, tuple(countries), tuple(fields), matrix)


def _decoded_lines(stream: IO[bytes]) -> Iterator[str]:
    """The lines of ``stream`` as ``csv`` counts them, each ended by ``\\n``,
    ``\\r\\n`` or a bare ``\\r``, and each decoded only when it is reached."""
    lines = itertools.chain.from_iterable(chunk.splitlines(keepends=True) for chunk in stream)
    for line_num, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not valid UTF-8 ({exc.reason}) at line {line_num}") from None


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


#: Rows or items per chunk of the text writers.
BLOCK_ROWS = 512

#: Bytes the byte reader reads per block.  A block holds whole lines; the
#: unfinished line at its end is carried into the next.  Each block pays a
#: fixed cost of numpy calls and dictionary merges and holds temporaries that
#: grow with it: 256 KiB pays that cost a quarter as often as 64 KiB, and
#: larger blocks parse no faster but hold more.
BLOCK_BYTES = 1 << 18
#: Bytes of a block searched for separators at once, so that the bools of
#: the search stay this size whatever the block's.
_STRIP = 1 << 16
#: The longest field the byte reader takes, in bytes, quotes included (far
#: under the csv module's field limit).  A longer field, or a line longer
#: than four of them, sends the file to the per-row reader.
_MAX_FIELD = 512
#: Odd multipliers that fold the 8-byte words of a field into its
#: fingerprint; odd, so that fields of up to 8 bytes never collide.
_MULTIPLIERS = np.array([pow(0x9E3779B97F4A7C15, k + 1, 1 << 64) for k in range(_MAX_FIELD // 8)],
                        dtype=np.uint64)
#: Low bits of a sort key that hold a span's index in its block: a data row
#: takes at least 3 bytes, so a block's ``BLOCK_BYTES`` plus a carried line of
#: ``4 * _MAX_FIELD`` hold fewer rows than ``1 << _SPAN_BITS``.  The
#: fingerprint keeps the other 44.
_SPAN_BITS = 20
#: ``_LOW_BYTES[k]`` keeps the first ``k`` bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: For a span of ``k`` = 1..8 bytes, the left shift and the ``'0'`` bytes
#: that pad its word to 8 digits; ``k`` = 0, or 9 for a longer span, gives
#: ``0xFF`` bytes, which are not digits.
_PAD_SHIFT = np.array([0] + [64 - 8 * k for k in range(1, 9)] + [0], dtype=np.uint64)
_PAD = np.array([-1] + [0x3030303030303030 >> 8 * k for k in range(1, 9)] + [-1]).astype(np.uint64)
#: A word is 8 ASCII digits when the high nibble of each byte, and of each
#: byte plus 6, is 3.  Lemire's steps ``x = (x & mask) * multiplier >> shift``
#: then join lanes of 1, 2 and 4 digits in pairs into one integer.
_HIGH_NIBBLES, _SIXES, _ZEROS = (np.uint64(0x0101010101010101 * b) for b in (0xF0, 0x06, 0x30))
_EIGHT_DIGITS = [tuple(map(np.uint64, step)) for step in (
    (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8), (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32))]


def _is_long_header(row: list[str]) -> bool:
    return [h.strip().lower() for h in row] == ["country", "field", "value"]


def _unquoted(cell: str) -> str:
    """The text of a cell as written: itself, or the inside of ``"..."`` with
    each ``""`` undoubled.  Any other quote raises ValueError."""
    if '"' not in cell:
        return cell
    inner = cell[1:-1]
    if len(cell) < 2 or cell[0] != '"' or cell[-1] != '"' or '"' in inner.replace('""', ""):
        raise ValueError("irregular quotes")
    return inner.replace('""', '"')


def _is_blank_line(line: bytes, header: bool = False) -> bool:
    """Whether ``line`` holds only blank cells; with ``header``, False for the
    header.  ValueError for any other line, and for a quoted cell that holds
    a comma."""
    cells = [_unquoted(cell) for cell in line.decode("utf-8").split(",")]
    if _is_blank(cells):
        return True
    if header and _is_long_header(cells):
        return False
    raise ValueError("not a data row")


class _Column:
    """The distinct spellings of one column so far: each one's fingerprint
    (``keys``, sorted), masked words (a column of ``words``) and value, which
    ``convert`` gives from its text when it is first met.  One more entry,
    keyed above every fingerprint, makes every search land on an entry.  The
    value column gets only the spans that are not 1 to 8 digits."""

    def __init__(self, convert: Callable[[list[str]], np.ndarray]) -> None:
        self.convert = convert
        self.keys = np.array([1 << (64 - _SPAN_BITS)], dtype=np.uint64)
        self.words = np.zeros((1, 1), dtype=np.uint64)
        self.values = np.zeros(1, dtype=convert([]).dtype)

    def __call__(self, words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The value of each span ``[starts, ends)`` of a block whose 8-byte
        word at byte ``i`` is ``words[i]``.

        Sorted with the span's index in their low bits, equal fingerprints
        sit together behind their first span.  Each distinct one is looked
        up, then every span is compared word by word with the spelling found
        (with no NUL byte, equal words are equal bytes), so a collision
        raises ValueError rather than merging two spellings, as does a span
        over ``_MAX_FIELD`` bytes.
        """
        lengths = ends - starts
        width = max(-(-int(lengths.max(initial=0)) // 8), 1)
        if width > _MAX_FIELD // 8:
            raise ValueError("field too long")
        offsets = np.arange(0, 8 * width, 8)
        masks = _LOW_BYTES[np.clip(np.arange(8 * width + 1) - offsets[:, None], 0, 8)]
        grid = np.empty((width, lengths.size), dtype=np.uint64)  # a column per span
        for row, offset, mask in zip(grid, offsets.tolist(), masks):  # temporaries of one row
            row[...] = words[starts + offset].view(np.uint64)
            row &= mask.take(lengths)
        keys = _MULTIPLIERS[:width] @ grid
        keys >>= _SPAN_BITS
        keys <<= _SPAN_BITS
        keys |= np.arange(keys.size, dtype=np.uint64)
        keys.sort()
        spans = (keys & ((1 << _SPAN_BITS) - 1)).astype(np.intp)
        keys >>= _SPAN_BITS
        heads = np.empty(keys.size, dtype=bool)
        heads[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=heads[1:])
        spelling = np.empty_like(spans)
        spelling[spans] = np.cumsum(heads) - 1
        keys, spans = keys[heads], spans[heads]  # each distinct fingerprint and its first span
        at = self.keys.searchsorted(keys)
        new = self.keys.take(at) != keys
        if new.any():
            self._add(grid, keys[new], spans[new])
            at = self.keys.searchsorted(keys)
        at = at.take(spelling)
        if width > len(self.words) or any(np.any(known.take(at) != (grid[k] if k < width else 0))
                                          for k, known in enumerate(self.words)):
            raise ValueError("fingerprint collision")
        return self.values.take(at)

    def _add(self, grid: np.ndarray, keys: np.ndarray, spans: np.ndarray) -> None:
        """Add the spellings of ``spans``, whose fingerprints are ``keys``."""
        first = np.zeros(grid.shape[1], dtype=np.uint64)  # in span order, so new names
        first[spans] = keys + 1  # take codes in order of first appearance
        spans = np.flatnonzero(first)
        keys = first[spans] - 1
        spelled = np.ascontiguousarray(grid[:, spans].T).view(f"S{8 * len(grid)}")
        text = b"\0".join(spelled.ravel().tolist()).decode("utf-8")  # S items drop the padding
        values = self.convert([_unquoted(cell) for cell in text.split("\0")])
        words = np.zeros((max(len(grid), len(self.words)), self.keys.size + keys.size),
                         dtype=np.uint64)
        words[:len(self.words), :self.keys.size] = self.words
        words[:len(grid), self.keys.size:] = grid[:, spans]
        keys = np.concatenate([self.keys, keys])
        order = np.argsort(keys, kind="stable")  # two sorted runs, merged
        self.keys, self.words = keys[order], words[:, order]
        self.values = np.concatenate([self.values, values])[order]


def _name_codes(names: dict[str, int]) -> Callable[[list[str]], np.ndarray]:
    """``convert`` for a name column: the code of each cell's normalized name
    in ``names``, new names numbered in order, or -1 for a blank name."""
    def code(cell: str) -> int:
        name = normalize_name(cell)
        return names.setdefault(name, len(names)) if name else -1
    return lambda cells: np.fromiter(map(code, cells), np.int32, len(cells))


def _values(cells: list[str]) -> np.ndarray:
    """``convert`` for the value column; ValueError unless finite and not negative."""
    values = np.fromiter(map(float, cells), np.float64, len(cells))
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError("value out of range")
    return values


def _data_rows(stream: IO[bytes]) -> Iterator[tuple[np.ndarray, ...]]:
    """The data rows of ``stream``, a block of whole lines at a time: the
    block's bytes, the 8-byte word at each byte, and each row's start, two
    commas and end (before ``\\r\\n`` or ``\\n``), all viewing one buffer.

    Lines and fields are cut at the commas and newlines outside quotes,
    found by a prefix XOR over the quotes among them.  The header and blank
    lines are skipped.  Any other line without two such commas, a NUL byte,
    a bare ``\\r``, an unclosed quote or a line over four ``_MAX_FIELD``
    raises ValueError.
    """
    buf = bytearray(BLOCK_BYTES + 5 * _MAX_FIELD + 8)  # a span's words reach _MAX_FIELD past it
    words = np.ndarray((len(buf) - 7,), "V8", buf, 0, (1,))
    held = 0  # bytes of an unfinished line, carried at the start of buf
    header_seen = False
    while True:
        with memoryview(buf) as view:
            read = stream.readinto(view[held:held + BLOCK_BYTES])
        end = held + read
        if not read:
            if not held:
                return
            buf[end] = 10  # the last line's newline
            end += 1
        data = np.frombuffer(buf, np.uint8, end)
        seps = np.concatenate([  # commas, newlines and quotes, with bools of one strip at a time
            np.add(np.flatnonzero((part == 44) | (part == 10) | (part == 34)), at, dtype=np.int32)
            for at in range(0, end, _STRIP) for part in [data[at:at + _STRIP]]])
        quoted = data[seps] == 34
        quoted |= np.logical_xor.accumulate(quoted)  # a quote, or inside quotes
        seps = seps[~quoted]
        newlines = np.flatnonzero(data[seps] == 10)
        if not newlines.size:  # no whole line yet
            if not read or end > 4 * _MAX_FIELD:
                raise ValueError("no line end")
            held = end
            continue
        stop = int(seps[newlines[-1]]) + 1
        lines = data[:stop]
        if lines.min() == 0 or buf.find(13, 0, stop) >= 0 and not np.all(  # bools only for a \r
                lines[np.flatnonzero(lines == 13) + 1] == 10):
            raise ValueError("NUL byte or bare \\r")
        ends = seps[newlines]
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        ends -= (lines[ends - 1] == 13) & (ends > starts)
        first = 0
        while not header_seen and first < ends.size:
            line = lines[starts[first]:ends[first]].tobytes()
            header_seen = bool(line) and not _is_blank_line(line, header=True)
            first += 1
        regular = np.diff(newlines, prepend=-1)[first:] == 3  # two commas, then a newline
        starts, ends, newlines = starts[first:], ends[first:], newlines[first:]
        for k in np.flatnonzero(~regular & (ends > starts)).tolist():
            _is_blank_line(lines[starts[k]:ends[k]].tobytes())
        rows = newlines[regular]
        block = lines, words, starts[regular], seps[rows - 2], seps[rows - 1], ends[regular]
        del quoted, seps, newlines, starts, ends, regular, rows  # freed while the block is used
        yield block
        held = end - stop
        if held > 4 * _MAX_FIELD:
            raise ValueError("line too long")
        buf[:held] = buf[stop:end]


def _table_in_byte_blocks(stream: IO[bytes], index_kind: IndexKind) -> ProductionTable | None:
    """The long table read from the binary ``stream``, or None to decline.

    Each column's spans go through a :class:`_Column`, so only distinct
    spellings are decoded, unquoted, normalized or given to ``float``, except
    values of 1 to 8 ASCII digits, which :func:`_read_values` computes.  A
    row of blank cells is skipped.  A fault :func:`_data_rows` or
    :class:`_Column` finds, a bad value, an empty name or a duplicate cell
    returns None without naming the line, and the caller rereads the file
    with :func:`_table_per_row`.  Same table as that reader otherwise.
    """
    countries, fields = {}, {}
    country, field, value = (_Column(_name_codes(countries)), _Column(_name_codes(fields)),
                             _Column(_values))
    matrix, seen = np.zeros((0, 0)), np.zeros((0, 0), dtype=bool)  # grown as names come
    n_rows = 0
    try:
        for lines, words, starts, comma1, comma2, ends in _data_rows(stream):
            rows, cols = country(words, starts, comma1), field(words, comma1 + 1, comma2)
            starts = comma2 + 1
            if np.any(blank := rows < 0):  # skipped if all its cells are blank
                if np.any(cols[blank] >= 0) or any(
                        _unquoted(lines[start:end].tobytes().decode("utf-8")).strip()
                        for start, end in zip(starts[blank].tolist(), ends[blank].tolist())):
                    raise ValueError("empty country name")
                rows, cols, starts, ends = rows[~blank], cols[~blank], starts[~blank], ends[~blank]
            if np.any(cols < 0):
                raise ValueError("empty field name")
            if len(countries) > len(matrix) or len(fields) > matrix.shape[1]:
                matrix, seen = (_grown(a, len(countries), len(fields)) for a in (matrix, seen))
            seen[rows, cols] = True
            matrix[rows, cols] = _read_values(value, lines, words, starts, ends)
            n_rows += rows.size
    except ValueError:
        return None
    if not n_rows or np.count_nonzero(seen) != n_rows:  # none, or a duplicate cell
        return None
    if matrix.shape != (len(countries), len(fields)):  # a copy: the capacity is freed
        matrix = matrix[:len(countries), :len(fields)].copy()
    return _owned(ProductionTable, index_kind, tuple(countries), tuple(fields), matrix)


def _read_values(value: _Column, lines: np.ndarray, words: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
    """The values of a block's spans ``[starts, ends)``.  A span of 1 to 8
    ASCII digits is read from its word, left-padded with ``'0'``, checked and
    converted by Lemire's steps (*Number parsing at a gigabyte per second*,
    2021): below 10**8, it is the float64 ``float`` gives.  Every other span
    goes to ``value``, and so does a whole block whose first 8 spans are
    mostly not digits, as in a table of decimals, where the check would cost
    more than it saves."""
    head = list(zip(starts[:8].tolist(), ends[:8].tolist()))
    if 2 * sum(e - s <= 8 and lines[s:e].tobytes().isdigit() for s, e in head) <= len(head):
        return value(words, starts, ends)
    k = np.minimum(ends - starts, 9)
    x = words[starts].view(np.uint64)
    x <<= _PAD_SHIFT.take(k)
    x |= _PAD.take(k)
    digits = ((x & _HIGH_NIBBLES) == _ZEROS) & ((x + _SIXES & _HIGH_NIBBLES) == _ZEROS)
    for mask, multiplier, shift in _EIGHT_DIGITS:
        x &= mask
        x *= multiplier
        x >>= shift
    out = x.astype(np.float64)
    if not digits.all():
        others = np.flatnonzero(~digits)
        out[others] = value(words, starts.take(others), ends.take(others))
    return out


def _grown(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``a`` in the corner of zeros of at least ``rows`` x ``cols``; a side that
    grows at least doubles.  The zeros are allocated untouched, so capacity
    that is never written costs no memory."""
    out = np.zeros([max(2 * size, need) if need > size else size
                    for size, need in zip(a.shape, (rows, cols))], dtype=a.dtype)
    out[:a.shape[0], :a.shape[1]] = a
    return out


def parse_production_csv(path: str | Path, index_kind: IndexKind) -> ProductionTable:
    """Parse the long-form ``country,field,value`` CSV at ``path`` into a ProductionTable.

    The file is read as UTF-8, and a row ends at ``\\n``, ``\\r\\n`` or a
    bare ``\\r``.  Row and column orders follow first appearance in the file.
    Duplicate (country, field) rows are an error; pairs absent from the file
    become zero cells.  Every error message carries the offending line number.

    The file's bytes are parsed a block at a time by
    :func:`_table_in_byte_blocks`.  A file it declines, bad or not, is read
    again from the start by :func:`_table_per_row`.  Only that reader writes
    error messages, and it decodes each line only when it reaches it, so an
    error names the first bad line in file order, bad UTF-8 included.
    """
    with open(path, "rb") as stream:
        table = _table_in_byte_blocks(stream, index_kind)
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
