"""Sampling frames: the register of units a sample is drawn from.

A frame holds its units as columns in frame order (ordering matters for
systematic sampling): read-only numpy arrays of ids, response values ``y``
(NaN when missing), positive size measures ``x`` and response propensities.
The stratum and cluster labels are columns of integer codes into a sorted
tuple of the distinct labels, so each label is held once; code order is
label order.  The groupings ``strata()``/``clusters()`` map each label to a
read-only array of its frame positions, slices of one stable sort of the
codes.  The id index is a stable argsort of the ids: one ``searchsorted``
finds the positions of any ids and shows a repeated id.  A frame is
immutable; its groupings and the tuple views ``ids``/``y``/``x`` are
computed once, on first use, and the per-unit label tuples
``stratum_labels``/``cluster_labels`` only when asked for.  Frames
round-trip through CSV with the fixed header
``id,y,x,stratum,cluster,propensity``.  Loading parses the rows in bounded
chunks, one numpy ``loadtxt`` call each, and codes each chunk's labels
through one running map of the distinct raw labels, so no label string
outlives its chunk; whole columns are checked at a time.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "FrameRecord",
    "Frame",
    "ValueUniverse",
    "load_frame_csv",
    "dump_frame_csv",
    "write_csv",
    "make_frame",
]

CSV_HEADER = ["id", "y", "x", "stratum", "cluster", "propensity"]


@dataclass(frozen=True)
class FrameRecord:
    id: int
    y: float
    x: float = 1.0
    stratum: str = "0"
    cluster: str = "0"
    propensity: float = 1.0

    def __post_init__(self):
        fault = _first_fault(np.array([self.y]), np.array([self.x]), np.array([self.propensity]))
        if fault is not None:
            raise ValueError(f"record {self.id}: {fault[1]}")

    @property
    def y_missing(self) -> bool:
        return math.isnan(self.y)


def _first_fault(y: np.ndarray, x: np.ndarray, propensity: np.ndarray):
    """(position, message) of the first record with an invalid field, or None."""
    bad_x = ~((x > 0) & np.isfinite(x))
    bad_p = ~((propensity > 0.0) & (propensity <= 1.0))
    bad = bad_x | bad_p | np.isinf(y)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_x[i]:
        return i, f"size measure x must be positive, got {x[i].item()!r}"
    if bad_p[i]:
        return i, f"propensity must be in (0, 1], got {propensity[i].item()!r}"
    return i, f"y must be finite or NaN (missing), got {y[i].item()!r}"


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only array; a read-only array of that type that owns
    its data is taken as it is, anything else is copied."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype and values.base is None
            and not values.flags.writeable):
        return values
    return _frozen(np.array(values, dtype=dtype))


def _codes(values, n_names: int) -> np.ndarray:
    # the narrowest type that holds every code: a radix sort groups 8/16-bit codes
    return _column(values, np.min_scalar_type(n_names - 1))


class _Labels(NamedTuple):
    """A label column: its distinct labels in sorted order and each unit's code."""

    names: tuple[str, ...]
    codes: np.ndarray

    def take(self, positions) -> "_Labels":
        """The column at the given positions, coded again over the labels it keeps."""
        used, codes = np.unique(self.codes[positions], return_inverse=True)
        return _Labels(tuple(self.names[i] for i in used.tolist()),
                       _codes(codes.reshape(-1), len(used)))


def _code(labels: list, code_of: dict) -> np.ndarray:
    """Running codes of raw labels: a label new to ``code_of`` is numbered there."""
    for raw in dict.fromkeys(labels):
        code_of.setdefault(raw, len(code_of))
    return np.fromiter(map(code_of.__getitem__, labels), np.min_scalar_type(len(code_of) - 1),
                       len(labels))


def _named(code_of: dict, codes: np.ndarray, clean=str) -> _Labels:
    """The column of running codes over sorted names; each raw label is cleaned once."""
    names = sorted(set(map(clean, code_of)))
    index = {name: code for code, name in enumerate(names)}
    lookup = _codes([index[clean(raw)] for raw in code_of], len(names))
    return _Labels(tuple(names), _frozen(lookup[codes]))


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts as one read-only array, emptying the list."""
    array = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return _frozen(array)


def _label_column(labels, n: int) -> _Labels:
    if labels is None:
        return _Labels(("0",), _codes(np.zeros(n), 1))
    if isinstance(labels, _Labels):
        return labels
    code_of = {}
    return _named(code_of, _code(list(map(str, labels)), code_of))


def _group(labels: _Labels) -> dict[str, np.ndarray]:
    order = _frozen(np.argsort(labels.codes, kind="stable"))
    ends = np.cumsum(np.bincount(labels.codes, minlength=len(labels.names))).tolist()
    return {name: order[start:end]
            for name, start, end in zip(labels.names, [0] + ends, ends)}


class Frame:
    """Ordered register of units with unique ids, held as read-only columns.

    A column left out takes its default: y missing, x and propensity 1,
    stratum and cluster "0".  ``lines`` (a CSV line number per unit) only
    locates errors.
    """

    def __init__(self, ids, y=None, x=None, strata=None, clusters=None, propensity=None,
                 *, lines=None):
        self.id_array = _column(ids, np.int64)
        n = len(self.id_array)
        if n == 0:
            raise ValueError("frame must contain at least one record")
        self.y_array = _column(np.full(n, math.nan) if y is None else y, float)
        self.x_array = _column(np.ones(n) if x is None else x, float)
        self.propensity_array = _column(np.ones(n) if propensity is None else propensity, float)
        self.stratum_names, self.stratum_codes = _label_column(strata, n)
        self.cluster_names, self.cluster_codes = _label_column(clusters, n)
        if {len(self.y_array), len(self.x_array), len(self.propensity_array),
                len(self.stratum_codes), len(self.cluster_codes)} != {n}:
            raise ValueError("all frame columns must have the same length")
        # the id index: positions in id order, so a lookup is one searchsorted
        self._order = np.argsort(self.id_array, kind="stable")
        self._sorted_ids = self.id_array[self._order]
        fault = _first_fault(self.y_array, self.x_array, self.propensity_array)
        if fault is None:
            repeats = self._order[1:][self._sorted_ids[1:] == self._sorted_ids[:-1]]
            if len(repeats):
                fault = int(repeats.min()), "frame record ids must be unique"
        if fault is not None:
            where = "" if lines is None else f"frame CSV line {lines[fault[0]]}: "
            raise ValueError(f"{where}record {self.id_array[fault[0]]}: {fault[1]}")

    @property
    def n(self) -> int:
        return len(self.id_array)

    # tuple views of the columns, built once
    ids = cached_property(lambda self: tuple(self.id_array.tolist()))
    y = cached_property(lambda self: tuple(self.y_array.tolist()))
    x = cached_property(lambda self: tuple(self.x_array.tolist()))

    # label views, built each time they are asked for
    stratum_labels = property(lambda self: tuple(map(self.stratum_names.__getitem__,
                                                     self.stratum_codes.tolist())))
    cluster_labels = property(lambda self: tuple(map(self.cluster_names.__getitem__,
                                                     self.cluster_codes.tolist())))

    def positions(self, unit_ids) -> list[int]:
        """Frame positions of the given ids, in the given order."""
        keys = list(unit_ids)
        wanted = np.asarray(keys)
        if wanted.dtype.kind != "i" or wanted.ndim != 1:  # not plain int64-range ints
            return [self._position(unit) for unit in keys]
        at = np.minimum(np.searchsorted(self._sorted_ids, wanted), self.n - 1)
        absent = self._sorted_ids[at] != wanted
        if absent.any():
            raise KeyError(f"no record with id {keys[int(np.argmax(absent))]} in frame")
        return self._order[at].tolist()

    def _position(self, unit) -> int:
        try:
            key = int(unit)
        except (TypeError, ValueError, OverflowError):
            key = None
        if key is not None and key == unit and -2 ** 63 <= key < 2 ** 63:
            at = int(np.searchsorted(self._sorted_ids, key))
            if at < self.n and self._sorted_ids[at] == key:
                return int(self._order[at])
        raise KeyError(f"no record with id {unit} in frame")

    def record_by_id(self, unit_id: int) -> FrameRecord:
        (p,) = self.positions([unit_id])
        return FrameRecord(self.id_array[p].item(), self.y_array[p].item(),
                           self.x_array[p].item(), self.stratum_names[self.stratum_codes[p]],
                           self.cluster_names[self.cluster_codes[p]],
                           self.propensity_array[p].item())

    def _labels(self) -> tuple[_Labels, _Labels]:
        return (_Labels(self.stratum_names, self.stratum_codes),
                _Labels(self.cluster_names, self.cluster_codes))

    _strata = cached_property(lambda self: _group(self._labels()[0]))
    _clusters = cached_property(lambda self: _group(self._labels()[1]))

    def strata(self) -> dict[str, tuple[int, ...]]:
        """Stratum label -> frame positions, labels in sorted order."""
        return dict(self._strata)

    def clusters(self) -> dict[str, tuple[int, ...]]:
        """Cluster label -> frame positions, labels in sorted order."""
        return dict(self._clusters)

    def select(self, positions) -> "Frame":
        """The sub-frame of the records at the given positions, in that order."""
        positions = np.asarray(list(positions), dtype=np.intp)
        return Frame(self.id_array[positions], self.y_array[positions], self.x_array[positions],
                     *(labels.take(positions) for labels in self._labels()),
                     self.propensity_array[positions])

    def with_y(self, values) -> "Frame":
        """Copy of the frame with y replaced position-wise."""
        return Frame(self.id_array, list(map(float, values)), self.x_array, *self._labels(),
                     self.propensity_array)

    def with_x(self, values) -> "Frame":
        """Copy of the frame with x replaced position-wise."""
        return Frame(self.id_array, self.y_array, list(map(float, values)), *self._labels(),
                     self.propensity_array)


@dataclass(frozen=True)
class ValueUniverse:
    """Declared bounds for y and the allowed size-measure values."""

    y_min: float
    y_max: float
    x_values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not (math.isfinite(self.y_min) and math.isfinite(self.y_max)):
            raise ValueError("y bounds must be finite")
        if self.y_max < self.y_min:
            raise ValueError(f"y_max must be >= y_min, got [{self.y_min}, {self.y_max}]")
        xs = tuple(sorted(float(v) for v in self.x_values))
        if not xs:
            raise ValueError("x_values must be non-empty")
        if any(not (v > 0 and math.isfinite(v)) for v in xs):
            raise ValueError(f"x_values must be positive and finite, got {xs}")
        object.__setattr__(self, "x_values", xs)

    def value_range(self) -> float:
        return self.y_max - self.y_min


def make_frame(ys, xs=None, strata=None, clusters=None, propensities=None, ids=None) -> Frame:
    """Build a frame from parallel sequences, filling defaults."""
    ys = list(ys)
    return Frame(range(1, len(ys) + 1) if ids is None else list(ids), ys, xs, strata, clusters,
                 propensities)


_DTYPE = [("id", "i8"), ("y", "f8"), ("x", "f8"), ("stratum", "O"), ("cluster", "O"),
          ("propensity", "f8")]
# a blank y is missing
_CONVERTERS = {1: lambda cell: cell.strip() or "nan"}
# Rows per loadtxt call: each parsed row holds two label strings until its
# chunk is coded.  loadtxt allocates max_rows rows up front, so an input too
# short to hold more than one chunk of the shortest record ("1,,1,,,1\n") is
# parsed in a single call.
_CHUNK_ROWS = 1 << 13
_SHORTEST_RECORD = 9


def load_frame_csv(source) -> Frame:
    """Read a frame from a CSV path or a file object, from its current position."""
    if not hasattr(source, "read"):
        with open(source, newline="") as handle:
            return load_frame_csv(handle)
    try:
        start = source.tell()
    except OSError:  # a pipe; an error reads the rows again, so hold them
        source, start = io.StringIO(source.read(), newline=""), 0
    large = source.seek(0, io.SEEK_END) - start > _CHUNK_ROWS * _SHORTEST_RECORD
    source.seek(start)
    header = next(csv.reader(source), [])
    if [h.strip() for h in header] != CSV_HEADER:
        raise ValueError(f"frame CSV header must be {','.join(CSV_HEADER)!r}, got {header!r}")
    parts = {name: [] for name in CSV_HEADER}
    code_of = {"stratum": {}, "cluster": {}}  # raw label -> running code
    parsed, columns = 0, None
    try:
        with warnings.catch_warnings():
            # a header-only file fails in Frame, as a frame with no records
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # with max_rows, numpy says that a blank line is not counted as a row
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
            # numpy < 2 reads an id such as 2.5 as a float and truncates it, warning only
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            got = chunk = _CHUNK_ROWS if large else None
            while got == chunk:  # until a short chunk
                # numpy < 2 defaults to encoding="bytes", which hands the converters bytes
                rows = np.loadtxt(source, dtype=_DTYPE, delimiter=",", quotechar='"',
                                  comments=None, ndmin=1, converters=_CONVERTERS,
                                  encoding=None, max_rows=chunk)
                # a frame has few distinct labels: each is held once, by its running code
                for name, column in parts.items():
                    column.append(_code(rows[name].tolist(), code_of[name]) if name in code_of
                                  else rows[name].copy())
                got = len(rows)
                parsed += got
                del rows
        ids, y, x, strata, clusters, propensity = (_joined(parts[name]) for name in CSV_HEADER)
        columns = [ids, y, x, _named(code_of["stratum"], strata, str.strip),
                   _named(code_of["cluster"], clusters, str.strip), propensity]
        return Frame(*columns)
    except ValueError as err:
        fault = err
    # Only a fault reads the file again, to name its CSV record.  The header is
    # record 1, and a blank line is an empty record that numpy skips.
    source.seek(start)
    records = [(line, row) for line, row in enumerate(csv.reader(source), start=1) if row][1:]
    if columns is not None:  # a column check in Frame
        return Frame(*columns, lines=[line for line, _ in records])
    # numpy counts the rows of its call from 0 in a conversion error, from 1 in a
    # field-count error; the calls before it parsed the first ``parsed`` rows
    found = re.search(r"at row (\d+)(?:, column (\d+))?", str(fault))
    if found is None:
        raise fault
    line, fields = records[parsed + int(found[1]) - (found[2] is None)]
    if found[2] is None:
        raise ValueError(f"frame CSV line {line}: expected {len(CSV_HEADER)} fields")
    k = int(found[2]) - 1
    raise ValueError(f"frame CSV line {line}: cannot parse {CSV_HEADER[k]} {fields[k]!r}")


def dump_frame_csv(frame: Frame, target=None) -> str:
    """Write a frame as CSV; returns the text (and writes to path/file if given)."""
    return write_csv(CSV_HEADER, (
        [unit, "" if math.isnan(y) else repr(y), repr(x), stratum, cluster, repr(propensity)]
        for unit, y, x, stratum, cluster, propensity in zip(
            frame.ids, frame.y, frame.x, frame.stratum_labels, frame.cluster_labels,
            frame.propensity_array.tolist())), target)


def write_csv(header, rows, target=None) -> str:
    """The CSV text of a header and rows, written also to ``target`` (a path or
    an open file) when given."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if hasattr(target, "write"):
        target.write(text)
    elif target is not None:
        with open(target, "w", newline="") as handle:
            handle.write(text)
    return text
