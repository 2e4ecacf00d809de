"""Reading, validating and writing gas-exchange data and fit results.

Input format: CSV with a header row containing at least CurveID,
FittingGroup, Ci and A (exact names, surrounding whitespace ignored).
Qin and Tleaf are optional; absent columns are filled with 2000
umol m-2 s-1 and 25 C. Extra columns are ignored. Tleaf is Celsius.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .constants import DEFAULT_QIN, DEFAULT_TLEAF_C
from .errors import EmptyCurve, IoError, MissingColumn, ParseError

REQUIRED_COLUMNS = ("CurveID", "FittingGroup", "Ci", "A")
OPTIONAL_COLUMNS = ("Qin", "Tleaf")


class CurveKind(enum.Enum):
    CO2Response = "co2"
    LightResponse = "light"


@dataclass(frozen=True)
class GasExchangeRecord:
    """One measurement point of a response curve."""

    curve_id: int
    fitting_group: int
    ci: float        # umol mol-1
    a: float         # umol m-2 s-1
    qin: float       # umol m-2 s-1
    tleaf_c: float   # Celsius


# The float64 columns of a curve, in GasExchangeRecord field order.
COLUMNS = ("ci", "a", "qin", "tleaf_c")


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    """All points of one curve, in file order, stored as columns.

    ci, a, qin and tleaf_c are read-only float64 arrays of one length
    (units as in GasExchangeRecord). A writeable array passed in is
    copied, so a curve cannot change after it is built.
    """

    curve_id: int
    fitting_group: int
    ci: np.ndarray
    a: np.ndarray
    qin: np.ndarray
    tleaf_c: np.ndarray
    kind: CurveKind

    def __post_init__(self):
        n = None
        for name in COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            if arr.ndim != 1 or (n is not None and arr.shape[0] != n):
                raise ValueError(f"column {name!r} has shape {arr.shape}; "
                                 f"the columns must be 1-D of one length")
            n = arr.shape[0]
            object.__setattr__(self, name, arr)

    @classmethod
    def from_records(cls, curve_id: int, fitting_group: int, records,
                     kind: CurveKind) -> "ResponseCurve":
        """A curve whose columns are read from GasExchangeRecords."""
        cols = {name: [getattr(r, name) for r in records] for name in COLUMNS}
        return cls(curve_id=curve_id, fitting_group=fitting_group, kind=kind,
                   **cols)

    @property
    def n_points(self) -> int:
        return self.ci.shape[0]

    @property
    def records(self) -> tuple:
        """The points as GasExchangeRecords, built from the columns."""
        cid, grp = self.curve_id, self.fitting_group
        return tuple(GasExchangeRecord(cid, grp, *row) for row in zip(
            *(getattr(self, name).tolist() for name in COLUMNS)))

    def take(self, idx) -> "ResponseCurve":
        """The curve restricted to, or reordered by, row indices idx."""
        return replace(self, **{name: getattr(self, name)[idx]
                                for name in COLUMNS})


@dataclass(frozen=True)
class Dataset:
    """Curves plus the partition into fitting groups."""

    curves: tuple
    groups: dict

    @property
    def n_points(self) -> int:
        return sum(c.n_points for c in self.curves)

    def curve(self, curve_id: int) -> ResponseCurve:
        for c in self.curves:
            if c.curve_id == curve_id:
                return c
        raise KeyError(curve_id)

    @property
    def light_only(self) -> bool:
        return all(c.kind is CurveKind.LightResponse for c in self.curves)


def classify_curve(curve: ResponseCurve) -> CurveKind:
    """Light-response detection.

    A curve is a light-response measurement when Qin spans more than
    100 umol m-2 s-1 while Ci stays within 15% of its mean; anything
    else is treated as a CO2 response. An explicit override at load
    time wins over this rule.
    """
    return _classify(curve.ci, curve.qin)


def _classify(ci, qin) -> CurveKind:
    """classify_curve on a curve's Ci and Qin columns."""
    qin_range = float(qin.max() - qin.min())
    ci_range = float(ci.max() - ci.min())
    if qin_range > 100.0 and ci_range < 0.15 * float(ci.mean()):
        return CurveKind.LightResponse
    return CurveKind.CO2Response


def _parse_float(cell: str, column: str, line: int) -> float:
    cell = cell.strip()
    if not cell:
        raise ParseError(f"blank {column} cell", row=line)
    try:
        val = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {column} value {cell!r}", row=line) from None
    if not math.isfinite(val):
        raise ParseError(f"non-finite {column} value {cell!r}", row=line)
    return val


# CurveID and FittingGroup are stored as int64.
_INT64_BOUND = 2 ** 63


def _parse_int(cell: str, column: str, line: int) -> int:
    val = _parse_float(cell, column, line)
    if val != int(val):
        raise ParseError(f"{column} must be an integer, got {cell!r}", row=line)
    if not -_INT64_BOUND <= int(val) < _INT64_BOUND:
        raise ParseError(f"{column} must fit in 64 bits, got {cell!r}",
                         row=line)
    return int(val)


# Rows parsed at a time: bounds the cell strings held in memory at once.
CHUNK_ROWS = 8192


def _checked(cols):
    """cols, or None when a value is not finite or a CurveID or
    FittingGroup (the first two columns) is not a whole number in the
    int64 range."""
    if not all(np.isfinite(c).all() for c in cols):
        return None
    if not all(((np.trunc(c) == c) & (c >= -_INT64_BOUND)
                & (c < _INT64_BOUND)).all() for c in cols[:2]):
        return None
    return cols


def _columns_text(lines, picks, n_cols):
    """The picked columns of a chunk of raw, quote-free lines, parsed by
    numpy's C reader, blank lines skipped.

    Returns None when a line needs the csv path: a ragged, short or
    whitespace-only line, a cell numpy does not read as a float (a blank
    one included), a non-finite value, or a CurveID or FittingGroup
    that is not a whole number in the int64 range. numpy reads every
    cell it accepts to the same float as float() does.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # comments=None: the default "#" would cut a cell short
            table = np.loadtxt(lines, delimiter=",", comments=None,
                               dtype=np.float64, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape[1] < n_cols:
        return None
    return _checked([table[:, i].copy() for i in picks])


def _columns_fast(rows, picks, n_cols):
    """The picked columns of a chunk of csv rows as float64 arrays, blank
    lines skipped.

    Returns None when a row needs the per-cell path: a short or
    whitespace-only row, a cell float() rejects, a non-finite value, or
    a CurveID or FittingGroup (the first two picks) that is not a whole
    number in the int64 range.
    """
    if not all(rows):
        rows = [r for r in rows if r]
    if not rows:
        return [np.empty(0) for _ in picks]
    if min(map(len, rows)) < n_cols:
        return None
    n = len(rows)
    try:
        cols = [np.fromiter(map(float, cells), np.float64, count=n)
                for cells in zip(*map(itemgetter(*picks), rows))]
    except ValueError:
        return None
    return _checked(cols)


def _columns_per_cell(rows, first_line, picks, names, n_cols, group_of):
    """_columns_fast row by row: raises ParseError naming the first bad
    row, checking each curve's group as it goes."""
    out = [[] for _ in picks]
    for line_no, row in enumerate(rows, start=first_line):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < n_cols:
            raise ParseError(f"row has {len(row)} cells, the header "
                             f"has {n_cols} columns", row=line_no)
        cid = _parse_int(row[picks[0]], names[0], line_no)
        grp = _parse_int(row[picks[1]], names[1], line_no)
        vals = [cid, grp] + [_parse_float(row[i], name, line_no)
                             for i, name in zip(picks[2:], names[2:])]
        if cid in group_of and group_of[cid] != grp:
            raise ParseError(
                f"curve {cid} listed in groups {group_of[cid]} and {grp}",
                row=line_no)
        group_of[cid] = grp
        for dst, v in zip(out, vals):
            dst.append(v)
    return [np.array(v, dtype=np.float64) for v in out]


def _merge_groups(cid, grp, group_of) -> bool:
    """Record each curve's group; False, with group_of untouched, when a
    curve meets a second group in this chunk or an earlier one."""
    u, first, inv = np.unique(cid, return_index=True, return_inverse=True)
    g0 = grp[first]
    if np.any(grp != g0[inv]):
        return False
    pairs = [(int(c), int(g)) for c, g in zip(u.tolist(), g0.tolist())]
    if any(group_of.get(c, g) != g for c, g in pairs):
        return False
    group_of.update(pairs)
    return True


def _csv_columns(rows, first_line, picks, names, n_cols, group_of):
    """The picked columns of a chunk of csv rows: column-wise when every
    row is good, else cell by cell (which raises on the first bad row)."""
    cols = _columns_fast(rows, picks, n_cols)
    if cols is None or not _merge_groups(cols[0], cols[1], group_of):
        cols = _columns_per_cell(rows, first_line, picks, names, n_cols,
                                 group_of)
    return cols


def load_csv(path, kind_overrides: dict | None = None) -> Dataset:
    """Parse a Table-style CSV into a Dataset.

    kind_overrides maps curve id -> CurveKind (or "co2"/"light") and
    replaces automatic classification for those curves.

    Raises MissingColumn, ParseError (naming the file line of a row with
    fewer cells than the header, of a blank, non-numeric or non-finite
    cell, or of a CurveID or FittingGroup that is not an int64 integer)
    or EmptyCurve. Rows outside the sanity bounds (Ci <= 0, Qin < 0,
    Tleaf outside [-10, 60] C) are dropped with a warning. Curves come in
    the order of their first row.

    Lines are read CHUNK_ROWS at a time. A chunk without a quote goes to
    numpy's C reader; one that it or a check rejects goes through
    csv.reader, cell by cell if need be, so an error reads the same
    either way. From the first chunk with a quote on, as a cell may span
    lines, the rest of the file is read as csv rows.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file")
        reader = csv.reader(chain([first], fh)) if '"' in first else None
        header = next(reader or csv.reader([first]))
        names = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(names)}
        for name in REQUIRED_COLUMNS:
            if name not in col:
                raise MissingColumn(f"required column {name!r} not in header")
        picked = REQUIRED_COLUMNS + tuple(n for n in OPTIONAL_COLUMNS
                                          if n in col)
        picks = [col[name] for name in picked]
        n_cols = len(names)

        chunks = []
        group_of: dict[int, int] = {}
        line = 2  # file row of the chunk's first line
        while True:
            if reader is None:
                lines = list(islice(fh, CHUNK_ROWS))
                if not lines:
                    break
                if '"' in "".join(lines):
                    reader = csv.reader(chain(lines, fh))
                    continue
                rows = lines  # one csv row per line without quotes
                cols = _columns_text(lines, picks, n_cols)
                if cols is None or not _merge_groups(cols[0], cols[1],
                                                     group_of):
                    cols = _csv_columns(list(csv.reader(lines)), line, picks,
                                        picked, n_cols, group_of)
            else:
                rows = list(islice(reader, CHUNK_ROWS))
                if not rows:
                    break
                cols = _csv_columns(rows, line, picks, picked, n_cols,
                                    group_of)
            chunks.append(cols)
            line += len(rows)

    if not group_of:
        raise EmptyCurve("file contains no data rows")
    table = dict(zip(picked, map(np.concatenate, zip(*chunks))))
    del chunks
    n_rows = table["CurveID"].shape[0]
    ci, a = table["Ci"], table["A"]
    qin = table.get("Qin", np.full(n_rows, DEFAULT_QIN))
    tleaf = table.get("Tleaf", np.full(n_rows, DEFAULT_TLEAF_C))

    # curve index of every row, curves in order of first appearance
    u, first, inv = np.unique(table["CurveID"], return_index=True,
                              return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.shape[0])
    row_curve = rank[inv]
    ids = [int(c) for c in u[by_first].tolist()]

    # sanity filter: drop rows a gas-exchange system cannot produce
    ok = (ci > 0.0) & (qin >= 0.0) & (tleaf >= -10.0) & (tleaf <= 60.0)
    n_dropped = np.bincount(row_curve[~ok], minlength=len(ids))
    if n_dropped.any():
        detail = ", ".join(f"curve {c}: {n}" for c, n in
                           sorted(zip(ids, n_dropped.tolist())) if n)
        warnings.warn(f"dropped out-of-range rows ({detail})", stacklevel=2)

    overrides = {}
    for cid, kind in (kind_overrides or {}).items():
        overrides[int(cid)] = kind if isinstance(kind, CurveKind) \
            else CurveKind(str(kind).lower())

    kept_curve = row_curve[ok]
    n_kept = np.bincount(kept_curve, minlength=len(ids))
    for cid, n in zip(ids, n_kept.tolist()):
        if not n:
            raise EmptyCurve(f"curve {cid} has no valid rows")
    # kept rows grouped by curve, in file order within each curve
    keep = np.flatnonzero(ok)[np.argsort(kept_curve, kind="stable")]
    columns = []
    for arr in (ci, a, qin, tleaf):
        arr = arr[keep]
        arr.setflags(write=False)
        columns.append(arr)
    ends = np.cumsum(n_kept).tolist()
    curves = []
    for cid, lo, hi in zip(ids, [0] + ends, ends):
        cols = [c[lo:hi] for c in columns]
        kind = overrides.get(cid) or _classify(cols[0], cols[2])
        curves.append(ResponseCurve(cid, group_of[cid], *cols, kind=kind))

    groups: dict[int, list[int]] = {}
    for c in curves:
        groups.setdefault(c.fitting_group, []).append(c.curve_id)
    for cids in groups.values():
        cids.sort()
    return Dataset(curves=tuple(curves), groups=dict(sorted(groups.items())))


# Rows rendered per write: bounds the cell strings held at once.
WRITE_BLOCK_ROWS = 4096


def _write_csv(path, header, tables) -> None:
    """Write a CSV file: the header line, then the rows of each table in
    turn. A table is a dict of equal-length 1-D columns keyed by the
    header's names; WRITE_BLOCK_ROWS rows go per fh.write, floats by repr
    (the shortest string that round-trips) and other values by str.

    These are the bytes csv.writer (QUOTE_MINIMAL) writes for the same
    rows: none of these cells holds a comma, quote or line break, so
    none is quoted, and every row ends in "\r\n".
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for table in tables:
            columns = [np.asarray(table[name]) for name in header]
            for lo in range(0, columns[0].shape[0], WRITE_BLOCK_ROWS):
                cells = [map(repr if c.dtype.kind == "f" else str,
                             c[lo:lo + WRITE_BLOCK_ROWS].tolist())
                         for c in columns]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _rows(table) -> list[dict]:
    """A table's rows as dicts of Python values, in column order."""
    return [dict(zip(table, row))
            for row in zip(*(np.asarray(c).tolist() for c in table.values()))]


def write_dataset(dataset: Dataset, path) -> None:
    """Write raw records back out in the input CSV schema, one table per
    curve."""
    header = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    tables = (dict(zip(header, [np.full(c.n_points, str(c.curve_id)),
                                np.full(c.n_points, str(c.fitting_group)),
                                *(getattr(c, name) for name in COLUMNS)]))
              for c in dataset.curves)
    try:
        _write_csv(path, header, tables)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


CURVE_COLUMNS = ["curve_id", "fitting_group", "n_points", "vcmax25",
                 "jmax25", "tpu25", "rd25", "rmse", "r2", "tpu_stage"]
GROUP_COLUMNS = ["fitting_group", "n_curves", "alpha", "theta", "alpha_g",
                 "gm", "kc25", "ko25", "gamma25", "dha_vcmax", "dha_jmax",
                 "dha_tpu", "topt_vcmax", "topt_jmax", "topt_tpu"]
POINT_COLUMNS = ["curve_id", "ci", "a_measured", "a_predicted", "state"]


def _tables(results) -> tuple:
    """The curve and group tables of fit results, rows sorted by (group,
    curve) and by group."""
    curves, groups = [], []
    for res in results:
        p = res.params
        m = [res.curve_metrics[cid] for cid in p.curve_ids]
        col = {"curve_id": p.curve_ids,
               "fitting_group": np.asarray(p.group_ids)[p.group_of],
               "n_points": [x.n_points for x in m],
               "rmse": [x.rmse for x in m], "r2": [x.r2 for x in m],
               "tpu_stage": [res.tpu_stage[cid] for cid in p.curve_ids]}
        curves.append([col[name] if name in col
                       else getattr(p, name)[p.entry_of]
                       for name in CURVE_COLUMNS])
        n_curves = np.bincount(p.group_of, minlength=p.n_groups)
        groups.append([p.group_ids, n_curves]
                      + [getattr(p, name) for name in GROUP_COLUMNS[2:]])
    if not results:  # header-only tables
        curves = [[[]] * len(CURVE_COLUMNS)]
        groups = [[[]] * len(GROUP_COLUMNS)]
    curves = dict(zip(CURVE_COLUMNS, map(np.concatenate, zip(*curves))))
    groups = dict(zip(GROUP_COLUMNS, map(np.concatenate, zip(*groups))))
    by_curve = np.lexsort((curves["curve_id"], curves["fitting_group"]))
    by_group = np.argsort(groups["fitting_group"], kind="stable")
    return ({k: c[by_curve] for k, c in curves.items()},
            {k: c[by_group] for k, c in groups.items()})


def _point_table(res) -> dict:
    """A result's points table for CSV, each run of one curve id rendered
    once, for all its rows."""
    table = {name: res.points[name] for name in POINT_COLUMNS}
    cid = table["curve_id"]
    starts = np.flatnonzero(np.diff(cid, prepend=cid[:1] - 1))
    text = np.array([str(v) for v in cid[starts].tolist()], dtype=object)
    table["curve_id"] = np.repeat(text, np.diff(starts, append=cid.shape[0]))
    return table


def write_results(result, path, format: str = "csv", points: bool = False) -> None:
    """Serialize fit results.

    CSV writes the per-curve table at `path`, and sibling files with
    "_groups" (always) and "_points" (when points=True) inserted before
    the extension. JSON writes a single document. `result` may be a
    single FitResult or a sequence of them (one per fitting group).
    """
    results = [result] if hasattr(result, "params") else list(result)
    curves, groups = _tables(results)

    fmt = format.lower()
    path = str(path)
    try:
        if fmt == "json":
            doc = {"curves": _rows(curves), "groups": _rows(groups)}
            if points:
                doc["points"] = [row for res in results for row in _rows(
                    {name: res.points[name] for name in POINT_COLUMNS})]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        elif fmt == "csv":
            _write_csv(path, CURVE_COLUMNS, [curves])
            _write_csv(_sibling(path, "_groups"), GROUP_COLUMNS, [groups])
            if points:
                _write_csv(_sibling(path, "_points"), POINT_COLUMNS,
                           map(_point_table, results))
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _sibling(path: str, suffix: str) -> str:
    dot = path.rfind(".")
    if dot <= path.replace("\\", "/").rfind("/"):
        return path + suffix
    return path[:dot] + suffix + path[dot:]
