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

__all__ = [
    "CurveKind", "GasExchangeRecord", "ResponseCurve", "Dataset",
    "load_csv", "classify_curve", "write_results", "write_dataset",
]

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

    Raises MissingColumn, ParseError (with the file line number: for a
    row with fewer cells than the header, for a blank, non-numeric or
    non-finite cell, and for a CurveID or FittingGroup that is not an
    integer in the int64 range) or EmptyCurve. Rows violating the
    sanity bounds (Ci <= 0, Qin < 0, Tleaf outside [-10, 60] C) are
    dropped with a warning. Curves come in the order of their first row
    in the file.

    Lines are read in chunks of CHUNK_ROWS. A chunk without a quote
    goes to numpy's C reader; a chunk that reader or a check rejects is
    split by csv.reader and converted again, cell by cell if need be, so
    an error names the same row and says the same thing either way. From
    the first chunk with a quote on, which may open a cell that spans
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


def _fmt(x) -> str:
    # repr of the Python float: shortest string that round-trips exactly
    return repr(float(x))


# Rows rendered per write: bounds the cell strings held at once.
WRITE_BLOCK_ROWS = 4096


def _write_columns(fh, columns) -> None:
    """Write equal-length 1-D arrays as CSV rows, WRITE_BLOCK_ROWS rows
    per fh.write: floats by repr, other values by str.

    These are the bytes csv.writer (QUOTE_MINIMAL) writes for the same
    rows: none of these cells holds a comma, quote or line break, so
    none is quoted, and every row ends in "\r\n".
    """
    n = columns[0].shape[0]
    for lo in range(0, n, WRITE_BLOCK_ROWS):
        cells = [map(repr if c.dtype.kind == "f" else str,
                     c[lo:lo + WRITE_BLOCK_ROWS].tolist()) for c in columns]
        fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_dataset(dataset: Dataset, path) -> None:
    """Write raw records back out in the input CSV schema."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("CurveID,FittingGroup,Ci,A,Qin,Tleaf\r\n")
            for curve in dataset.curves:
                ids = [np.full(curve.n_points, str(v))
                       for v in (curve.curve_id, curve.fitting_group)]
                _write_columns(fh, ids + [getattr(curve, name)
                                          for name in COLUMNS])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


CURVE_COLUMNS = ["curve_id", "fitting_group", "n_points", "vcmax25",
                 "jmax25", "tpu25", "rd25", "rmse", "r2", "tpu_stage"]
GROUP_COLUMNS = ["fitting_group", "n_curves", "alpha", "theta", "alpha_g",
                 "gm", "kc25", "ko25", "gamma25", "dha_vcmax", "dha_jmax",
                 "dha_tpu", "topt_vcmax", "topt_jmax", "topt_tpu"]
POINT_COLUMNS = ["curve_id", "ci", "a_measured", "a_predicted", "state"]


def _curve_rows(results) -> list[dict]:
    rows = []
    for res in results:
        p = res.params
        for i, cid in enumerate(p.curve_ids):
            e = p.entry_of[i]
            m = res.curve_metrics[cid]
            rows.append({
                "curve_id": cid,
                "fitting_group": p.group_ids[p.group_of[i]],
                "n_points": m.n_points,
                "vcmax25": float(p.vcmax25[e]),
                "jmax25": float(p.jmax25[e]),
                "tpu25": float(p.tpu25[e]),
                "rd25": float(p.rd25[e]),
                "rmse": float(m.rmse),
                "r2": float(m.r2),
                "tpu_stage": bool(res.tpu_stage[cid]),
            })
    rows.sort(key=lambda r: (r["fitting_group"], r["curve_id"]))
    return rows


def _group_rows(results) -> list[dict]:
    rows = []
    for res in results:
        p = res.params
        ag = p.alpha_g
        for gi, gid in enumerate(p.group_ids):
            n_curves = int(np.sum(p.group_of == gi))
            rows.append({
                "fitting_group": gid,
                "n_curves": n_curves,
                "alpha": float(p.alpha[gi]),
                "theta": float(p.theta[gi]),
                "alpha_g": float(ag[gi]),
                "gm": float(p.gm[gi]),
                "kc25": float(p.kc25[gi]),
                "ko25": float(p.ko25[gi]),
                "gamma25": float(p.gamma25[gi]),
                "dha_vcmax": float(p.dha_vcmax[gi]),
                "dha_jmax": float(p.dha_jmax[gi]),
                "dha_tpu": float(p.dha_tpu[gi]),
                "topt_vcmax": float(p.topt_vcmax[gi]),
                "topt_jmax": float(p.topt_jmax[gi]),
                "topt_tpu": float(p.topt_tpu[gi]),
            })
    rows.sort(key=lambda r: r["fitting_group"])
    return rows


def write_results(result, path, format: str = "csv", points: bool = False) -> None:
    """Serialize fit results.

    CSV writes the per-curve table at `path`, and sibling files with
    "_groups" (always) and "_points" (when points=True) inserted before
    the extension. JSON writes a single document. `result` may be a
    single FitResult or a sequence of them (one per fitting group).
    """
    results = [result] if hasattr(result, "params") else list(result)
    curve_rows = _curve_rows(results)
    group_rows = _group_rows(results)

    fmt = format.lower()
    path = str(path)
    try:
        if fmt == "json":
            doc = {"curves": curve_rows, "groups": group_rows}
            if points:
                doc["points"] = [
                    dict(zip(POINT_COLUMNS, row)) for res in results
                    for row in zip(*(res.points[name].tolist()
                                     for name in POINT_COLUMNS))]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        elif fmt == "csv":
            _write_table(path, CURVE_COLUMNS, curve_rows)
            _write_table(_sibling(path, "_groups"), GROUP_COLUMNS, group_rows)
            if points:
                _write_points(_sibling(path, "_points"), results)
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _sibling(path: str, suffix: str) -> str:
    dot = path.rfind(".")
    if dot <= path.replace("\\", "/").rfind("/"):
        return path + suffix
    return path[:dot] + suffix + path[dot:]


def _write_table(path: str, columns: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            out = []
            for c in columns:
                v = row[c]
                out.append(_fmt(v) if isinstance(v, float) else v)
            w.writerow(out)


def _write_points(path: str, results) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(POINT_COLUMNS) + "\r\n")
        for res in results:
            cols = [res.points[name] for name in POINT_COLUMNS]
            # each run of one curve id is rendered once, for all its rows
            cid = cols[0]
            starts = np.flatnonzero(np.diff(cid, prepend=cid[:1] - 1))
            text = np.array([str(v) for v in cid[starts].tolist()],
                            dtype=object)
            cols[0] = np.repeat(text, np.diff(starts, append=cid.shape[0]))
            _write_columns(fh, cols)
