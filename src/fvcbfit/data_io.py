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


@dataclass(frozen=True)
class ResponseCurve:
    """All points of one curve, in file order."""

    curve_id: int
    fitting_group: int
    records: tuple
    kind: CurveKind

    @property
    def n_points(self) -> int:
        return len(self.records)

    @property
    def tleaf_k_mean(self) -> float:
        return float(np.mean([r.tleaf_c for r in self.records])) + 273.15

    def array(self, field: str) -> np.ndarray:
        return np.array([getattr(r, field) for r in self.records],
                        dtype=np.float64)


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
    qin = curve.array("qin")
    ci = curve.array("ci")
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


def _parse_int(cell: str, column: str, line: int) -> int:
    val = _parse_float(cell, column, line)
    if val != int(val):
        raise ParseError(f"{column} must be an integer, got {cell!r}", row=line)
    return int(val)


def load_csv(path, kind_overrides: dict | None = None) -> Dataset:
    """Parse a Table-style CSV into a Dataset.

    kind_overrides maps curve id -> CurveKind (or "co2"/"light") and
    replaces automatic classification for those curves.

    Raises MissingColumn, ParseError (with the file line number: for a
    row with fewer cells than the header, and for a blank, non-numeric
    or non-finite cell) or EmptyCurve. Rows violating the sanity bounds
    (Ci <= 0, Qin < 0, Tleaf outside [-10, 60] C) are dropped with a
    warning.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        names = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(names)}
        for name in REQUIRED_COLUMNS:
            if name not in col:
                raise MissingColumn(f"required column {name!r} not in header")
        has_qin = "Qin" in col
        has_tleaf = "Tleaf" in col

        rows_by_curve: dict[int, list[GasExchangeRecord]] = {}
        group_of: dict[int, int] = {}
        dropped: dict[int, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(names):
                raise ParseError(f"row has {len(row)} cells, the header "
                                 f"has {len(names)} columns", row=line_no)
            cid = _parse_int(row[col["CurveID"]], "CurveID", line_no)
            grp = _parse_int(row[col["FittingGroup"]], "FittingGroup", line_no)
            ci = _parse_float(row[col["Ci"]], "Ci", line_no)
            a = _parse_float(row[col["A"]], "A", line_no)
            qin = (_parse_float(row[col["Qin"]], "Qin", line_no)
                   if has_qin else DEFAULT_QIN)
            tleaf = (_parse_float(row[col["Tleaf"]], "Tleaf", line_no)
                     if has_tleaf else DEFAULT_TLEAF_C)
            if cid in group_of and group_of[cid] != grp:
                raise ParseError(
                    f"curve {cid} listed in groups {group_of[cid]} and {grp}",
                    row=line_no)
            group_of[cid] = grp
            rows_by_curve.setdefault(cid, [])
            # sanity filter: drop rows a gas-exchange system cannot produce
            if ci <= 0.0 or qin < 0.0 or not (-10.0 <= tleaf <= 60.0):
                dropped[cid] = dropped.get(cid, 0) + 1
                continue
            rows_by_curve[cid].append(GasExchangeRecord(
                curve_id=cid, fitting_group=grp, ci=ci, a=a,
                qin=qin, tleaf_c=tleaf))

    if dropped:
        detail = ", ".join(f"curve {c}: {n}" for c, n in sorted(dropped.items()))
        warnings.warn(f"dropped out-of-range rows ({detail})", stacklevel=2)
    if not rows_by_curve:
        raise EmptyCurve("file contains no data rows")

    overrides = {}
    for cid, kind in (kind_overrides or {}).items():
        overrides[int(cid)] = kind if isinstance(kind, CurveKind) \
            else CurveKind(str(kind).lower())

    curves = []
    for cid in rows_by_curve:  # insertion order = file order
        recs = tuple(rows_by_curve[cid])
        if not recs:
            raise EmptyCurve(f"curve {cid} has no valid rows")
        curve = ResponseCurve(curve_id=cid, fitting_group=group_of[cid],
                              records=recs, kind=CurveKind.CO2Response)
        kind = overrides.get(cid, classify_curve(curve))
        curves.append(replace(curve, kind=kind))

    groups: dict[int, list[int]] = {}
    for c in curves:
        groups.setdefault(c.fitting_group, []).append(c.curve_id)
    for cids in groups.values():
        cids.sort()
    return Dataset(curves=tuple(curves), groups=dict(sorted(groups.items())))


def _fmt(x) -> str:
    # repr of the Python float: shortest string that round-trips exactly
    return repr(float(x))


def write_dataset(dataset: Dataset, path) -> None:
    """Write raw records back out in the input CSV schema."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["CurveID", "FittingGroup", "Ci", "A", "Qin", "Tleaf"])
            for curve in dataset.curves:
                for r in curve.records:
                    w.writerow([r.curve_id, r.fitting_group, _fmt(r.ci),
                                _fmt(r.a), _fmt(r.qin), _fmt(r.tleaf_c)])
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


def _point_rows(results) -> list[dict]:
    rows = []
    for res in results:
        for pred in res.predictions:
            rows.append({
                "curve_id": pred.curve_id,
                "ci": float(pred.ci),
                "a_measured": float(pred.a_measured),
                "a_predicted": float(pred.a_predicted),
                "state": pred.state,
            })
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
    point_rows = _point_rows(results) if points else None

    fmt = format.lower()
    path = str(path)
    try:
        if fmt == "json":
            doc = {"curves": curve_rows, "groups": group_rows}
            if point_rows is not None:
                doc["points"] = point_rows
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        elif fmt == "csv":
            _write_table(path, CURVE_COLUMNS, curve_rows)
            _write_table(_sibling(path, "_groups"), GROUP_COLUMNS, group_rows)
            if point_rows is not None:
                _write_table(_sibling(path, "_points"), POINT_COLUMNS, point_rows)
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
