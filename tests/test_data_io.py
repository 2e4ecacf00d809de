"""CSV input/output: parsing, defaults, validation errors, automatic
curve classification, and result serialization."""

import csv
import io
import json
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fvcbfit import data_io
from fvcbfit.data_io import (
    CurveKind, Dataset, GasExchangeRecord, ResponseCurve,
    classify_curve, load_csv, write_dataset, write_results,
)
from fvcbfit.errors import EmptyCurve, IoError, MissingColumn, ParseError


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


FULL = """CurveID,FittingGroup,Ci,A,Qin,Tleaf
1,1,200,10.5,2000,25
1,1,400,20.25,2000,25
1,1,800,27.125,2000,25
2,1,200,9.0,2000,35
2,1,400,18.0,2000,35
2,1,800,24.0,2000,35
"""


def test_load_two_curves_one_group(tmp_path):
    ds = load_csv(write_text(tmp_path / "in.csv", FULL))
    assert len(ds.curves) == 2
    assert ds.groups == {1: [1, 2]}
    c1 = ds.curves[0]
    assert c1.curve_id == 1 and c1.fitting_group == 1
    assert [r.ci for r in c1.records] == [200.0, 400.0, 800.0]
    assert [r.a for r in c1.records] == [10.5, 20.25, 27.125]
    assert c1.records[0].tleaf_c == 25.0


def test_missing_optional_columns_fill_defaults(tmp_path):
    text = "CurveID,FittingGroup,Ci,A\n7,0,300,11\n7,0,600,19\n"
    ds = load_csv(write_text(tmp_path / "ci_a.csv", text))
    r = ds.curves[0].records[0]
    assert r.qin == 2000.0 and r.tleaf_c == 25.0


def test_extra_columns_are_ignored(tmp_path):
    text = ("CurveID,FittingGroup,Ci,A,gsw,Comment\n"
            "1,0,300,11,0.2,ok\n1,0,600,19,0.3,ok\n")
    ds = load_csv(write_text(tmp_path / "extra.csv", text))
    assert ds.curves[0].n_points == 2


def test_missing_required_column_raises(tmp_path):
    text = "CurveID,FittingGroup,Ci\n1,0,300\n"
    with pytest.raises(MissingColumn, match="'A'"):
        load_csv(write_text(tmp_path / "noa.csv", text))


def test_non_numeric_cell_reports_row_number(tmp_path):
    text = "CurveID,FittingGroup,Ci,A\n1,0,300,11\n1,0,oops,19\n"
    with pytest.raises(ParseError, match="row 3"):
        load_csv(write_text(tmp_path / "bad.csv", text))


def test_blank_cell_in_present_column_raises(tmp_path):
    text = "CurveID,FittingGroup,Ci,A,Qin,Tleaf\n1,0,300,11,,25\n"
    with pytest.raises(ParseError, match="Qin"):
        load_csv(write_text(tmp_path / "blank.csv", text))


def test_out_of_range_rows_dropped_with_warning(tmp_path):
    text = ("CurveID,FittingGroup,Ci,A,Qin,Tleaf\n"
            "1,0,-5,1,2000,25\n"      # Ci <= 0
            "1,0,300,11,2000,25\n"
            "1,0,400,14,2000,99\n"    # Tleaf out of range
            "1,0,500,16,2000,25\n")
    with pytest.warns(UserWarning, match="dropped"):
        ds = load_csv(write_text(tmp_path / "ranges.csv", text))
    assert [r.ci for r in ds.curves[0].records] == [300.0, 500.0]


def test_curve_with_no_valid_rows_raises(tmp_path):
    text = "CurveID,FittingGroup,Ci,A\n1,0,-5,1\n1,0,-6,2\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(EmptyCurve):
            load_csv(write_text(tmp_path / "allbad.csv", text))


def test_empty_and_header_only_files(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write_text(tmp_path / "empty.csv", ""))
    with pytest.raises(EmptyCurve):
        load_csv(write_text(tmp_path / "header.csv", "CurveID,FittingGroup,Ci,A\n"))


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError, match="no_such"):
        load_csv(str(tmp_path / "no_such.csv"))


def test_curve_in_two_groups_rejected(tmp_path):
    text = "CurveID,FittingGroup,Ci,A\n1,0,300,11\n1,1,400,14\n"
    with pytest.raises(ParseError, match="groups"):
        load_csv(write_text(tmp_path / "twogroups.csv", text))


# --- parser behaviour, also across chunk boundaries ---------------------

@pytest.fixture(params=[None, 1, 2, 3])
def chunk_rows(request, monkeypatch):
    """Run a test with the default chunk size and with tiny ones, so
    rows of one curve, blank lines and bad rows fall across chunks."""
    if request.param is not None:
        monkeypatch.setattr(data_io, "CHUNK_ROWS", request.param)
    return request.param


HEADER = "CurveID,FittingGroup,Ci,A\n"


def test_blank_lines_keep_line_numbers_exact(tmp_path, chunk_rows):
    text = HEADER + "1,0,300,11\n\n1,0,400,14\n \n,,,\n1,0,bad,19\n"
    with pytest.raises(ParseError,
                       match=r"^row 7: non-numeric Ci value 'bad'$"):
        load_csv(write_text(tmp_path / "blank_lines.csv", text))
    ok = HEADER + "1,0,300,11\n\n1,0,400,14\n \n,,,\n1,0,500,19\n"
    ds = load_csv(write_text(tmp_path / "blank_ok.csv", ok))
    assert [r.ci for r in ds.curves[0].records] == [300.0, 400.0, 500.0]


def test_interleaved_curves_keep_their_rows_in_file_order(tmp_path,
                                                           chunk_rows):
    text = HEADER + "2,0,100,1\n1,0,300,3\n2,0,200,2\n1,0,400,4\n2,0,50,5\n"
    ds = load_csv(write_text(tmp_path / "interleaved.csv", text))
    assert [c.curve_id for c in ds.curves] == [2, 1]
    assert [r.ci for r in ds.curves[0].records] == [100.0, 200.0, 50.0]
    assert [r.a for r in ds.curves[0].records] == [1.0, 2.0, 5.0]
    assert [r.ci for r in ds.curves[1].records] == [300.0, 400.0]
    assert ds.groups == {0: [1, 2]}


def test_curve_order_is_first_appearance(tmp_path, chunk_rows):
    text = HEADER + "5,0,100,1\n2,0,-1,2\n9,0,300,3\n2,0,200,4\n"
    with pytest.warns(UserWarning, match=r"\(curve 2: 1\)"):
        ds = load_csv(write_text(tmp_path / "order.csv", text))
    assert [c.curve_id for c in ds.curves] == [5, 2, 9]
    # every row of curves 7 and 3 is out of range: 7 comes first
    bad = HEADER + "5,0,100,1\n7,0,-1,2\n3,0,-2,3\n7,0,0,4\n"
    with pytest.warns(UserWarning, match=r"curve 3: 1, curve 7: 2"):
        with pytest.raises(EmptyCurve, match="curve 7 has no valid rows"):
            load_csv(write_text(tmp_path / "empty_curve.csv", bad))


def test_group_conflict_on_a_dropped_row_still_raises(tmp_path, chunk_rows):
    text = HEADER + "1,0,300,11\n1,1,-5,14\n1,0,400,12\n"
    with pytest.raises(ParseError,
                       match=r"^row 3: curve 1 listed in groups 0 and 1$"):
        load_csv(write_text(tmp_path / "conflict.csv", text))


def test_whole_float_curve_id_is_accepted(tmp_path, chunk_rows):
    text = HEADER + "3.0,1.0,300,11\n3,1,400,14\n"
    ds = load_csv(write_text(tmp_path / "float_id.csv", text))
    assert [c.curve_id for c in ds.curves] == [3]
    assert type(ds.curves[0].curve_id) is int
    assert ds.groups == {1: [3]}
    fractional = r"^row 3: CurveID must be an integer, got '3.5'$"
    with pytest.raises(ParseError, match=fractional):
        load_csv(write_text(tmp_path / "frac_id.csv",
                            HEADER + "3,1,300,11\n3.5,1,400,14\n"))


def test_cells_with_surrounding_spaces_parse(tmp_path, chunk_rows):
    text = (" CurveID , FittingGroup ,Ci, A ,Qin,Tleaf\n"
            " 4 , 0 , 300.5 , 11.25 ,\t2000 , 25 \n4,0,400,12,2000,25\n")
    ds = load_csv(write_text(tmp_path / "spaces.csv", text))
    r = ds.curves[0].records[0]
    assert (r.curve_id, r.ci, r.a, r.qin, r.tleaf_c) == \
           (4, 300.5, 11.25, 2000.0, 25.0)


def test_curve_columns_are_read_only_float64(tmp_path):
    ds = load_csv(write_text(tmp_path / "in.csv", FULL))
    c = ds.curves[0]
    for name in ("ci", "a", "qin", "tleaf_c"):
        col = getattr(c, name)
        assert col.dtype == np.float64 and not col.flags.writeable
    with pytest.raises(ValueError):
        c.a[0] = 0.0
    ci = np.array([1.0, 2.0])
    built = ResponseCurve(curve_id=0, fitting_group=0, ci=ci, a=ci, qin=ci,
                          tleaf_c=ci, kind=CurveKind.CO2Response)
    ci[0] = 9.0  # the curve holds its own copy
    assert built.ci.tolist() == [1.0, 2.0]


def make_curve(ci, qin, cid=0):
    recs = tuple(GasExchangeRecord(curve_id=cid, fitting_group=0, ci=c,
                                   a=1.0, qin=q, tleaf_c=25.0)
                 for c, q in zip(ci, qin))
    return ResponseCurve.from_records(curve_id=cid, fitting_group=0,
                                      records=recs, kind=CurveKind.CO2Response)


def test_classification_light_protocol():
    # light staircase at near-constant Ci
    ci = 280.0 + np.array([8.0, -6.0, 4.0, -9.0, 2.0, 7.0])
    qin = np.array([0.0, 150.0, 400.0, 800.0, 1200.0, 2000.0])
    assert classify_curve(make_curve(ci, qin)) is CurveKind.LightResponse


def test_classification_co2_ramp():
    ci = np.linspace(200.0, 1800.0, 6)
    qin = np.full(6, 2000.0)
    assert classify_curve(make_curve(ci, qin)) is CurveKind.CO2Response


def test_classification_everything_constant_is_co2():
    ci = np.full(6, 400.0)
    qin = np.full(6, 2000.0)
    assert classify_curve(make_curve(ci, qin)) is CurveKind.CO2Response


def test_classification_override_wins(tmp_path):
    rows = "\n".join(f"3,0,{280 + (i % 3)},{5 + i},{q},25"
                     for i, q in enumerate([0, 150, 400, 800, 1200, 2000]))
    text = "CurveID,FittingGroup,Ci,A,Qin,Tleaf\n" + rows + "\n"
    path = write_text(tmp_path / "ovr.csv", text)
    assert load_csv(path).curves[0].kind is CurveKind.LightResponse
    ds = load_csv(path, kind_overrides={3: "co2"})
    assert ds.curves[0].kind is CurveKind.CO2Response


def test_dataset_roundtrip_is_exact(tmp_path):
    ds = load_csv(write_text(tmp_path / "in.csv", FULL))
    out = tmp_path / "out.csv"
    write_dataset(ds, str(out))
    ds2 = load_csv(str(out))
    for c1, c2 in zip(ds.curves, ds2.curves):
        assert c1.curve_id == c2.curve_id
        for r1, r2 in zip(c1.records, c2.records):
            assert (r1.ci, r1.a, r1.qin, r1.tleaf_c) == \
                   (r2.ci, r2.a, r2.qin, r2.tleaf_c)
    # a second write must be byte-identical
    out2 = tmp_path / "out2.csv"
    write_dataset(ds, str(out2))
    assert out.read_bytes() == out2.read_bytes()


@pytest.fixture(scope="module")
def small_fit():
    from fvcbfit import ParameterState, fit, generate_dataset
    from fvcbfit.params import FitConfig
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2, seed=3)
    return fit(ds, FitConfig(max_iter=5))


def test_write_results_csv_tables(small_fit, tmp_path):
    out = tmp_path / "res.csv"
    write_results(small_fit, str(out), points=True)
    header = out.read_text().splitlines()[0].split(",")
    for name in ("curve_id", "fitting_group", "vcmax25", "jmax25", "tpu25",
                 "rd25", "rmse", "r2", "tpu_stage"):
        assert name in header
    groups = tmp_path / "res_groups.csv"
    assert groups.exists()
    gheader = groups.read_text().splitlines()[0].split(",")
    for name in ("fitting_group", "alpha", "theta", "alpha_g", "gm",
                 "kc25", "ko25", "gamma25"):
        assert name in gheader
    pts = tmp_path / "res_points.csv"
    lines = pts.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["curve_id", "ci", "a_measured"]
    assert "state" in lines[0].split(",")
    assert len(lines) == 1 + 2 * 150


def test_write_results_json_document(small_fit, tmp_path):
    out = tmp_path / "res.json"
    write_results(small_fit, str(out), format="json", points=True)
    doc = json.loads(out.read_text())
    assert set(doc) == {"curves", "groups", "points"}
    assert len(doc["curves"]) == 2
    row = doc["curves"][0]
    assert {"curve_id", "vcmax25", "rmse", "r2"} <= set(row)
    assert all(p["state"] in ("c", "j", "p") for p in doc["points"][:10])


def test_write_results_deterministic_bytes(small_fit, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(small_fit, str(a), points=True)
    write_results(small_fit, str(b), points=True)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a_groups.csv").read_bytes() == \
           (tmp_path / "b_groups.csv").read_bytes()


# --- writers against a plain row-by-row rendering -----------------------

def _line(cells):
    return ",".join(cells) + "\r\n"


def _fmt(x):
    return repr(float(x))


@pytest.fixture(scope="module")
def two_group_fits():
    from fvcbfit import ParameterState, fit_groups, generate_dataset
    from fvcbfit.params import FitConfig
    ds0, _ = generate_dataset(ParameterState.single(), n_curves=2, seed=5,
                              noise_sd=0.5)
    ds1, _ = generate_dataset(ParameterState.single(tpu25=9.0), n_curves=1,
                              seed=9, fitting_group=4)
    # every third point of a curve in a second group, under id 7
    c7 = replace(ds1.curves[0].take(np.arange(0, 150, 3)), curve_id=7)
    ds = Dataset(curves=ds0.curves + (c7,), groups={0: [0, 1], 4: [7]})
    return fit_groups(ds, FitConfig(max_iter=5))


def test_points_csv_matches_row_by_row_rendering(two_group_fits, tmp_path):
    out = tmp_path / "res.csv"
    write_results(two_group_fits, str(out), points=True)
    expected = _line(["curve_id", "ci", "a_measured", "a_predicted", "state"])
    states = set()
    for res in two_group_fits:
        for p in res.predictions:
            expected += _line([str(p.curve_id), _fmt(p.ci),
                               _fmt(p.a_measured), _fmt(p.a_predicted),
                               p.state])
            states.add(p.state)
    assert len(states) >= 2
    got = (tmp_path / "res_points.csv").read_bytes().decode()
    assert got == expected


def test_json_matches_row_by_row_rendering(two_group_fits, tmp_path):
    out = tmp_path / "res.json"
    write_results(two_group_fits, str(out), format="json", points=True)
    text = out.read_text()
    doc = json.loads(text)
    rows = [{"curve_id": p.curve_id, "ci": float(p.ci),
             "a_measured": float(p.a_measured),
             "a_predicted": float(p.a_predicted), "state": p.state}
            for res in two_group_fits for p in res.predictions]
    assert doc["points"] == rows
    expected = {"curves": doc["curves"], "groups": doc["groups"],
                "points": rows}
    assert text == json.dumps(expected, indent=2) + "\n"


def test_write_dataset_matches_row_by_row_rendering(tmp_path):
    from fvcbfit import ParameterState, generate_dataset
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2, seed=4,
                             noise_sd=0.5, tleaf_c=31.5, fitting_group=3)
    out = tmp_path / "data.csv"
    write_dataset(ds, str(out))
    expected = _line(["CurveID", "FittingGroup", "Ci", "A", "Qin", "Tleaf"])
    for curve in ds.curves:
        for r in curve.records:
            expected += _line([str(r.curve_id), str(r.fitting_group),
                               _fmt(r.ci), _fmt(r.a), _fmt(r.qin),
                               _fmt(r.tleaf_c)])
    assert out.read_bytes().decode() == expected


def test_per_cell_path_parses_like_the_column_path(tmp_path, monkeypatch):
    # the per-cell path, which a chunk with a bad row takes, is the
    # reference for the column-wise one on good input
    text = (" CurveID ,FittingGroup,Ci,A,Qin,Tleaf,Note\n"
            "2,1,300,11.5,2000,25,a\n3.0,0, 80 ,4.25,100,31,b\n"
            "\n2,1,-4,1,2000,25,c\n3,0,120,6.125,250,31.5,\n"
            "2,1,600,20.0625,2000,25,d\n3,0,160,7,400,-10,e\n")
    path = write_text(tmp_path / "mixed.csv", text)

    def load():
        with pytest.warns(UserWarning, match=r"\(curve 2: 1\)"):
            ds = load_csv(path)
        return [(c.curve_id, c.fitting_group, c.kind, c.records)
                for c in ds.curves], ds.groups

    fast = load()
    monkeypatch.setattr(data_io, "_columns_fast", lambda *args: None)
    assert load() == fast
    assert [cid for cid, *_ in fast[0]] == [2, 3]


# --- numpy's text reader against the csv path ---------------------------

H6 = "CurveID,FittingGroup,Ci,A,Qin,Tleaf"


def _base_rows():
    # curve 1 on data lines 0-5, curve 2 on lines 6-11, one group
    return [f"{1 + i // 6},0,{100 + 50 * i},{1 + 0.5 * i},2000,25"
            for i in range(12)]


def _csv(rows=None, header=H6, end="\n"):
    return end.join([header] + (_base_rows() if rows is None else rows)) + end


def _with(lines):
    """The base file with data lines replaced, as {index: text}."""
    rows = _base_rows()
    for i, text in lines.items():
        rows[i] = text
    return _csv(rows)


def _inserted(at, *texts):
    rows = _base_rows()
    rows[at:at] = list(texts)
    return _csv(rows)


def _noted(rows):
    # a leading quoted Note column, with commas, before the picked ones
    return _csv([f'"n{i}, x",{r}' for i, r in enumerate(rows)],
                header="Note," + H6)


def _multiline(bad_line=None):
    # data lines 5-7 are one quoted cell spanning three physical lines
    rows = [f"n{i},{r}" for i, r in enumerate(_base_rows())]
    rows[5] = '"one\ntwo\nthree",' + _base_rows()[5]
    if bad_line is not None:
        rows[bad_line] = "n,2,0,bad,5,2000,25"
    return _csv(rows, header="Note," + H6)


READER_CASES = {
    "crlf": (_csv(end="\r\n"), None),
    "cr_only": (_csv(end="\r"), None),
    "quoted_picked_cells": (_with({5: '1,0,"350","3.5",2000,25'}), None),
    "quoted_extra_column_before_picks": (_noted(_base_rows()), None),
    "quoted_header": (_csv(header='"CurveID",FittingGroup,Ci,A,Qin,Tleaf'),
                      None),
    "underscore_digits": (_with({4: "1,0,3_00,3,2000,25"}), None),
    "tabs": (_with({3: "1\t,\t0,\t250\t,2.5,2000,25"}), None),
    "bom_before_header": ("\ufeff" + _csv(), MissingColumn),
    "bom_in_cell": (_with({7: "\ufeff2,0,450,4.5,2000,25"}), ParseError),
    "trailing_commas": (_csv([r + "," for r in _base_rows()],
                             header=H6 + ","), None),
    "ragged_long_rows": (_with({8: "2,0,500,5,2000,25,7,8"}), None),
    "arabic_indic_digits": (_with({2: "1,0,\u0662\u0660\u0660,2,2000,25"}),
                            None),
    "whitespace_only_lines": (_inserted(3, " ", "\t", ",,,,,"), None),
    "blank_lines": (_inserted(6, "", "", "\r"), None),
    "nan": (_with({6: "2,0,nan,4,2000,25"}), ParseError),
    "hex": (_with({6: "2,0,0x10,4,2000,25"}), ParseError),
    "overflow": (_with({10: "2,0,1E400,6,2000,25"}), ParseError),
    "nul": (_with({9: "2,0,45\x000,5,2000,25"}), ParseError),
    "plus_and_float_ids": (_with({1: "+1,+0,150,1.5,2000,25",
                                 7: "2.0,0.0,450,4.5,2000,25"}), None),
    "hash_in_cell": (_with({11: "2,0,650,6.5,2000,25#7"}), ParseError),
    "short_row": (_with({6: "2,0,400,4"}), ParseError),
    "group_conflict": (_with({10: "2,1,600,6,2000,25"}), ParseError),
    "fractional_id": (_with({8: "2.5,0,500,5,2000,25"}), ParseError),
    "id_beyond_int64": (_with({8: "1e20,0,500,5,2000,25"}), ParseError),
    "group_beyond_int64": (_with({
        i: f"2,9223372036854775808,{100 + 50 * i},{1 + 0.5 * i},2000,25"
        for i in range(6, 12)}), ParseError),
    # -2**63 and the largest double below 2**63
    "ids_at_int64_bounds": (_with({
        i: (f"-9223372036854775808,0,{100 + 50 * i},{1 + 0.5 * i},2000,25"
            if i < 6 else
            f"2,9223372036854774784,{100 + 50 * i},{1 + 0.5 * i},2000,25")
        for i in range(12)}), None),
    "out_of_range_rows": (_with({3: "1,0,-5,2.5,2000,25",
                                9: "2,0,550,5.5,2000,99"}), None),
    "multiline_cell_across_chunks": (_multiline(), None),
    "multiline_cell_then_bad_row": (_multiline(bad_line=10), ParseError),
}


def _outcome(path):
    """What load_csv makes of a file: the curves' column bytes, or the
    error's type, text and row; and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_csv(path)
        except Exception as exc:
            got = (type(exc), str(exc), getattr(exc, "row", None))
        else:
            got = ([(c.curve_id, c.fitting_group, c.kind,
                     *(getattr(c, name).tobytes() for name in data_io.COLUMNS))
                    for c in ds.curves], ds.groups)
    return got, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_text_path_reads_like_the_csv_path(case, tmp_path, monkeypatch):
    text, error = READER_CASES[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with monkeypatch.context() as m:
        m.setattr(data_io, "_columns_text", lambda *args: None)
        want = _outcome(str(path))
    if error is None:
        assert isinstance(want[0][0], list), want[0]
    else:
        assert want[0][0] is error, want[0]
    for chunk in (8192, 1, 2, 3, 7):
        monkeypatch.setattr(data_io, "CHUNK_ROWS", chunk)
        assert _outcome(str(path)) == want, f"CHUNK_ROWS={chunk}"


def test_clean_chunks_take_the_text_path(tmp_path, monkeypatch):
    taken = []
    text_path = data_io._columns_text

    def spy(*args):
        cols = text_path(*args)
        taken.append(cols is not None)
        return cols

    monkeypatch.setattr(data_io, "_columns_text", spy)
    monkeypatch.setattr(data_io, "CHUNK_ROWS", 5)
    ds = load_csv(write_text(tmp_path / "clean.csv", _csv(end="\r\n")))
    assert taken == [True, True, True]
    assert [c.n_points for c in ds.curves] == [6, 6]


# --- block writers against csv.writer ------------------------------------

def _csv_writer_text(header, rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _floats(n, seed):
    edge = [-0.0, 1e-05, 1e+16, 5e-324]
    x = np.random.default_rng(seed).normal(0.0, 300.0, n)
    x[:min(n, 4)] = edge[:n]
    return x


BLOCK = data_io.WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_write_points_matches_csv_writer(n, tmp_path):
    results = []
    for k, cid in enumerate((3, 8)):
        states = np.array(list("cjp"))[np.arange(n) % 3]
        results.append(SimpleNamespace(points={
            "curve_id": np.full(n, cid, dtype=np.int64),
            "ci": _floats(n, 10 * k), "a_measured": _floats(n, 10 * k + 1),
            "a_predicted": _floats(n, 10 * k + 2), "state": states}))
    path = tmp_path / "points.csv"
    data_io._write_csv(str(path), data_io.POINT_COLUMNS,
                       map(data_io._point_table, results))
    rows = [row for res in results for row in zip(
        *(res.points[name].tolist() for name in data_io.POINT_COLUMNS))]
    assert len(rows) == 2 * n
    assert path.read_bytes() == _csv_writer_text(
        data_io.POINT_COLUMNS, rows).encode()


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_write_dataset_matches_csv_writer(n, tmp_path):
    curves = tuple(
        ResponseCurve(cid, grp, *(_floats(m, 4 * cid + j) for j in range(4)),
                      kind=CurveKind.CO2Response)
        for cid, grp, m in ((5, 2, n), (6, 2, 3), (11, 0, n)))
    ds = Dataset(curves=curves, groups={0: [11], 2: [5, 6]})
    path = tmp_path / "data.csv"
    write_dataset(ds, str(path))
    rows = [(c.curve_id, c.fitting_group, *row) for c in curves
            for row in zip(*(getattr(c, name).tolist()
                             for name in data_io.COLUMNS))]
    assert path.read_bytes() == _csv_writer_text(
        ["CurveID", "FittingGroup", "Ci", "A", "Qin", "Tleaf"], rows).encode()


def test_write_points_of_a_multi_group_fit_matches_csv_writer(two_group_fits,
                                                             tmp_path):
    path = tmp_path / "points.csv"
    data_io._write_csv(str(path), data_io.POINT_COLUMNS,
                       map(data_io._point_table, two_group_fits))
    rows = [row for res in two_group_fits for row in zip(
        *(res.points[name].tolist() for name in data_io.POINT_COLUMNS))]
    assert len(two_group_fits) == 2
    assert path.read_bytes() == _csv_writer_text(
        data_io.POINT_COLUMNS, rows).encode()


CURVE_HEADER = ["curve_id", "fitting_group", "n_points", "vcmax25",
                "jmax25", "tpu25", "rd25", "rmse", "r2", "tpu_stage"]
GROUP_HEADER = ["fitting_group", "n_curves", "alpha", "theta", "alpha_g",
                "gm", "kc25", "ko25", "gamma25", "dha_vcmax", "dha_jmax",
                "dha_tpu", "topt_vcmax", "topt_jmax", "topt_tpu"]


def _result_rows(results):
    """The curve and group rows of fit results, field by field, sorted
    by (group, curve) and by group."""
    curves, groups = [], []
    for res in results:
        p = res.params
        for i, cid in enumerate(p.curve_ids):
            e, m = p.entry_of[i], res.curve_metrics[cid]
            curves.append([cid, p.group_ids[p.group_of[i]], m.n_points]
                          + [float(getattr(p, name)[e])
                             for name in CURVE_HEADER[3:7]]
                          + [m.rmse, m.r2, res.tpu_stage[cid]])
        for gi, gid in enumerate(p.group_ids):
            groups.append([gid, int(np.sum(p.group_of == gi))]
                          + [float(getattr(p, name)[gi])
                             for name in GROUP_HEADER[2:]])
    curves.sort(key=lambda r: (r[1], r[0]))
    groups.sort(key=lambda r: r[0])
    return curves, groups


@pytest.fixture(scope="module")
def constant_a_fit():
    from fvcbfit import fit
    from fvcbfit.params import FitConfig
    ci = np.linspace(50.0, 1500.0, 12)
    flat = ResponseCurve(3, 2, ci, np.full(12, 7.25), np.full(12, 1800.0),
                         np.full(12, 27.0), kind=CurveKind.CO2Response)
    ramp = replace(flat, curve_id=1, a=3.0 + ci / 100.0)
    res = fit(Dataset(curves=(flat, ramp), groups={2: [1, 3]}),
              FitConfig(max_iter=5))
    assert np.isnan(res.curve_metrics[3].r2)
    return [res]


@pytest.mark.parametrize("case", ["two_groups", "reversed", "constant_a"])
def test_curve_and_group_tables_match_csv_writer_and_json(case, request,
                                                          tmp_path):
    if case == "constant_a":
        results = request.getfixturevalue("constant_a_fit")
    else:
        results = request.getfixturevalue("two_group_fits")
        if case == "reversed":
            results = results[::-1]
    curves, groups = _result_rows(results)
    out = tmp_path / "res.csv"
    write_results(results, str(out))
    assert out.read_bytes() == _csv_writer_text(CURVE_HEADER,
                                                curves).encode()
    assert (tmp_path / "res_groups.csv").read_bytes() == _csv_writer_text(
        GROUP_HEADER, groups).encode()
    out = tmp_path / "res.json"
    write_results(results, str(out), format="json")
    assert out.read_text() == json.dumps({
        "curves": [dict(zip(CURVE_HEADER, r)) for r in curves],
        "groups": [dict(zip(GROUP_HEADER, r)) for r in groups]},
        indent=2) + "\n"


def test_truth_sidecar_matches_csv_writer(tmp_path):
    from fvcbfit import ParameterState, cli
    from fvcbfit.synth import SynthSpec, draw_jittered_params
    truth = tmp_path / "truth.csv"
    assert cli.main(["synth", "-o", str(tmp_path / "data.csv"),
                     "--n-curves", "3", "--jitter", "--seed", "42",
                     "--group", "6", "--vcmax25", "88.5",
                     "--truth", str(truth), "-q"]) == 0
    rows = []
    for i in range(3):
        tp = draw_jittered_params(SynthSpec(
            ParameterState.single(vcmax25=88.5), seed=42 + i, jitter=True,
            curve_id=i, fitting_group=6))
        rows.append([i, 6] + [float(getattr(tp, name)[0])
                              for name in ("vcmax25", "jmax25", "tpu25",
                                           "rd25")])
    assert truth.read_bytes() == _csv_writer_text(
        ["curve_id", "fitting_group", "vcmax25", "jmax25", "tpu25", "rd25"],
        rows).encode()
