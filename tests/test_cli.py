"""Command line behavior: exit codes, output files, determinism,
summaries, and flag plumbing."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fvcbfit import cli
from fvcbfit.errors import DivergenceError


def run(argv):
    return cli.main(argv)


def synth_file(tmp_path, name="data.csv", extra=()):
    path = tmp_path / name
    assert run(["synth", "-o", str(path), "-q", *extra]) == 0
    return str(path)


# --- exit codes -------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["fit", "x.csv", "--frobnicate"]) == 1


def test_bad_curve_kind_syntax_is_usage_error(capsys):
    assert run(["fit", "x.csv", "--curve-kind", "0=banana"]) == 1
    assert "co2" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["fit", "{data}", "--max-iter", "0"], "max_iter must be at least 1"),
    (["fit", "{data}", "--lr", "-1"], "lr must be positive"),
    (["fit", "{data}", "--preprocess", "--window-len", "2"],
     "window_len must be >= 3"),
    (["preprocess", "{data}", "-o", "{out}", "--jump-down", "0.1"],
     "jump_up > 0 > jump_down"),
    (["synth", "-o", "{out}", "--n-curves", "0"], "--n-curves"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv, message):
    data = synth_file(tmp_path)
    out = tmp_path / "out.csv"
    argv = [a.format(data=data, out=out) for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"fvcbfit {argv[0]}: error: " in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--window-len", "7"), ("--smooth-ci-threshold", "500"),
    ("--jump-up", "0.1"), ("--jump-down", "-0.1"),
    ("--min-points-factor", "2"),
])
def test_preprocessing_flag_without_preprocess_is_usage_error(
        tmp_path, capsys, flag, value):
    data = synth_file(tmp_path)
    out = tmp_path / "out.csv"
    argv = ["fit", data, flag, value, "-o", str(out), "--max-iter", "2", "-q"]
    assert run(argv) == 1
    assert f"fvcbfit fit: error: {flag} requires --preprocess" in \
        capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--preprocess"]) == 0
    assert out.exists()


def test_missing_input_is_data_error(capsys):
    assert run(["fit", "/nowhere/missing.csv", "-q"]) == 2
    assert "missing.csv" in capsys.readouterr().err


def test_unwritable_output_is_data_error(tmp_path, capsys):
    data = synth_file(tmp_path)
    code = run(["fit", data, "-o", "/nowhere/out.csv", "-q",
                "--max-iter", "5"])
    assert code == 2


def test_ragged_row_is_data_error_naming_the_row(tmp_path, capsys):
    data = synth_file(tmp_path)
    with open(data) as fh:
        n_lines = sum(1 for _ in fh)
    with open(data, "a") as fh:
        fh.write("1,0\n")
    assert run(["fit", data, "-q", "--max-iter", "5"]) == 2
    err = capsys.readouterr().err
    assert f"row {n_lines + 1}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column,cell", [("A", "nan"), ("Ci", "inf")])
def test_non_finite_cell_is_data_error_naming_column_and_row(
        tmp_path, capsys, column, cell):
    data = synth_file(tmp_path)
    with open(data) as fh:
        lines = fh.read().splitlines()
    k = lines[0].split(",").index(column)
    cells = lines[7].split(",")
    cells[k] = cell
    lines[7] = ",".join(cells)
    with open(data, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run(["fit", data, "-q", "--max-iter", "5"]) == 2
    err = capsys.readouterr().err
    assert "row 8" in err and column in err and cell in err


def test_divergence_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    data = synth_file(tmp_path)

    def boom(*a, **k):
        raise DivergenceError("blew up")

    monkeypatch.setattr(cli, "fit_groups", boom)
    assert run(["fit", data, "-q"]) == 3
    assert "diverged" in capsys.readouterr().err


# --- help text --------------------------------------------------------

def test_top_level_help_lists_subcommands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for word in ("fit", "synth", "preprocess"):
        assert word in out


def test_fit_help_documents_flags(capsys):
    assert run(["fit", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--light-type", "--temp-type", "--preprocess", "--onefit",
                 "--lr", "--max-iter", "--early-stop", "--allow-negative-rd",
                 "--no-tpu-penalty", "--r-penalty", "--fit-gm",
                 "--fit-kinetics", "--curve-kind", "--points", "--format",
                 "--quiet", "--window-len",
                 "--smooth-ci-threshold", "--jump-up", "--jump-down",
                 "--min-points-factor", "--output"):
        assert flag in out, flag


def test_synth_help_documents_flags(capsys):
    assert run(["synth", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--n-curves", "--n-points", "--ci-min", "--ci-max",
                 "--light-curve", "--q-min", "--q-max", "--ci-level",
                 "--qin", "--tleaf", "--noise-sd", "--jitter",
                 "--scale-jitter", "--seed", "--group", "--truth",
                 "--vcmax25", "--jmax25", "--tpu25", "--rd25"):
        assert flag in out, flag


# --- synth ------------------------------------------------------------

def test_synth_deterministic_bytes(tmp_path):
    a = synth_file(tmp_path, "a.csv",
                   ("--n-curves", "2", "--noise-sd", "0.5", "--seed", "9"))
    b = synth_file(tmp_path, "b.csv",
                   ("--n-curves", "2", "--noise-sd", "0.5", "--seed", "9"))
    c = synth_file(tmp_path, "c.csv",
                   ("--n-curves", "2", "--noise-sd", "0.5", "--seed", "10"))
    read = lambda p: open(p, "rb").read()
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_synth_truth_sidecar(tmp_path):
    truth = tmp_path / "truth.csv"
    synth_file(tmp_path, "d.csv",
               ("--n-curves", "3", "--jitter", "--seed", "4",
                "--truth", str(truth)))
    lines = truth.read_text().splitlines()
    assert lines[0] == "curve_id,fitting_group,vcmax25,jmax25,tpu25,rd25"
    assert len(lines) == 4
    rows = [l.split(",") for l in lines[1:]]
    v = [float(r[2]) for r in rows]
    assert len(set(v)) == 3  # per-curve jitter draws differ
    assert all(90.0 <= x <= 110.0 for x in v)


def test_synth_parameter_overrides(tmp_path):
    truth = tmp_path / "t.csv"
    synth_file(tmp_path, "e.csv", ("--vcmax25", "77", "--rd25", "2.25",
                                   "--truth", str(truth)))
    row = truth.read_text().splitlines()[1].split(",")
    assert float(row[2]) == 77.0 and float(row[5]) == 2.25


def test_synth_light_curves(tmp_path):
    path = synth_file(tmp_path, "light.csv",
                      ("--light-curve", "--n-points", "12",
                       "--light-type", "2", "--ci-level", "380"))
    lines = open(path).read().splitlines()
    assert len(lines) == 13
    cis = {l.split(",")[2] for l in lines[1:]}
    qins = [float(l.split(",")[4]) for l in lines[1:]]
    assert cis == {"380.0"}
    assert qins == sorted(qins) and qins[0] == 0.0 and qins[-1] == 2000.0


# --- fit --------------------------------------------------------------

def test_fit_round_trip_and_deterministic_outputs(tmp_path):
    data = synth_file(tmp_path, "rt.csv",
                      ("--n-curves", "2", "--noise-sd", "0.5", "--seed", "3"))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    base = ["fit", data, "-q", "--max-iter", "40", "--points"]
    assert run(base + ["-o", str(out1)]) == 0
    assert run(base + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1_groups.csv").read_bytes() == \
           (tmp_path / "r2_groups.csv").read_bytes()
    assert (tmp_path / "r1_points.csv").exists()
    header = out1.read_text().splitlines()
    assert header[0].startswith("curve_id,")
    assert len(header) == 3


def test_fit_summary_reports_perfect_recovery(tmp_path, capsys):
    # noiseless data generated at the default parameters: the starting
    # point already predicts every point exactly
    data = synth_file(tmp_path, "clean.csv")
    assert run(["fit", data, "--max-iter", "600"]) == 0
    out = capsys.readouterr().out
    assert "R2=1.000" in out
    assert "TPU stage: no" in out
    assert "iter    500" in out  # progress line
    assert "mean RMSE=" in out


def test_fit_json_machine_mode(tmp_path, capsys):
    data = synth_file(tmp_path, "jm.csv", ("--noise-sd", "0.5",))
    out = tmp_path / "res.json"
    assert run(["fit", data, "-o", str(out), "--format", "json",
                "--max-iter", "30"]) == 0
    assert capsys.readouterr().out == ""  # json implies machine mode
    doc = json.loads(out.read_text())
    assert set(doc) == {"curves", "groups"}
    assert doc["curves"][0]["curve_id"] == 0


def test_fit_quiet_silences_summary(tmp_path, capsys):
    data = synth_file(tmp_path, "q.csv")
    assert run(["fit", data, "-q", "--max-iter", "10"]) == 0
    assert capsys.readouterr().out == ""


def test_fit_light_curves_via_cli(tmp_path):
    data = synth_file(tmp_path, "lf.csv",
                      ("--light-curve", "--n-points", "12",
                       "--light-type", "2", "--noise-sd", "0.3"))
    out = tmp_path / "lr.csv"
    assert run(["fit", data, "-q", "-o", str(out), "--light-type", "2",
                "--max-iter", "40"]) == 0
    assert out.exists()


def test_fit_two_groups(tmp_path):
    a = synth_file(tmp_path, "ga.csv",
                   ("--n-curves", "2", "--noise-sd", "0.5", "--seed", "1"))
    b = synth_file(tmp_path, "gb.csv",
                   ("--n-curves", "2", "--noise-sd", "0.5", "--seed", "5",
                    "--group", "1"))
    merged = tmp_path / "merged.csv"
    lines_a = open(a).read().splitlines()
    lines_b = open(b).read().splitlines()[1:]
    remap = {"0": "2", "1": "3"}
    fixed = [",".join([remap[l.split(",")[0]]] + l.split(",")[1:])
             for l in lines_b]
    merged.write_text("\n".join(lines_a + fixed) + "\n")
    out = tmp_path / "two.csv"
    assert run(["fit", str(merged), "-q", "-o", str(out),
                "--max-iter", "30"]) == 0
    groups = (tmp_path / "two_groups.csv").read_text().splitlines()
    assert len(groups) == 3  # header + one row per fitting group
    assert len(out.read_text().splitlines()) == 5


# --- preprocess -------------------------------------------------------

def test_preprocess_roundtrip_counts(tmp_path, capsys):
    data = synth_file(tmp_path, "pp.csv")
    out = tmp_path / "clean.csv"
    assert run(["preprocess", data, "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kept 150 of 150 points (0 removed)" in text
    assert out.exists()


def test_preprocess_curve_kind_override_passthrough(tmp_path):
    # noisy high-Ci points would be smoothed on a CO2 curve; forcing the
    # light kind must pass the file through byte for byte
    data = synth_file(tmp_path, "ovr.csv", ("--noise-sd", "0.5",))
    as_light = tmp_path / "as_light.csv"
    as_co2 = tmp_path / "as_co2.csv"
    assert run(["preprocess", data, "-o", str(as_light), "-q",
                "--curve-kind", "0=light"]) == 0
    assert run(["preprocess", data, "-o", str(as_co2), "-q"]) == 0
    assert as_light.read_bytes() == open(data, "rb").read()
    assert as_co2.read_bytes() != as_light.read_bytes()


def test_fit_with_preprocess_flag(tmp_path):
    data = synth_file(tmp_path, "fp.csv", ("--noise-sd", "0.5",))
    out = tmp_path / "fpo.csv"
    assert run(["fit", data, "-q", "--preprocess", "-o", str(out),
                "--max-iter", "30"]) == 0
    assert out.exists()


# --- installed entry point --------------------------------------------

def test_console_script_runs(tmp_path):
    path = tmp_path / "cs.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fvcbfit.cli", "synth", "-o", str(path),
         "--n-curves", "1", "-q"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert path.exists()


@pytest.mark.parametrize("column,cell", [("CurveID", "1e20"),
                                         ("FittingGroup", "-1e19")])
def test_id_beyond_int64_is_data_error_naming_the_row(tmp_path, capsys,
                                                      column, cell):
    data = synth_file(tmp_path)
    with open(data) as fh:
        lines = fh.read().splitlines()
    k = lines[0].split(",").index(column)
    for i in range(1, 11):  # enough points for a curve of its own
        cells = lines[i].split(",")
        cells[k] = cell
        lines[i] = ",".join(cells)
    with open(data, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run(["fit", data, "-q", "--max-iter", "5"]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err and column in err and cell in err
    assert "Traceback" not in err


def test_repeated_header_is_data_error_naming_its_row(tmp_path, capsys):
    # two files joined with cat: the second header is a data row
    data = synth_file(tmp_path)
    with open(data) as fh:
        text = fh.read()
    with open(data, "w") as fh:
        fh.write(text + text)
    assert run(["fit", data, "-q", "--max-iter", "5"]) == 2
    err = capsys.readouterr().err
    assert "row 152: non-numeric CurveID value 'CurveID'" in err
    assert "Traceback" not in err


# --- names the benchmark traces -----------------------------------------

def test_every_callable_the_benchmark_traces_resolves():
    # bench/spans.py wraps each w("module", "attr", ...) of Tracer.install
    # by name, and a name that does not resolve drops its layer's
    # metrics from every traced line; so each must stay a name of its
    # module even where the package no longer calls it there
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    tracer = next(n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    install = next(n for n in tracer.body
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    wrapped = [tuple(a.value for a in call.args[:2])
               for call in ast.walk(install) if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name) and call.func.id == "w"]
    assert len(wrapped) >= 16
    missing = [f"{module}.{attr}" for module, attr in wrapped
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
