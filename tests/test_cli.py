"""End-to-end command-line checks.

``run`` calls ``cli.main`` in-process; ``run_process`` starts a fresh
interpreter and is kept for the checks where the process is the point:
the ``python -m unruh_otto.cli`` entry, byte determinism across runs and
the atomic ``--out`` file.
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys

import pytest

from unruh_otto import cli, response
from unruh_otto.response import j_function

CLI = [sys.executable, "-m", "unruh_otto.cli"]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

DELTA_P_GOLDEN = (
    "a,p,v,g,delta_p,valid,in_unit_interval,j_value\n"
    "40.0,0.5,0.8,1.0,-0.006866326804175686,true,true,"
    "0.026182410419473473\n"
)


def _checked(proc, check):
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def run_process(*argv, check=False):
    return _checked(subprocess.run(CLI + list(argv), capture_output=True,
                                   text=True), check)


def run(*argv, check=False):
    """``cli.main(argv)`` with the record ``run_process`` returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects the flags
            code = exc.code
    proc = subprocess.CompletedProcess(CLI + list(argv), code,
                                       out.getvalue(), err.getvalue())
    return _checked(proc, check)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_delta_p_golden_bytes():
    proc = run_process("delta-p", "--a", "40", "--p", "0.5", "--v", "0.8",
                       "--g", "1", check=True)
    assert proc.stdout == DELTA_P_GOLDEN


def test_delta_p_positive_kick_below_fixed_point():
    proc = run("delta-p", "--a", "40", "--p", "0.293", "--v", "0.8", check=True)
    row = parse_csv(proc.stdout)[0]
    assert float(row["delta_p"]) > 0.0
    assert row["valid"] == "true"


def test_delta_p_at_large_acceleration():
    # needed ~1.2e7 direct Lerch terms, past the term cap (exit 3)
    proc = run("delta-p", "--a", "3e6", "--p", "0.3", "--v", "0.8")
    assert proc.returncode == 0, proc.stderr
    row = parse_csv(proc.stdout)[0]
    assert row["valid"] == "true"
    assert math.isfinite(float(row["j_value"]))


@pytest.mark.parametrize("argv,rows", [
    (("delta-p", "--a", "40", "--p", "0.5", "--v", "0.8"), 1),
    (("sweep-a", "--a-min", "5", "--a-max", "50", "--count", "4",
      "--p", "0.3", "--v", "0.8"), 4),
    (("sweep-p", "--p-min", "0", "--p-max", "1", "--count", "3",
      "--a", "40", "--v", "0.8"), 3),
])
def test_one_j_per_row(argv, rows, monkeypatch, capsys):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return j_function(x, y)

    monkeypatch.setattr(response, "j_function", counted)
    monkeypatch.setattr(cli, "j_function", counted)
    assert cli.main(list(argv)) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1
    assert len(calls) == rows


def test_delta_p_where_z_rounds_to_one(capsys):
    # e^{-2 pi / a} rounds to 1 beyond a ~ 1.1e17; the log-z expansion
    # is handed log z = -2 pi / a exactly
    assert cli.main(["delta-p", "--a", "1e18", "--p", "0.3",
                     "--v", "0.8"]) == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert math.isfinite(float(row["j_value"]))


def test_infinite_coupling_exits_2(capsys):
    assert cli.main(["delta-p", "--a", "40", "--p", "0.5", "--v", "0.8",
                     "--g", "inf"]) == 2
    captured = capsys.readouterr()
    assert "g must be positive and finite" in captured.err
    assert captured.out == ""


def test_delta_p_where_validity_product_underflows():
    # g^2 atanh(v) = 1e-336 rounds to 0.0: a ZeroDivisionError traceback
    # (exit 1) before; the ratio a / 0 is inf, and the verdict passes
    proc = run("delta-p", "--a", "1", "--p", "0.3", "--v", "1e-300",
               "--g", "1e-18", check=True)
    assert proc.stdout == ("a,p,v,g,delta_p,valid,in_unit_interval,j_value\n"
                           "1.0,0.3,1e-300,1e-18,-0.0,true,true,0.0\n")


def test_speed_domain_error():
    proc = run("delta-p", "--a", "40", "--p", "0.1", "--v", "1.1", "--g", "1")
    assert proc.returncode == 2
    assert "v out of (0, tanh(pi))" in proc.stderr
    assert proc.stdout == ""


def test_population_domain_error():
    proc = run("delta-p", "--a", "40", "--p", "1.2", "--v", "0.5")
    assert proc.returncode == 2
    assert "p out of [0, 1]" in proc.stderr


def test_missing_required_flag_exits_2():
    proc = run("delta-p", "--a", "40", "--p", "0.5")
    assert proc.returncode == 2


def test_single_point_sweep_matches_point_command():
    point = run("delta-p", "--a", "40", "--p", "0.5", "--v", "0.8",
                check=True).stdout
    sweep = run("sweep-p", "--p-min", "0.5", "--p-max", "1.0", "--count", "2",
                "--a", "40", "--v", "0.8", check=True).stdout
    point_cells = point.splitlines()[1].split(",")
    sweep_cells = sweep.splitlines()[1].split(",")
    assert sweep_cells == point_cells[:7]


def test_sweep_headers_and_order():
    proc = run("sweep-a", "--a-min", "5", "--a-max", "50", "--count", "4",
               "--p", "0.3", "--v", "0.8", check=True)
    rows = parse_csv(proc.stdout)
    assert list(rows[0]) == ["a", "p", "v", "g", "delta_p", "valid",
                             "in_unit_interval"]
    assert [float(r["a"]) for r in rows] == [5.0, 20.0, 35.0, 50.0]


def test_sweep_count_validation():
    proc = run("sweep-a", "--a-min", "5", "--a-max", "50", "--count", "1",
               "--p", "0.3", "--v", "0.8")
    assert proc.returncode == 2
    assert "count" in proc.stderr


def test_sweep_range_validation():
    proc = run("sweep-p", "--p-min", "0.9", "--p-max", "0.1", "--count", "3",
               "--a", "40", "--v", "0.8")
    assert proc.returncode == 2


def test_byte_determinism():
    args = ("solve-grid", "--a-min", "5", "--a-max", "50", "--count", "4",
            "--v", "0.8")
    assert (run_process(*args, check=True).stdout
            == run_process(*args, check=True).stdout)


def test_out_file_is_atomic_and_identical(tmp_path):
    target = tmp_path / "rows.csv"
    args = ("trajectory", "--alpha", "1", "--v", "0.8", "--count", "5",
            "--out", str(target))
    stdout_copy = run_process("trajectory", "--alpha", "1", "--v", "0.8",
                              "--count", "5", check=True).stdout
    run_process(*args, check=True)
    assert target.read_text() == stdout_copy
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_out_directory_missing(tmp_path):
    proc = run("j-fn", "--x", "0.5", "--y", "1.0",
               "--out", str(tmp_path / "missing" / "out.csv"))
    assert proc.returncode == 2
    assert not (tmp_path / "missing").exists()


def test_trajectory_endpoints():
    proc = run("trajectory", "--alpha", "2", "--v", "0.6", "--count", "9",
               check=True)
    rows = parse_csv(proc.stdout)
    assert list(rows[0]) == ["tau", "t", "x", "velocity"]
    assert float(rows[0]["velocity"]) == pytest.approx(-0.6, rel=1e-12)
    assert float(rows[-1]["velocity"]) == pytest.approx(0.6, rel=1e-12)
    mid = rows[len(rows) // 2]
    assert float(mid["t"]) == 0.0
    assert float(mid["x"]) == pytest.approx(0.5, rel=1e-12)


def test_solve_grid_contains_reference_cell():
    proc = run("solve-grid", "--a-min", "5", "--a-max", "50", "--count", "10",
               "--v", "0.8", check=True)
    rows = parse_csv(proc.stdout)
    assert list(rows[0]) == ["a_H", "a_C", "v", "p0", "dp_hot", "feasible"]
    assert len(rows) == 100
    cell = next(r for r in rows if r["a_H"] == "40.0" and r["a_C"] == "15.0")
    assert float(cell["p0"]) == pytest.approx(0.3114024704452785, rel=1e-12)
    assert float(cell["dp_hot"]) > 0.0
    assert cell["feasible"] == "true"


def test_solve_grid_diagonal_is_infeasible():
    # a_H = a_C: dp_hot is exactly 0, where rounding noise of either sign
    # set feasible at (5, 5) and (1000, 1000) before
    proc = run("solve-grid", "--a-min", "5", "--a-max", "1000", "--count", "6",
               "--v", "0.8", check=True)
    diagonal = [r for r in parse_csv(proc.stdout) if r["a_H"] == r["a_C"]]
    assert len(diagonal) == 6
    assert all(r["dp_hot"] == "0.0" and r["feasible"] == "false"
               for r in diagonal)


def test_solve_grid_where_pump_underflows():
    # (a_H + a_C) atanh(v) = 3e-600 rounds to 0.0, and so does the
    # numerator of P; the fixed point is finite, and D has no such product
    proc = run("solve-grid", "--a-min", "1e-300", "--a-max", "2e-300",
               "--count", "2", "--v", "1e-300", check=True)
    cell = parse_csv(proc.stdout)[1]   # (a_H, a_C) = (1e-300, 2e-300)
    assert float(cell["p0"]) == pytest.approx(-0.49786143366223283, rel=1e-15)
    assert float(cell["dp_hot"]) == pytest.approx(0.03322682335445088,
                                                  rel=1e-15)


def test_solve_grid_where_pump_overflows():
    # a_H a_C = 2e400 is beyond the float range; D has no such product
    proc = run("solve-grid", "--a-min", "1e200", "--a-max", "2e200",
               "--count", "2", "--v", "0.5", check=True)
    rows = parse_csv(proc.stdout)
    assert [r["p0"] for r in rows] == ["0.5"] * 4
    # P / (1 + 2 P) to 50 digits from the same two J values
    assert float(rows[1]["dp_hot"]) == pytest.approx(-3.4331634020878427e-202,
                                                     rel=1e-15)


def test_compare_classical_where_pump_overflows():
    # a_H a_C = 1e200 * 1e199 is beyond the float range; D has no such
    # product
    proc = run("compare-classical", "--a-hot", "1e200", "--a-cold", "1e199",
               "--v", "0.5", check=True)
    (row,) = parse_csv(proc.stdout)
    assert float(row["w_unruh"]) == pytest.approx(6.1796941237581166e-201,
                                                  rel=1e-15)


def test_compare_classical_table():
    proc = run("compare-classical", "--a-hot", "40", "--a-cold", "15",
               "--v", "0.3", "0.5", "0.7", "0.9", check=True)
    rows = parse_csv(proc.stdout)
    assert list(rows[0]) == ["v", "w_unruh", "w_cl"]
    w_cl = {r["w_cl"] for r in rows}
    assert len(w_cl) == 1
    works = [float(r["w_unruh"]) for r in rows]
    assert works == sorted(works)


@pytest.mark.parametrize("argv,parameters", [
    (["delta-p", "--a", "40", "--p", "0.5", "--v", "0.8"],
     {"a": 40.0, "p": 0.5, "v": 0.8, "g": 1.0}),
    (["j-fn", "--x", "-0.025", "--y", "2.1972245773362196"],
     {"x": -0.025, "y": 2.1972245773362196}),
    (["trajectory", "--alpha", "2", "--v", "0.6", "--count", "3"],
     {"alpha": 2.0, "v": 0.6, "count": 3}),
    (["sweep-a", "--a-min", "5", "--a-max", "50", "--count", "2",
      "--p", "0.3", "--v", "0.8"],
     {"a_min": 5.0, "a_max": 50.0, "count": 2, "p": 0.3, "v": 0.8,
      "g": 1.0}),
    (["sweep-p", "--p-min", "0", "--p-max", "1", "--count", "2",
      "--a", "40", "--v", "0.8", "--g", "0.5"],
     {"p_min": 0.0, "p_max": 1.0, "count": 2, "a": 40.0, "v": 0.8,
      "g": 0.5}),
    (["solve-grid", "--a-min", "5", "--a-max", "50", "--count", "2",
      "--v", "0.8"],
     {"a_min": 5.0, "a_max": 50.0, "count": 2, "v": 0.8, "g": 1.0}),
    (["compare-classical", "--a-hot", "40", "--a-cold", "15",
      "--v", "0.3", "0.5"],
     {"a_hot": 40.0, "a_cold": 15.0, "v": [0.3, 0.5], "gap_diff": 1.0,
      "g": 1.0}),
    (["oracle-check", "--alpha", "40", "--omega", "-1",
      "--duration", "0.0549306"],
     {"alpha": 40.0, "omega": -1.0, "duration": 0.0549306,
      "representation": "imagesum1d", "window": 20.0, "abs_tol": 1e-6, "rel_tol": 1e-3,
      "expect_fail": False, "mode": "point"}),
], ids=["delta-p", "j-fn", "trajectory", "sweep-a", "sweep-p", "solve-grid",
        "compare-classical", "oracle-check"])
def test_json_envelope(argv, parameters, capsys):
    assert cli.main(argv + ["--format", "csv"]) == 0
    csv_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert cli.main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["command"] == argv[0]
    assert doc["metadata"]["version"]
    assert doc["metadata"]["parameters"] == parameters
    # the JSON rows carry the CSV cells, unconverted
    header = csv_rows[0]
    assert [[cli._fmt(row[name]) for name in header]
            for row in doc["rows"]] == csv_rows[1:]


def test_oracle_check_point_passes():
    duration = repr(2.0 * math.atanh(0.8) / 40.0)
    proc = run("oracle-check", "--alpha", "40", "--omega", "-1",
               "--duration", duration)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    row = doc["rows"][0]
    assert row["passed"] is True
    assert row["abs_diff"] <= row["tolerance"]
    assert abs(row["oracle_value_imag"]) <= row["error_estimate"]


def test_oracle_check_fault_injection_detected():
    duration = repr(2.0 * math.atanh(0.8) / 40.0)
    proc = run("oracle-check", "--alpha", "40", "--omega", "-1",
               "--duration", duration, "--expect-fail")
    assert proc.returncode == 1
    row = json.loads(proc.stdout)["rows"][0]
    assert row["passed"] is False
    assert row["abs_diff"] > row["tolerance"]


def test_oracle_check_partial_point_flags():
    proc = run("oracle-check", "--alpha", "40")
    assert proc.returncode == 2
    assert "--duration" in proc.stderr


def test_oracle_check_non_convergence_exit():
    # the ladder's extrapolants missed the 10x residual check here (exit 3);
    # the exact limit meets the tight tolerance on the sinh route
    duration = repr(2.0 * math.atanh(0.8) / 40.0)
    proc = run("oracle-check", "--alpha", "40", "--omega", "-1",
               "--duration", duration, "--abs-tol", "1e-12",
               "--rel-tol", "1e-9", "--representation", "sinh2d", check=True)
    row = json.loads(proc.stdout)["rows"][0]
    assert row["passed"] is True
    assert row["rel_diff"] <= 1e-9


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
def test_oracle_check_default_grid(representation):
    proc = run("oracle-check", "--representation", representation,
               check=True)
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 24
    for row in rows:
        assert row["passed"] is True
        assert row["abs_diff"] <= row["j_error_estimate"]
        assert row["j_error_estimate"] == 2.0 * row["error_estimate"]
        assert row["oracle_value_imag"] == 0.0
        # both routes are exact to their quadrature: 4.4e-10 at worst
        # (1.5e-6 when the image sum stopped at k = 20000)
        assert row["abs_diff"] <= 5e-10


def test_oracle_check_k_max_flag_is_gone():
    # the image route sums every image; the truncation order it took is
    # an unrecognized argument now
    proc = run("oracle-check", "--k-max", "100")
    assert proc.returncode == 2
    assert "unrecognized arguments: --k-max 100" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [
    ["--omega", "0.5", "--window", "2000"],
    ["--omega", "1", "--window", "1e5", "--representation", "sinh2d"]],
    ids=["imagesum1d-2000", "sinh2d-1e5"])
def test_oracle_check_long_window_passes(flags):
    # the window is only a cap: both routes stop at s = 32 for alpha T = 1.
    # The image route refused 636 break points at window 2000 (exit 3), and
    # the sinh route stepped over the integrand at 1e5 (j = -1.3e-15
    # against J = 0.175, exit 1)
    proc = run("oracle-check", "--alpha", "1", "--duration", "1", *flags,
               check=True)
    row = json.loads(proc.stdout)["rows"][0]
    assert row["passed"] is True
    assert row["abs_diff"] <= row["j_error_estimate"] <= 1e-14


@pytest.mark.parametrize("flags,message", [
    (["--window", "inf"], "window must be positive and finite"),
    (["--abs-tol", "inf"], "abs_tol must be positive and finite"),
    # the closed form's refusals name the point's flags, not J's x and y
    (["--omega", "0"], "omega must be nonzero and finite"),
    (["--alpha", "1"], "alpha * duration out of (0, 2*pi)"),
    (["--alpha", "1e-300", "--omega", "1e300", "--duration", "1"],
     "omega / alpha must be finite"),
], ids=["window-inf", "abs-tol-inf", "omega-zero", "alpha-T-beyond-2pi",
        "omega-over-alpha-overflows"])
def test_oracle_check_non_finite_spec_exits_2(flags, message):
    proc = run("oracle-check", "--alpha", "0.1", "--omega", "1",
               "--duration", "10", *flags)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
def test_oracle_check_window_times_duration_overflow(representation):
    # window * T = 1e309 is beyond the float range, but no route forms the
    # product: the window only caps the cut
    proc = run("oracle-check", "--alpha", "0.1", "--omega", "0.1",
               "--duration", "10", "--window", "1e308",
               "--representation", representation, check=True)
    row = json.loads(proc.stdout)["rows"][0]
    assert row["passed"] is True
    assert row["abs_diff"] <= 1e-16
    assert row["j_error_estimate"] <= 2e-15


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
@pytest.mark.parametrize("alpha, omega, duration", [
    pytest.param("1e150", "1e150", "1e-150", id="1e150-1e-150"),
    pytest.param("1e-100", "1e-100", "1e100", id="1e-100-1e100"),
    pytest.param("1e-200", "1e-200", "1e200", id="1e-200-1e200"),
    pytest.param("1e10", "1e-320", "1e-10", id="omega-over-alpha-underflows")])
def test_oracle_check_is_scale_free(alpha, omega, duration, representation):
    # (alpha T, omega T) = (1, 1) at every scale; T^3 gave nan, a miss
    # beyond the estimate and an OverflowError at these three scales.
    # omega / alpha = 1e-330 rounds to 0, which the closed form refused
    # as "x must be nonzero and finite" (J is continuous at x = 0)
    proc = run("oracle-check", "--alpha", alpha, "--omega", omega,
               "--duration", duration, "--representation", representation,
               check=True)
    assert json.loads(proc.stdout)["rows"][0]["passed"] is True


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
@pytest.mark.parametrize("flags", [["--duration", "0.001", "--window", "1e-320"]],
                         ids=["tiny-window"])
def test_oracle_check_regulator_beyond_window_exits_3(flags, representation):
    # a ZeroDivisionError before, then a regulated pole beyond the window;
    # with no regulator the finite-part term 1 / (8 pi window) overflows
    proc = run("oracle-check", "--alpha", "1", "--omega", "1", *flags,
               "--representation", representation)
    assert proc.returncode == 3
    assert proc.stderr == ("error: oracle value inf with error estimate "
                           "inf leaves the float range at window = "
                           "1e-320\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
def test_oracle_check_short_duration(representation):
    # alpha T = 1e-110 put the regulated pole beyond the window (exit 3);
    # the exact limit gives a finite row inside its estimate, which fails
    # the 1e-6 tolerance only by the cut at window 20 (3.3e-6 in j)
    proc = run("oracle-check", "--alpha", "1", "--omega", "1",
               "--duration", "1e-110", "--representation", representation)
    assert proc.returncode == 1
    row = json.loads(proc.stdout)["rows"][0]
    assert row["abs_diff"] <= row["j_error_estimate"]
    assert row["tolerance"] < row["abs_diff"] < 4e-6


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
def test_oracle_check_underflowing_y_window(representation):
    # alpha * window * T = 1e-400 rounds to 0.0: a ZeroDivisionError in the
    # window-tail bound before; now a row that fails the tolerance, since
    # nearly all of the integral lies beyond the cut, within its estimate
    proc = run("oracle-check", "--alpha", "1e-200", "--omega", "1",
               "--duration", "1", "--window", "1e-200",
               "--representation", representation)
    assert proc.returncode == 1
    row = json.loads(proc.stdout)["rows"][0]
    assert row["passed"] is False
    assert row["abs_diff"] <= row["j_error_estimate"]


@pytest.mark.parametrize("representation", ["imagesum1d", "sinh2d"])
def test_oracle_check_tiny_alpha_T(representation):
    # alpha T = 1e-200 left the image table, (2 pi k / y)^2, beyond the
    # float range: a nan row
    proc = run("oracle-check", "--alpha", "1e-200", "--omega", "1e-200",
               "--duration", "1", "--window", "200",
               "--representation", representation, check=True)
    assert json.loads(proc.stdout)["rows"][0]["passed"] is True


@pytest.mark.parametrize("glued, spaced", [
    (["j-fn", "--x=-1e-5", "--y", "0.5"], ["j-fn", "--x", "-1e-5", "--y", "0.5"]),
    (["oracle-check", "--alpha", "1", "--omega=-1e-5", "--duration", "1"],
     ["oracle-check", "--alpha", "1", "--omega", "-1e-5", "--duration", "1"]),
], ids=["j-fn", "oracle-check"])
def test_negative_value_in_exponent_notation(glued, spaced):
    # argparse's negative-number pattern has no exponent form: exit 2 with
    # "expected one argument" before
    want = run(*glued, check=True)
    got = run(*spaced, check=True)
    assert (got.stdout, got.stderr) == (want.stdout, want.stderr)


def test_j_fn_where_sin_squared_underflows():
    proc = run("j-fn", "--x", "-0.025", "--y", "1e-200", check=True)
    assert math.isfinite(float(parse_csv(proc.stdout)[0]["j"]))


def test_j_fn_where_lerch_weight_underflows():
    # printed nan: |x| y^2 overflowed to inf and met z = 0
    proc = run("j-fn", "--x", "1e308", "--y", "5", check=True)
    assert float(parse_csv(proc.stdout)[0]["j"]) == 1.25e308


def test_closed_form_and_cli_load_no_scipy():
    # the log-z branch (a = 1000, 3e6) needs psi and zeta; the oracles
    # alone import scipy, on their first quadrature
    code = (
        "import sys, unruh_otto, unruh_otto.cli\n"
        "from unruh_otto import cli\n"
        "for argv in (['j-fn', '--x', '-0.001', '--y', '2'],\n"
        "             ['delta-p', '--a', '3e6', '--p', '0.3', '--v', '0.8'],\n"
        "             ['oracle-check', '--help']):\n"
        "    try:\n"
        "        assert cli.main(argv) == 0\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_oracle_check_csv_format():
    duration = repr(2.0 * math.atanh(0.8) / 40.0)
    proc = run("oracle-check", "--alpha", "40", "--omega", "-1",
               "--duration", duration, "--format", "csv", check=True)
    assert proc.stdout.splitlines()[0].endswith(",passed,j_error_estimate")
    rows = parse_csv(proc.stdout)
    assert rows[0]["representation"] == "imagesum1d"
    assert rows[0]["passed"] == "true"


def _readme_cli_examples():
    """Every ``unruh-otto ...`` command of README's CLI block, with its
    backslash continuations joined and its comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("unruh-otto ")]


def test_readme_cli_examples_run():
    # so that no example goes stale when a flag changes
    examples = _readme_cli_examples()
    assert len(examples) >= 10
    for argv in examples:
        proc = run(*argv[1:])
        assert proc.returncode == (1 if "--expect-fail" in argv else 0), \
            (argv, proc.stderr)
