"""Command-line front end: point evaluations, sweeps, and oracle checks.

Output contract
---------------
Every command emits CSV (default) or JSON via ``--format``, to stdout or
to ``--out PATH``.  File output is atomic: rows are assembled in memory,
written to a temporary file in the destination directory, and renamed
into place, so a partial file is never left behind.  Floats are printed
as shortest round-trip decimals, so identical invocations produce
byte-identical output on any IEEE-754 platform; booleans print as
``true``/``false``.  The JSON variant wraps the same rows in an object
with a ``metadata`` block {command, parameters, version}.

Column sets are frozen per command; any future extension may only
append columns.

Exit codes: 0 success, 1 check failed (oracle-check mismatch),
2 domain error (single-line diagnostic on stderr), 3 an oracle value or
error estimate beyond the float range, |omega T| beyond 800 pi over the
oracle's cut, or a failed internal consistency check.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .engine import EngineConfig, solve_cycle, work_comparison
from .errors import ConsistencyError, DomainError, NonConvergenceError
from .kinematics import Worldline, trajectory_point, velocity
from .oracle import QuadratureSpec, integrate_imagesum_1d, integrate_sinh_2d
from .response import (j_function, kick_and_response, perturbative_validity,
                       vacuum_response, with_population)

GRID_A = (5.0, 15.0, 40.0, 100.0)
GRID_V = (0.3, 0.5, 0.8)

# argparse reads a value such as -1e-5 as a flag: its own negative-number
# pattern has no exponent form.  main glues such a value to its flag.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_payload(payload: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_path, out)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(args, header: Sequence[str], rows: List[tuple]) -> None:
    """Write ``rows`` as CSV or JSON; the JSON ``parameters`` are every
    attribute of ``args`` (the parsed flags, and any a command sets)
    except the subcommand, its handler and the output flags."""
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
        payload = buffer.getvalue()
    else:
        parameters = {name: value for name, value in vars(args).items()
                      if name not in ("command", "handler", "format", "out")}
        payload = json.dumps(
            {"metadata": {"command": args.command, "parameters": parameters,
                          "version": __version__},
             "rows": [dict(zip(header, row)) for row in rows]},
            indent=2, sort_keys=True) + "\n"
    _write_payload(payload, args.out)


def _linspace(lo: float, hi: float, count: int) -> List[float]:
    if count < 2:
        raise DomainError("count must be at least 2")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("range min must be below max")
    step = (hi - lo) / (count - 1)
    values = [lo + i * step for i in range(count)]
    values[-1] = hi
    return values


# ---------------------------------------------------------------------------
# commands

SWEEP_HEADER = ("a", "p", "v", "g", "delta_p", "valid", "in_unit_interval")


def _sweep_row(a: float, p: float, v: float,
               g: float) -> Tuple[tuple, float]:
    """One sweep row and the J(-1/a, y) behind it; J is evaluated once."""
    dp, j_value = kick_and_response(a, p, v, g)
    verdict = with_population(perturbative_validity(a, v, g), p, dp)
    return (a, p, v, g, dp, verdict.passed, verdict.in_unit_interval), j_value


def _cmd_delta_p(args) -> int:
    row, j_value = _sweep_row(args.a, args.p, args.v, args.g)
    _emit(args, SWEEP_HEADER + ("j_value",), [row + (j_value,)])
    return 0


def _cmd_j_fn(args) -> int:
    value = j_function(args.x, args.y)
    _emit(args, ("x", "y", "j"), [(args.x, args.y, value)])
    return 0


def _cmd_trajectory(args) -> int:
    worldline = Worldline(alpha=args.alpha, v=args.v)
    half = worldline.tau_half
    rows = []
    for tau in _linspace(-half, half, args.count):
        t, x = trajectory_point(worldline, tau)
        rows.append((tau, t, x, velocity(worldline, tau)))
    _emit(args, ("tau", "t", "x", "velocity"), rows)
    return 0


def _cmd_sweep_a(args) -> int:
    rows = [_sweep_row(a, args.p, args.v, args.g)[0]
            for a in _linspace(args.a_min, args.a_max, args.count)]
    _emit(args, SWEEP_HEADER, rows)
    return 0


def _cmd_sweep_p(args) -> int:
    rows = [_sweep_row(args.a, p, args.v, args.g)[0]
            for p in _linspace(args.p_min, args.p_max, args.count)]
    _emit(args, SWEEP_HEADER, rows)
    return 0


def _cmd_solve_grid(args) -> int:
    grid = _linspace(args.a_min, args.a_max, args.count)
    rows = []
    for a_H in grid:
        for a_C in grid:
            # unit gaps put the config directly in reduced coordinates
            sol = solve_cycle(EngineConfig(omega1=1.0, omega2=1.0,
                                           alpha_H=a_H, alpha_C=a_C,
                                           v=args.v, g=args.g))
            rows.append((a_H, a_C, args.v, sol.p0, sol.dp_hot, sol.feasible))
    _emit(args, ("a_H", "a_C", "v", "p0", "dp_hot", "feasible"), rows)
    return 0


def _cmd_compare_classical(args) -> int:
    rows = work_comparison(args.a_hot, args.a_cold, args.v,
                           gap_diff=args.gap_diff, g=args.g)
    _emit(args, ("v", "w_unruh", "w_cl"), rows)
    return 0


ORACLE_HEADER = ("alpha", "omega", "duration", "representation",
                 "oracle_value_real", "oracle_value_imag", "error_estimate",
                 "j_oracle", "j_closed", "abs_diff", "rel_diff",
                 "tolerance", "passed", "j_error_estimate")


def _check_point(alpha: float, omega: float, duration: float, integrator,
                 spec: QuadratureSpec, expect_fail: bool) -> tuple:
    j_closed = vacuum_response(alpha, omega, duration)
    # --expect-fail is a fault injection: the sign of omega is flipped on
    # the oracle route only, so the two routes genuinely disagree and the
    # comparison must report a failure (flipping both routes together
    # would still agree and prove nothing about sensitivity).
    omega_fed = -omega if expect_fail else omega
    result = integrator(alpha, omega_fed, duration, spec)
    j_oracle = result.j_estimate
    abs_diff = abs(j_oracle - j_closed)
    tolerance = max(spec.abs_tol, spec.rel_tol * abs(j_closed))
    rel_diff = abs_diff / abs(j_closed) if j_closed != 0.0 else math.inf
    return (alpha, omega, duration, result.representation,
            result.value, 0.0, result.error_estimate,   # the value is real
            j_oracle, j_closed, abs_diff, rel_diff, tolerance,
            abs_diff <= tolerance, result.j_error_estimate)


def _cmd_oracle_check(args) -> int:
    point_flags = (args.alpha, args.omega, args.duration)
    if any(x is not None for x in point_flags) and \
            not all(x is not None for x in point_flags):
        raise DomainError(
            "provide all of --alpha, --omega, --duration, or none of them "
            "to run the default validation grid")
    integrator = (integrate_imagesum_1d if args.representation == "imagesum1d"
                  else integrate_sinh_2d)

    grid_mode = args.alpha is None
    args.mode = "grid" if grid_mode else "point"   # a JSON parameter
    spec = QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                          window=args.window)

    if grid_mode:
        rows = []
        for a in GRID_A:
            for v in GRID_V:
                duration = 2.0 * math.atanh(v) / a
                for omega in (-1.0, 1.0):
                    rows.append(_check_point(a, omega, duration, integrator,
                                             spec, args.expect_fail))
    else:
        rows = [_check_point(args.alpha, args.omega, args.duration,
                             integrator, spec, args.expect_fail)]

    _emit(args, ORACLE_HEADER, rows)
    passed = ORACLE_HEADER.index("passed")
    return 0 if all(row[passed] for row in rows) else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruh-otto",
        description="Quantum Otto engine with uniformly accelerated vacuum "
                    "contacts: population kicks, cycle solutions, worldlines, "
                    "and quadrature cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, default_format="csv"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("csv", "json"),
                       default=default_format,
                       help="output format (default: %(default)s)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH atomically "
                            "(default: stdout)")
        return p

    p = command("delta-p", _cmd_delta_p, "single population-kick evaluation")
    p.add_argument("--a", type=float, required=True, help="reduced acceleration")
    p.add_argument("--p", type=float, required=True, help="initial excited population")
    p.add_argument("--v", type=float, required=True, help="contact end speed")
    p.add_argument("--g", type=float, default=1.0, help="coupling (default 1)")

    p = command("j-fn", _cmd_j_fn, "closed-form response function J(x, y)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = command("trajectory", _cmd_trajectory, "sampled hyperbolic worldline")
    p.add_argument("--alpha", type=float, required=True, help="proper acceleration")
    p.add_argument("--v", type=float, required=True, help="end speed")
    p.add_argument("--count", type=int, default=41, help="number of samples (default 41)")

    p = command("sweep-a", _cmd_sweep_a, "population kick versus acceleration")
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--g", type=float, default=1.0)

    p = command("sweep-p", _cmd_sweep_p,
                "population kick versus initial population")
    p.add_argument("--p-min", type=float, required=True)
    p.add_argument("--p-max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--g", type=float, default=1.0)

    p = command("solve-grid", _cmd_solve_grid,
                "cycle solution over an acceleration grid")
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--g", type=float, default=1.0)

    p = command("compare-classical", _cmd_compare_classical,
                "work per cycle versus the thermal-bath reference")
    p.add_argument("--a-hot", type=float, required=True)
    p.add_argument("--a-cold", type=float, required=True)
    p.add_argument("--v", type=float, nargs="+", required=True,
                   help="one or more contact end speeds")
    p.add_argument("--gap-diff", type=float, default=1.0,
                   help="omega2 - omega1 (default 1)")
    p.add_argument("--g", type=float, default=1.0)

    p = command("oracle-check", _cmd_oracle_check,
                "closed form versus quadrature oracle; "
                "no point flags runs the default grid", default_format="json")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--duration", type=float, default=None,
                   help="Lorentzian window duration T")
    p.add_argument("--representation", choices=("imagesum1d", "sinh2d"),
                   default="imagesum1d")
    spec = QuadratureSpec()
    p.add_argument("--window", type=float, default=spec.window,
                   help="cap on the quadrature's half-width in units of T; "
                        "each route stops where the kernel's tail bound "
                        "falls to 1e-15 (default: %(default)s)")
    p.add_argument("--abs-tol", type=float, default=spec.abs_tol)
    p.add_argument("--rel-tol", type=float, default=spec.rel_tol)
    p.add_argument("--expect-fail", action="store_true",
                   help="flip the sign of omega on the oracle route only; "
                        "the check must then fail (exit 1)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    glued: List[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if (glued and glued[-1].startswith("--") and "=" not in glued[-1]
                and _NEGATIVE_NUMBER.fullmatch(arg)):
            glued[-1] += "=" + arg   # --x -1e-5 is read as --x=-1e-5
        else:
            glued.append(arg)
    args = build_parser().parse_args(glued)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
