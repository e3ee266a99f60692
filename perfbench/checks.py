"""Checks of every operation's output: the mpmath reference and cheap properties.

Each distinct operation of a round is checked once; a later repetition
of it passes only if its output is identical to the first.  ``J`` is held
to 1e-10 absolute against ``reference.j_reference`` at the operation's
seeded reference point.  The other properties use the program's own
functions, and hold for any correct implementation:

- ``delta_p`` equals ``delta_p_unreduced`` to 1e-10,
- kicks are affine in p and cancel at the cycle's fixed point p0,
- ``first_law_residual <= 1e-12`` and ``eta = 1 - omega1/omega2``,
- on a worldline ``x^2 - t^2 = 1/alpha^2`` and ``velocity = tanh(alpha tau)``,
- ``w_cl = (tanh(1/2a_C) - tanh(1/2a_H))/2``,
- the CSV and JSON outputs of one CLI invocation hold the same rows.

Each check returns None when the output is right, else the reason.
"""

import csv
import io
import json
import math
import os

import workloads

J_TOL = 1e-10


class Failed(Exception):
    pass


def need(cond, reason):
    if not cond:
        raise Failed(reason)


def close(got, want, rel=1e-12, abs_=1e-15):
    return abs(got - want) <= max(abs_, rel * abs(want))


def need_j(got, ref, where):
    need(abs(got - ref) <= J_TOL, f"J at {where} is {got!r}, mpmath gives {ref!r}")


def _kick(a, j, p, v, g):
    return g * g * ((1.0 - 2.0 * p) * j - p * math.atanh(v) / (2.0 * a))


def _need_reduced(m, a, p, v, g, dp):
    unreduced = m.response.delta_p_unreduced(a, p, v, g)
    need(abs(dp - unreduced) <= 1e-10, f"delta_p {dp!r} != delta_p_unreduced {unreduced!r} at a={a!r}")


def check_cycle(m, op, out, refs):
    v, g = op["v"], op["g"]
    a_h, a_c = op["alpha_H"] / op["omega2"], op["alpha_C"] / op["omega1"]
    y = 2.0 * math.atanh(v)
    need(close(out["t_hot"], y / op["alpha_H"], 1e-14) and close(out["t_cold"], y / op["alpha_C"], 1e-14),
         "contact durations")
    j_h = m.response.j_function(-1.0 / a_h, y)
    j_c = m.response.j_function(-1.0 / a_c, y)
    (point, ref), = refs.items()
    need_j(j_h if op["ref"] == "hot" else j_c, ref, point)
    p0, dp_hot = out["p0"], out["dp_hot"]
    k_h, k_c = _kick(a_h, j_h, p0, v, 1.0), _kick(a_c, j_c, p0, v, 1.0)
    need(abs(k_h + k_c) <= 1e-10 * max(1.0, abs(k_h), abs(k_c)), "kicks do not cancel at p0")
    need(close(dp_hot, g * g * k_h, 1e-10, 1e-16), "dp_hot is not the hot kick at p0")
    need(out["dp_cold"] == -dp_hot and out["feasible"] == (dp_hot > 0.0), "dp_cold / feasible")
    d0, dh, d1 = (m.response.delta_p(a_h, p, v, g) for p in (0.0, 0.5, 1.0))
    need(abs(dh - 0.5 * (d0 + d1)) <= 1e-12, "kick not affine in p")
    _need_reduced(m, a_h, 0.5, v, g, dh)
    led = out.get("ledger")
    need((led is not None) == (0.0 <= p0 <= 1.0), "ledger present iff 0 <= p0 <= 1")
    if led:
        need(led["first_law_residual"] <= 1e-12, "first law residual")
        need(close(led["eta"], 1.0 - op["omega1"] / op["omega2"], 1e-14), "eta != 1 - omega1/omega2")
        need(led["w_ext"] == -led["w_total"] and close(led["q2"], op["omega2"] * dp_hot), "ledger entries")


def check_kick(m, op, out, refs):
    p, v, g = op["p"], op["v"], op["g"]
    t = math.atanh(v)
    need(len(out) == len(workloads.KICK_A), "row count")
    for i, (a, dp, passed, in_unit, after, ratio) in enumerate(out):
        need(a == workloads.KICK_A[i], "a grid")
        _need_reduced(m, a, p, v, g, dp)
        need(close(ratio, a / (g * g * t), 1e-14) and passed == (ratio >= 10.0), "validity verdict")
        need(after == p + dp and in_unit == (0.0 < after < 1.0), "population after")
    a, dp = out[op["ref_row"]][0], out[op["ref_row"]][1]
    y = 2.0 * t
    j = m.response.j_function(-1.0 / a, y)
    (point, ref), = refs.items()
    need_j(j, ref, point)
    need(close(dp, _kick(a, j, p, v, g), 1e-12, 1e-16), "delta_p is not the kick of J")
    d0, d1 = m.response.delta_p(a, 0.0, v, g), m.response.delta_p(a, 1.0, v, g)
    need(abs(dp - ((1.0 - p) * d0 + p * d1)) <= 1e-12, "kick not affine in p")


def check_grid(m, op, out, refs):
    (point, ref), = refs.items()
    need_j(out["J"], ref, point)
    for name in ("imagesum1d", "sinh2d"):
        est, err = out[name]
        need(abs(est - ref) <= err,
             f"{name} j_estimate off by {abs(est - ref):.3g}, its error estimate is {err:.3g}")


# ---------------------------------------------------------------------------
# CLI outputs

def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_rows(text, fmt):
    """Rows of one CLI output as lists of cell text, header first."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    rows = json.loads(text)["rows"]
    header = list(rows[0]) if rows else []
    return [header] + [[_cell(row[k]) for k in header] for row in rows]


def _same_rows(a, b):
    """CSV and JSON rows agree: JSON keys are sorted, so match by column name."""
    if len(a) != len(b) or not a:
        return False
    idx = [b[0].index(name) if name in b[0] else None for name in a[0]]
    return None not in idx and all([rb[j] for j in idx] == ra for ra, rb in zip(a[1:], b[1:]))


def _num(rows):
    header = rows[0]
    out = []
    for row in rows[1:]:
        rec = {}
        for k, cell in zip(header, row):
            rec[k] = {"true": True, "false": False}.get(cell)
            if rec[k] is None:
                rec[k] = float(cell)
        out.append(rec)
    return out


def check_cli(m, op, out, refs, workdir):
    argv = op["argv"]
    cmd, f = argv[0], workloads.cli_args(argv)
    fmt = f["format"]
    rows = parse_rows(out["text"], fmt)
    need(op["to_file"] == (out["stdout"] == ""), "output went to the wrong place")
    other = "json" if fmt == "csv" else "csv"
    path = os.path.join(workdir, "cli-check-out.txt")
    code = m.cli.main(argv[:-1] + [other, "--out", path])
    with open(path) as handle:
        other_rows = parse_rows(handle.read(), other)
    os.unlink(path)
    need(code == 0 and _same_rows(rows, other_rows), "CSV and JSON rows differ")
    recs = _num(rows)
    points = list(refs.items())
    if cmd == "j-fn":
        (point, ref), = points
        need_j(recs[0]["j"], ref, point)
    elif cmd in ("delta-p", "sweep-p", "sweep-a"):
        p_, v, g = (float(f[k]) if k in f else 1.0 for k in ("p", "v", "g"))
        for rec in recs:
            _need_reduced(m, rec["a"], rec["p"], v, g, rec["delta_p"])
            ratio = rec["a"] / (g * g * math.atanh(v))
            need(rec["valid"] == (ratio >= 10.0), "valid flag")
            need(rec["in_unit_interval"] == (0.0 < rec["p"] + rec["delta_p"] < 1.0), "in_unit_interval")
        (point, ref), = points
        if cmd == "delta-p":
            need_j(recs[0]["j_value"], ref, point)
            need(close(recs[0]["delta_p"], _kick(recs[0]["a"], recs[0]["j_value"], p_, v, g), 1e-12, 1e-16),
                 "delta_p is not the kick of j_value")
        elif cmd == "sweep-p":
            need([r["p"] for r in recs] == workloads.cli_linspace(0.0, 1.0, int(f["count"])), "p grid")
            d0, d1 = recs[0]["delta_p"], recs[-1]["delta_p"]
            for r in recs:
                need(abs(r["delta_p"] - ((1.0 - r["p"]) * d0 + r["p"] * d1)) <= 1e-12, "kick not affine in p")
            need_j(d0 / (g * g), ref, point)
        else:
            grid = workloads.cli_linspace(float(f["a-min"]), float(f["a-max"]), int(f["count"]))
            need([r["a"] for r in recs] == grid, "a grid")
            rec = recs[op["ref_row"] % len(recs)]
            j = m.response.j_function(-1.0 / rec["a"], 2.0 * math.atanh(v))
            need_j(j, ref, point)
            need(close(rec["delta_p"], _kick(rec["a"], j, p_, v, g), 1e-12, 1e-16), "delta_p is not the kick of J")
    elif cmd == "trajectory":
        alpha, v = float(f["alpha"]), float(f["v"])
        need(len(recs) == int(f["count"]), "row count")
        half = math.atanh(v) / alpha
        need(close(recs[0]["tau"], -half, 1e-14) and close(recs[-1]["tau"], half, 1e-14), "tau range")
        for r in recs:
            need(close(r["x"] ** 2 - r["t"] ** 2, 1.0 / alpha ** 2, 1e-12), "x^2 - t^2 != 1/alpha^2")
            need(close(r["velocity"], math.tanh(alpha * r["tau"]), 1e-14), "velocity != tanh(alpha tau)")
    elif cmd == "compare-classical":
        a_h, a_c = float(f["a-hot"]), float(f["a-cold"])
        w_cl = 0.5 * (math.tanh(0.5 / a_c) - math.tanh(0.5 / a_h))
        need([r["v"] for r in recs] == [float(s) for s in f["v"]], "v list")
        for k, r in enumerate(recs):
            need(close(r["w_cl"], w_cl, 1e-14), "w_cl != (tanh(1/2a_C) - tanh(1/2a_H))/2")
            y = 2.0 * math.atanh(r["v"])
            j_h, j_c = m.response.j_function(-1.0 / a_h, y), m.response.j_function(-1.0 / a_c, y)
            if k == op["ref_row"] % len(recs):
                for (point, ref), j in zip(points, (j_h, j_c)):
                    need_j(j, ref, point)
            pump = 2.0 * a_h * a_c * (j_h + j_c) / ((a_h + a_c) * math.atanh(r["v"]))
            p0 = pump / (1.0 + 2.0 * pump)
            need(close(r["w_unruh"], _kick(a_h, j_h, p0, r["v"], 1.0), 1e-9, 1e-15), "w_unruh != hot kick at p0")
    else:
        raise Failed(f"no check for {cmd}")


def check(workload, m, op, out, refs, workdir):
    """None if ``out`` is a correct output of ``op``, else the reason it is not."""
    if "error" in out:
        return out["error"]
    try:
        if workload == "cli-cold":
            check_cli(m, op, out, refs, workdir)
        else:
            {"cycle-scan": check_cycle, "kick-sweep": check_kick,
             "oracle-grid": check_grid}[workload](m, op, out, refs)
    except Failed as exc:
        return str(exc)
    except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
