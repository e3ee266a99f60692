"""Workload definitions: seeded inputs, the operations, and their warm-ups.

Every workload is a closed loop over *rounds*: a round is a fixed list of
operations made from ``--seed`` alone, and a run repeats whole rounds, so
the share of failed operations is the same in every run.  This module
imports nothing from ``unruh_otto`` at import time; the operations take
the package's modules as arguments and look every function up as a module
attribute at call time, which is where the traced run wraps them.
"""

import math
import random

WORKLOADS = ("cycle-scan", "kick-sweep", "oracle-grid", "cli-cold")

# kick-sweep: 16 log-spaced reduced accelerations over [10, 1e6].
KICK_A = tuple(10.0 * 10.0 ** (5.0 * i / 15.0) for i in range(16))
# The fixed near-pole curve: y = 2 atanh(v) lies 1e-4 below 2 pi, where
# j_function loses the double pole of its sin^2 term to cancellation.
NEAR_POLE = {"p": 0.3, "v": math.tanh(math.pi - 0.5e-4), "g": 1.0,
             "ref_row": 8, "known_fault": "j_function double pole at y -> 2 pi"}

# oracle-grid: points of the CLI's default validation grid (GRID_A x GRID_V
# x omega = +-1 in unruh_otto.cli) and its regulator ladders GRID_EPSILONS,
# copied so that the inputs stay fixed when the program changes.
GRID_EPSILONS = {
    "imagesum1d": (2.5e-3, 1.25e-3, 6.25e-4),
    "sinh2d": (1.25e-3, 6.25e-4, 3.125e-4),
}
GRID_ROUND = ((5.0, 0.3, -1.0), (100.0, 0.3, 1.0), (15.0, 0.5, 1.0),
              (40.0, 0.5, -1.0), (40.0, 0.8, 1.0), (100.0, 0.8, -1.0))
SPEC_DEFAULTS = {"k_max": 20000, "abs_tol": 1e-6, "rel_tol": 1e-3, "window": 20.0}
SINH2D_FAULT = "integrate_sinh_2d window bias not in its error estimate"

# Smallest number of operations a timed run makes, per workload: enough
# for the tail percentile in TAIL_PERCENTILE to have ten operations beyond it.
MIN_OPS = {"cycle-scan": 1000, "kick-sweep": 40, "oracle-grid": 1, "cli-cold": 1}
# Percentile reported as op_tail_ms.  oracle-grid and cli-cold make fewer
# than forty operations per run, so their tail is the median.
TAIL_PERCENTILE = {"cycle-scan": 99.0, "kick-sweep": 75.0,
                   "oracle-grid": 50.0, "cli-cold": 50.0}


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def make_round(workload, seed):
    """The list of operations one round of ``workload`` makes for ``seed``."""
    rng = _rng(workload, seed)
    return {"cycle-scan": _cycle_round, "kick-sweep": _kick_round,
            "oracle-grid": _grid_round, "cli-cold": _cli_round}[workload](rng)


def _cycle_round(rng, n=16):
    # The cost of a cycle depends on a_H and a_C (j_function is slowest
    # near a = 20), so a seeded pairing of a_H with a_C moved op_p50_ms by
    # up to 10% from seed to seed.  Cycle i therefore takes a_H from
    # stratum i, a_C from stratum 5i+3 and v from stratum 11i+7 (mod 16) of
    # their ranges, every seed alike; the seed draws each value within its
    # stratum, the gaps, g and the order.
    ops = []
    for i in range(n):
        omega1 = rng.uniform(0.5, 2.0)
        omega2 = omega1 * rng.uniform(1.0, 3.0)
        a_h = 2.0 * 100.0 ** ((i + rng.random()) / n)
        a_c = 2.0 * 100.0 ** (((5 * i + 3) % n + rng.random()) / n)
        v = 0.3 + 0.65 * ((11 * i + 7) % n + rng.random()) / n
        ops.append({"omega1": omega1, "omega2": omega2,
                    "alpha_H": a_h * omega2, "alpha_C": a_c * omega1,
                    "v": v, "g": rng.uniform(0.05, 1.0),
                    "ref": rng.choice(("hot", "cold"))})
    rng.shuffle(ops)
    return ops


def _kick_round(rng, n=8):
    ops = [{"p": rng.uniform(0.05, 0.95), "v": rng.uniform(0.3, 0.95),
            "g": rng.uniform(0.1, 1.0), "ref_row": rng.randrange(len(KICK_A))}
           for _ in range(n - 1)]
    ops.insert(rng.randrange(n), dict(NEAR_POLE))
    return ops


def _grid_round(rng):
    # A fixed six of the 24 grid points, covering every a, every v and both
    # omegas, with the two v = 0.8 points the 24 have in the same share.
    # The seed only orders them: a point set chosen by the seed moved
    # op_p50_ms by +-10% from seed to seed, as the points differ in cost.
    ops = [{"a": a, "v": v, "omega": omega} for a, v, omega in GRID_ROUND]
    rng.shuffle(ops)
    for op in ops:
        if op["v"] == 0.8:
            op["known_fault"] = SINH2D_FAULT
    return ops


def _log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _cli_round(rng):
    a = _log_uniform(rng, 2.0, 200.0)
    a_hot = _log_uniform(rng, 10.0, 200.0)
    a_lo = _log_uniform(rng, 5.0, 40.0)
    argvs = [
        ["j-fn", "--x", repr(rng.choice((-1.0, 1.0)) / _log_uniform(rng, 2.0, 200.0)),
         "--y", repr(2.0 * math.atanh(rng.uniform(0.3, 0.95)))],
        ["delta-p", "--a", repr(a), "--p", repr(rng.uniform(0.05, 0.95)),
         "--v", repr(rng.uniform(0.3, 0.95)), "--g", repr(rng.uniform(0.1, 1.0))],
        ["trajectory", "--alpha", repr(_log_uniform(rng, 0.5, 50.0)),
         "--v", repr(rng.uniform(0.3, 0.95)), "--count", str(rng.randrange(21, 102, 2))],
        ["sweep-p", "--p-min", "0", "--p-max", "1", "--count", "11",
         "--a", repr(_log_uniform(rng, 2.0, 200.0)), "--v", repr(rng.uniform(0.3, 0.95)),
         "--g", repr(rng.uniform(0.1, 1.0))],
        ["sweep-a", "--a-min", repr(a_lo), "--a-max", repr(a_lo * _log_uniform(rng, 2.0, 5.0)),
         "--count", "6", "--p", repr(rng.uniform(0.05, 0.95)),
         "--v", repr(rng.uniform(0.3, 0.95))],
        ["compare-classical", "--a-hot", repr(a_hot),
         "--a-cold", repr(a_hot / _log_uniform(rng, 1.5, 5.0)),
         "--v", *(repr(rng.uniform(0.3, 0.95)) for _ in range(3))],
    ]
    formats = rng.sample(["csv"] * 3 + ["json"] * 3, 6)
    to_file = rng.sample([True] * 3 + [False] * 3, 6)
    ops = [{"argv": argv + ["--format", fmt], "to_file": f, "ref_row": rng.randrange(6)}
           for argv, fmt, f in zip(argvs, formats, to_file)]
    rng.shuffle(ops)
    return ops


# Fixed warm-up operations: set-up time does not depend on the seed.
WARMUP = {
    "cycle-scan": {"omega1": 1.0, "omega2": 2.0, "alpha_H": 80.0, "alpha_C": 15.0,
                   "v": 0.8, "g": 1.0, "ref": "hot"},
    "kick-sweep": {"p": 0.3, "v": 0.8, "g": 0.5, "ref_row": 0},
    "oracle-grid": {"a": 40.0, "v": 0.5, "omega": 1.0},
    "cli-cold": {"argv": ["j-fn", "--x", "-0.025", "--y", "2.1972245773362196",
                          "--format", "csv"], "to_file": False, "ref_row": 0},
}


def reference_points(workload, op):
    """The (x, y) points of J an operation is checked at against mpmath."""
    if workload == "cycle-scan":
        a = op["alpha_H"] / op["omega2"] if op["ref"] == "hot" else op["alpha_C"] / op["omega1"]
        return [(-1.0 / a, 2.0 * math.atanh(op["v"]))]
    if workload == "kick-sweep":
        return [(-1.0 / KICK_A[op["ref_row"]], 2.0 * math.atanh(op["v"]))]
    if workload == "oracle-grid":
        return [(op["omega"] / op["a"], 2.0 * math.atanh(op["v"]))]
    return cli_reference_points(op["argv"], op["ref_row"])


def cli_args(argv):
    """Flag values of one CLI invocation as {name: str or list of str}."""
    out, key = {}, None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            out[key] = []
        else:
            out[key].append(tok)
    return {k: (v[0] if len(v) == 1 else v) for k, v in out.items()}


def cli_linspace(lo, hi, count):
    """The CLI's own grid rule for sweeps (lo + i*step, last point exactly hi)."""
    step = (hi - lo) / (count - 1)
    values = [lo + i * step for i in range(count)]
    values[-1] = hi
    return values


def cli_reference_points(argv, ref_row):
    cmd, f = argv[0], cli_args(argv)
    if cmd == "j-fn":
        return [(float(f["x"]), float(f["y"]))]
    if cmd in ("delta-p", "sweep-p"):
        return [(-1.0 / float(f["a"]), 2.0 * math.atanh(float(f["v"])))]
    if cmd == "sweep-a":
        grid = cli_linspace(float(f["a-min"]), float(f["a-max"]), int(f["count"]))
        return [(-1.0 / grid[ref_row % len(grid)], 2.0 * math.atanh(float(f["v"])))]
    if cmd == "compare-classical":
        v = float(f["v"][ref_row % len(f["v"])])
        y = 2.0 * math.atanh(v)
        return [(-1.0 / float(f["a-hot"]), y), (-1.0 / float(f["a-cold"]), y)]
    return []


# ---------------------------------------------------------------------------
# operations (run in the worker process)

def cycle_op(m, op):
    """Close one Otto cycle: contact durations, fixed point, and its ledger."""
    t_hot, t_cold = m.kinematics.contact_durations(op["alpha_H"], op["alpha_C"], op["v"])
    cfg = m.engine.EngineConfig(omega1=op["omega1"], omega2=op["omega2"],
                                alpha_H=op["alpha_H"], alpha_C=op["alpha_C"],
                                v=op["v"], g=op["g"])
    sol = m.engine.solve_cycle(cfg)
    out = {"t_hot": t_hot, "t_cold": t_cold, "p0": sol.p0, "dp_hot": sol.dp_hot,
           "dp_cold": sol.dp_cold, "feasible": sol.feasible}
    # The ledger needs a population; a fixed point outside [0, 1] is an
    # infeasible cycle that solve_cycle reports and a scan skips.
    if 0.0 <= sol.p0 <= 1.0:
        led = m.engine.stage_ledger(m.dataclasses.replace(cfg, p=sol.p0), sol.dp_hot)
        out["ledger"] = m.dataclasses.asdict(led)
    return out


def kick_op(m, op):
    """One sweep-a curve, each row computed the way the CLI computes it."""
    rows = []
    for a in KICK_A:
        dp = m.response.delta_p(a, op["p"], op["v"], op["g"])
        verdict = m.response.perturbative_validity(a, op["v"], op["g"], p=op["p"])
        rows.append([a, dp, verdict.passed, verdict.in_unit_interval,
                     verdict.population_after, verdict.ratio])
    return rows


def grid_spec(m, representation):
    return m.oracle.QuadratureSpec(epsilon_list=GRID_EPSILONS[representation],
                                   **SPEC_DEFAULTS)


def grid_op(m, op):
    """One validation point three ways: closed form and both oracles."""
    a, omega = op["a"], op["omega"]
    duration = 2.0 * math.atanh(op["v"]) / a
    out = {"J": m.response.vacuum_response(a, omega, duration)}
    for name, fn in (("imagesum1d", m.oracle.integrate_imagesum_1d),
                     ("sinh2d", m.oracle.integrate_sinh_2d)):
        res = fn(a, omega, duration, grid_spec(m, name))
        out[name] = [res.j_estimate, res.j_error_estimate]
    return out


OPS = {"cycle-scan": cycle_op, "kick-sweep": kick_op, "oracle-grid": grid_op}
