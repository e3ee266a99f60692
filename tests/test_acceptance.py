"""Acceptance gate: the ten headline claims, one test each.

Every test prints a single line

    ACCEPTANCE <name>: PASS|FAIL (<details>)

so that ``pytest tests/test_acceptance.py -s`` doubles as a checklist.
Two criteria fail by design on this implementation; the mathematics behind
each discrepancy is laid out in the README's "Known discrepancies" section.
"""

import math
import random
import time

import pytest
from scipy.optimize import brentq

from unruh_otto import (
    EngineConfig,
    classical_delta_p,
    critical_probability,
    delta_p,
    integrate_imagesum_1d,
    integrate_sinh_2d,
    j_function,
    solve_cycle,
    stage_ledger,
    vacuum_response,
    work_comparison,
)
from unruh_otto.cli import GRID_A, GRID_V

TWO_PI = 2.0 * math.pi

# Frozen after validating both quadrature routes against the closed form.
WORK_TABLE = {
    0.3: 0.0015739774441170574,
    0.5: 0.002795594863061117,
    0.7: 0.004417997861737759,
    0.9: 0.0075096747341324085,
}
CLASSICAL_WORK = 0.010410822069900998


def _report(name: str, passed: bool, detail: str) -> bool:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({detail})")
    return passed


def _grid_axis(count: int = 20, lo: float = 2.0, hi: float = 200.0):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def test_reference_point_critical_probability():
    start = time.perf_counter()
    p0 = critical_probability(40.0, 15.0, 0.8)
    elapsed = time.perf_counter() - start
    deviation = abs(p0 - 0.293)
    ok = deviation < 0.005 and elapsed < 1.0
    assert _report(
        "critical-probability-anchor", ok,
        f"p0(40, 15, 0.8) = {p0:.6f}, |p0 - 0.293| = {deviation:.4f}, "
        f"band 0.005, {elapsed:.2f}s",
    ), "closed-form fixed point sits outside the quoted 0.293 +/- 0.005 band"


def test_response_asymmetry_identity_random_points():
    rng = random.Random(20260825)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.01, 5.0) * rng.choice((-1.0, 1.0))
        y = rng.uniform(0.01, TWO_PI - 0.01)
        residual = abs(j_function(x, y) - j_function(-x, y) - x * y / 4.0)
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert _report(
        "asymmetry-identity", ok,
        f"worst |J(x,y) - J(-x,y) - xy/4| = {worst:.3e} over 1000 points, "
        f"{elapsed:.1f}s",
    )


def test_closed_form_matches_both_oracles_on_validation_grid():
    start = time.perf_counter()
    failures = []
    worst_ratio = 0.0
    for integrate, rep in ((integrate_imagesum_1d, "imagesum1d"),
                           (integrate_sinh_2d, "sinh2d")):
        for a in GRID_A:
            for v in GRID_V:
                duration = 2.0 * math.atanh(v) / a
                for omega in (-1.0, 1.0):
                    closed = vacuum_response(a, omega, duration)
                    result = integrate(a, omega, duration)
                    diff = abs(result.j_estimate - closed)
                    tolerance = max(1e-6, 1e-3 * abs(closed))
                    worst_ratio = max(worst_ratio, diff / tolerance)
                    if diff > tolerance:
                        failures.append((rep, a, v, omega, diff))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    assert _report(
        "oracle-equivalence", ok,
        f"24 points x 2 representations, worst diff/tolerance = "
        f"{worst_ratio:.3f}, {elapsed:.0f}s",
    ), failures


def test_first_law_closure_random_cycles():
    rng = random.Random(8150)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        omega1 = rng.uniform(0.1, 10.0)
        cfg = EngineConfig(
            omega1=omega1,
            omega2=omega1 + rng.uniform(0.0, 10.0),
            alpha_H=rng.uniform(1.0, 200.0),
            alpha_C=rng.uniform(1.0, 200.0),
            v=rng.uniform(0.05, 0.95),
            g=rng.uniform(0.01, 1.0),
            p=rng.uniform(0.0, 1.0),
        )
        ledger = stage_ledger(cfg, dp_hot=rng.uniform(-0.3, 0.3))
        worst = max(worst, ledger.first_law_residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    assert _report(
        "first-law", ok,
        f"worst relative |q_total + w_total| = {worst:.3e} over 10^4 "
        f"random cycles, {elapsed:.1f}s",
    )


def test_efficiency_depends_only_on_gap_ratio():
    etas = set()
    for alpha_H in (30.0, 80.0):
        for alpha_C in (5.0, 15.0):
            for v in (0.3, 0.8):
                for g in (0.1, 1.0):
                    cfg = EngineConfig(omega1=1.0, omega2=2.0,
                                       alpha_H=alpha_H, alpha_C=alpha_C,
                                       v=v, g=g)
                    ledger = stage_ledger(cfg, dp_hot=0.01)
                    assert ledger.eta == 1.0 - cfg.omega1 / cfg.omega2
                    etas.add(ledger.eta)
    other = stage_ledger(EngineConfig(omega1=2.0, omega2=5.0, alpha_H=80.0,
                                      alpha_C=15.0, v=0.8), dp_hot=0.01)
    assert other.eta == 1.0 - 2.0 / 5.0
    ok = etas == {0.5}
    assert _report(
        "efficiency-law", ok,
        f"eta = 1 - omega1/omega2 exactly; 16 contact/coupling variations "
        f"collapse to {sorted(etas)}",
    )


def test_cycle_closure_and_critical_probability_range_on_grid():
    axis = _grid_axis()
    worst_residual = 0.0
    range_violations = 0
    total = 0
    low, high = math.inf, -math.inf
    for v in GRID_V:
        for a_H in axis:
            for a_C in axis:
                total += 1
                p0 = critical_probability(a_H, a_C, v)
                low, high = min(low, p0), max(high, p0)
                if not 0.0 < p0 < 0.5:
                    range_violations += 1
                    continue
                residual = abs(delta_p(a_H, p0, v) + delta_p(a_C, p0, v))
                worst_residual = max(worst_residual, residual)
    ok = worst_residual < 1e-10 and range_violations == 0
    assert _report(
        "cyclicity-grid", ok,
        f"worst |dp_H + dp_C| at p0 = {worst_residual:.3e}; "
        f"0 < p0 < 1/2 violated at {range_violations}/{total} points "
        f"(grid p0 range [{low:.4f}, {high:.4f}])",
    ), ("the fixed point is negative wherever both reduced accelerations "
        "sit below a speed-dependent threshold; see README")


def test_work_extraction_sign_follows_contact_ordering():
    axis = _grid_axis()
    violations = 0
    total = 0
    for v in GRID_V:
        for a_H in axis:
            for a_C in axis:
                total += 1
                cycle = solve_cycle(EngineConfig(omega1=1.0, omega2=1.0,
                                                 alpha_H=a_H, alpha_C=a_C,
                                                 v=v))
                expected = (a_H > a_C) - (a_H < a_C)
                got = 0 if abs(cycle.dp_hot) <= 1e-15 else \
                    (cycle.dp_hot > 0.0) - (cycle.dp_hot < 0.0)
                if got != expected:
                    violations += 1
    ok = violations == 0
    assert _report(
        "feasibility-sign", ok,
        f"sign(dp_hot at p0) = sign(a_H - a_C) at {total - violations}/"
        f"{total} grid points",
    )


def test_balanced_population_closed_form():
    worst = 0.0
    for a in (0.5, 5.0, 40.0, 1e4):
        for v in (0.3, 0.8, 0.99):
            for g in (1.0, 0.1):
                expected = -g * g * math.atanh(v) / (4.0 * a)
                got = delta_p(a, 0.5, v, g)
                worst = max(worst, abs(got - expected) / abs(expected))
    plateau = abs(delta_p(1e4, 0.5, 0.8))
    ok = worst < 1e-12 and plateau < 3e-5
    assert _report(
        "balanced-population", ok,
        f"worst relative deviation from -g^2 arctanh(v)/(4a) = {worst:.2e}; "
        f"|dp(10^4, 1/2, 0.8)| = {plateau:.3e} < 3e-5",
    )


def test_work_approaches_classical_bath_from_below():
    rows = work_comparison(40.0, 15.0, sorted(WORK_TABLE))
    increasing = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    below = all(w_unruh < w_cl for _, w_unruh, w_cl in rows)
    frozen = all(
        math.isclose(w_unruh, WORK_TABLE[v], rel_tol=1e-12)
        and math.isclose(w_cl, CLASSICAL_WORK, rel_tol=1e-12)
        for v, w_unruh, w_cl in rows
    )
    assert math.isclose(classical_delta_p(40.0, 15.0), CLASSICAL_WORK,
                        rel_tol=1e-12)
    gap = CLASSICAL_WORK - rows[-1][1]
    ok = increasing and below and frozen
    assert _report(
        "classical-approach", ok,
        f"w(v) strictly increasing toward w_cl = {CLASSICAL_WORK:.5f}, "
        f"remaining gap at v=0.9: {gap:.2e}",
    )


def test_closed_form_fixed_point_matches_root_finder():
    rng = random.Random(424242)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 1000
        a_H = rng.uniform(2.0, 200.0)
        a_C = rng.uniform(2.0, 200.0)
        v = rng.uniform(0.1, 0.95)
        y = 2.0 * math.atanh(v)
        j_sum = j_function(-1.0 / a_H, y) + j_function(-1.0 / a_C, y)
        slope = -2.0 * j_sum - math.atanh(v) * (a_H + a_C) / (2.0 * a_H * a_C)

        def kick_sum(p):
            return j_sum + slope * p

        if kick_sum(-20.0) * kick_sum(20.0) >= 0.0:
            continue
        root = brentq(kick_sum, -20.0, 20.0, xtol=1e-12)
        worst = max(worst, abs(root - critical_probability(a_H, a_C, v)))
        checked += 1
    ok = worst < 1e-9
    assert _report(
        "fixed-point-root", ok,
        f"max |closed form - bracketing root| = {worst:.3e} over "
        f"{checked} random contact pairs",
    )
