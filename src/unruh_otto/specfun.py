"""Lerch transcendent evaluation with a certified absolute error.

The only special function needed by the vacuum-response closed form is

    phi(z, s, a) = sum_{k>=0} z^k / (k + a)^s

on the real series domain 0 <= z < 1, a > 0, with s a positive integer
(s = 1 or 2 in practice).  Two branches share one contract: the returned
value carries a guaranteed absolute error below the fixed ``TOL`` = 1e-12.

Direct summation
    The series is summed in numpy chunks until the rigorous geometric
    tail bound

        tail(N) <= z^(N+1) / ((N + 1 + a)^s * (1 - z))

    drops below ``TOL``.  It needs about log(1/TOL) / |log z| terms, which
    grows without limit as z -> 1, so a hard term cap turns an input too
    close to 1 into a loud ``ResourceLimitError`` instead of a silent
    truncation.  One call sums every order s at every shift a it is given
    with one z^k and one chunk: the longest of the sums' shortest powers of
    two, from 128 to 4096, whose tail is also below 2^-60 (a+1)^-s, under
    half an ulp of the sum.  numpy sums pairwise, so the sum of each prefix
    is the leftmost subtree of the 4096-term sum and rounds to the same
    bytes, and the chunk stops before the terms that underflow.

Log-z expansion
    For z near 1 (|log z| <= 2 pi / 100) and 0 < a <= 2 — which covers
    every shift 1 +- y/2pi the response function passes — the Erdelyi
    expansion in w = log z (DLMF 25.14; F. Johansson, Numer. Algorithms 69
    (2015), arXiv:1309.2877) is used instead:

        phi = z^-a { sum_{n=0}^{s-2} zeta(s-n, a) w^n / n!
                     + [H_{s-1} - gamma - psi(a) - log(-w)] w^(s-1) / (s-1)!
                     + sum_{k>=0} zeta(-k, a) w^(s+k) / (s+k)! },

    with zeta(-k, a) = -B_{k+1}(a) / (k+1) for 0 < a <= 1 and
    zeta(-k, a) = zeta(-k, a-1) - (a-1)^k for 1 < a <= 2.  Each term
    shrinks by about r = |w| / 2pi <= 1/100, so a handful of terms meet
    ``TOL`` at any reduced acceleration.  Since |B_n(x)| <= 2 zeta(n) n! /
    (2pi)^n on [0, 1] for n >= 2, the terms from k = K on are bounded by

        z^-a [ (pi^2/3) |w|^(s-1) r^(K+1) / ((K+1)^s (1-r))
               + |w|^(s+K) / ((s+K)! (1-|w|)) ],

    the second part only when the shift a -> a-1 was taken.  At the switch
    K = _NEGATIVE_TERMS = 6 certifies TOL for every s >= 1 and 0 < a <= 2
    (five terms leave 1e-10 at s = 1, a > 1).  The switch is not lower
    because reduced accelerations up to 100, where the CLI's examples and
    tests live, keep the direct branch's exact output.

    psi(a), zeta(2, a) and zeta(-k, a) depend on the shift alone and are
    kept for the last two shifts: a sweep over x at fixed y reuses them.

psi and zeta without scipy
    The expansion needs psi(a) and zeta(n, a), n = 2 .. s, for 0 < a <= 2.
    Both recur upward, psi(a) = psi(a + N) - sum_{k<N} 1/(a + k) and
    zeta(n, a) = zeta(n, a + N) + sum_{k<N} (a + k)^-n, with N = 8, and
    take the shifted value from its asymptotic series in B_2j / x^2j
    (DLMF 5.11.2, 25.11.43).  psi is summed as psi(1 + t) + gamma =
    t sum_{k<N} 1/(k (k + t)) + psi(N + t) - psi(N), which cancels only
    near its zero, and zeta smallest term first; both are within about one
    ulp (of max(1, |psi|) for psi).  The Bernoulli numbers are exact
    rationals (Akiyama-Tanigawa), rounded once per coefficient.
"""

import functools
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceLimitError, check_positive

TOL = 1e-12
TERM_CAP = 10_000_000

_CHUNK = 4096
_TERMS = np.arange(float(_CHUNK))  # the indices k of one chunk, 32 KB
# log of the largest float: a^-s is beyond the float range above it
_LOG_MAX = math.log(sys.float_info.max)

# The log-z expansion runs for |log z| up to this and 0 < a <= 2.
_LOG_Z_SWITCH = 2.0 * math.pi / 100.0
# zeta(0, a) .. zeta(1 - _NEGATIVE_TERMS, a) certify TOL (module docstring)
_NEGATIVE_TERMS = 6
_MAX_ORDER = 30  # of the exact Bernoulli numbers
# psi and zeta recur from 0 < a <= 2 up to about a + _SHIFT (at least 7.5),
# where _SERIES_TERMS terms of their asymptotic series leave a remainder
# below 1e-18 of the value.
_SHIFT = 8
_SERIES_TERMS = 12


@functools.cache
def _bernoulli_numbers() -> tuple:
    """B_0 .. B_{_MAX_ORDER} as exact fractions (Akiyama-Tanigawa), B_1 = -1/2."""
    numbers, row = [], []
    for m in range(_MAX_ORDER + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        numbers.append(row[0])
    numbers[1] = -numbers[1]  # the algorithm gives B_1 = +1/2
    return tuple(numbers)


@functools.cache
def _bernoulli_polynomials() -> tuple:
    """Coefficients of B_0(x) .. B_{_NEGATIVE_TERMS}(x), highest power first:
    B_n(x) = sum_i C(n, i) B_{n-i} x^i, each rounded once from the exact
    rational."""
    numbers = _bernoulli_numbers()
    return tuple(tuple(float(math.comb(n, i) * numbers[n - i])
                       for i in range(n, -1, -1))
                 for n in range(_NEGATIVE_TERMS + 1))


@functools.cache
def _digamma_series() -> tuple:
    """B_2j / (2j) for j = _SERIES_TERMS .. 1, and their sum weighted by
    _SHIFT^-2j: the series of psi(x) (DLMF 5.11.2) and its value at _SHIFT."""
    numbers = _bernoulli_numbers()
    terms = [numbers[2 * j] / (2 * j) for j in range(_SERIES_TERMS, 0, -1)]
    at_shift = sum(numbers[2 * j] / (2 * j * _SHIFT ** (2 * j))
                   for j in range(1, _SERIES_TERMS + 1))
    return tuple(map(float, terms)), float(at_shift)


def _digamma_1p(t: float) -> float:
    """psi(1 + t) for -1/2 <= t <= 1.

    With N = _SHIFT, psi(1 + t) + gamma = t sum_{k<N} 1/(k (k + t))
    + psi(N + t) - psi(N): the first part has no cancellation, and the
    difference comes from the asymptotic series, whose B_2j terms enter
    as a difference against their value at N.
    """
    total = 0.0
    for k in range(_SHIFT - 1, 0, -1):
        total += 1.0 / (k * (k + t))
    x = _SHIFT + t
    u = 1.0 / (x * x)
    coefficients, at_shift = _digamma_series()
    series = 0.0
    for c in coefficients:
        series = series * u + c
    difference = (math.log1p(t / _SHIFT) + t / (2.0 * _SHIFT * x)
                  - (series * u - at_shift))
    return t * total + difference - np.euler_gamma


def _digamma(a: float) -> float:
    """psi(a) for 0 < a <= 2, within about one ulp of max(1, |psi(a)|)."""
    if a < 0.5:
        return _digamma_1p(a) - 1.0 / a
    return _digamma_1p(a - 1.0)  # a - 1 is exact on [1/2, 2]


@functools.cache
def _zeta_series(n: int) -> tuple:
    """B_2j (n)_(2j-1) / (2j)! for j = _SERIES_TERMS .. 1 (DLMF 25.11.43)."""
    numbers = _bernoulli_numbers()
    coefficients = []
    for j in range(_SERIES_TERMS, 0, -1):
        rising = math.prod(range(n, n + 2 * j - 1))
        coefficients.append(float(numbers[2 * j] * rising
                                  / math.factorial(2 * j)))
    return tuple(coefficients)


def _hurwitz_zeta(n: int, a: float) -> float:
    """zeta(n, a) = sum_k (a + k)^-n for integer n >= 2 and 0 < a <= 2.

    The first _SHIFT terms are summed smallest first, after the asymptotic
    series at x = a + _SHIFT:
    x^(1-n)/(n-1) + x^-n/2 + sum_j B_2j (n)_(2j-1) x^(1-n-2j) / (2j)!.
    A value beyond the float range is inf.
    """
    x = a + _SHIFT
    u = 1.0 / (x * x)
    series = 0.0
    for c in _zeta_series(n):
        series = series * u + c
    total = x ** -n * (x / (n - 1) + 0.5 + series / x)
    try:
        for k in range(_SHIFT - 1, -1, -1):
            total += (a + k) ** -n
    except OverflowError:
        return math.inf
    return total


# j_function asks for them at its two shifts, in every call at the same y
@functools.lru_cache(maxsize=2)
def _shift_terms(a: float) -> tuple:
    """psi(a), zeta(2, a) and (zeta(0, a), .., zeta(1 - _NEGATIVE_TERMS, a))
    for 0 < a <= 2: what the log-z expansion needs of the shift alone.

    zeta(-k, a) = -B_{k+1}(a)/(k+1) on (0, 1] (x reflected onto [0, 1/2]
    by B_n(1 - x) = (-1)^n B_n(x), where the cancellation is small) and
    zeta(-k, a-1) - (a-1)^k on (1, 2].
    """
    b = a - 1.0 if a > 1.0 else a
    x, flip = (1.0 - b, -1.0) if b > 0.5 else (b, 1.0)
    negative = []
    for k in range(_NEGATIVE_TERMS):
        bernoulli = 0.0
        for c in _bernoulli_polynomials()[k + 1]:
            bernoulli = bernoulli * x + c
        term = -flip ** (k + 1) * bernoulli / (k + 1)
        negative.append(term - b ** k if a > 1.0 else term)
    return _digamma(a), _hurwitz_zeta(2, a), tuple(negative)


def _log_z_series(w: float, s: int, a: float) -> float:
    """phi(e^w, s, a) within TOL by the log-z expansion, for
    -_LOG_Z_SWITCH <= w < 0 and 0 < a <= 2."""
    psi, zeta_2, zetas = _shift_terms(a)
    r = -w / (2.0 * math.pi)
    scale = math.exp(-a * w)  # z^-a
    total = harmonic = 0.0
    for n in range(s - 1):
        zeta = zeta_2 if n == s - 2 else _hurwitz_zeta(s - n, a)
        total += zeta * w ** n / math.factorial(n)
        harmonic += 1.0 / (n + 1)
    total += ((harmonic - np.euler_gamma - psi - math.log(-w))
              * w ** (s - 1) / math.factorial(s - 1))

    # stop where the bound first meets TOL; at _NEGATIVE_TERMS it always has
    power = w ** s / math.factorial(s)  # w^(s+k) / (s+k)!
    powers = []
    bound = scale * math.pi ** 2 / 3.0 * (-w) ** (s - 1) * r / (1.0 - r)
    for n in range(1, _NEGATIVE_TERMS + 1):
        powers.append(power)
        power *= w / (s + n)
        bound *= r  # z^-a times the first part of the bound, times (n+1)^s
        tail = bound / (n + 1) ** s
        if a > 1.0:  # the shift a -> a-1 was taken
            tail += scale * abs(power) / (1.0 + w)
        if tail <= TOL:
            break
    for zeta, power in zip(zetas, powers):
        total += zeta * power
    return scale * total


def _lerch_table(z: float, log_z: float, orders: tuple,
                 shifts: tuple) -> list:
    """phi(z, s, a) within TOL for s in ``orders`` (rows) and a in
    ``shifts`` (columns), for checked arguments: 0 < z < 1 and log_z = log z,
    or z = 1 and log_z < 0 where the log-z expansion certifies every entry."""
    near_one = -log_z <= _LOG_Z_SWITCH
    table = [[_log_z_series(log_z, s, a) if near_one and a <= 2.0
              else None for a in shifts] for s in orders]
    direct = [(row, j, s, a) for row, s in zip(table, orders)
              for j, a in enumerate(shifts) if row[j] is None]

    def tail(n, s, a):
        return math.exp(n * log_z) / ((n + a) ** s * (1.0 - z))

    # the longest of the shortest chunks that keep each sum's bytes (above)
    chunk = 128
    for row, j, s, a in direct:
        row[j] = 0.0
        floor = min(TOL, 2.0 ** -60 * (a + 1.0) ** -s)
        while chunk < _CHUNK and tail(chunk, s, a) > floor:
            chunk *= 2
    n = 0
    while direct:  # past the first chunk, chunk == _CHUNK
        if n >= TERM_CAP:
            raise ResourceLimitError(
                f"lerch_phi needs more than {TERM_CAP} terms at "
                f"z={z!r}; the mantissa is too close to 1 for direct summation")
        k = _TERMS[:chunk] + n
        powers, denominators = np.exp(k * log_z), np.add.outer(shifts, k)
        sums = {s: np.add.reduce(powers / denominators ** s, axis=1)
                for s in orders}
        n += chunk
        for row, j, s, _ in direct:
            row[j] += float(sums[s][j])
        direct = [d for d in direct if tail(n, d[2], d[3]) > TOL]
    return table


def lerch_phi(z: float, s: int, a: float) -> float:
    """Evaluate phi(z,s,a) = sum_k z^k/(k+a)^s with absolute error <= TOL.

    Raises DomainError for arguments off the series domain and
    ResourceLimitError if direct summation cannot meet the tail bound
    within TERM_CAP terms: z too close to 1 while a > 2.  Where the first
    term a^-s alone is beyond the float range the value is inf.  Where a^s
    is (within a factor e), every term is below e / (largest float), and the
    value is a^-s / (1 - z): within TOL, to rounding once a (1 - z) >> s,
    and 0.0 where a^-s underflows.
    """
    z = float(z)
    a = float(a)
    if not 0.0 <= z < 1.0 or not math.isfinite(z):
        raise DomainError("z out of [0, 1)")
    check_positive("a", a)
    if s != int(s) or s < 1:
        raise DomainError("s must be a positive integer")
    s = int(s)

    log_a_s = s * math.log(a)
    if log_a_s < -_LOG_MAX:
        return math.inf
    if z == 0.0:
        return a ** (-s)
    if log_a_s > _LOG_MAX - 1.0:  # the terms' (n + a)^s would overflow
        return a ** (-s) / (1.0 - z)

    return _lerch_table(z, math.log(z), (s,), (a,))[0][0]
