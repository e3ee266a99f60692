"""J's Lerch part as one series, with a bound on every approximation.

The closed form of the vacuum response (``response``) carries four Lerch
transcendents phi(z, s, a) = sum_{k>=0} z^k / (k + a)^s, at orders s = 1, 2
and shifts 1 +- c, with z = e^{-2 pi |x|} and c = y / 2pi < 1.  With
n = k + 1, A = y^2 / 32pi^2 and B = |x| y^2 / 16pi they are one series:

    A z [phi(z,2,1+c) - phi(z,2,1-c)] + B z [phi(z,1,1+c) - phi(z,1,1-c)]
        = sum_{n>=1} z^n r(n),

    r(n) = -4 A c n / d^2 - 2 B c / d = -(y^3 / 16pi^2) (n / (pi d) + |x|) / d,

with d = n^2 - c^2, formed as (n - c)(n + c).  ``lerch_part`` returns it
from one of two branches, chosen by |log z| = 2 pi |x|.

Direct summation (|log z| > 2pi/100, reduced accelerations below 100)
    Since c < 1, |r(n)| falls as n grows, so the terms after the first N
    sum to at most z^(N+1) |r(N+1)| / (1 - z).  The series is one numpy
    reduction over the shortest power-of-two prefix, from 16 terms, whose
    bound is below 2^-60 z |r(1)|, a small fraction of an ulp of the first
    term.  At the switch z^512 = e^-32, and 512 terms meet the bound for
    every c, so no term cap is needed.

Log-z expansion (|log z| <= 2pi/100)
    For z near 1 the direct series would need about 40 / |log z| terms.
    The four phi, whose shifts 1 +- c lie in (0, 2], come instead from the
    Erdelyi expansion in w = log z (DLMF 25.14; F. Johansson, Numer.
    Algorithms 69 (2015), arXiv:1309.2877), whose cost does not grow as
    z -> 1:

        phi = z^-a { [zeta(2, a), for s = 2]
                     + [H_{s-1} - gamma - psi(a) - log(-w)] w^(s-1)
                     + sum_{k>=0} zeta(-k, a) w^(s+k) / (s+k)! },

    with zeta(-k, a) = -B_{k+1}(a) / (k+1) for 0 < a <= 1 and
    zeta(-k, a) = zeta(-k, a-1) - (a-1)^k for 1 < a <= 2.  Each term
    shrinks by about r = |w| / 2pi <= 1/100.  Since |B_n(x)| <= 2 zeta(n)
    n! / (2pi)^n on [0, 1] for n >= 2, the terms from k = K on are bounded
    by

        z^-a [ (pi^2/3) |w|^(s-1) r^(K+1) / ((K+1)^s (1-r))
               + |w|^(s+K) / ((s+K)! (1-|w|)) ],

    the second part only when the shift a -> a-1 was taken.  Every call
    takes K = _NEGATIVE_TERMS = 6 terms, which leave at most 1e-12 for
    s = 1 and 1e-14 for s = 2 at the switch, and far less inside it.

    psi(a), zeta(2, a) and zeta(-k, a) depend on the shift alone and are
    kept for the last two shifts: a sweep over x at fixed y reuses them.

psi and zeta without scipy
    The expansion needs psi(a) and zeta(2, a) for 0 < a <= 2.
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
from fractions import Fraction

import numpy as np

# The log-z expansion runs for |log z| up to this.
_LOG_Z_SWITCH = 2.0 * math.pi / 100.0
# zeta(0, a) .. zeta(1 - _NEGATIVE_TERMS, a): the terms the expansion takes
_NEGATIVE_TERMS = 6
_MAX_ORDER = 30  # of the exact Bernoulli numbers
# psi and zeta recur from 0 < a <= 2 up to about a + _SHIFT (at least 7.5),
# where _SERIES_TERMS terms of their asymptotic series leave a remainder
# below 1e-18 of the value.
_SHIFT = 8
_SERIES_TERMS = 12
# the longest direct prefix: z^512 = e^-32 at the switch (module docstring)
_MAX_TERMS = 512
_N = np.arange(1.0, _MAX_TERMS + 1.0)  # n = 1 .. _MAX_TERMS, 4 KB


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
    """phi(e^w, s, a) by the log-z expansion for s = 1, 2,
    -_LOG_Z_SWITCH <= w < 0 and 0 < a <= 2, within 1e-12 (module docstring)."""
    psi, zeta_2, zetas = _shift_terms(a)
    head = (s - 1.0) - np.euler_gamma - psi - math.log(-w)  # H_{s-1} = s - 1
    total = zeta_2 + head * w if s == 2 else head
    power = w ** s / s  # w^(s+k) / (s+k)!, with s! = s
    for k, zeta in enumerate(zetas):
        total += zeta * power
        power *= w / (s + k + 1)
    return math.exp(-a * w) * total


def lerch_part(z: float, log_z: float, x_abs: float, y: float) -> float:
    """J's four Lerch terms, sum_{n>=1} z^n r(n) (module docstring), for
    0 < z <= 1 with log_z = log z, 0 < y < 2 pi and x_abs >= 0, which
    enters B alone (J passes x_abs = |x| = -log z / 2 pi)."""
    c = y / (2.0 * math.pi)
    if -log_z <= _LOG_Z_SWITCH:
        (p1, m1), (p2, m2) = ((_log_z_series(log_z, s, 1.0 + c),
                               _log_z_series(log_z, s, 1.0 - c))
                              for s in (1, 2))
        return (y * y * z / (32.0 * math.pi ** 2) * (p2 - m2)
                + x_abs * y * y * z / (16.0 * math.pi) * (p1 - m1))

    def weight(n):  # |r(n)| 16pi^2 / y^3
        d = (n - c) * (n + c)
        return (n / (math.pi * d) + x_abs) / d

    # the shortest prefix whose tail bound is below 2^-60 z |r(1)|
    floor = 2.0 ** -60 * -math.expm1(log_z) * weight(1.0)
    count = 16
    while (count < _MAX_TERMS
           and math.exp(count * log_z) * weight(count + 1.0) > floor):
        count *= 2
    n = _N[:count]
    d = (n - c) * (n + c)
    terms = np.exp(n * log_z) * (n / (math.pi * d) + x_abs) / d
    return -y ** 3 / (16.0 * math.pi ** 2) * float(np.add.reduce(terms))
