"""Reference values of the vacuum response J(x, y) at 30 digits with mpmath.

Evaluates the closed form

    J(x,y) = (y/2)^2 e^{-|x|y} / (8 sin^2(y/2)) - 1/8 + (|x| y / 4) theta(x)
           + (y^2 z / 32 pi^2) [phi(z,2,1+y/2pi) - phi(z,2,1-y/2pi)]
           + (|x| y^2 z / 16 pi) [phi(z,1,1+y/2pi) - phi(z,1,1-y/2pi)],
    z = e^{-2 pi |x|},

with ``mpmath.lerchphi`` and imports nothing from ``unruh_otto``.  At 30
digits the double pole of the sin^2 term and the k = 0 Lerch term still
cancel well: against 50 digits the value agrees to the last bit of a
double at 2 pi - y = 1e-4 (kick-sweep's near-pole curve) and to 3e-13 at
2 pi - y = 1e-6.  One evaluation
takes 0.1-0.3 s, so values are cached per workload and seed under
``perfbench/.run/refcache``.  To make a cache file anew:

    python3 perfbench/reference.py --workload kick-sweep --seed 3
"""

import argparse
import json
import os
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, ".run", "refcache")
DPS = 30


def j_reference(x, y):
    """J(x, y) at the exact binary values of the floats x and y."""
    with mpmath.workdps(DPS):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        ax = abs(x)
        z = mpmath.exp(-2 * mpmath.pi * ax)
        shift = y / (2 * mpmath.pi)
        value = (y / 2) ** 2 * mpmath.exp(-ax * y) / (8 * mpmath.sin(y / 2) ** 2) - mpmath.mpf(1) / 8
        if x > 0:
            value += ax * y / 4
        d2 = mpmath.lerchphi(z, 2, 1 + shift) - mpmath.lerchphi(z, 2, 1 - shift)
        d1 = mpmath.lerchphi(z, 1, 1 + shift) - mpmath.lerchphi(z, 1, 1 - shift)
        value += y * y * z / (32 * mpmath.pi ** 2) * d2 + ax * y * y * z / (16 * mpmath.pi) * d1
        return float(value)


def _key(x, y):
    return f"{float(x).hex()} {float(y).hex()}"


def cache_path(workload, seed):
    return os.path.join(CACHE_DIR, f"{workload}-{seed}.json")


def references(workload, seed, points, fresh=False):
    """{(x, y): J} for ``points``, read from and added to the seed's cache."""
    path = cache_path(workload, seed)
    values = {}
    if not fresh and os.path.exists(path):
        try:
            with open(path) as handle:
                values = json.load(handle)["values"]
        except (OSError, ValueError, KeyError):
            values = {}
    missing = [p for p in points if _key(*p) not in values]
    for x, y in missing:
        values[_key(x, y)] = j_reference(x, y)
    if missing or fresh:
        os.makedirs(CACHE_DIR, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"command": f"python3 perfbench/reference.py --workload {workload} --seed {seed}",
                       "dps": DPS, "values": values}, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return {p: values[_key(*p)] for p in points}


def round_points(workload, seed):
    import workloads
    return sorted({p for op in workloads.make_round(workload, seed)
                   for p in workloads.reference_points(workload, op)})


def main(argv=None):
    parser = argparse.ArgumentParser(description="Make the mpmath reference cache of one round anew.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    points = round_points(args.workload, args.seed)
    references(args.workload, args.seed, points, fresh=True)
    print(f"{len(points)} reference values written to {cache_path(args.workload, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
