"""Benchmark of unruh-otto: one workload, one seed, one run.

    python3 perfbench/run.py --workload cycle-scan --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/unruh_otto`` beside
``perfbench``); nothing needs installing.  The run

1. makes the workload's round of operations from ``--seed``,
2. times set-up in fresh interpreters (import plus one warm-up operation),
3. starts one worker process that repeats whole rounds for ``--seconds``,
   one operation at a time (a closed loop with one client),
4. checks every distinct operation's output against the mpmath reference
   and the properties in ``checks.py``,
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``correct`` is false when an operation fails that is not one of the
known-fault operations the workload keeps on purpose (see README.md).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150


def worker(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} {args[1]} exited {proc.returncode}")
    return proc.stdout


def tail(values, q):
    """Nearest-rank percentile q (0-100) of ``values``; the median for q = 50."""
    if q == 50.0:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def check_round(workload, seed, ops, first, workdir):
    """Check each distinct operation once; returns the failure reason per op."""
    import checks
    import reference
    from worker import load_program

    m = load_program(with_cli=True)
    points = sorted({p for op in ops for p in workloads.reference_points(workload, op)})
    refs = reference.references(workload, seed, points)
    reasons = []
    for op, out in zip(ops, first):
        op_refs = {p: refs[p] for p in workloads.reference_points(workload, op)}
        reasons.append(checks.check(workload, m, op, out, op_refs, workdir))
    return reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unruh_otto", "__init__.py")):
        print(f"error: no unruh_otto sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    ops = workloads.make_round(args.workload, args.seed)
    workdir = os.path.join(RUN_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        round_path = os.path.join(workdir, "round.json")
        result_path = os.path.join(workdir, "result.json")
        with open(round_path, "w") as handle:
            json.dump(ops, handle)

        setup = []
        if args.workload != "cli-cold" and not args.trace:
            # two set-up-only interpreters; the worker itself gives the third sample
            for _ in range(2):
                setup += json.loads(worker("setup", args.workload))["setup_s"]
        worker("run", args.workload, round_path, repr(args.seconds), str(args.trace), result_path)
        with open(result_path) as handle:
            result = json.load(handle)
        setup += result["setup_s"]

        if args.trace:
            trace_dir = os.path.join(RUN_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.jsonl"),
                        os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"))
        reasons = check_round(args.workload, args.seed, ops, result["first"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = result["latencies"]
    rounds, n = result["rounds"], len(ops)
    failed = sum(rounds if r else result["differ"][i] for i, r in enumerate(reasons))
    errored = sum(rounds for out in result["first"] if "error" in out)
    correct = True
    for op, reason in zip(ops, reasons):
        if reason:
            expected = op.get("known_fault")
            print(f"failed ({'known fault: ' + expected if expected else 'UNEXPECTED'}): "
                  f"{json.dumps(op)}: {reason}", file=sys.stderr)
            correct = correct and bool(expected)
    correct = correct and not any(result["differ"])
    if args.trace:
        metrics = {name: (result["layers"][name], unit) for name, unit in layer_units().items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": ((len(lat) - errored) / result["wall_s"], "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail(lat, workloads.TAIL_PERCENTILE[args.workload]) * 1e3, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(f"{args.workload} seed {args.seed}: {len(lat)} ops in {rounds} rounds of {n}, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(lat), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def layer_units():
    """{per-layer metric: unit}, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
