"""Run-to-run spread of every end-to-end metric, beside its bound.

    python3 perfbench/spread.py --runs 10 [--workloads cycle-scan kick-sweep] [--first-seed 1]

Runs ``run.py`` once per seed (seeds first-seed .. first-seed+runs-1) on
each workload, one run at a time, and prints for every end-to-end metric
the median, the quartiles and the spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound in BENCHMARK.json; plus the share of failed operations in each run.
The runs' JSON lines are kept in perfbench/.run/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(HERE, ".run"), exist_ok=True)
    steady = True
    for workload in args.workloads:
        results = []
        log = os.path.join(HERE, ".run", f"spread-{workload}.jsonl")
        with open(log, "w") as handle:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT, timeout=180)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["seed"] = seed
                handle.write(json.dumps(result) + "\n")
                results.append(result)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"{workload}: {args.runs} runs; correct {all(r['correct'] for r in results)}; "
              f"failed/attempted {', '.join(shares)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= metric["bound"] / 3.0
            steady = steady and ok
            print(f"  {name:<12} median {med:12.5g} {metric['unit']:<4} q1 {q1:12.5g} q3 {q3:12.5g} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
