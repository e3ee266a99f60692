"""The process that does a workload's work: set-up, then the timed loop.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD ROUND_JSON SECONDS TRACE RESULT_JSON

``setup`` imports ``unruh_otto`` in this fresh interpreter, makes one
fixed warm-up operation and prints the time both took.  ``run`` does the
same, then repeats whole rounds of the operations in ROUND_JSON, one at a
time, until SECONDS have passed (and at least the workload's minimum
number of operations is made), and writes latencies, the outputs of the
first round and the peak RSS to RESULT_JSON.  Checking the outputs is the
parent's job (``run.py``), so this process never imports mpmath.
With TRACE = 1 it times one half of the run untraced and one half traced
and writes the per-layer metrics instead.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer, importtime, layer_metrics  # noqa: E402

SETUP_SAMPLES = 3
CLI_TIMEOUT_S = 60


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_program(with_cli=False):
    sys.path.insert(0, SRC)
    import dataclasses

    from unruh_otto import engine, kinematics, oracle, response
    m = types.SimpleNamespace(dataclasses=dataclasses, engine=engine,
                              kinematics=kinematics, oracle=oracle,
                              response=response, cli=None)
    if with_cli:
        from unruh_otto import cli
        m.cli = cli
    return m


def cli_invoke(op, workdir):
    """Run one CLI command as a subprocess; return its output record."""
    argv = list(op["argv"])
    path = os.path.join(workdir, "cli-out.txt") if op["to_file"] else None
    if path:
        argv += ["--out", path]
    proc = subprocess.run([sys.executable, "-m", "unruh_otto.cli", *argv],
                          env=cli_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    text = proc.stdout
    if path and os.path.exists(path):
        with open(path) as handle:
            text = handle.read()
        os.unlink(path)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return {"text": text, "stdout": proc.stdout}


def loop(call, ops, seconds, min_ops):
    """Repeat whole rounds of ``ops``, timing each ``call(op)``.

    Returns the latencies, the first round's outputs (or errors), how often
    each operation's later outputs differed from its first, and the wall
    time of the loop.
    """
    latencies, first, differ = [], [], [0] * len(ops)
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            t = time.perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # a failing operation is counted, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append(time.perf_counter() - t)
            if rounds == 0:
                first.append(out)
            elif out != first[i]:
                differ[i] += 1
        rounds += 1
        if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
            break
    return {"latencies": latencies, "first": first, "differ": differ,
            "rounds": rounds, "wall_s": time.perf_counter() - start}


def cli_main_ms(m, op, workdir):
    """Wall time of one in-process ``cli.main`` writing to a temporary --out."""
    path = os.path.join(workdir, "cli-main-out.txt")
    t = time.perf_counter()
    code = m.cli.main(list(op["argv"]) + ["--out", path])
    elapsed = (time.perf_counter() - t) * 1e3
    os.unlink(path)
    if code != 0:
        raise RuntimeError(f"cli.main exit {code}")
    return elapsed


def import_seconds():
    """Median over three fresh interpreters of ``python -X importtime``."""
    oracle_s, cli_s = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import unruh_otto.cli"],
                              env=cli_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        cum = importtime(proc.stderr)
        oracle_s.append(cum.get("unruh_otto.oracle", 0.0))
        cli_s.append(cum.get("unruh_otto.cli", 0.0))
    return statistics.median(oracle_s), statistics.median(cli_s)


def traced_run(workload, ops, seconds, workdir, m):
    """Per-layer metrics from spans, and the overhead of recording them.

    Library workloads run half the time untraced and half traced; cli-cold
    times each command as a subprocess, then in-process untraced and traced.
    """
    tracer = Tracer()
    if workload == "cli-cold":
        walls, plain, traced = [], [], []

        def call(op):
            t = time.perf_counter()
            out = cli_invoke(op, workdir)
            walls.append((time.perf_counter() - t) * 1e3)
            plain.append(cli_main_ms(m, op, workdir))
            tracer.install(m)
            try:
                traced.append(cli_main_ms(m, op, workdir))
            finally:
                tracer.uninstall()
            return out
        result = loop(call, ops, seconds, 1)
        metrics = layer_metrics(tracer, len(traced))
        metrics["cli.main_ms"] = statistics.median(plain)
        metrics["cli.startup_ms"] = statistics.median(w - p for w, p in zip(walls, plain))
        base, under = statistics.median(plain), statistics.median(traced)
    else:
        call = functools.partial(workloads.OPS[workload], m)
        base = statistics.median(loop(call, ops, seconds / 2.0, 1)["latencies"])
        tracer.install(m)
        try:
            result = loop(call, ops, seconds / 2.0, 1)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, len(result["latencies"]))
        metrics["cli.main_ms"] = metrics["cli.startup_ms"] = 0.0
        under = statistics.median(result["latencies"])
    metrics["oracle.import_s"], metrics["cli.import_s"] = import_seconds()
    metrics["trace.overhead_pct"] = (under / base - 1.0) * 100.0
    tracer.dump(os.path.join(workdir, "spans.jsonl"))
    result["layers"] = metrics
    return result


def main(argv):
    mode, workload = argv[0], argv[1]
    if workload == "cli-cold":
        # set-up is the first invocation of the CLI, untimed by the loop
        setup = []
        for _ in range(SETUP_SAMPLES):
            t = time.perf_counter()
            cli_invoke(workloads.WARMUP[workload], HERE)
            setup.append(time.perf_counter() - t)
        m = load_program(with_cli=True) if argv[4:5] == ["1"] else None
    else:
        m = load_program()
        workloads.OPS[workload](m, workloads.WARMUP[workload])
        setup = [time.perf_counter() - T0]
    if mode == "setup":
        print(json.dumps({"setup_s": setup}))
        return 0

    round_path, seconds, trace, result_path = argv[2], float(argv[3]), argv[4] == "1", argv[5]
    with open(round_path) as handle:
        ops = json.load(handle)
    workdir = os.path.dirname(round_path)
    if trace:
        result = traced_run(workload, ops, seconds, workdir, m)
    elif workload == "cli-cold":
        result = loop(lambda op: cli_invoke(op, workdir), ops, seconds,
                      workloads.MIN_OPS[workload])
        # the work is done in the CLI processes this one waits for
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        result = loop(functools.partial(workloads.OPS[workload], m), ops, seconds,
                      workloads.MIN_OPS[workload])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["setup_s"] = setup
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
