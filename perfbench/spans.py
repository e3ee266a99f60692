"""Spans around the package's public functions, recorded from outside.

The traced run replaces module attributes at the sites where callers look
them up (``unruh_otto.response.lerch_phi``, ``unruh_otto.engine.j_function``,
``unruh_otto.oracle.quad`` and the integrand handed to it, the names
``unruh_otto.cli`` imported, ...) with wrappers that record a span
``[name, start, end, parent]``.  Spans stay in memory and are written when
the run ends.  A span's self time is its duration minus the time its child
spans cover.  The program's source is not changed.
"""

import json
from collections import Counter
from time import perf_counter

# (module attribute on the namespace, attribute, span name, site counter)
SITES = (
    ("response", "lerch_phi", "specfun.lerch_phi", None),
    ("response", "j_function", "response.j_function", None),
    ("engine", "j_function", "response.j_function", "engine.j_function"),
    ("cli", "j_function", "response.j_function", None),
    ("response", "delta_p", "response.delta_p", None),
    ("cli", "delta_p", "response.delta_p", None),
    ("response", "perturbative_validity", "response.perturbative_validity", None),
    ("engine", "perturbative_validity", "response.perturbative_validity", None),
    ("cli", "perturbative_validity", "response.perturbative_validity", None),
    ("engine", "critical_probability", "engine.critical_probability", None),
    ("engine", "solve_cycle", "engine.solve_cycle", None),
    ("cli", "solve_cycle", "engine.solve_cycle", None),
    ("engine", "stage_ledger", "engine.stage_ledger", None),
    ("kinematics", "contact_durations", "kinematics.contact_durations", None),
    ("cli", "trajectory_point", "kinematics.trajectory_point", None),
    ("oracle", "integrate_imagesum_1d", "oracle.integrate_imagesum_1d", None),
    ("oracle", "integrate_sinh_2d", "oracle.integrate_sinh_2d", None),
    ("cli", "integrate_imagesum_1d", "oracle.integrate_imagesum_1d", None),
    ("cli", "integrate_sinh_2d", "oracle.integrate_sinh_2d", None),
)

ORACLES = ("oracle.integrate_imagesum_1d", "oracle.integrate_sinh_2d")


class Tracer:
    """Installs span wrappers on a namespace of modules and removes them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def _wrap(self, fn, name, site):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if site:
                counts[site] += 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def _oracle_name(self):
        for i in reversed(self.stack):
            if self.spans[i][0] in ORACLES:
                return self.spans[i][0]
        return "oracle.other"

    def _wrap_quad(self, quad):
        counts = self.counts

        def wrapper(func, *args, **kwargs):
            owner = self._oracle_name()
            evals = [0]

            def integrand(*a):
                evals[0] += 1
                return func(*a)
            try:
                return quad(integrand, *args, **kwargs)
            finally:
                counts[owner + ".quad_calls"] += 1
                counts[owner + ".integrand_evals"] += evals[0]
        return wrapper

    def install(self, m):
        for mod_name, attr, name, site in SITES:
            module = getattr(m, mod_name, None)
            if module is not None and hasattr(module, attr):
                fn = getattr(module, attr)
                self._undo.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, site))
        if hasattr(m.oracle, "quad"):
            self._undo.append((m.oracle, "quad", m.oracle.quad))
            m.oracle.quad = self._wrap_quad(m.oracle.quad)

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def totals(self):
        """{name: [calls, total seconds, self seconds]} over all spans."""
        out = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def dump(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer, ops):
    """The per-layer metrics of one traced run of ``ops`` operations."""
    tot, counts = tracer.totals(), tracer.counts

    def calls(name):
        return tot.get(name, [0])[0]

    def per_call(name, field, scale):
        row = tot.get(name)
        return row[field] / row[0] * scale if row else 0.0

    m = {
        "specfun.lerch_phi.calls": calls("specfun.lerch_phi") / ops,
        "specfun.lerch_phi.us": per_call("specfun.lerch_phi", 1, 1e6),
        "specfun.lerch_phi.ms_per_op": tot.get("specfun.lerch_phi", [0, 0.0])[1] / ops * 1e3,
        "response.j_function.calls": calls("response.j_function") / ops,
        "response.j_function.self_us": per_call("response.j_function", 2, 1e6),
        "response.delta_p.calls": calls("response.delta_p") / ops,
        "response.perturbative_validity.self_us": per_call("response.perturbative_validity", 2, 1e6),
        "engine.j_function.calls": counts["engine.j_function"] / ops,
        "engine.solve_cycle.self_us": per_call("engine.solve_cycle", 2, 1e6),
        "engine.critical_probability.self_us": per_call("engine.critical_probability", 2, 1e6),
        "engine.stage_ledger.us": per_call("engine.stage_ledger", 1, 1e6),
        "kinematics.contact_durations.us": per_call("kinematics.contact_durations", 1, 1e6),
        "kinematics.trajectory_point.calls": calls("kinematics.trajectory_point") / ops,
    }
    for name in ORACLES:
        n = calls(name)
        m[name + ".ms"] = per_call(name, 1, 1e3)
        m[name + ".quad_calls"] = counts[name + ".quad_calls"] / n if n else 0.0
        m[name + ".integrand_evals"] = counts[name + ".integrand_evals"] / n if n else 0.0
    return m


def importtime(stderr):
    """{module: cumulative seconds} from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out
