"""Outside-in spans around the calls each layer of ``halley_cert`` makes.

Wrappers are installed on the name the *calling* module looks up at call
time: ``certificate`` imports ``smallest_root`` and friends by name, and
``hammerstein`` imports the solvers and certificate functions by name, so a
wrapper on the defining module alone would never see those calls. The LU
entry points are wrapped on ``scipy.linalg``, which ``problem`` and
``certificate`` look up at call time, and the callbacks of every problem that
``discretize`` returns are wrapped with ``dataclasses.replace``.

Layer boundaries become spans: name, start, end, parent span and request
id. Hot leaf calls (callbacks and LU) are too many to keep one record each:
they are tallied per (enclosing span, name) as calls, time and work.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import defaultdict
from time import perf_counter_ns

import scipy.linalg

from halley_cert import certificate, cli, hammerstein, majorant

# Spans whose self time makes up each layer's ``self`` metric.
_SELF_GROUPS = {
    "cli.self": ("cli.main",),
    "hammerstein.self": ("hammerstein.solve_and_check", "hammerstein.discretize"),
    "certificate.self": ("certificate.kantorovich", "certificate.smale"),
    "problem.self": ("problem.solve",),
}


class Tracer:
    """Spans kept in memory for one worker process."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.spans: list[tuple] = []   # (id, parent, request, name, start, end, tally)
        self.leaves = defaultdict(lambda: [0, 0, 0])  # (owner, name) -> calls, ns, work
        self._stack = [0]
        self._next_id = 1

    def span(self, name, fn, tally=None):
        """Wrap fn in a span; tally(result) is recorded with it if given."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                count = tally(result) if tally is not None and result is not None else 0
                self.spans.append((sid, parent, self.request, name, start, end, count))
        return wrapper

    def leaf(self, name, fn, work=None):
        """Wrap fn so its calls are tallied under the enclosing span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = self.leaves[(self._stack[-1], name)]
                rec[0] += 1
                rec[1] += perf_counter_ns() - start
                if work is not None:
                    rec[2] += work(*args)
        return wrapper

    def run_request(self, index, fn, *args):
        self.request = index
        return self.span("request", fn)(*args)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps({"span": rec}) + "\n")
            for (owner, name), (calls, ns, work) in self.leaves.items():
                out.write(json.dumps({"leaf": [owner, name, calls, ns, work]}) + "\n")

    def totals(self, request=None) -> dict:
        """Sums over all requests (or one), keyed by per-layer metric stem.

        ``<span>.ns`` and ``<span>.tally`` sum the spans of that name;
        ``<span>/<leaf>.calls|ns|work`` sum the leaf calls they enclose
        directly; ``<layer>.self.ns`` is span time not covered by children.
        """
        spans = [rec for rec in self.spans if request in (None, rec[2])]
        out = defaultdict(float)
        names = {}
        covered = defaultdict(int)
        for sid, parent, _, name, start, end, count in spans:
            names[sid] = name
            out[f"{name}.ns"] += end - start
            out[f"{name}.tally"] += count
            covered[parent] += end - start
        for (owner, name), (calls, ns, work) in self.leaves.items():
            if owner in names:
                covered[owner] += ns
                out[f"{names[owner]}/{name}.calls"] += calls
                out[f"{names[owner]}/{name}.ns"] += ns
                out[f"{names[owner]}/{name}.work"] += work
        for sid, _, _, name, start, end, _ in spans:
            for group, members in _SELF_GROUPS.items():
                if name in members:
                    out[f"{group}.ns"] += end - start - covered[sid]
        out["requests"] = len({rec[2] for rec in spans if rec[3] == "request"})
        return dict(out)


def _lu_factor_flops(a, *_):
    n = a.shape[0]
    return 2 * n ** 3 // 3


def _lu_solve_rhs(_, b, *__):
    return 1 if b.ndim == 1 else b.shape[1]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    def steps(trace):
        return len(trace.step_norms)

    def wrap_problem(p):
        return dataclasses.replace(
            p,
            eval_f=tracer.leaf("eval_f", p.eval_f),
            eval_jacobian=tracer.leaf("eval_jacobian", p.eval_jacobian),
            eval_second=tracer.leaf("eval_second", p.eval_second))

    discretize = hammerstein.discretize
    spans = [
        (cli, "main", "cli.main", None),
        (cli, "solve_and_check", "hammerstein.solve_and_check", None),
        (hammerstein, "solve_and_check", "hammerstein.solve_and_check", None),
        (hammerstein, "quadrature_weights", "hammerstein.quadrature_weights", None),
        (hammerstein, "halley_solve", "problem.solve", steps),
        (hammerstein, "family_solve", "problem.solve", steps),
        (hammerstein, "kantorovich_certificate", "certificate.kantorovich", None),
        (hammerstein, "verify_error_bound", "certificate.verify_error_bound", None),
        (certificate, "kantorovich_certificate", "certificate.kantorovich", None),
        (certificate, "smale_certificate", "certificate.smale", None),
        (certificate, "check_initial_conditions",
         "certificate.check_initial_conditions", None),
        (certificate, "smallest_root", "majorant.smallest_root", None),
        (certificate, "uniqueness_radius", "majorant.uniqueness_radius", None),
        (certificate, "majorizing_sequence", "majorant.majorizing_sequence", None),
        (majorant, "check_assumptions", "majorant.check_assumptions", None),
        (majorant.CubicMajorant, "rate_constant", "majorant.rate_constant", None),
        (majorant.SmaleMajorant, "rate_constant", "majorant.rate_constant", None),
    ]
    for owner, attr, name, tally in spans:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), tally))
    hammerstein.discretize = tracer.span(
        "hammerstein.discretize", lambda spec: wrap_problem(discretize(spec)))
    scipy.linalg.lu_factor = tracer.leaf("lu_factor", scipy.linalg.lu_factor,
                                         _lu_factor_flops)
    scipy.linalg.lu_solve = tracer.leaf("lu_solve", scipy.linalg.lu_solve,
                                        _lu_solve_rhs)
