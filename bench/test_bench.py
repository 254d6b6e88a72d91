"""Guard against per-layer metrics that read zero because a wrapper went stale.

Each wrapper must see calls on the workload its per-layer row names, and the
audit probes must stay confined to ``audit-small``. A wrapper installed on a
name that is no longer called reports zeros that look like a perfect
speed-up. Run from the repository root with

    python3 -m pytest bench/test_bench.py

It makes one short traced run per workload, about a minute in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent

MAJORANT = ("majorant.smallest_root.ms", "majorant.uniqueness_radius.ms",
            "majorant.majorizing_sequence.ms", "majorant.check_assumptions.ms",
            "majorant.check_assumptions.share", "majorant.rate_constant.ms")
SOLVE = ("cli.main.ms", "cli.self.ms", "hammerstein.solve_and_check.ms",
         "hammerstein.discretize.ms", "hammerstein.quadrature_weights.ms",
         "hammerstein.self.ms", "problem.solve.ms", "problem.self.ms",
         "problem.steps", "problem.eval_f.calls", "problem.eval_jacobian.calls",
         "problem.eval_second.calls", "problem.eval_second.per_step",
         "problem.lu_factor.calls", "problem.lu_factor.gflop",
         "problem.lu_solve.calls", "problem.lu_solve.rhs",
         "certificate.verify_error_bound.ms")
AUDIT = ("certificate.check_initial_conditions.ms",
         "certificate.check_initial_conditions.probe_solves",
         "certificate.check_initial_conditions.eval_second.calls")
SCALING = tuple(f"scaling.n{n}.{m}" for n in (128, 256, 512, 1024) for m in (
    "problem.eval_second.ms", "problem.lu_factor.ms", "problem.lu_solve.ms",
    "hammerstein.quadrature_weights.ms", "problem.solve.ms"))

NONZERO = {
    "certify-sweep": MAJORANT + ("certificate.kantorovich.ms", "certificate.smale.ms",
                                 "certificate.self.ms"),
    "solve-dense-512": SOLVE,
    "audit-small": AUDIT + ("problem.solve.ms", "hammerstein.discretize.ms"),
}
ZERO = {
    "certify-sweep": AUDIT + ("cli.main.ms", "problem.solve.ms",
                              "hammerstein.solve_and_check.ms"),
    "solve-dense-512": AUDIT + ("certificate.smale.ms",),
    "audit-small": ("cli.main.ms", "certificate.smale.ms"),
}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_wrappers_see_the_calls_their_rows_name(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert [n for n in NONZERO[workload] + SCALING if not metrics[n] > 0] == []
    assert [n for n in ZERO[workload] if metrics[n] != 0] == []
