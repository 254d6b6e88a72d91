"""Package surface: the export list and the names the bench wraps."""

import os
import subprocess
import sys
from pathlib import Path

import halley_cert
from halley_cert import certificate, exceptions, hammerstein, majorant, problem

ROOT = Path(__file__).resolve().parents[1]


def test_exports_are_the_union_of_the_submodules():
    modules = (certificate, exceptions, hammerstein, majorant, problem)
    union = set().union(*(m.__all__ for m in modules))
    assert halley_cert.__all__ == sorted(union)
    for name in halley_cert.__all__:
        assert getattr(halley_cert, name) is not None


def test_bench_wrappers_find_their_targets():
    # the benchmark wraps library names by attribute; a renamed or deleted
    # target fails here instead of reading as a zero-cost layer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    run = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Tracer())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
