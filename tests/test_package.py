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


# Installs the bench wrappers and runs one certificate of each kind, one
# start-point audit and one json solve under them. rate_constant is
# inherited by both majorants and wrapped on each subclass, so each
# certificate must record its own span; the certificates must enter the
# root, schedule and assumption spans that certify-sweep times; the audit
# must record its eval_second and lu_solve leaf calls under its own span;
# the solve must pass through every layer the solve workload times. A
# repeated certificate is read from the cache: it enters its own span but
# none of the majorant spans, which a fresh input still enters.
_TRACED_RUN = """
import contextlib
import io
import numpy as np
import tracing
from halley_cert import certificate, cli, hammerstein
tracer = tracing.Tracer()
tracing.install(tracer)
tracer.active = True
certificate.kantorovich_certificate(certificate.KantorovichInputs(0.2, 1.2, 1.2))
certificate.smale_certificate(certificate.SmaleInputs(0.1, 0.5))
names = [rec[3] for rec in tracer.spans]
assert names.count("majorant.rate_constant") == 2, names
majorant_path = {"majorant.smallest_root", "majorant.uniqueness_radius",
                 "majorant.majorizing_sequence", "majorant.check_assumptions"}
assert majorant_path <= set(names), sorted(majorant_path - set(names))

majorant_spans = majorant_path | {"majorant.rate_constant"}
for inputs, fresh in ((certificate.KantorovichInputs(0.2, 1.2, 1.2), False),
                      (certificate.KantorovichInputs(0.3, 1.2, 1.2), True)):
    del tracer.spans[:]
    certificate.kantorovich_certificate(inputs)
    names = {rec[3] for rec in tracer.spans}
    assert "certificate.kantorovich" in names, names
    entered = majorant_spans & names
    assert entered == (majorant_spans if fresh else set()), (inputs, sorted(entered))

p = hammerstein.discretize(hammerstein.HammersteinSpec(lam=1.0, nodes=8))
certificate.check_initial_conditions(p, np.ones(8),
                                     certificate.KantorovichInputs(0.2, 1.2, 1.2))
totals = tracer.totals()
for leaf in ("lu_solve", "eval_second"):
    assert totals.get(f"certificate.check_initial_conditions/{leaf}.calls", 0) > 0, leaf

del tracer.spans[:]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["solve", "hammerstein", "--lambda", "1", "--nodes", "64",
                     "--format", "json"])
assert code == 0, code
names = {rec[3] for rec in tracer.spans}
solve_path = {"cli.main", "hammerstein.solve_and_check", "hammerstein.discretize",
              "problem.solve", "certificate.kantorovich",
              "certificate.verify_error_bound"}
assert solve_path <= names, sorted(solve_path - names)
"""


def test_bench_wrappers_find_their_targets():
    # the benchmark wraps library names by attribute; a renamed or deleted
    # target fails here instead of reading as a zero-cost layer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# The scalar commands need no linear algebra, so a process that imports the
# package and prints certificates and table1 must not pay for scipy.linalg;
# a solve loads it where it factors.
_SCALAR_RUN = """
import contextlib
import io
import sys
import halley_cert
from halley_cert import cli
assert "scipy.linalg" not in sys.modules, "import halley_cert"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["certificate", "kantorovich", "--beta", "0.2", "--eta", "1.2",
                     "--lip", "1.2", "--format", "json"]) == 0
    assert cli.main(["certificate", "smale", "--beta", "0.1", "--gamma", "0.5"]) == 0
    assert cli.main(["table1"]) == 0
assert "scipy.linalg" not in sys.modules, "scalar commands"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "hammerstein", "--lambda", "1", "--nodes", "8"]) == 0
assert "scipy.linalg" in sys.modules, "solve"
"""


def test_scalar_commands_load_no_scipy_linalg():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _SCALAR_RUN],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# Importing the command line, as a process that only certifies does, builds
# no argparse parser and no formatter table: the parsers are built on the
# first call of main, the tables on the first array the vector path writes.
_IMPORT_RUN = """
import argparse
import contextlib
import io
import numpy as np
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import halley_cert.cli
from halley_cert import _format, cli
assert built == [], built
caches = (cli._shared_parser, _format._tables)
assert [c.cache_info().currsize for c in caches] == [0, 0]
assert [k for k, v in vars(_format).items() if isinstance(v, np.ndarray)] == []
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "hammerstein", "--lambda", "1", "--nodes", "64",
                     "--format", "json"]) == 0
assert built and [c.cache_info().currsize for c in caches] == [1, 1]
"""


def test_importing_the_cli_builds_no_parser_and_no_table():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_RUN],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
