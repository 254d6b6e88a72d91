"""One fresh worker process of the benchmark; started by ``run.py``.

The worker imports ``halley_cert`` from the checkout's ``src``, generates
its slice of the seeded request stream and reports ``{"ready": ...}`` on
stdout; the parent times set-up up to that line. It then serves requests
until its budget is spent (and at least ``--min-requests`` are done) or its
slice runs out, and prints one JSON result line.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import halley_cert  # noqa: E402
from halley_cert.exceptions import HalleyCertError  # noqa: E402

if Path(halley_cert.__file__).resolve().parent != SRC / "halley_cert":
    sys.exit(f"halley_cert was imported from {halley_cert.__file__}, "
             f"not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SCALING_NODES = (128, 256, 512, 1024)
_FAILURES_KEPT = 20


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _classify(exc: Exception) -> str:
    kind = "halley_cert" if isinstance(exc, HalleyCertError) else "other"
    return f"raised {kind} {type(exc).__name__}: {exc}"


def serve(workload, seed: int, start: int, inputs: list, budget: float,
          min_requests: int, tracer) -> dict:
    latencies = []
    failures = []
    failed = 0
    oracle_s = 0.0
    t0 = time.perf_counter()
    for offset, request in enumerate(inputs):
        if offset >= min_requests and time.perf_counter() - t0 >= budget:
            break
        index = start + offset
        problems = []
        tick = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(request)
            else:
                tracer.active = True
                result = tracer.run_request(index, workload.run, request)
        except Exception as exc:  # a failed request is counted, not fatal
            problems.append(_classify(exc))
        finally:
            latencies.append((time.perf_counter() - tick) * 1e3)
            if tracer is not None:
                tracer.active = False
        tock = time.perf_counter()
        if not problems:
            try:
                problems = workload.check(request, result)
            except Exception as exc:  # malformed output fails the oracle
                problems.append(f"oracle could not read the output: {exc!r}")
        oracle_s += time.perf_counter() - tock
        if problems:
            failed += 1
            if len(failures) < _FAILURES_KEPT:
                failures.append({"seed": seed, "request": index,
                                 "input": repr(request), "problems": problems})
    return {
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "latencies_ms": latencies,
        "loop_s": time.perf_counter() - t0,
        "oracle_s": oracle_s,
    }


def scaling() -> dict:
    """Traced Halley solves at growing node counts, one request each."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    for nodes in SCALING_NODES:
        tracer.run_request(nodes, workloads.scaling_request, nodes)
    tracer.active = False
    return {str(nodes): tracer.totals(nodes) for nodes in SCALING_NODES}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "serve", "scaling"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-requests", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = [workload.make_input(args.seed, i)
              for i in range(args.start, args.start + args.count)]
    _emit({"ready": True, "environment": _environment()})
    if args.mode == "setup":
        return 0
    if args.mode == "scaling":
        _emit({"scaling": scaling()})
        return 0

    tracer = None
    if args.spans is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = serve(workload, args.seed, args.start, inputs, args.budget,
                   args.min_requests, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.spans)
        result["totals"] = tracer.totals()
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
