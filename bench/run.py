"""Benchmark of halley-cert: three closed-loop workloads, one client each.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``halley_cert`` is imported from its
``src``. Every request runs in a fresh worker process (``worker.py``), so the
package's caches and the process's peak RSS start cold in every run. A
worker serves at most ``SESSION_REQUESTS`` requests; the run starts workers
one after another until ``--seconds`` of serving have passed and at least
``MIN_REQUESTS`` requests were made.

With ``--trace 0`` the run reports the end-to-end metrics: latency median and
90th percentile, throughput, set-up time (median of ``SETUP_PROBES`` fresh
workers, from process start to the first request being ready) and peak RSS
(largest over the run's workers). With ``--trace 1`` the first half of the
time is served untraced and the second half traced, from the same requests,
and the run reports per-layer metrics (means per request unless a count),
the tracing overhead, and a node-count scaling sweep of single Halley
solves. Spans are written to ``.bench_out/`` when each worker ends.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A request fails when it raises or when the
workload's oracle rejects its output; ``fail_ratio`` is printed above it
with both counts, and failing inputs are listed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("certify-sweep", "solve-dense-512", "audit-small")
SESSION_REQUESTS = 1000
MIN_REQUESTS = 100
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150.0

# Printed and recorded, but left out of the result line and so not gated.
# On a shared two-core machine, bursts of outside interference lasting
# seconds slow requests up to twofold. The median flips between the fast
# and the slow mode with the share of a run they cover, and the 90th
# percentile follows them: over ten 30 s seeds their spreads reached 0.31
# and 0.44 of the median, above the largest bound (0.25) a gated metric may
# have. Throughput averages over the bursts.
UNGATED = ("latency_p50_ms", "latency_p90_ms")

# Layer-share predictions stated when the workloads were chosen:
# (workload, numerator metric, denominator metric, low, high).
PREDICTIONS = (
    ("certify-sweep", "majorant.check_assumptions.share", None, 0.45, 0.50),
    ("solve-dense-512", "problem.solve.ms", "request.ms", 0.85, 0.90),
    ("audit-small", "certificate.check_initial_conditions.ms", "request.ms", 0.93, 0.97),
)


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str]) -> tuple[float, dict, list[dict]]:
    """Start a worker; return its set-up time, ready record and results."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker {args} exceeded {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return setup_s, json.loads(first), [json.loads(line) for line in rest.splitlines()]


def _serve(workload: str, seed: int, seconds: float, min_requests: int,
           spans_prefix: Path | None) -> list[dict]:
    """Serve requests in consecutive fresh workers; one record per worker."""
    sessions = []
    served_s = 0.0
    done = 0
    while served_s < seconds or done < min_requests:
        args = ["--mode", "serve", "--workload", workload, "--seed", str(seed),
                "--start", str(done), "--count", str(SESSION_REQUESTS),
                "--budget", repr(max(seconds - served_s, 0.0)),
                "--min-requests", str(max(min_requests - done, 0))]
        if spans_prefix is not None:
            args += ["--spans", f"{spans_prefix}.{len(sessions)}.jsonl"]
        _, _, (record,) = _worker(args)
        sessions.append(record)
        served_s += record["loop_s"]
        done += record["attempted"]
    return sessions


def _pool(sessions: list[dict]) -> dict:
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    busy_s = sum(s["loop_s"] - s["oracle_s"] for s in sessions)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [f for s in sessions for f in s["failures"]],
        "latencies_ms": [x for s in sessions for x in s["latencies_ms"]],
        "throughput_rps": (attempted - failed) / busy_s,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    probes = []
    environment = {}
    for _ in range(SETUP_PROBES):
        setup_s, ready, _ = _worker(["--mode", "setup", "--workload", workload,
                                     "--seed", str(seed),
                                     "--count", str(SESSION_REQUESTS)])
        probes.append(setup_s)
        environment = ready["environment"]
    pooled = _pool(_serve(workload, seed, seconds, MIN_REQUESTS, None))
    lat = pooled["latencies_ms"]
    metrics = {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        "throughput_rps": (pooled["throughput_rps"], "1/s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (pooled["peak_rss_mb"], "MB"),
    }
    extra = {"samples": len(lat), "setup_probes_s": probes, "environment": environment}
    return metrics, dict(pooled, **extra)


def _per_request(totals: dict, requests: int) -> dict:
    def ms(key):
        return totals.get(f"{key}.ns", 0.0) / 1e6 / requests

    def count(key):
        return totals.get(key, 0.0) / requests

    solve, audit = "problem.solve", "certificate.check_initial_conditions"
    steps = count(f"{solve}.tally")
    certify_ms = ms("certificate.kantorovich") + ms("certificate.smale")
    out = {f"{name}.ms": (ms(name), "ms") for name in (
        "request", "cli.main", "cli.self", "hammerstein.solve_and_check",
        "hammerstein.discretize", "hammerstein.quadrature_weights",
        "hammerstein.self", "problem.solve", "problem.self",
        "certificate.kantorovich", "certificate.smale", "certificate.self",
        audit, "certificate.verify_error_bound", "majorant.smallest_root",
        "majorant.uniqueness_radius", "majorant.majorizing_sequence",
        "majorant.check_assumptions", "majorant.rate_constant")}
    out["majorant.check_assumptions.share"] = (
        ms("majorant.check_assumptions") / certify_ms if certify_ms else 0.0, "ratio")
    out[f"{audit}.probe_solves"] = (count(f"{audit}/lu_solve.calls"), "count")
    out[f"{audit}.eval_second.calls"] = (count(f"{audit}/eval_second.calls"), "count")
    out["problem.steps"] = (steps, "count")
    for leaf in ("eval_f", "eval_jacobian", "eval_second", "lu_factor", "lu_solve"):
        out[f"problem.{leaf}.calls"] = (count(f"{solve}/{leaf}.calls"), "count")
        out[f"problem.{leaf}.ms"] = (ms(f"{solve}/{leaf}"), "ms")
    out["problem.eval_second.per_step"] = (
        count(f"{solve}/eval_second.calls") / steps if steps else 0.0, "calls/step")
    out["problem.lu_factor.gflop"] = (count(f"{solve}/lu_factor.work") / 1e9, "GFLOP-computed")
    out["problem.lu_solve.rhs"] = (count(f"{solve}/lu_solve.work"), "columns")
    return out


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"spans-{workload}.*"):
        old.unlink()
    untraced = _pool(_serve(workload, seed, seconds / 2, 1, None))
    sessions = _serve(workload, seed, seconds / 2, 1, OUT / f"spans-{workload}")
    pooled = _pool(sessions)
    totals: dict = {}
    for session in sessions:
        for key, value in session["totals"].items():
            totals[key] = totals.get(key, 0.0) + value
    metrics = _per_request(totals, totals["requests"])
    metrics["throughput_rps.untraced"] = (untraced["throughput_rps"], "1/s")
    metrics["throughput_rps.traced"] = (pooled["throughput_rps"], "1/s")
    metrics["tracing.overhead"] = (
        untraced["throughput_rps"] / pooled["throughput_rps"] - 1.0, "ratio")

    _, ready, (record,) = _worker(["--mode", "scaling", "--workload", workload,
                                   "--seed", str(seed)])
    pooled["environment"] = ready["environment"]
    for nodes, totals in record["scaling"].items():
        one = _per_request(totals, 1)
        for key in ("problem.eval_second.ms", "problem.lu_factor.ms",
                    "problem.lu_solve.ms", "hammerstein.quadrature_weights.ms",
                    "problem.solve.ms"):
            metrics[f"scaling.n{nodes}.{key}"] = one[key]
    pooled["attempted"] += untraced["attempted"]
    pooled["failed"] += untraced["failed"]
    pooled["failures"] = untraced["failures"] + pooled["failures"]
    return metrics, pooled


def _environment(worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(worker_env, nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), cpu=cpu, commit=_commit())


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report(workload, seed, seconds, trace, metrics, pooled, environment) -> None:
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print("environment " + json.dumps(environment))
    attempted, failed = pooled["attempted"], pooled["failed"]
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for failure in pooled["failures"]:
        print("failing input " + json.dumps(failure))
    if not trace:
        print(f"samples {len(pooled['latencies_ms'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<60} {value:>14.6g} {unit}")
    if trace:
        for wl, num, den, low, high in PREDICTIONS:
            if wl != workload:
                continue
            share = metrics[num][0] / metrics[den][0] if den else metrics[num][0]
            verdict = "as predicted" if low <= share <= high else "DIFFERS from prediction"
            print(f"share {num}{' / ' + den if den else ''} = {share:.3f} "
                  f"(predicted {low:.2f}-{high:.2f}): {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "halley_cert" / "__init__.py").is_file():
        print(f"error: no halley_cert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, pooled = traced(args.workload, args.seed, args.seconds)
        else:
            metrics, pooled = end_to_end(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    environment = _environment(pooled.pop("environment", {}))
    _report(args.workload, args.seed, args.seconds, args.trace, metrics, pooled,
            environment)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **{k: v for k, v in pooled.items() if k != "latencies_ms"}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    gated = {k: v for k, v in record["metrics"].items() if k not in UNGATED}
    print(json.dumps({"correct": pooled["failed"] == 0,
                      "attempted": pooled["attempted"],
                      "failed": pooled["failed"],
                      "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
