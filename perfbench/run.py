"""dtnfem benchmark: three workloads, end-to-end metrics with tracing off and
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload convergence --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

Prints a metadata line, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.  Each workload runs in a fresh
worker process (``worker.py``); setup_s is the median over separate fresh
processes that only import dtnfem and solve once at level 0.  Run from the
root of a checkout that holds ``src/dtnfem``; without it the benchmark exits
with code 2 and prints no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "dtnfem")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("convergence", "truncation", "field_probe")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """One thread per process, so a pass never competes with its own BLAS
    threads on a small machine; DTNFEM_WORKERS is left at its default."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("DTNFEM_WORKERS", None)
    return env


def call_worker(args, timeout) -> str:
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=worker_env(), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps it
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(samples: int) -> float:
    """Median time from process start to the end of the warm-up solve, as
    signalled by the worker's "ready" line (interpreter exit not counted)."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, WORKER, "--setup"], cwd=ROOT,
                              env=worker_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("setup worker did not exit") from None
        if line.strip() != "ready" or code != 0:
            raise BenchError("setup worker did not report ready")
    return statistics.median(times)


def source_identity() -> dict:
    """Git SHA when the checkout is a repository, and always a digest of
    the package sources, since benchmark checkouts carry no .git."""
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace, profile="full",
                 perturb=False, setup_samples=SETUP_SAMPLES) -> dict:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--profile", profile]
    if perturb:
        args.append("--perturb")
    out = call_worker(args, timeout=WORKER_TIMEOUT_S).strip().splitlines()
    result = json.loads(out[-1])
    for line in out[:-1]:
        print(line)
    if not trace:
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": setup_seconds(setup_samples),
                              "unit": "s"}
        result["metrics"] = {name: metrics[name] for name in
                             ("wall_s", "setup_s", "peak_rss_mb",
                              "op_p50_ms", "op_p99_ms")}
    result["info"].update(source_identity(), nproc=os.cpu_count(),
                          workload=workload, seed=seed, trace=trace,
                          profile=profile)
    return result


def self_check() -> bool:
    """Small profile (every mesh level <= 1): every metric BENCHMARK.json
    names is printed with its unit, clean runs pass every gate, and a
    deliberately perturbed result trips the gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True

    def report(passed, what):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, 0, 1, trace, profile="small",
                               setup_samples=1)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            report(got == expected[trace],
                   f"{workload} trace={trace}: metric names and units")
            report(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   f"{workload} trace={trace}: {res['attempted']} ops, "
                   f"{res['failed']} failed")
        res = run_workload(workload, 0, 1, 0, profile="small", perturb=True,
                           setup_samples=1)
        report(not res["correct"] and res["failed"] > 0,
               f"{workload} perturbed: gate trips with {res['failed']} of "
               f"{res['attempted']} ops failed")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no dtnfem sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return 0 if self_check() else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": result.pop("info")}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
