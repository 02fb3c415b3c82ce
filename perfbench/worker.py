"""One benchmark process: import dtnfem from the checkout, run one workload's
passes for a time budget, check every output, print one JSON line.

    python3 perfbench/worker.py --setup
        imports plus one level-0 warm-up solve, then prints "ready"
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        [--profile small] [--perturb]
    python3 perfbench/worker.py --record-reference
        rewrites perfbench/reference.json from the default seed

``run.py`` starts this in a fresh process per workload, because ``ru_maxrss``
is a per-process high-water mark.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

from tracing import ROOT, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, ".out")
REFERENCE = os.path.join(HERE, "reference.json")

# Every workload: k=1, R0=1, R=2, n_angular=16, DtN order 20 for single solves.
K, R0, R, N_ANGULAR, ORDER = 1.0, 1.0, 2.0, 16, 20

# "full" is the benchmark; "small" keeps every mesh at level <= 1 for the
# self-check.
PROFILES = {
    "full": {"levels": 4, "trunc_levels": 3, "n_max": 20,
             "probe_level": 3, "probes": 200},
    "small": {"levels": 1, "trunc_levels": 1, "n_max": 8,
              "probe_level": 1, "probes": 100},
}

RESIDUAL_TOL = 1e-10
ORDER_H0 = (1.7, 2.3)          # fitted L2 order, checked with >= 3 levels
ORDER_H1 = (0.8, 1.2)          # fitted H1 order
CURVE_SLACK = 0.01             # err_h0(N+1) <= 1.01 err_h0(N)
N_STAR_MAX = 6
REF_RTOL = 1e-6                # err columns against reference.json
# |u_h - u| <= PROBE_C h^2 max|u| pointwise; measured worst ratio 0.73 at
# levels 1 and 3 over four incident angles.
PROBE_C = 2.0
ORACLE_RTOL = 1e-12            # scalar oracle call against one batched call
PROBE_PATTERN_SEED = 1609      # the fixed probe pattern that seeds rotate

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "op_p50_ms": "ms", "op_p99_ms": "ms"}
LAYER_UNITS = {
    "analytic.pressure_s": "s", "analytic.displacement_s": "s",
    "analytic.points": "count", "analytic.eval_calls": "count",
    "analytic.modes_s": "s", "analytic.modes_kept": "count",
    "solve.linear_s": "s", "solve.calls": "count", "solve.lu_fill": "count",
    "solve.self_s": "s", "solve.locate_s": "s", "solve.locate_calls": "count",
    "dtn.matrix_s": "s", "dtn.calls": "count", "dtn.rank": "count",
    "assembly.system_s": "s", "assembly.blocks_s": "s",
    "assembly.nnz": "count", "assembly.dofs": "count",
    "mesh.build_s": "s", "mesh.triangles": "count",
    "harness.errors_s": "s", "harness.self_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}
# span name -> per-layer self-time metric
SPAN_METRICS = {
    "analytic.pressure": "analytic.pressure_s",
    "analytic.displacement": "analytic.displacement_s",
    "analytic.modes": "analytic.modes_s",
    "solve.linear": "solve.linear_s", "solve.solve": "solve.self_s",
    "solve.locate": "solve.locate_s", "dtn.matrix": "dtn.matrix_s",
    "assembly.system": "assembly.system_s",
    "assembly.blocks": "assembly.blocks_s", "mesh.build": "mesh.build_s",
    "harness.errors": "harness.errors_s", "harness": "harness.self_s",
    "cli": "cli.self_s", ROOT: "trace.unaccounted_s",
}
COUNT_METRICS = ("analytic.points", "analytic.eval_calls", "solve.calls",
                 "solve.locate_calls", "dtn.calls", "mesh.triangles")
MAX_METRICS = ("analytic.modes_kept", "solve.lu_fill", "dtn.rank",
               "assembly.nnz", "assembly.dofs")


def incident_direction(seed: int):
    """Seed 0 is the acceptance configuration d = (1, 0)."""
    angle = 0.0 if seed == 0 else float(
        np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
    return (math.cos(angle), math.sin(angle))


def import_dtnfem():
    sys.path.insert(0, SRC)
    import dtnfem
    if not os.path.abspath(dtnfem.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dtnfem imported from {dtnfem.__file__}, "
                         f"not from {SRC}")
    # dtnfem.solve the module, not the function the package re-exports
    return tuple(importlib.import_module(f"dtnfem.{name}") for name in
                 ("cli", "harness", "analytic", "solve", "assembly"))


def setup():
    """What setup_s times: the imports and one level-0 warm-up solve."""
    mods = import_dtnfem()
    harness = mods[1]
    harness.run_single(harness.StudyConfig(), K, ORDER, 0)
    return mods


# -- correctness gates ---------------------------------------------------------

def read_rows(path):
    """(h, N, k, dofs, err_h0, err_h1) per CSV row; the seconds column is
    never read, because it means different things in different studies."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            vals = dict(zip(header, line.strip().split(",")))
            rows.append((float(vals["h"]), int(vals["N"]), float(vals["k"]),
                         int(vals["dofs"]), float(vals["err_h0"]),
                         float(vals["err_h1"])))
    return rows


def row_matches(row, ref) -> bool:
    return (tuple(row[:4]) == tuple(ref[:4]) and all(
        abs(a - b) <= REF_RTOL * abs(b) for a, b in zip(row[4:], ref[4:])))


def fitted_order(hs, errs) -> float:
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def convergence_failures(rows, ref):
    """Per-row pass/fail list for one convergence study."""
    ok = [all(math.isfinite(v) and v > 0 for v in r[4:]) for r in rows]
    if ref is not None:
        ok = [o and row_matches(r, f) for o, r, f in zip(ok, rows, ref)]
    if len(rows) >= 3 and all(ok):
        hs = [r[0] for r in rows]
        o0 = fitted_order(hs, [r[4] for r in rows])
        o1 = fitted_order(hs, [r[5] for r in rows])
        if not (ORDER_H0[0] <= o0 <= ORDER_H0[1]
                and ORDER_H1[0] <= o1 <= ORDER_H1[1]):
            ok = [False] * len(rows)
    return ok


def truncation_failures(rows, ref):
    """Per-row pass/fail; a curve that rises or plateaus late fails whole."""
    ok = [all(math.isfinite(v) and v > 0 for v in r[4:]) for r in rows]
    if ref is not None:
        ok = [o and row_matches(r, f) for o, r, f in zip(ok, rows, ref)]
    start = 0
    while start < len(rows):
        end = start
        while end < len(rows) and rows[end][0] == rows[start][0]:
            end += 1
        errs = [r[4] for r in rows[start:end]]
        rising = any(b > (1 + CURVE_SLACK) * a for a, b in zip(errs, errs[1:]))
        n_star = next(rows[start + i][1] for i, e in enumerate(errs)
                      if e <= 1.05 * errs[-1])
        if rising or n_star > N_STAR_MAX:
            ok[start:end] = [False] * (end - start)
        start = end
    return ok


# -- workloads -----------------------------------------------------------------

class Workload:
    """Inputs from the seed, one pass, and the gates on its outputs."""

    def __init__(self, mods, seed: int, profile: str, perturb: bool,
                 reference: dict | None):
        (self.cli, self.harness, self.analytic, self.solve_mod,
         self.assembly) = mods
        self.profile = PROFILES[profile]
        self.perturb = perturb
        self.d = incident_direction(seed)
        self.reference = reference
        os.makedirs(OUT, exist_ok=True)

    def cli_args(self):
        return ["--k", repr(K), "--R0", repr(R0), "--R", repr(R),
                "--n-angular", str(N_ANGULAR),
                f"--d={self.d[0]!r},{self.d[1]!r}"]   # '=': d may be < 0

    def run_cli(self, argv):
        """Exit code of ``dtnfem argv``; anything it raises fails the pass."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except SystemExit as exc:      # argparse rejects its arguments
            return exc.code
        except Exception as exc:       # an uncaught error is a failed op
            print(f"dtnfem {argv[0]} raised {exc!r}", file=sys.stderr)
            return None

    def op_hooks(self, rec: Recorder):
        """Wrappers needed with tracing off: op boundaries, residuals."""
        h = self.harness

        def residual(sol, args):
            system = args[0]
            x = np.concatenate([sol.u_nodal.ravel(), sol.p_nodal])
            rec.residuals.append(float(
                np.linalg.norm(system.matrix @ x - system.rhs)
                / np.linalg.norm(system.rhs)))

        rec.wrap(h, "solve", after=residual)

    def latencies(self, result):
        """Op latencies the pass timed itself (the study ops use marks)."""
        return []


class Convergence(Workload):
    def op_hooks(self, rec):
        super().op_hooks(rec)
        rec.wrap(self.harness, "build_mesh_pair",
                 before=lambda: rec.mark("start"))

    def run_pass(self, rec):
        path = os.path.join(OUT, f"convergence_{os.getpid()}.csv")
        argv = ["convergence", *self.cli_args(), "--order", str(ORDER),
                "--levels", str(self.profile["levels"]), "--output", path]
        return self.run_cli(argv), path

    def check(self, rec, result):
        code, path = result
        n = self.profile["levels"]
        if code != 0:
            return n, n
        rows = read_rows(path)
        if self.perturb:
            r = rows[-1]
            rows[-1] = r[:4] + (r[4] * 1.5, r[5] * 1.5)
        ref = self.reference and self.reference["convergence"]
        return n, failed_ops(n, convergence_failures(rows, ref), rec.residuals)


class Truncation(Workload):
    def op_hooks(self, rec):
        super().op_hooks(rec)
        # a solve point runs from its assembly to the next one; the per-curve
        # set-up after build_mesh_pair belongs to no op
        rec.wrap(self.harness, "assemble_system",
                 before=lambda: rec.mark("start"))
        rec.wrap(self.harness, "build_mesh_pair",
                 before=lambda: rec.mark("stop"))

    def run_pass(self, rec):
        path = os.path.join(OUT, f"truncation_{os.getpid()}.csv")
        argv = ["truncation", *self.cli_args(),
                "--levels", str(self.profile["trunc_levels"]),
                "--n-max", str(self.profile["n_max"]), "--output", path]
        return self.run_cli(argv), path

    def check(self, rec, result):
        code, path = result
        n = self.profile["trunc_levels"] * self.profile["n_max"]
        if code != 0:
            return n, n
        rows = read_rows(path)
        if self.perturb:
            r = rows[-1]
            rows[-1] = r[:4] + (r[4] * 1.5, r[5])
        ref = self.reference and self.reference["truncation"]
        return n, failed_ops(n, truncation_failures(rows, ref), rec.residuals)


class FieldProbe(Workload):
    """One solve, then probes issued one at a time in random order, half in
    the disc and half in the annulus, inside both polygonal meshes at every
    level (radii kept under the coarsest apothem).

    The points and their order are one fixed random pattern; the seed
    rotates it as a whole.  Whether a walk falls back to a full scan depends
    on the gap between consecutive probes, which a rotation keeps, so every
    seed takes about the same number of scans (42-48 of 100 annulus probes
    over six rotations, against 35-56 for six independent patterns)."""

    def __init__(self, mods, seed, profile, perturb, reference):
        super().__init__(mods, seed, profile, perturb, reference)
        rng = np.random.default_rng(PROBE_PATTERN_SEED)
        half = self.profile["probes"] // 2
        apothem = math.cos(math.pi / N_ANGULAR) * 0.999

        def stratified():
            """Latin hypercube in (r^2, theta): uniform by area."""
            u = (np.arange(half) + rng.uniform(size=half)) / half
            v = (rng.permutation(half) + rng.uniform(size=half)) / half
            return u, 2.0 * np.pi * v

        u, th_disc = stratified()
        r_disc = R0 * apothem * np.sqrt(u)
        u, th_ann = stratified()
        lo, hi = (R0 * 1.001) ** 2, (R * apothem) ** 2
        r_ann = np.sqrt(lo + u * (hi - lo))
        rotation = 0.0 if seed == 0 else float(
            np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * np.pi))
        theta = np.concatenate([th_disc, th_ann]) + rotation
        radius = np.concatenate([r_disc, r_ann])
        order = rng.permutation(2 * half)
        self.in_disc = (order < half).tolist()
        self.radius = radius[order]
        self.theta = theta[order]
        self.xy = list(zip((self.radius * np.cos(self.theta)).tolist(),
                           (self.radius * np.sin(self.theta)).tolist()))
        self.polar = list(zip(self.radius.tolist(), self.theta.tolist()))
        self.config = self.harness.StudyConfig(d=self.d, n_angular=N_ANGULAR,
                                               R0=R0, R=R)
        # batched oracle at every probe, computed before any wrapper exists
        exact = self.analytic.solve_modes(self.config.physical(K))
        disc = np.array(self.in_disc)
        self.oracle = np.empty((2 * half, 2), dtype=complex)
        self.oracle[disc] = self.analytic.eval_displacement(
            exact, self.radius[disc], self.theta[disc])
        self.oracle[~disc, 0] = self.analytic.eval_pressure(
            exact, self.radius[~disc], self.theta[~disc])
        self.oracle[~disc, 1] = 0.0
        self.scale = (np.max(np.abs(self.oracle[disc])),
                      np.max(np.abs(self.oracle[~disc, 0])))

    def run_pass(self, rec):
        rec.mark("start")
        try:
            report, sol, exact = self.harness.run_single(
                self.config, K, ORDER, self.profile["probe_level"])
        except Exception as exc:   # counted as a failed solve point
            print(f"field_probe: solve failed: {exc!r}", file=sys.stderr)
            return None
        rec.mark("stop")
        evaluate = self.solve_mod.evaluate_field
        analytic = self.analytic
        n = len(self.xy)
        fe = np.zeros((n, 2), dtype=complex)
        ex = np.zeros((n, 2), dtype=complex)
        latencies = []
        raised = []
        clock = time.perf_counter
        for i in range(n):
            xy, (r, th) = self.xy[i], self.polar[i]
            t0 = clock()
            try:
                if self.in_disc[i]:
                    fe[i] = evaluate(sol, xy, "u")
                    ex[i] = analytic.eval_displacement(exact, r, th)
                else:
                    fe[i, 0] = evaluate(sol, xy, "p")
                    ex[i, 0] = analytic.eval_pressure(exact, r, th)
            except Exception as exc:  # a probe that raises is a failed op
                raised.append(i)
                print(f"field_probe: probe {i} raised {exc!r}",
                      file=sys.stderr)
            latencies.append(clock() - t0)
        return report, fe, ex, latencies, raised

    def check(self, rec, result):
        n = 1 + len(self.xy)
        if result is None:
            return n, n
        report, fe, ex, _, raised = result
        row = (report.h, report.N, report.k, report.dofs,
               report.err_h0, report.err_h1)
        solve_ok = (len(rec.residuals) == 1
                    and rec.residuals[0] <= RESIDUAL_TOL
                    and math.isfinite(report.err_h0))
        if self.reference is not None:
            level_row = self.reference["convergence"][
                self.profile["probe_level"] - 1]
            solve_ok = solve_ok and row_matches(row, level_row)
        if self.perturb:
            fe[0, 0] += self.scale[0]
        disc = np.array(self.in_disc)
        scale = np.where(disc, self.scale[0], self.scale[1])
        tol = PROBE_C * report.h ** 2 * scale
        probe_ok = ((np.max(np.abs(fe - ex), axis=1) <= tol)
                    & (np.max(np.abs(ex - self.oracle), axis=1)
                       <= ORACLE_RTOL * scale))
        probe_ok[raised] = False
        return n, int(not solve_ok) + int(np.count_nonzero(~probe_ok))

    def latencies(self, result):
        return [] if result is None else result[3]


WORKLOADS = {"convergence": Convergence, "truncation": Truncation,
             "field_probe": FieldProbe}


def failed_ops(n, ok, residuals):
    """A solve point fails on a missed gate or a residual above tolerance;
    the k-th CSV row comes from the k-th solve."""
    if len(ok) != n or len(residuals) != n:
        return n
    return sum(1 for o, r in zip(ok, residuals)
               if not (o and r <= RESIDUAL_TOL))


# -- tracing -------------------------------------------------------------------

def trace_hooks(rec: Recorder, wl: Workload):
    """Span wrappers at every layer boundary, plus the counts."""
    import scipy.sparse.linalg as spla

    cli, harness, analytic = wl.cli, wl.harness, wl.analytic
    solve_mod, assembly = wl.solve_mod, wl.assembly
    fills, ranks = {}, {}

    def count(name, n=1):
        rec.counts[name] += n

    def peak(name, value):
        rec.maxima[name] = max(rec.maxima[name], int(value))

    def triangles(mesh, _):
        count("mesh.triangles", mesh.num_triangles)

    def points(_, args):
        count("analytic.points", np.broadcast(args[1], args[2]).size)
        count("analytic.eval_calls")

    def lu_fill(_, args):
        # a second factorization of the same matrix, outside every span;
        # pivoting depends on the values, so they are part of the key
        matrix = args[0]
        key = (matrix.shape, matrix.nnz, complex(matrix.data.sum()))
        if key not in fills:
            lu = spla.splu(matrix.tocsc().astype(complex))
            fills[key] = lu.L.nnz + lu.U.nnz
        peak("solve.lu_fill", fills[key])
        count("solve.calls")

    def rank(matrix, args):
        key = (len(args[0]), args[3], args[1], args[2])
        if key not in ranks:
            ranks[key] = int(np.linalg.matrix_rank(matrix))
        peak("dtn.rank", ranks[key])
        count("dtn.calls")

    def system(out, _):
        peak("assembly.dofs", out.matrix.shape[0])
        peak("assembly.nnz", out.matrix.nnz)

    rec.wrap(cli, "main", "cli")
    for name in ("convergence_study", "truncation_study", "run_single",
                 "write_csv"):
        rec.wrap(cli, name, "harness")
    rec.wrap(harness, "run_single", "harness")
    rec.wrap(harness, "solve", "solve.solve")
    rec.wrap(harness, "error_norms", "harness.errors")
    quad = harness._ExactQuadrature
    rec.wrap(quad, "__init__", "harness.errors")
    rec.wrap(quad, "errors", "harness.errors")
    rec.wrap(harness, "build_mesh_pair", "mesh.build")
    for name in ("build_disc_mesh", "build_annulus_mesh", "refine"):
        rec.wrap(harness, name, "mesh.build", after=triangles)
    rec.wrap(harness, "assemble_system", "assembly.system", after=system)
    rec.wrap(harness, "assemble_blocks", "assembly.blocks")
    rec.wrap(assembly, "assemble_blocks", "assembly.blocks")
    rec.wrap(assembly.dtn_ops, "assemble_dtn_matrix", "dtn.matrix",
             after=rank)
    rec.wrap(solve_mod, "solve_linear", "solve.linear", after=lu_fill)
    rec.wrap(solve_mod, "evaluate_field", "solve.locate",
             after=lambda *_: count("solve.locate_calls"))
    rec.wrap(analytic, "solve_modes", "analytic.modes",
             after=lambda out, _: peak("analytic.modes_kept", out.n_modes))
    rec.wrap(analytic, "eval_pressure", "analytic.pressure", after=points)
    rec.wrap(analytic, "eval_displacement", "analytic.displacement",
             after=points)


# -- measurement ---------------------------------------------------------------

def run_passes(wl: Workload, rec: Recorder, budget_s: float):
    """Passes until the next one, at the median pass time so far, would
    overrun the budget; always at least one."""
    passes = []
    t_start = time.perf_counter()
    while True:
        rec.reset()
        t0 = time.perf_counter()
        with rec.span(ROOT):
            result = wl.run_pass(rec)
        t1 = time.perf_counter()
        excluded = rec.excluded_s
        latencies = rec.op_latencies(t1, excluded) + wl.latencies(result)
        attempted, failed = wl.check(rec, result)
        passes.append({
            "wall": (t1 - t0) - excluded, "latencies": latencies,
            "attempted": attempted, "failed": failed,
            "self": rec.self_times() if rec.tracing else {},
            "counts": dict(rec.counts), "maxima": dict(rec.maxima)})
        median = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - t_start + median > budget_s:
            return passes


def end_to_end(passes) -> dict:
    """Every pass runs the same ops in the same order, so the k-th latency
    of each pass times the same work, and an op's latency is the median of
    its repeats.  On a shared host the CPU speed can switch between levels
    many times a second; a median over repeats of the same work takes the
    level the host spends most time at, where a percentile pooled over
    different ops moves with the share of time spent at each."""
    n_ops = max(len(p["latencies"]) for p in passes)
    per_op = [statistics.median(p["latencies"][i] for p in passes
                                if i < len(p["latencies"]))
              for i in range(n_ops)]
    p50, p99 = np.percentile(per_op, [50, 99]) * 1e3
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": float(p50), "op_p99_ms": float(p99),
    }


def per_layer(untraced, traced) -> dict:
    """Means over traced passes, so self times add up to trace.wall_s."""
    def mean(values):
        return float(statistics.fmean(values))

    out = {metric: mean(p["self"].get(span, 0.0) for p in traced)
           for span, metric in SPAN_METRICS.items()}
    out.update({name: mean(p["counts"].get(name, 0) for p in traced)
                for name in COUNT_METRICS})
    out.update({name: max(p["maxima"].get(name, 0) for p in traced)
                for name in MAX_METRICS})
    out["trace.wall_s"] = mean(p["wall"] for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - mean(
        p["wall"] for p in untraced)
    return out


def run(args) -> dict:
    mods = setup()
    reference = None
    if args.seed == 0:   # rows recorded for the acceptance configuration
        with open(REFERENCE) as fh:
            reference = json.load(fh)[args.profile]
    wl = WORKLOADS[args.workload](mods, args.seed, args.profile, args.perturb,
                                  reference)
    rec = Recorder(tracing=False)
    wl.op_hooks(rec)
    try:
        if not args.trace:
            passes = run_passes(wl, rec, args.seconds)
            metrics = end_to_end(passes)
            units = E2E_UNITS
        else:
            untraced = run_passes(wl, rec, args.seconds / 2)
            rec.tracing = True
            trace_hooks(rec, wl)
            traced = run_passes(wl, rec, args.seconds / 2)
            passes = untraced + traced
            metrics = per_layer(untraced, traced)
            units = LAYER_UNITS
            layer_sum = sum(metrics[m] for m in SPAN_METRICS.values())
            print(json.dumps({"accounting": {
                "trace.wall_s": metrics["trace.wall_s"],
                "sum_of_self_s": layer_sum,
                "remainder_s": metrics["trace.wall_s"] - layer_sum}}))
    finally:
        rec.unwrap_all()
    import scipy
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "info": {"passes": len(passes),
                 "pass_walls_s": [p["wall"] for p in passes],
                 "ops": attempted, "ops_failed": failed,
                 "incident_direction": list(wl.d),
                 "numpy": np.__version__, "scipy": scipy.__version__},
    }


def record_reference():
    """Study rows at the default seed, for both profiles."""
    mods = setup()
    reference = {}
    for profile in PROFILES:
        rec = Recorder(tracing=False)
        reference[profile] = {}
        for name in ("convergence", "truncation"):
            wl = WORKLOADS[name](mods, 0, profile, False, None)
            _, path = wl.run_pass(rec)
            reference[profile][name] = read_rows(path)
            os.remove(path)
    lines = []
    for profile, studies in reference.items():
        body = ",\n".join(
            f'  "{name}": [\n' + ",\n".join(f"   {json.dumps(r)}" for r in rows)
            + "\n  ]" for name, rows in studies.items())
        lines.append(f' "{profile}": {{\n{body}\n }}')
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one output so the gate must trip")
    args = parser.parse_args(argv)
    if args.setup:
        setup()
        print("ready", flush=True)
    elif args.record_reference:
        record_reference()
    else:
        if args.workload is None:
            parser.error("--workload is required")
        print(json.dumps(run(args)), flush=True)


if __name__ == "__main__":
    main()
