"""Error norms against the modal oracle, mesh/truncation studies, CSV output.

Errors are measured in the product norms over both regions,

    err_h0^2 = |u - u_h|^2_{L2(disc)} + |p - p_h|^2_{L2(annulus)},
    err_h1^2 = err_h0^2 + |grad(u - u_h)|^2 + |grad(p - p_h)|^2,

by a degree-5 (7-point) rule per triangle, one degree beyond what an O(h^2)
rate measurement needs so quadrature error never masquerades as convergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import analytic, special
from . import dtn as dtn_ops
from .assembly import _p1_geometry, assemble_blocks, assemble_system
from .config import PhysicalConfig
from .mesh import (Mesh, _coarse_pair_triangles, build_annulus_mesh,
                   build_disc_mesh, mesh_size, refine, triangle_areas)
from .solve import FieldSolution, LowRankSweep, solve

__all__ = [
    "CSV_HEADER", "ErrorReport", "StudyConfig",
    "ConvergenceResult", "TruncationResult", "PlateauInfo",
    "error_norms", "convergence_study", "truncation_study", "operator_decay",
    "build_mesh_pair", "run_single", "write_csv",
    "fitted_order",
]

CSV_HEADER = "h,N,k,dofs,err_h0,err_h1,seconds"

# the default pair (R0=1, R=2, n_angular=16) at level 6: `dtnfem solve` (one
# BLAS thread) peaks at about 370 MB at level 5 and 1.2 GB at level 6, in the
# error reduction; level 7 (not run) extrapolates to 4-5 GB, on an 8 GB host
MAX_TRIANGLES = _coarse_pair_triangles(1.0, 2.0, 16) * 4 ** 6
MAX_LEVEL = 7  # implied: 24 triangles (n_angular 8) * 4**8 is over the cap

_SQRT15 = np.sqrt(15.0)
_B1 = (6.0 + _SQRT15) / 21.0
_B2 = (6.0 - _SQRT15) / 21.0
_TRI_QP = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [1 - 2 * _B1, _B1, _B1], [_B1, 1 - 2 * _B1, _B1], [_B1, _B1, 1 - 2 * _B1],
    [1 - 2 * _B2, _B2, _B2], [_B2, 1 - 2 * _B2, _B2], [_B2, _B2, 1 - 2 * _B2],
])
_TRI_QW = np.array([9 / 40,
                    (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200,
                    (155 + _SQRT15) / 1200,
                    (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200,
                    (155 - _SQRT15) / 1200])


@dataclass(frozen=True)
class ErrorReport:
    """One study row.  ``seconds`` is the wall time of the row's assembly
    plus ``solve``; building the mesh, the oracle tables and the error
    reduction are not counted, nor, in a truncation study, the per-curve
    set-up that every order's solve reuses: the blocks, the real
    factorization of A0 and the columns W = A0^{-1} V
    (``solve.LowRankSweep``)."""

    h: float
    N: int
    k: float
    dofs: int
    err_h0: float
    err_h1: float
    seconds: float


def _quad_points(mesh: Mesh, triangles=slice(None)) -> np.ndarray:
    """Quadrature points (T, Q, 2) of every triangle, or of ``triangles``."""
    return np.einsum("qa,tad->tqd", _TRI_QP, np.take(
        mesh.nodes, mesh.triangles[triangles], axis=0))


def _oracle_tables(mesh: Mesh, oracle, exact: analytic.SeriesSolution):
    """The oracle value and Cartesian gradient at every quadrature point,
    (T, Q[, 2]) and (T, Q[, 2], 2), in triangle order.

    The oracle runs on the points of row 0 of the mesh's rotation table
    only: row j's points are row 0's turned by 2 pi j / S, which the oracle
    reaches by a phase product on its mode axis (``sectors``).  Each sector
    is written into triangle order through its row.  A mesh with no table
    is one sector.  Both oracles give their gradients in Cartesian form, so
    both regions are treated alike.
    """
    table = (np.arange(mesh.num_triangles)[None] if mesh.rotations is None
             else mesh.rotations)
    sectors = len(table)
    pts = _quad_points(mesh, table[0])
    r = np.hypot(pts[..., 0], pts[..., 1])
    # boundary triangles are chords of the circles, so a few quadrature
    # points sit O(h^2) outside the exact regions: lift the domain guard
    value, grad = oracle(exact, r, np.arctan2(pts[..., 1], pts[..., 0]),
                         with_gradient=True, check_domain=False,
                         sectors=sectors)
    lead = (sectors,) + r.shape

    def in_triangle_order(v):
        # the oracle's outputs lead with the sector axis only when S > 1
        v = v.reshape(lead + v.shape[(sectors > 1) + r.ndim:])
        out = np.empty((mesh.num_triangles,) + v.shape[2:], dtype=v.dtype)
        out[table] = v
        return out

    return in_triangle_order(value), in_triangle_order(grad)


def _vertex_rows(mesh: Mesh, entries: np.ndarray) -> sp.csr_matrix:
    """CSR operator whose row t*R + i holds entries[t, i] (T, R, 3) on the
    vertices of triangle t, in vertex order, so each row sums as the
    per-triangle einsum over the vertices did."""
    n_tri, per_tri, _ = entries.shape
    cols = np.repeat(mesh.triangles, per_tri, axis=0)
    return sp.csr_matrix(
        (entries.ravel(), cols.ravel(), np.arange(0, entries.size + 1, 3)),
        shape=(n_tri * per_tri, mesh.num_nodes))


class _ExactQuadrature:
    """Oracle fields frozen at the quadrature points of one mesh pair.

    Building this is the expensive part of an error measurement; reusing it
    across a truncation sweep makes the N study cheap.  ``errors`` is the
    reference reduction: a pass over every quadrature point.  The swept
    orders of a truncation curve take it in coefficient space instead
    (``_SweepErrors``).
    """

    def __init__(self, disc_mesh: Mesh, annulus_mesh: Mesh,
                 exact: analytic.SeriesSolution):
        self.h = max(mesh_size(disc_mesh), mesh_size(annulus_mesh))
        self.dofs = 2 * disc_mesh.num_nodes + annulus_mesh.num_nodes
        # per region: the mesh, the maps from nodal values to the P1 values
        # at the quadrature points (rows t, q) and to the constant P1
        # gradients (rows t, d), the areas, and the oracle value and
        # Cartesian gradient at the quadrature points
        self._regions = []
        for mesh, oracle in ((disc_mesh, analytic.eval_displacement),
                             (annulus_mesh, analytic.eval_pressure)):
            value, grad = _oracle_tables(mesh, oracle, exact)
            grads, area = _p1_geometry(mesh)
            interp = _vertex_rows(mesh, np.broadcast_to(
                _TRI_QP, (len(area), *_TRI_QP.shape)))
            self._regions.append((mesh, interp,
                                  _vertex_rows(mesh, grads.transpose(0, 2, 1)),
                                  area, value, grad))

    def _diffs(self, u_nodal: np.ndarray, p_nodal: np.ndarray):
        """Per region, the P1 field minus the oracle at the quadrature points
        (T, Q[, 2]) and its gradient minus the oracle's (T, Q[, 2], 2)."""
        for nodal, (_, interp, grad_op, area, value, grad) in zip(
                (u_nodal, p_nodal), self._regions):
            # complex nodes as interleaved reals, (n, 2c): u has c = 2
            nodal = np.ascontiguousarray(nodal, dtype=complex)
            real = nodal.reshape(len(nodal), -1).view(float)
            f_h = (interp @ real).view(complex).reshape(value.shape)
            g_h = np.moveaxis(
                (grad_op @ real).view(complex).reshape(len(area), 2, -1), 1, -1
            ).reshape(grad.shape[:1] + grad.shape[2:])
            yield f_h - value, g_h[:, None] - grad

    def _squared(self, diffs):
        """err_h0^2 and err_h1^2 from the differences of ``_diffs``."""
        l2, h1 = [], []
        for (f_diff, g_diff), region in zip(diffs, self._regions):
            area = region[3]
            for diff, out in ((f_diff, l2), (g_diff, h1)):
                sq = (np.abs(diff) ** 2).reshape(len(area), len(_TRI_QW), -1)
                out.append(np.einsum("q,tqc->t", _TRI_QW, sq) @ area)
        return l2[0] + l2[1], l2[0] + l2[1] + h1[0] + h1[1]

    def errors(self, u_nodal: np.ndarray, p_nodal: np.ndarray):
        sq_h0, sq_h1 = self._squared(self._diffs(u_nodal, p_nodal))
        return float(np.sqrt(sq_h0)), float(np.sqrt(sq_h1))

    def report(self, sol: FieldSolution, seconds: float,
               errors=None) -> ErrorReport:
        """The row of ``sol``, with its (err_h0, err_h1) from ``errors`` or,
        when that is None, from the reference reduction."""
        err_h0, err_h1 = errors or self.errors(sol.u_nodal, sol.p_nodal)
        return ErrorReport(h=self.h, N=sol.N, k=sol.config.k,
                           dofs=self.dofs, err_h0=err_h0, err_h1=err_h1,
                           seconds=seconds)


# a swept row whose err^2 is below 1/_CANCELLATION of the sum of its three
# terms' magnitudes has lost about that factor to rounding, so it takes the
# reference instead (the default curves reach at most 1.33 at k = 1 and 2)
_CANCELLATION = 100.0


class _SweepErrors:
    """err_h0 and err_h1 of each order a ``LowRankSweep`` kept, from its
    coefficients alone.

    Every order is x_N = y + W c_N.  Around the largest order's solution
    x* = y + W c*, with delta = c_N - c* (zero-padded), the error of x_N at
    the quadrature points is r* + I W delta, so for either norm

        err^2 = s + 2 Re(h^H delta) + delta^H G delta,

    with s the err^2 of x* (the reference reduction), h = W^T I^T (w r*)
    (w the rule's weights times the areas; the gradient map in place of I
    for the gradient part of err_h1) and G = W^T M W, plus W^T K W for
    err_h1 (M and K the P1 mass and stiffness matrices per displacement
    component and region, the blocks' ``SystemBlocks.p1_forms``: the rule
    integrates P1 products exactly).  W is real, so delta^H G delta =
    Re(delta)^T G Re(delta) + Im(delta)^T G Im(delta).  A row then costs
    O((2N+1)^2) instead of a pass over every quadrature point, and the
    largest order's row (delta = 0) is the reference's bitwise.  Expanding around x*, not y, keeps s at the size
    of every row's err^2, so the sum loses no digits.

    Orders that were solved directly, and every order of a curve without a
    sweep (or whose c* cannot be formed), take ``errors`` = None: the
    reference reduction.
    """

    def __init__(self, quad: _ExactQuadrature, sweep: LowRankSweep | None,
                 p1_forms: tuple):
        self._kept = {}   # until c* is formed, every row takes the reference
        c_star = None if sweep is None else sweep.coefficients(sweep.order)
        if c_star is None:
            return
        x = sweep.combine(c_star)
        if not np.all(np.isfinite(x)):
            return
        # the sweep's kept coefficients, not the sweep: its factor and W
        # must die with the curve, before the next curve's are built
        self._kept, self._c_star = sweep.kept, c_star
        ns = quad._regions[0][0].num_nodes
        w = sweep.w[:, :len(c_star)]
        r = w.shape[1]
        # the unknowns of each region and its components per node: u_x, u_y
        # interleave over the disc nodes, then p over the annulus nodes
        layout = ((slice(0, 2 * ns), 2), (slice(2 * ns, None), 1))
        back = np.empty((2, len(x)), dtype=complex)   # I^T (w r*) per norm

        def projecting(diffs):
            # each region's w r* goes back through the interpolation and
            # gradient maps once the reference reduction has read the
            # region, so their temporaries are never alive together
            for (f_diff, g_diff), (_, interp, grad_op, area, *_), (
                    rows, n_comp) in zip(diffs, quad._regions, layout):
                yield f_diff, g_diff
                n_tri, n_q = len(area), len(_TRI_QW)
                f_w = f_diff.reshape(n_tri, n_q, n_comp)   # read: weigh it
                f_w *= (area[:, None] * _TRI_QW)[..., None]
                g_w = (_TRI_QW @ g_diff.reshape(n_tri, n_q, -1)).reshape(
                    n_tri, n_comp, 2).transpose(0, 2, 1) * area[:, None, None]
                for out, op, v in ((back[0], interp, f_w),
                                   (back[1], grad_op, g_w)):
                    real = np.ascontiguousarray(v).reshape(-1, n_comp).view(
                        float)
                    out[rows] = np.ascontiguousarray(op.T @ real).view(
                        complex).ravel()

        # index 0 is err_h0, index 1 err_h1 (the gradient terms added)
        self._s = np.array(quad._squared(projecting(quad._diffs(
            x[:2 * ns].reshape(ns, 2), x[2 * ns:]))))
        back[1] += back[0]
        parts = np.stack([back.real, back.imag], axis=1).reshape(4, -1)
        self._h = (w.T @ parts.T).T.reshape(2, 2, r)  # [norm, re/im, column]
        self._gram = np.zeros((2, r, r))
        for (mass, stiff), (rows, n_comp) in zip(p1_forms, layout):
            for comp in range(n_comp):
                wc = np.ascontiguousarray(w[rows][comp::n_comp])
                self._gram[0] += wc.T @ (mass @ wc)
                self._gram[1] += wc.T @ (stiff @ wc)
        self._gram[1] += self._gram[0]

    def errors(self, N: int):
        """(err_h0, err_h1) of order N, or None for the reference."""
        c = self._kept.get(N)
        if c is None:
            return None
        delta = -self._c_star
        delta[:len(c)] += c
        d = np.stack([delta.real, delta.imag])
        cross = 2.0 * np.einsum("nar,ar->n", self._h, d)
        form = np.einsum("ar,nrs,as->n", d, self._gram, d)
        sq = self._s + cross + form
        if not np.all(self._s + np.abs(cross) + np.abs(form)
                      <= _CANCELLATION * sq):
            return None
        return float(np.sqrt(sq[0])), float(np.sqrt(sq[1]))


def error_norms(sol: FieldSolution, exact: analytic.SeriesSolution) -> ErrorReport:
    """Measure the discrete solution against the modal oracle.  No solve is
    timed here, so the report's ``seconds`` is 0."""
    if sol.config != exact.config:
        raise ValueError("solution and oracle use different physical "
                         "configurations")
    return _ExactQuadrature(sol.disc_mesh, sol.annulus_mesh,
                            exact).report(sol, 0.0)


@dataclass(frozen=True)
class StudyConfig:
    """Sweep definition: refinement levels, DtN orders, wave numbers."""

    lam: float = 1.0
    mu: float = 1.0
    rho: float = 1.0
    rho_f: float = 1.0
    omega: float = 1.0
    R0: float = 1.0
    R: float = 2.0
    d: tuple = (1.0, 0.0)
    n_angular: int = 16
    levels: tuple = (1, 2, 3)
    k_values: tuple = (1.0,)
    N: int = 20
    n_values: tuple = tuple(range(1, 21))
    modes: int | None = None
    output: str | None = None

    def __post_init__(self):
        if not self.levels or not self.k_values or not self.n_values:
            raise ValueError("sweep lists must be non-empty")
        if max(self.levels) > MAX_LEVEL:
            raise ValueError(f"refinement count capped at {MAX_LEVEL} "
                             "(desk-scale guard)")
        if min(self.levels) < 0:
            raise ValueError("refinement levels must be >= 0")
        if any(len(set(v)) < len(v) for v in (self.levels, self.k_values)):
            raise ValueError("refinement levels and k values must not repeat")

    def physical(self, k: float) -> PhysicalConfig:
        return PhysicalConfig(lam=self.lam, mu=self.mu, rho=self.rho,
                              rho_f=self.rho_f, omega=self.omega, k=k,
                              R0=self.R0, R=self.R, d=self.d)


def _check_pair_size(R0: float, R: float, n_angular: int, level: int):
    """Refuse a level outside [0, MAX_LEVEL], or a pair predicted to hold
    more than MAX_TRIANGLES triangles, without building a mesh."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"refinement level must be in [0, {MAX_LEVEL}], "
                         f"got {level}")
    triangles = _coarse_pair_triangles(R0, R, n_angular) * 4 ** level
    if triangles > MAX_TRIANGLES:
        raise ValueError(f"mesh pair of {triangles} triangles exceeds the "
                         f"cap of {MAX_TRIANGLES}")


def build_mesh_pair(R0: float, R: float, n_angular: int, level: int):
    """Coarse disc/annulus pair refined ``level`` times.  A pair refused by
    ``_check_pair_size`` allocates no array; a refinement that inverts a
    triangle is refused at that level."""
    _check_pair_size(R0, R, n_angular, level)
    disc = build_disc_mesh(R0, n_angular)
    annulus = build_annulus_mesh(R0, R, n_angular)
    for lv in range(1, level + 1):
        disc = refine(disc)
        annulus = refine(annulus)
        # a midpoint snapped onto a circle can cross a thin band
        if min(triangle_areas(disc).min(), triangle_areas(annulus).min()) <= 0:
            raise ValueError(f"refinement level {lv} inverts a triangle; "
                             "use a larger --n-angular or R - R0")
    return disc, annulus


def _solve_exact(cfg: StudyConfig, k: float) -> analytic.SeriesSolution:
    return analytic.solve_modes(cfg.physical(k), n_modes=cfg.modes)


def _solve_oracles(cfg: StudyConfig, k_values, order: int) -> list:
    """The order check, the oracle of every k, then a check that ``order``
    can be built at each k, all before any mesh: z_170 overflows at k = 1,
    R = 2, but not at k = 2, so the largest order grows with kR."""
    special._check_order(order)   # a refused order solves no oracle
    exacts = [_solve_exact(cfg, k) for k in k_values]
    for k in k_values:
        try:
            special.dtn_coefficients(order, k, cfg.R)
        except OverflowError as exc:
            raise ValueError(f"truncation order {order} cannot be built at "
                             f"k={k:g}, R={cfg.R:g}: {exc}") from None
    return exacts


def _level_row(cfg: StudyConfig, exact: analytic.SeriesSolution, N: int,
               level: int):
    """Mesh pair, solve, then errors: returns (report, solution).  The
    blocks die inside the timed statement, before the factorization, and
    the oracle tables are built only after the factorization is freed."""
    disc, annulus = build_mesh_pair(cfg.R0, cfg.R, cfg.n_angular, level)
    t0 = time.perf_counter()
    sol = solve(assemble_system(assemble_blocks(disc, annulus, exact.config),
                                N))
    seconds = time.perf_counter() - t0
    return _ExactQuadrature(disc, annulus, exact).report(sol, seconds), sol


def run_single(cfg: StudyConfig, k: float, N: int, level: int):
    """One full pipeline pass; returns (report, solution, oracle)."""
    exact, = _solve_oracles(cfg, (k,), N)
    report, sol = _level_row(cfg, exact, N, level)
    return report, sol, exact


def fitted_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs)),
                            np.log(np.asarray(errs)), 1)[0])


@dataclass(frozen=True)
class ConvergenceResult:
    reports: list
    orders: dict        # k -> (fitted order err_h0, fitted order err_h1)
    residuals: list

    def footer(self):
        return [f"# k={k:g} fitted_order_h0={o0:.4f} fitted_order_h1={o1:.4f}"
                for k, (o0, o1) in self.orders.items()]


def convergence_study(cfg: StudyConfig) -> ConvergenceResult:
    """h refinement at fixed truncation order cfg.N."""
    _check_pair_size(cfg.R0, cfg.R, cfg.n_angular, max(cfg.levels))
    reports, residuals, orders = [], [], {}
    for k, exact in zip(cfg.k_values,
                        _solve_oracles(cfg, cfg.k_values, cfg.N)):
        curve = []
        for level in cfg.levels:
            report, sol = _level_row(cfg, exact, cfg.N, level)
            curve.append(report)
            residuals.append(sol.residual)
            del sol   # not kept alive through the next level's solve
        reports.extend(curve)
        if len(curve) > 1:
            hs = [r.h for r in curve]
            orders[k] = (fitted_order(hs, [r.err_h0 for r in curve]),
                         fitted_order(hs, [r.err_h1 for r in curve]))
    return ConvergenceResult(reports=reports, orders=orders,
                             residuals=residuals)


@dataclass(frozen=True)
class PlateauInfo:
    k: float
    level: int
    h: float
    n_star: int          # smallest N within 5% of the err at max N
    plateau_err: float


@dataclass(frozen=True)
class TruncationResult:
    reports: list
    plateaus: list
    residuals: list

    def footer(self):
        return [f"# k={p.k:g} h={p.h:.6g} plateau_N={p.n_star} "
                f"plateau_err_h0={p.plateau_err:.6e}" for p in self.plateaus]


def truncation_study(cfg: StudyConfig) -> TruncationResult:
    """err_h0 against the truncation order N, one curve per (k, mesh level).

    The N-independent matrix A0, its sparse factorization, the oracle
    values at the quadrature points and the coefficient form of the errors
    (``_SweepErrors``) are built once per curve, before its first row, and
    so is the DtN factor at N_max (``dtn.dtn_factor``), the one evaluation
    of z_0..z_N_max.  Each N is then solved from that one factorization as
    a rank-(2N+1) update (``solve.LowRankSweep``) and gated on A0 and the
    factor's leading columns, so it forms neither B_N nor its system
    matrix; the direct solve is the fallback, and a single order is solved
    directly, both from the matrix formed with B_N
    (``dtn.assemble_dtn_matrix``).  The rows do not depend on the order of
    ``n_values``.
    A swept row's errors come from its coefficients c_N alone; a row solved
    directly takes the pass over every quadrature point.
    """
    _check_pair_size(cfg.R0, cfg.R, cfg.n_angular, max(cfg.levels))
    reports, plateaus, residuals = [], [], []
    for k, exact in zip(cfg.k_values,
                        _solve_oracles(cfg, cfg.k_values, max(cfg.n_values))):
        for level in cfg.levels:
            disc, annulus = build_mesh_pair(cfg.R0, cfg.R, cfg.n_angular,
                                            level)
            blocks = assemble_blocks(disc, annulus, exact.config)
            sweep = (LowRankSweep(blocks, max(cfg.n_values))
                     if len(set(cfg.n_values)) > 1 else None)
            # oracle tables and the coefficient form before the first row:
            # no order pays for them
            quad = _ExactQuadrature(disc, annulus, exact)
            swept = _SweepErrors(quad, sweep, blocks.p1_forms)
            curve = []
            for N in cfg.n_values:
                t0 = time.perf_counter()
                sol = solve(assemble_system(blocks, N), sweep)
                seconds = time.perf_counter() - t0
                curve.append(quad.report(sol, seconds, swept.errors(N)))
                residuals.append(sol.residual)
            reports.extend(curve)
            errs = np.array([r.err_h0 for r in curve])
            n_star = int(np.asarray(cfg.n_values)[
                np.argmax(errs <= 1.05 * errs[-1])])
            plateaus.append(PlateauInfo(k=k, level=level, h=quad.h,
                                        n_star=n_star,
                                        plateau_err=float(errs[-1])))
            # the curve's A0, factor, W and oracle tables die with it, not
            # once the next curve's have been built
            del blocks, sweep, quad, swept, sol
    return TruncationResult(reports=reports, plateaus=plateaus,
                            residuals=residuals)


def operator_decay(cfg: StudyConfig, k: float,
                   orders=range(0, 13)) -> dtn_ops.DecayTable:
    """Mode-space truncation-error decay of the absorbing boundary, measured
    on the modal content of the analytic scatterer solution."""
    exact = _solve_exact(cfg, k)
    content = analytic.trace_mode_coefficients(exact)
    return dtn_ops.truncation_decay_check(k, cfg.R0, cfg.R, content, orders)


def write_csv(path, reports, footer=()) -> None:
    """Fixed-schema CSV; byte-deterministic except the seconds column at a
    fixed BLAS thread count (another count can move the last digit of an
    error column)."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(f"{r.h:.17g},{r.N},{r.k:.17g},{r.dofs},"
                     f"{r.err_h0:.17g},{r.err_h1:.17g},{r.seconds:.3f}")
    lines.extend(footer)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
