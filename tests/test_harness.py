import gc
import importlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import dtnfem
from dtnfem import (PhysicalConfig, StudyConfig, analytic, assembly, harness,
                    special)
from dtnfem.assembly import SystemBlocks
from dtnfem.mesh import _coarse_pair_triangles, triangle_areas
from dtnfem.solve import FieldSolution, LowRankSweep

# the module, not the ``solve`` function the package re-exports
solve_module = importlib.import_module("dtnfem.solve")

REFERENCE_H = (0.4304, 0.2151, 0.1076)

# regression baselines from the first verified run (deterministic pipeline)
FROZEN_H = (0.41071367336311265, 0.209431468403394, 0.10569628267159681)
FROZEN_ERR_H0 = (0.09802337814151467, 0.027518516311902972, 0.007104501737382323)
FROZEN_ERR_H1 = (0.39383263059456547, 0.18363977612072704, 0.08921365172893035)
FROZEN_N_STAR = (2, 3, 3)


def interpolant_solution(exact, disc, annulus):
    r = np.linalg.norm(disc.nodes, axis=1)
    t = np.arctan2(disc.nodes[:, 1], disc.nodes[:, 0])
    u = analytic.eval_displacement(exact, np.minimum(r, exact.config.R0), t)
    ra = np.linalg.norm(annulus.nodes, axis=1)
    ta = np.arctan2(annulus.nodes[:, 1], annulus.nodes[:, 0])
    p = analytic.eval_pressure(exact, np.maximum(ra, exact.config.R0), ta)
    return FieldSolution(u_nodal=u, p_nodal=p, config=exact.config,
                         disc_mesh=disc, annulus_mesh=annulus, residual=0.0)


# ------------------------------------------------------------- error norms

def _einsum_errors(quad, disc, annulus, u_nodal, p_nodal):
    """The per-triangle einsum reduction that ``_ExactQuadrature.errors``
    replaces with two sparse operators per region."""
    l2, h1 = [], []
    for mesh, nodal, (*_, value, grad) in zip((disc, annulus),
                                              (u_nodal, p_nodal),
                                              quad._regions):
        tri = mesh.triangles
        grads, area = harness._p1_geometry(mesh)
        f_tri = nodal[tri]
        f_h = np.einsum("qa,ta...->tq...", harness._TRI_QP, f_tri)
        g_h = np.einsum("ta...,tad->t...d", f_tri, grads)
        for diff, out in ((f_h - value, l2), (g_h[:, None] - grad, h1)):
            sq = (np.abs(diff) ** 2).reshape(len(tri), len(harness._TRI_QW),
                                             -1)
            out.append(np.einsum("q,tqc->t", harness._TRI_QW, sq) @ area)
    return (float(np.sqrt(l2[0] + l2[1])),
            float(np.sqrt(l2[0] + l2[1] + h1[0] + h1[1])))


@pytest.mark.parametrize("k", [1.0, 4.0])
def test_sparse_error_reduction_is_the_einsum_bitwise(mesh_pairs, k):
    """The interpolation and gradient operators sum each triangle's vertices
    in the einsum's order, so both norms are bitwise the reference's."""
    exact = analytic.solve_modes(PhysicalConfig(k=k))
    rng = np.random.default_rng(int(k))
    for level in (1, 2, 3):
        disc, ann = mesh_pairs[level]
        quad = harness._ExactQuadrature(disc, ann, exact)
        for _ in range(3):
            u = (rng.standard_normal((disc.num_nodes, 2))
                 + 1j * rng.standard_normal((disc.num_nodes, 2)))
            p = (rng.standard_normal(ann.num_nodes)
                 + 1j * rng.standard_normal(ann.num_nodes))
            assert quad.errors(u, p) == _einsum_errors(quad, disc, ann, u, p)


def test_oracle_build_memory_stays_at_its_measured_peak(base_series,
                                                       mesh_pairs):
    """The oracle works in blocks of points: a full-length table or
    temporary would show here before it shows in the peak RSS of a study.
    The tracemalloc peak of this build on the default level-3 pair was
    14,292,857 bytes (13.6 MiB) when the radial tables were still built per
    point; the distinct-radius tables must fit in the same 5% margin."""
    disc, ann = mesh_pairs[3]
    tracemalloc.start()
    try:
        harness._ExactQuadrature(disc, ann, base_series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 14_292_857


def test_error_norms_config_mismatch(base_series, mesh_pairs):
    disc, ann = mesh_pairs[1]
    other = analytic.solve_modes(PhysicalConfig(k=2.0))
    sol = interpolant_solution(base_series, disc, ann)
    with pytest.raises(ValueError):
        harness.error_norms(sol, other)


def test_interpolant_error_rates(base_series, mesh_pairs):
    errs = []
    for level in (1, 2, 3):
        disc, ann = mesh_pairs[level]
        rep = harness.error_norms(
            interpolant_solution(base_series, disc, ann), base_series)
        errs.append(rep)
    hs = [r.h for r in errs]
    order_h0 = harness.fitted_order(hs, [r.err_h0 for r in errs])
    order_h1 = harness.fitted_order(hs, [r.err_h1 for r in errs])
    assert 1.7 < order_h0 < 2.3
    assert 0.85 < order_h1 < 1.15


def test_error_norms_exact_for_linear_fields(base_series, mesh_pairs,
                                             monkeypatch):
    """P1 reproduces linears: with the oracle stubbed to a linear field, the
    interpolant error must vanish to roundoff."""
    coeff_u = np.array([[0.2, 1.3, -0.7], [-0.1, 0.4, 0.9]])
    coeff_p = np.array([0.5, -1.1, 0.3])

    def turned(r, theta, sectors):
        """The oracle's points for ``sectors``: theta + 2 pi j / S on a
        leading axis, which a single sector does not have."""
        theta = np.asarray(theta) + (2 * np.pi / sectors) * np.arange(
            sectors).reshape((-1,) + (1,) * np.ndim(theta))
        r = np.broadcast_to(r, theta.shape)
        return (r[0], theta[0]) if sectors == 1 else (r, theta)

    def fake_displacement(sol, r, theta, with_gradient=False,
                          check_domain=True, sectors=1):
        r, theta = turned(r, theta, sectors)
        x, y = np.asarray(r) * np.cos(theta), np.asarray(r) * np.sin(theta)
        u = np.stack([coeff_u[c, 0] + coeff_u[c, 1] * x + coeff_u[c, 2] * y
                      for c in range(2)], axis=-1).astype(complex)
        if not with_gradient:
            return u
        jac = np.zeros(np.shape(x) + (2, 2), dtype=complex)
        jac[..., 0, 0], jac[..., 0, 1] = coeff_u[0, 1], coeff_u[0, 2]
        jac[..., 1, 0], jac[..., 1, 1] = coeff_u[1, 1], coeff_u[1, 2]
        return u, jac

    def fake_pressure(sol, r, theta, with_gradient=False, check_domain=True,
                      sectors=1):
        r, theta = turned(r, theta, sectors)
        r = np.asarray(r, dtype=float)
        x, y = r * np.cos(theta), r * np.sin(theta)
        p = (coeff_p[0] + coeff_p[1] * x + coeff_p[2] * y).astype(complex)
        if not with_gradient:
            return p
        grad = np.zeros(np.shape(x) + (2,), dtype=complex)
        grad[..., 0], grad[..., 1] = coeff_p[1], coeff_p[2]
        return p, grad

    monkeypatch.setattr(analytic, "eval_displacement", fake_displacement)
    monkeypatch.setattr(analytic, "eval_pressure", fake_pressure)

    disc, ann = mesh_pairs[1]
    sol = interpolant_solution(base_series, disc, ann)
    rep = harness.error_norms(sol, base_series)
    assert rep.err_h0 < 1e-13
    assert rep.err_h1 < 1e-13


def duffy_integral(mesh, f, npts=8):
    """Tensor Gauss collapsed onto each triangle; degree ~2*npts-2 in each
    direction, independent of the harness quadrature table."""
    xg, wg = leggauss(npts)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    total = 0.0
    for iu, wu in zip(xg, wg):
        for iv, wv in zip(xg, wg):
            l1, l2 = iu, iv * (1.0 - iu)
            weight = wu * wv * (1.0 - iu)
            pts = (1 - l1 - l2) * p[:, 0] + l1 * p[:, 1] + l2 * p[:, 2]
            total += weight * np.sum(area2 * f(pts))
    return total


def test_zero_solution_norm_oracles(base_series, mesh_pairs):
    disc, ann = mesh_pairs[2]
    zero = FieldSolution(
        u_nodal=np.zeros((disc.num_nodes, 2), dtype=complex),
        p_nodal=np.zeros(ann.num_nodes, dtype=complex),
        config=base_series.config, disc_mesh=disc, annulus_mesh=ann,
        residual=0.0)
    rep = harness.error_norms(zero, base_series)

    def u_sq(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = np.arctan2(pts[:, 1], pts[:, 0])
        u = analytic.eval_displacement(base_series, r, t, check_domain=False)
        return np.sum(np.abs(u) ** 2, axis=-1)

    def p_sq(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = np.arctan2(pts[:, 1], pts[:, 0])
        return np.abs(analytic.eval_pressure(base_series, r, t,
                                             check_domain=False)) ** 2

    # same polygonal domain, independent high-order rule: tight agreement
    high = np.sqrt(duffy_integral(disc, u_sq) + duffy_integral(ann, p_sq))
    assert abs(rep.err_h0 - high) < 1e-6 * high

    # exact circular domains by polar quadrature: defect bounded by the
    # polygonal-geometry O(h^2) term
    def polar_integral(f_sq, r_lo, r_hi, nr=60, nt=256):
        xg, wg = leggauss(nr)
        rr = 0.5 * (r_hi + r_lo) + 0.5 * (r_hi - r_lo) * xg
        wr = 0.5 * (r_hi - r_lo) * wg
        tt = np.linspace(0.0, 2 * np.pi, nt, endpoint=False)
        rgrid, tgrid = np.meshgrid(rr, tt, indexing="ij")
        vals = f_sq(np.column_stack([
            (rgrid * np.cos(tgrid)).ravel(), (rgrid * np.sin(tgrid)).ravel()
        ])).reshape(rgrid.shape)
        return float(np.sum(wr[:, None] * rr[:, None] * vals) * 2 * np.pi / nt)

    exact_domain = np.sqrt(polar_integral(u_sq, 0.0, 1.0)
                           + polar_integral(p_sq, 1.0, 2.0))
    assert abs(rep.err_h0 - exact_domain) < rep.h ** 2 * exact_domain


# ---------------------------------------------------------------- studies

def test_convergence_orders_and_regression(convergence_result):
    res = convergence_result
    order_h0, order_h1 = res.orders[1.0]
    assert 1.7 <= order_h0 <= 2.3
    assert 0.8 <= order_h1 <= 1.2
    for rep, h, e0, e1 in zip(res.reports, FROZEN_H, FROZEN_ERR_H0,
                              FROZEN_ERR_H1):
        assert rep.h == pytest.approx(h, rel=1e-12)
        assert rep.err_h0 == pytest.approx(e0, rel=1e-6)
        assert rep.err_h1 == pytest.approx(e1, rel=1e-6)


def test_convergence_single_level_degenerate():
    res = harness.convergence_study(StudyConfig(levels=(1,)))
    assert len(res.reports) == 1
    assert res.orders == {}


def test_convergence_rerun_identical(convergence_result):
    again = harness.convergence_study(StudyConfig())
    for a, b in zip(convergence_result.reports, again.reports):
        assert a.err_h0 == b.err_h0
        assert a.err_h1 == b.err_h1


def test_truncation_curves(truncation_result):
    res = truncation_result
    assert [p.n_star for p in res.plateaus] == list(FROZEN_N_STAR)
    for p, target, frozen in zip(res.plateaus, REFERENCE_H, FROZEN_ERR_H0):
        assert abs(p.h - target) / target < 0.05
        assert p.plateau_err == pytest.approx(frozen, rel=1e-6)
    # each curve decays monotonically (1% slack) and plateaus by N <= 6
    for p in res.plateaus:
        errs = np.array([r.err_h0 for r in res.reports
                         if r.k == p.k and r.h == p.h])
        assert np.all(errs[1:] <= errs[:-1] * 1.01)
        assert p.n_star <= 6
    # finer meshes plateau strictly lower
    plateau = [p.plateau_err for p in res.plateaus]
    assert plateau[2] < plateau[1] < plateau[0]


def test_truncation_preplateau_geometric(truncation_result):
    res = truncation_result
    for p in res.plateaus:
        errs = np.array([r.err_h0 for r in res.reports
                         if r.k == p.k and r.h == p.h])
        diffs = errs[:-1] - errs[1:]
        keep = diffs > 0.01 * p.plateau_err
        diffs = diffs[keep]
        if len(diffs) >= 2:
            ratios = diffs[1:] / diffs[:-1]
            assert np.exp(np.mean(np.log(ratios))) < (1.0 / 2.0) * 1.5


def test_truncation_order_guidance():
    # plateau reached by N* <= max(kR, 4) for the larger wave numbers
    res = harness.truncation_study(StudyConfig(
        k_values=(2.0, 4.0), levels=(2,), n_values=tuple(range(1, 13))))
    for p in res.plateaus:
        assert p.n_star <= max(p.k * 2.0, 4.0)


def test_operator_decay_table():
    table = harness.operator_decay(StudyConfig(), 1.0, range(0, 10))
    assert table.orders.shape == (10,)
    assert 0.0 < table.fitted_ratio < 0.75
    positive = table.tails[table.tails > 0]
    assert np.all(np.diff(positive) < 0.0)


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(levels=())
    with pytest.raises(ValueError):
        StudyConfig(levels=(1, 8))
    with pytest.raises(ValueError):
        StudyConfig(k_values=())


def test_truncation_row_at_study_order_is_the_convergence_row(
        convergence_result, truncation_result):
    """Both studies measure their N=20 rows through the same pipeline; the
    truncation sweep solves by a low-rank update of one factorization, the
    convergence row directly, so the errors agree to roundoff, not bitwise."""
    n20 = [r for r in truncation_result.reports if r.N == 20]
    assert len(n20) == len(convergence_result.reports) == 3
    for trunc, conv in zip(n20, convergence_result.reports):
        assert (trunc.h, trunc.dofs) == (conv.h, conv.dofs)
        assert trunc.err_h0 == pytest.approx(conv.err_h0, rel=1e-10, abs=0)
        assert trunc.err_h1 == pytest.approx(conv.err_h1, rel=1e-10, abs=0)


# ------------------------------------------------ swept truncation rows

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" \
    / "reference.json"


def _spy_rows(monkeypatch):
    """Record each truncation row as (N, reported (err_h0, err_h1), whether
    it came from the coefficient form, the reference reduction of its x)."""
    rows, report = [], harness._ExactQuadrature.report

    def spy(self, sol, seconds, errors=None):
        out = report(self, sol, seconds, errors)
        rows.append((sol.config.N, (out.err_h0, out.err_h1),
                     errors is not None,
                     self.errors(sol.u_nodal, sol.p_nodal)))
        return out
    monkeypatch.setattr(harness._ExactQuadrature, "report", spy)
    return rows


def _worst_drift(rows) -> float:
    return max(abs(got - ref) / ref for _, errs, _, reference in rows
               for got, ref in zip(errs, reference))


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_swept_rows_match_the_reference_reduction(monkeypatch, k):
    """Every row of a swept curve is reduced in coefficient space, within
    1e-12 relative of the pass over every quadrature point on the same x;
    the largest order's row (delta = 0) is the reference's bitwise."""
    rows = _spy_rows(monkeypatch)
    res = harness.truncation_study(StudyConfig(
        k_values=(k,), levels=(1, 2, 3), n_values=tuple(range(1, 21))))
    assert len(rows) == 60 and all(swept for _, _, swept, _ in rows)
    assert _worst_drift(rows) <= 1e-12
    assert [errs for N, errs, _, _ in rows if N == 20] == \
        [ref for N, _, _, ref in rows if N == 20]
    assert [p.plateau_err for p in res.plateaus] == \
        [ref[0] for N, _, _, ref in rows if N == 20]
    assert max(res.residuals) <= 1e-10


def test_a_row_solved_directly_takes_the_reference_bitwise(monkeypatch):
    """An order whose capacitance solve raises LinAlgError is solved by
    solve_linear, and its row is the reference reduction's, bitwise; every
    other order stays swept."""
    direct, solve_linear = [], solve_module.solve_linear
    dense_solve = np.linalg.solve

    def singular_at_order_3(a, b):
        if a.shape == (7, 7):      # the capacitance matrix of N = 3
            raise np.linalg.LinAlgError("Singular matrix")
        return dense_solve(a, b)

    def counting(matrix, rhs, sectors):
        direct.append(matrix.shape)
        return solve_linear(matrix, rhs, sectors)

    monkeypatch.setattr(np.linalg, "solve", singular_at_order_3)
    monkeypatch.setattr(solve_module, "solve_linear", counting)
    rows = _spy_rows(monkeypatch)
    harness.truncation_study(StudyConfig(levels=(1,),
                                         n_values=tuple(range(1, 9))))
    assert len(direct) == 1
    assert [N for N, _, swept, _ in rows if not swept] == [3]
    assert all(errs == ref for N, errs, _, ref in rows if N == 3)
    assert _worst_drift(rows) <= 1e-12


def test_an_expansion_point_far_from_the_rows_takes_the_reference(
        monkeypatch):
    """With c* far from every row's c_N, s dwarfs each row's err^2 and the
    three-term sum would lose digits: every row takes the reference
    reduction, bitwise, instead.  (The largest order's x then misses the
    residual gate and is solved directly.)"""
    coefficients = LowRankSweep.coefficients

    def far(self, N):
        c = coefficients(self, N)
        return 1e3 * c if N == self.order else c

    monkeypatch.setattr(LowRankSweep, "coefficients", far)
    cfg = StudyConfig(levels=(2,), n_values=tuple(range(1, 9)))
    rows = _spy_rows(monkeypatch)
    harness.truncation_study(cfg)
    assert not any(swept for _, _, swept, _ in rows)
    assert all(errs == ref for _, errs, _, ref in rows)
    # without the cancellation guard the same rows drift past the contract
    rows.clear()
    monkeypatch.setattr(harness, "_CANCELLATION", np.inf)
    harness.truncation_study(cfg)
    assert _worst_drift(rows) > 1e-12


def test_coefficient_setup_runs_once_per_curve_before_its_first_assembly(
        monkeypatch):
    """A benchmark op runs from one assemble_system to the next, so the
    per-curve coefficient set-up must come before the curve's first
    assembly, once, and never between two of its rows."""
    events = []
    assemble, setup = harness.assemble_system, harness._SweepErrors.__init__

    def assembling(blocks, N):
        events.append("row")
        return assemble(blocks, N)

    def setting_up(self, *args):
        events.append("setup")
        setup(self, *args)

    monkeypatch.setattr(harness, "assemble_system", assembling)
    monkeypatch.setattr(harness._SweepErrors, "__init__", setting_up)
    harness.truncation_study(StudyConfig(k_values=(1.0, 2.0), levels=(1, 2),
                                         n_values=(1, 2, 3, 4)))
    assert events == (["setup"] + ["row"] * 4) * 4


def test_each_scatter_map_is_built_once_per_curve(monkeypatch):
    """The blocks' disc map and annulus map (with the GAMMA_R block) are the
    only scatter maps of a curve: its swept errors read M and K from the
    blocks' ``p1_forms``, summed on them."""
    built, build = [], assembly._P1Map.__init__
    monkeypatch.setattr(assembly._P1Map, "__init__", lambda self, *args: (
        built.append(args) or build(self, *args)))
    swept = []
    errors = harness._SweepErrors.errors
    monkeypatch.setattr(harness._SweepErrors, "errors", lambda self, N: (
        swept.append(errors(self, N)) or swept[-1]))
    harness.truncation_study(StudyConfig(levels=(1, 2), n_values=(1, 2, 3)))
    assert len(built) == 4
    assert len(swept) == 6 and None not in swept


def test_non_ascending_orders_give_the_ascending_rows(truncation_result):
    """Orders out of order and repeated give each N the ascending study's
    row bitwise."""
    rows = {(r.h, r.N): (r.h, r.dofs, r.err_h0, r.err_h1)
            for r in truncation_result.reports}
    shuffled = harness.truncation_study(StudyConfig(n_values=(7, 2, 20, 2)))
    assert len(shuffled.reports) == 12
    for r in shuffled.reports:
        assert (r.h, r.dofs, r.err_h0, r.err_h1) == rows[r.h, r.N]


def test_impedances_are_evaluated_once_per_curve(monkeypatch):
    """The order check before any mesh evaluates z_0..z_8 once, then each
    curve once, for its sweep's factor at N_max: no swept row evaluates
    them again."""
    orders, coefficients = [], special.dtn_coefficients

    def counting(order, k, radius):
        orders.append(order)
        return coefficients(order, k, radius)

    monkeypatch.setattr(special, "dtn_coefficients", counting)
    harness.truncation_study(StudyConfig(levels=(1, 2),
                                         n_values=tuple(range(1, 9))))
    assert orders == [8] * 3


def test_seed0_truncation_rows_match_the_benchmark_reference(
        truncation_result):
    """The benchmark's seed-0 truncation rows (k = 1, d = (1, 0), levels 1-3,
    N = 1..20): h, N, k and dofs exactly, the errors within 1e-10 relative,
    far inside the benchmark's own 1e-6 gate."""
    ref = json.loads(BENCH_REFERENCE.read_text())["full"]["truncation"]
    rows = [(r.h, r.N, r.k, r.dofs, r.err_h0, r.err_h1)
            for r in truncation_result.reports]
    assert len(rows) == len(ref) == 60
    for row, want in zip(rows, ref):
        assert row[:4] == tuple(want[:4])
        for got, expected in zip(row[4:], want[4:]):
            assert abs(got - expected) <= 1e-10 * abs(expected)


def test_seed0_convergence_rows_match_the_benchmark_reference(
        convergence_result):
    """The benchmark's seed-0 convergence rows at levels 1-3 (k = 1,
    d = (1, 0), N = 20): h, N, k and dofs exactly, the errors within 1e-10
    relative, far inside the benchmark's own 1e-6 gate."""
    ref = json.loads(BENCH_REFERENCE.read_text())["full"]["convergence"]
    rows = [(r.h, r.N, r.k, r.dofs, r.err_h0, r.err_h1)
            for r in convergence_result.reports]
    assert len(rows) == 3 <= len(ref)
    for row, want in zip(rows, ref):
        assert row[:4] == tuple(want[:4])
        for got, expected in zip(row[4:], want[4:]):
            assert abs(got - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("k", [1.0, 4.0])
def test_oracle_tables_through_the_rotation_table_match_one_sector(
        mesh_pairs, k):
    """The oracle at row 0's quadrature points, turned to every sector by
    phases and placed through the rotation table, against one sector over
    every point (the table removed): tables within 1e-12 of their maximum,
    both norms within 1e-12 relative."""
    exact = analytic.solve_modes(PhysicalConfig(k=k, d=(0.6, 0.8)))
    disc, ann = mesh_pairs[2]
    plain = [replace(mesh, rotations=None) for mesh in (disc, ann)]
    assert disc.rotations.shape[0] == 16
    sectored = harness._ExactQuadrature(disc, ann, exact)
    single = harness._ExactQuadrature(*plain, exact)
    for got, ref in zip(sectored._regions, single._regions):
        for a, b in zip(got[-2:], ref[-2:]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    for sol in (interpolant_solution(exact, disc, ann), FieldSolution(
            u_nodal=np.zeros((disc.num_nodes, 2), dtype=complex),
            p_nodal=np.zeros(ann.num_nodes, dtype=complex),
            config=exact.config, disc_mesh=disc, annulus_mesh=ann,
            residual=0.0)):
        for a, b in zip(sectored.errors(sol.u_nodal, sol.p_nodal),
                        single.errors(sol.u_nodal, sol.p_nodal)):
            assert abs(a - b) <= 1e-12 * b


def _live(kind) -> int:
    return sum(isinstance(obj, kind) for obj in gc.get_objects())


def test_truncation_curve_is_freed_before_the_next_curve_is_built(
        monkeypatch):
    """Each curve drops its blocks, sweep (the A0 factor and W) and oracle
    tables at its end: when a curve's LowRankSweep is constructed, the only
    SystemBlocks alive is that curve's, and no earlier LowRankSweep or
    _ExactQuadrature is."""
    quad_type = harness._ExactQuadrature
    seen, init = [], LowRankSweep.__init__

    def constructing(self, *args):
        seen.append((_live(LowRankSweep) - sweeps0,
                     _live(SystemBlocks) - blocks0, _live(quad_type) - quad0))
        init(self, *args)

    monkeypatch.setattr(LowRankSweep, "__init__", constructing)
    gc.collect()
    sweeps0, blocks0 = _live(LowRankSweep), _live(SystemBlocks)
    quad0 = _live(quad_type)
    harness.truncation_study(StudyConfig(k_values=(1.0, 2.0), levels=(1, 2),
                                         n_values=(1, 2, 3)))
    # the sweep being built is itself alive at its own __init__
    assert seen == [(1, 1, 0)] * 4


def test_single_order_row_frees_the_blocks_before_the_factorization(
        monkeypatch):
    """A single-order row builds its blocks inside the timed assembly and
    drops them there, so A0 is freed before the system is factored, and it
    builds the oracle tables only after the factorization is freed: at the
    factorization no SystemBlocks or _ExactQuadrature is alive, and at the
    oracle-table build no SystemBlocks."""
    quad_type = harness._ExactQuadrature
    seen = []

    def counting(owner, stage):
        init = owner.__init__

        def wrapped(self, *args):
            seen.append((stage, _live(SystemBlocks) - blocks0,
                         _live(quad_type) - quad0))
            init(self, *args)
        monkeypatch.setattr(owner, "__init__", wrapped)

    counting(solve_module._Factor, "factor")
    counting(quad_type, "oracle")
    gc.collect()
    blocks0, quad0 = _live(SystemBlocks), _live(quad_type)
    harness.run_single(StudyConfig(), 1.0, 20, 1)
    # the table being built is itself alive at its own __init__
    assert seen == [("factor", 0, 0), ("oracle", 0, 1)]


def test_csv_output(tmp_path, convergence_result):
    path = tmp_path / "out.csv"
    harness.write_csv(path, convergence_result.reports,
                      convergence_result.footer())
    lines = path.read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4
    assert any(ln.startswith("# k=1 fitted_order_h0=") for ln in lines)


def test_csv_deterministic_modulo_seconds(tmp_path):
    paths = []
    for tag in ("a", "b"):
        res = harness.convergence_study(StudyConfig(levels=(1,)))
        path = tmp_path / f"{tag}.csv"
        harness.write_csv(path, res.reports, res.footer())
        paths.append(path)

    def strip_seconds(path):
        out = []
        for line in path.read_text().splitlines():
            if line.startswith("#") or line == harness.CSV_HEADER:
                out.append(line)
            else:
                out.append(",".join(line.split(",")[:-1]))
        return out

    assert strip_seconds(paths[0]) == strip_seconds(paths[1])


@pytest.mark.parametrize("R0,R,n_angular", [
    (1.0, 2.0, 16), (1.0, 2.0, 8), (0.5, 3.0, 16), (1.0, 3.0, 64),
    (2.0, 2.5, 32)])
def test_predicted_triangle_count_is_the_built_count(R0, R, n_angular):
    disc, ann = harness.build_mesh_pair(R0, R, n_angular, 1)
    assert 4 * _coarse_pair_triangles(R0, R, n_angular) \
        == disc.num_triangles + ann.num_triangles


def test_mesh_pair_cap_is_the_default_pair_at_level_six():
    """The triangle cap is the default pair at level 6; the level cap is the
    last level at which the smallest coarse pair (n_angular 8) fits."""
    assert harness.MAX_TRIANGLES == 176 * 4 ** 6 == 720_896
    smallest = _coarse_pair_triangles(1.0, 2.0, 8)
    assert smallest == 24
    assert smallest * 4 ** 7 <= harness.MAX_TRIANGLES < smallest * 4 ** 8
    assert harness.MAX_LEVEL == 7


@pytest.mark.parametrize("R0,R,n_angular,level", [
    (1.0, 2.0, 16, -1), (1.0, 2.0, 16, 8), (1.0, 2.0, 16, 10 ** 6),
    (1e-9, 2.0, 16, 0), (1.0, 2.0, 10 ** 6, 0), (1.0, 2.0, 18, 7)])
def test_mesh_pair_beyond_the_cap_is_refused(R0, R, n_angular, level):
    with pytest.raises(ValueError):
        harness.build_mesh_pair(R0, R, n_angular, level)


@pytest.mark.parametrize("R0,R,n_angular,level", [
    (1.0, 1.02, 16, 1), (1.0, 1.05, 16, 2), (2.0, 2.3, 8, 1)])
def test_refinement_that_inverts_a_triangle_is_refused(R0, R, n_angular,
                                                        level):
    """Boundary midpoints snapped onto a circle cross a thin band: the level
    that inverts a triangle is named, and the pair is refused."""
    harness.build_mesh_pair(R0, R, n_angular, level - 1)
    with pytest.raises(ValueError,
                       match=f"refinement level {level} inverts a triangle"):
        harness.build_mesh_pair(R0, R, n_angular, level)


def test_default_pair_builds_up_to_level_four():
    for level in range(5):
        for mesh in harness.build_mesh_pair(1.0, 2.0, 16, level):
            assert np.all(triangle_areas(mesh) > 0.0)
