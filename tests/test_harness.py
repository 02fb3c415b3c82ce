import gc
import importlib

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import dtnfem
from dtnfem import PhysicalConfig, StudyConfig, analytic, harness
from dtnfem.assembly import SystemBlocks
from dtnfem.mesh import _coarse_pair_triangles, triangle_areas
from dtnfem.solve import FieldSolution

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

    def fake_displacement(sol, r, theta, with_gradient=False,
                          check_domain=True):
        x, y = np.asarray(r) * np.cos(theta), np.asarray(r) * np.sin(theta)
        u = np.stack([coeff_u[c, 0] + coeff_u[c, 1] * x + coeff_u[c, 2] * y
                      for c in range(2)], axis=-1).astype(complex)
        if not with_gradient:
            return u
        jac = np.zeros(np.shape(x) + (2, 2), dtype=complex)
        jac[..., 0, 0], jac[..., 0, 1] = coeff_u[0, 1], coeff_u[0, 2]
        jac[..., 1, 0], jac[..., 1, 1] = coeff_u[1, 1], coeff_u[1, 2]
        return u, jac

    def fake_pressure(sol, r, theta, with_gradient=False, check_domain=True):
        r = np.asarray(r, dtype=float)
        x, y = r * np.cos(theta), r * np.sin(theta)
        p = (coeff_p[0] + coeff_p[1] * x + coeff_p[2] * y).astype(complex)
        if not with_gradient:
            return p
        pr = (coeff_p[1] * np.cos(theta) + coeff_p[2] * np.sin(theta)
              ).astype(complex)
        pt = (r * (-coeff_p[1] * np.sin(theta) + coeff_p[2] * np.cos(theta))
              ).astype(complex)
        return p, (pr, pt)

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


def _live(kind) -> int:
    return sum(isinstance(obj, kind) for obj in gc.get_objects())


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
