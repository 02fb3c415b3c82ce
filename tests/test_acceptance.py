"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import numpy as np

from dtnfem import PhysicalConfig, analytic, dtn, special
from dtnfem.mesh import GAMMA_R, boundary_trace, build_annulus_mesh

# mesh-size ladder the refined default pair must reproduce (within 5%)
REFERENCE_H = (0.4304, 0.2151, 0.1076)
FROZEN_N_STAR = (2, 3, 3)
FROZEN_PLATEAU = (0.09802337814151467, 0.027518516311902972,
                  0.007104501737382323)


def report(number, description, ok, detail):
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] "
          f"{description}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_convergence_orders(convergence_result):
    res = convergence_result
    order_h0, order_h1 = res.orders[1.0]
    runtime = sum(r.seconds for r in res.reports)
    ok = (1.7 <= order_h0 <= 2.3) and (0.8 <= order_h1 <= 1.2) \
        and runtime < 120.0
    report(1, "h-convergence orders (k=1, R=2, N=20)", ok,
           f"order_h0={order_h0:.3f} in [1.7,2.3], "
           f"order_h1={order_h1:.3f} in [0.8,1.2], runtime={runtime:.1f}s")


def test_criterion_2_truncation_plateau(truncation_result):
    res = truncation_result
    checks = []
    for p, target, frozen_n, frozen_err in zip(
            res.plateaus, REFERENCE_H, FROZEN_N_STAR, FROZEN_PLATEAU):
        errs = np.array([r.err_h0 for r in res.reports
                         if r.k == p.k and r.h == p.h])
        checks.append(abs(p.h - target) / target < 0.05)
        checks.append(bool(np.all(errs[1:] <= errs[:-1] * 1.01)))
        checks.append(p.n_star <= 6)
        checks.append(p.n_star == frozen_n)
        checks.append(abs(p.plateau_err - frozen_err) < 1e-6 * frozen_err)
    plateaus = [p.plateau_err for p in res.plateaus]
    checks.append(plateaus[2] < plateaus[1] < plateaus[0])
    ok = all(checks)
    report(2, "truncation curves decay then plateau (k=1)", ok,
           f"h={[round(p.h, 4) for p in res.plateaus]} (within 5% of "
           f"{list(REFERENCE_H)}), N*={[p.n_star for p in res.plateaus]} <= 6, "
           f"plateaus strictly ordered {[f'{p:.3e}' for p in plateaus]}")


def test_criterion_3_operator_decay():
    from dtnfem import StudyConfig, harness

    table = harness.operator_decay(StudyConfig(modes=40), 1.0, range(0, 13))
    positive = table.tails[table.tails > 0]
    geometric = bool(np.all(np.diff(np.log(positive)) < 0.0))
    ok = geometric and 0.0 < table.fitted_ratio < 0.75
    report(3, "exponential decay of the DtN truncation tail", ok,
           f"fitted ratio q={table.fitted_ratio:.4f} < 0.75, "
           f"tails monotone ({len(positive)} points)")


def test_criterion_4_oracle_integrity():
    worst_trans = 0.0
    for k in (1.0, 2.0, 4.0):
        cfg = PhysicalConfig(k=k)
        sol = analytic.solve_modes(cfg, n_modes=40)
        th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        r = np.full_like(th, cfg.R0)
        u, jac = analytic.eval_displacement(sol, r, th, with_gradient=True)
        p, grad = analytic.eval_pressure(sol, r, th, with_gradient=True)
        nvec = np.stack([np.cos(th), np.sin(th)], axis=-1)
        pr = np.einsum("pc,pc->p", grad, nvec)
        d = np.asarray(cfg.d)
        pinc = np.exp(1j * cfg.k * cfg.R0 * (nvec @ d))
        res_v = np.abs(cfg.rho_f * cfg.omega ** 2
                       * np.einsum("pc,pc->p", u, nvec)
                       - (pr + 1j * cfg.k * (nvec @ d) * pinc))
        div = jac[:, 0, 0] + jac[:, 1, 1]
        traction = cfg.lam * div[:, None] * nvec + cfg.mu * np.einsum(
            "pij,pj->pi", jac + np.swapaxes(jac, 1, 2), nvec)
        res_t = np.abs(traction + nvec * (p + pinc)[:, None])
        worst_trans = max(worst_trans, res_v.max(), res_t.max())

    cfg = PhysicalConfig()
    sol = analytic.solve_modes(cfg, n_modes=40)
    rng = np.random.default_rng(7)
    step = 1e-4

    def u_at(x, y):
        return analytic.eval_displacement(sol, np.hypot(x, y),
                                          np.arctan2(y, x))

    def p_at(x, y):
        return analytic.eval_pressure(sol, np.hypot(x, y), np.arctan2(y, x))

    worst_pde = 0.0
    for rr, tt in zip(rng.uniform(0.15, 0.85, 10),
                      rng.uniform(0, 2 * np.pi, 10)):
        x, y = rr * np.cos(tt), rr * np.sin(tt)
        u0 = u_at(x, y)
        lap = (u_at(x + step, y) + u_at(x - step, y) + u_at(x, y + step)
               + u_at(x, y - step) - 4 * u0) / step ** 2

        def div_u(xx, yy):
            ux = (u_at(xx + step, yy)[0] - u_at(xx - step, yy)[0]) / (2 * step)
            uy = (u_at(xx, yy + step)[1] - u_at(xx, yy - step)[1]) / (2 * step)
            return ux + uy

        gd = np.array([(div_u(x + step, y) - div_u(x - step, y)) / (2 * step),
                       (div_u(x, y + step) - div_u(x, y - step)) / (2 * step)])
        res = cfg.mu * lap + (cfg.lam + cfg.mu) * gd \
            + cfg.rho * cfg.omega ** 2 * u0
        worst_pde = max(worst_pde,
                        float(np.max(np.abs(res)) / np.max(np.abs(u0))))
    for rr, tt in zip(rng.uniform(1.1, 1.9, 10),
                      rng.uniform(0, 2 * np.pi, 10)):
        x, y = rr * np.cos(tt), rr * np.sin(tt)
        p0 = p_at(x, y)
        lap = (p_at(x + step, y) + p_at(x - step, y) + p_at(x, y + step)
               + p_at(x, y - step) - 4 * p0) / step ** 2
        worst_pde = max(worst_pde, abs(lap + cfg.k ** 2 * p0) / abs(p0))

    worst_dtn = 0.0
    for n in range(sol.n_modes):
        lhs = cfg.k * special.hankel1_derivative(n, cfg.k * cfg.R)
        rhs = special.dtn_coefficient(n, cfg.k, cfg.R) \
            * special.hankel1(n, cfg.k * cfg.R)
        worst_dtn = max(worst_dtn, abs(lhs - rhs) / abs(lhs))

    ok = worst_trans < 1e-10 and worst_pde < 1e-6 and worst_dtn < 1e-12
    report(4, "analytic oracle integrity", ok,
           f"transmission residual {worst_trans:.2e} < 1e-10 (k=1,2,4), "
           f"PDE FD residual {worst_pde:.2e} < 1e-6, "
           f"modal DtN identity {worst_dtn:.2e} < 1e-12")


def test_criterion_5_assembly_equivalence():
    import sympy
    from test_dtn import matrix_by_double_quadrature

    from dtnfem import assembly
    from dtnfem import mesh as M

    trace = boundary_trace(build_annulus_mesh(1.0, 2.0, 16), GAMMA_R)
    B = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, 5)
    Bq = matrix_by_double_quadrature(trace, 1.0, 2.0, 5)
    dtn_diff = float(np.max(np.abs(B - Bq)))

    x, y = sympy.symbols("x y")
    hats = [1 - x - y, x, y]
    ke = np.zeros((6, 6))
    for a in range(3):
        for alpha in range(2):
            for b in range(3):
                for beta in range(2):
                    u = [sympy.Integer(0)] * 2
                    v = [sympy.Integer(0)] * 2
                    u[beta], v[alpha] = hats[b], hats[a]
                    div_u = sympy.diff(u[0], x) + sympy.diff(u[1], y)
                    div_v = sympy.diff(v[0], x) + sympy.diff(v[1], y)
                    gu = sympy.Matrix([[sympy.diff(u[i], c) for c in (x, y)]
                                       for i in range(2)])
                    gv = sympy.Matrix([[sympy.diff(v[i], c) for c in (x, y)]
                                       for i in range(2)])
                    su, sv = gu + gu.T, gv + gv.T
                    integrand = div_u * div_v + sympy.Rational(1, 2) * sum(
                        su[i, j] * sv[i, j]
                        for i in range(2) for j in range(2))
                    ke[2 * a + alpha, 2 * b + beta] = float(sympy.integrate(
                        sympy.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1)))
    tri = M.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 triangles=np.array([[0, 1, 2]]),
                 boundary_edges=np.zeros((0, 2), dtype=np.int64),
                 boundary_tags=(), region=M.DISC)
    elem_diff = float(np.max(np.abs(
        assembly.assemble_elastic(tri, 1.0, 1.0, 1.0, 0.0).toarray() - ke)))

    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    c3, c4 = assembly.assemble_coupling(disc, ann, 1.3, 1.7, dof)
    coupling_exact = (c3 - 1.3 * 1.7 ** 2 * c4.T).nnz == 0

    ok = dtn_diff < 1e-10 and elem_diff < 1e-13 and coupling_exact
    report(5, "assembly equivalence oracles", ok,
           f"DtN matrix vs double quadrature {dtn_diff:.2e} < 1e-10, "
           f"element matrix vs symbolic {elem_diff:.2e} < 1e-13, "
           f"C3 == rho_f w^2 C4^T exact: {coupling_exact}")


def test_criterion_6_special_functions():
    from test_special import J0_AT_1, Y0_AT_1, wronskian_residual

    worst_w = max(wronskian_residual(n, x)
                  for x in (0.5, 1.0, 2.0, 4.0, 10.0)
                  for n in range(0, 101, 5))
    dj = abs(special.bessel_j(0, 1.0) - J0_AT_1) / abs(J0_AT_1)
    dy = abs(special.bessel_y(0, 1.0) - Y0_AT_1) / abs(Y0_AT_1)
    ok = worst_w < 1e-12 and dj < 1e-12 and dy < 1e-12
    report(6, "special functions vs extended-precision oracles", ok,
           f"Wronskian residual {worst_w:.2e} < 1e-12, "
           f"J0(1) rel err {dj:.2e}, Y0(1) rel err {dy:.2e}")


def test_criterion_7_solver_residuals(convergence_result, truncation_result):
    residuals = list(convergence_result.residuals) \
        + list(truncation_result.residuals)
    worst = max(residuals)
    ok = worst <= 1e-10 and len(residuals) == 3 + 60
    report(7, "post-solve residuals on every study configuration", ok,
           f"max relative residual {worst:.2e} <= 1e-10 over "
           f"{len(residuals)} solves")
