import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from dtnfem import PhysicalConfig, analytic, cli, harness, special

mp.mp.dps = 50


def transmission_residuals(cfg, sol, n_points=64):
    """Max residual of both interface conditions, from the evaluated fields."""
    th = np.linspace(0.0, 2 * np.pi, n_points, endpoint=False)
    r = np.full_like(th, cfg.R0)
    u, jac = analytic.eval_displacement(sol, r, th, with_gradient=True)
    p, grad = analytic.eval_pressure(sol, r, th, with_gradient=True)
    nvec = np.stack([np.cos(th), np.sin(th)], axis=-1)
    pr = np.einsum("pc,pc->p", grad, nvec)
    d = np.asarray(cfg.d)
    pinc = np.exp(1j * cfg.k * cfg.R0 * (nvec @ d))
    dpinc_dn = 1j * cfg.k * (nvec @ d) * pinc

    res_velocity = np.abs(cfg.rho_f * cfg.omega ** 2
                          * np.einsum("pc,pc->p", u, nvec) - (pr + dpinc_dn))
    div = jac[:, 0, 0] + jac[:, 1, 1]
    traction = cfg.lam * div[:, None] * nvec + cfg.mu * np.einsum(
        "pij,pj->pi", jac + np.swapaxes(jac, 1, 2), nvec)
    res_traction = np.max(np.abs(traction + nvec * (p + pinc)[:, None]), axis=1)
    return float(res_velocity.max()), float(res_traction.max())


# ------------------------------------------------------------- modal system

def test_fluid_shear_row_entry_vanishes(base_config):
    E, _ = analytic.modal_systems(base_config, 12)
    for n in range(12):
        assert E[n, 1, 0] == 0.0


def test_mode_zero_has_no_shear_coupling_in_row_one(base_config):
    E, _ = analytic.modal_systems(base_config, 1)
    assert E[0, 0, 2] == 0.0


def test_modal_system_against_extended_precision(base_config):
    """Independent re-evaluation of the printed entries at 50 digits."""
    cfg = base_config
    k, R0, mu_c = mp.mpf(cfg.k), mp.mpf(cfg.R0), mp.mpf(cfg.mu)
    rf_w2 = mp.mpf(cfg.rho_f) * mp.mpf(cfg.omega) ** 2
    kp = mp.mpf(cfg.omega) * mp.sqrt(mp.mpf(cfg.rho) / (cfg.lam + 2 * cfg.mu))
    ks = mp.mpf(cfg.omega) * mp.sqrt(mp.mpf(cfg.rho) / cfg.mu)
    x, xp, xs = k * R0, kp * R0, ks * R0

    def H(n, z):
        return mp.besselj(n, z) + 1j * mp.bessely(n, z)

    systems, rhs = analytic.modal_systems(base_config, 5)
    for n in (0, 1, 4):
        E = np.zeros((3, 3), dtype=complex)
        E[0, 0] = complex(-H(n - 1, x) + (n / x) * H(n, x))
        E[0, 1] = complex((rf_w2 * kp / k)
                          * (mp.besselj(n - 1, xp) - (n / xp) * mp.besselj(n, xp)))
        E[0, 2] = complex((rf_w2 * n / x) * mp.besselj(n, xs))
        E[1, 1] = complex((2 * mu_c * n * kp / R0) * mp.besselj(n - 1, xp)
                          - (2 * mu_c * (n ** 2 + n) / R0 ** 2) * mp.besselj(n, xp))
        E[1, 2] = complex(
            ((2 * mu_c * (n ** 2 + n) - mu_c * ks ** 2 * R0 ** 2) / R0 ** 2)
            * mp.besselj(n, xs)
            - (2 * mu_c * ks / R0) * mp.besselj(n - 1, xs))
        E[2, 0] = complex(H(n, x))
        E[2, 1] = complex(
            ((2 * mu_c * (n ** 2 + n) - mu_c * ks ** 2 * R0 ** 2) / R0 ** 2)
            * mp.besselj(n, xp)
            - (2 * mu_c * kp / R0) * mp.besselj(n - 1, xp))
        E[2, 2] = complex((2 * mu_c * n * ks / R0) * mp.besselj(n - 1, xs)
                          - (2 * mu_c * (n ** 2 + n) / R0 ** 2) * mp.besselj(n, xs))
        eps_in = (1.0 if n == 0 else 2.0) * 1j ** n
        e = np.array([
            complex(eps_in * (mp.besselj(n - 1, x) - (n / x) * mp.besselj(n, x))),
            0.0,
            complex(-eps_in * mp.besselj(n, x))])

        E_got, e_got = systems[n], rhs[n]
        assert np.max(np.abs(E_got - E)) < 1e-13 * max(1.0, np.max(np.abs(E)))
        assert np.max(np.abs(e_got - e)) < 1e-13


def test_modal_residual_invariant(base_config, base_series):
    sol = base_series
    systems, rhs = analytic.modal_systems(base_config, sol.n_modes)
    for n in range(sol.n_modes):
        E, e = systems[n], rhs[n]
        X = np.array([sol.pressure_coeffs[n], sol.comp_coeffs[n],
                      sol.shear_coeffs[n]])
        assert np.linalg.norm(E @ X - e) <= 1e-12 * np.linalg.norm(e)


def test_mode_budget_validation():
    """A budget is 1 .. MAX_ORDER - 1 and caps the modes kept; the default
    budget running out before the tail stop is refused, not cut short."""
    for budget in (0, special.MAX_ORDER):
        with pytest.raises(ValueError):
            analytic.solve_modes(PhysicalConfig(), n_modes=budget)
    assert analytic.solve_modes(PhysicalConfig(), n_modes=5).n_modes == 5
    with pytest.raises(ValueError, match="before the tail stop"):
        analytic.solve_modes(PhysicalConfig(k=150.0, omega=20.0))


def test_coefficient_decay(base_config, base_series):
    a = np.abs(base_series.pressure_coeffs)
    start = int(np.ceil(base_config.k * base_config.R0)) + 5
    for n in range(start, base_series.n_modes - 1):
        if a[n] < 1e-250:
            break
        assert a[n + 1] < a[n]


# ----------------------------------------------------------- transmission

@pytest.mark.parametrize("k", [1.0, 2.0, 4.0, 16.0, 43.0])
def test_transmission_conditions(k):
    """Both interface conditions hold on r = R0; the residuals grow with
    k R0 (about 1e-11 at k = 16 and 2e-10 at k = 43)."""
    cfg = PhysicalConfig(k=k)
    sol = analytic.solve_modes(cfg)
    bound = 1e-9 if k > 16.0 else 1e-10
    res_v, res_t = transmission_residuals(cfg, sol)
    assert res_v < bound
    assert res_t < bound


def test_dtn_identity_mode_by_mode(base_config, base_series):
    # outgoing modes satisfy dp/dr = z_n p exactly on the artificial circle
    cfg = base_config
    for n in range(base_series.n_modes):
        lhs = cfg.k * special.hankel1_derivative(n, cfg.k * cfg.R)
        rhs = special.dtn_coefficient(n, cfg.k, cfg.R) \
            * special.hankel1(n, cfg.k * cfg.R)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_radiated_power_nonnegative(base_config, base_series):
    cfg, sol = base_config, base_series
    power = 0.0
    for n in range(sol.n_modes):
        weight = (2 * np.pi if n == 0 else np.pi) * cfg.R
        amp = sol.pressure_coeffs[n]
        val = np.conj(amp * special.hankel1(n, cfg.k * cfg.R)) \
            * amp * cfg.k * special.hankel1_derivative(n, cfg.k * cfg.R)
        power += weight * np.imag(val)
    assert power >= 0.0


# ----------------------------------------------------------------- pressure

def test_pressure_theta_parity(base_series):
    th = np.array([0.3, 1.1, 2.9])
    assert np.array_equal(analytic.eval_pressure(base_series, 1.5, th),
                          analytic.eval_pressure(base_series, 1.5, -th))


def test_pressure_domain_guard(base_series):
    with pytest.raises(ValueError):
        analytic.eval_pressure(base_series, 0.5, 0.0)
    analytic.eval_pressure(base_series, 0.5, 0.0, check_domain=False)


def test_sommerfeld_radiation(base_series):
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    r = np.full_like(th, 50.0)
    p, grad = analytic.eval_pressure(base_series, r, th, with_gradient=True)
    pr = grad[:, 0] * np.cos(th) + grad[:, 1] * np.sin(th)
    residual = np.sqrt(50.0) * np.abs(pr - 1j * base_series.config.k * p)
    scale = np.sqrt(50.0) * np.abs(p).max()
    assert residual.max() < 1e-2 * scale


def test_pressure_gradient_finite_difference(base_series):
    r0, t0, step = 1.5, 0.7, 1e-6
    x0, y0 = r0 * np.cos(t0), r0 * np.sin(t0)

    def p_at(x, y):
        return analytic.eval_pressure(base_series, np.hypot(x, y),
                                      np.arctan2(y, x))

    _, grad = analytic.eval_pressure(base_series, r0, t0, with_gradient=True)
    fd_x = (p_at(x0 + step, y0) - p_at(x0 - step, y0)) / (2 * step)
    fd_y = (p_at(x0, y0 + step) - p_at(x0, y0 - step)) / (2 * step)
    assert abs(grad[0] - fd_x) / abs(fd_x) < 1e-6
    assert abs(grad[1] - fd_y) / abs(fd_y) < 1e-6


def test_helmholtz_residual_finite_difference(base_series):
    k = base_series.config.k
    rng = np.random.default_rng(5)
    step = 1e-4

    def p_at(x, y, with_gradient=False):
        return analytic.eval_pressure(base_series, np.hypot(x, y),
                                      np.arctan2(y, x), with_gradient)

    # the Laplacian of p, and the divergence of the returned gradient
    for rr, tt in zip(rng.uniform(1.1, 1.9, 20), rng.uniform(0, 2 * np.pi, 20)):
        x, y = rr * np.cos(tt), rr * np.sin(tt)
        p0 = p_at(x, y)
        lap = (p_at(x + step, y) + p_at(x - step, y) + p_at(x, y + step)
               + p_at(x, y - step) - 4 * p0) / step ** 2
        assert abs(lap + k ** 2 * p0) / abs(p0) < 1e-6
        div = (p_at(x + step, y, True)[1][0] - p_at(x - step, y, True)[1][0]
               + p_at(x, y + step, True)[1][1]
               - p_at(x, y - step, True)[1][1]) / (2 * step)
        assert abs(div + k ** 2 * p0) / abs(p0) < 1e-6


# ------------------------------------------------------------- displacement

def test_displacement_finite_at_origin(base_series):
    u = analytic.eval_displacement(base_series, 0.0, 0.0)
    assert np.all(np.isfinite(u))
    u_near = analytic.eval_displacement(base_series, 1e-9, 0.4)
    assert np.max(np.abs(u - u_near)) < 1e-7


def test_origin_gradient_matches_finite_difference(base_series):
    _, jac = analytic.eval_displacement(base_series, 0.0, 0.0,
                                        with_gradient=True)
    step = 1e-6

    def u_at(x, y):
        return analytic.eval_displacement(base_series, np.hypot(x, y),
                                          np.arctan2(y, x))

    fd0 = (u_at(step, 0.0) - u_at(-step, 0.0)) / (2 * step)
    fd1 = (u_at(0.0, step) - u_at(0.0, -step)) / (2 * step)
    assert np.max(np.abs(jac[:, 0] - fd0)) < 1e-6
    assert np.max(np.abs(jac[:, 1] - fd1)) < 1e-6


def test_displacement_axis_symmetry(base_series):
    # d = (1, 0): u_x even in theta, u_y odd
    th = np.array([0.25, 0.9, 2.2])
    up = analytic.eval_displacement(base_series, 0.7, th)
    um = analytic.eval_displacement(base_series, 0.7, -th)
    assert np.max(np.abs(up[:, 0] - um[:, 0])) < 1e-14
    assert np.max(np.abs(up[:, 1] + um[:, 1])) < 1e-14


def test_displacement_domain_guard(base_series):
    with pytest.raises(ValueError):
        analytic.eval_displacement(base_series, 1.2, 0.0)
    analytic.eval_displacement(base_series, 1.2, 0.0, check_domain=False)


def test_displacement_jacobian_finite_difference(base_series):
    r0, t0, step = 0.6, 1.1, 1e-6
    _, jac = analytic.eval_displacement(base_series, r0, t0, with_gradient=True)
    x, y = r0 * np.cos(t0), r0 * np.sin(t0)

    def u_at(xx, yy):
        return analytic.eval_displacement(base_series, np.hypot(xx, yy),
                                          np.arctan2(yy, xx))

    fd0 = (u_at(x + step, y) - u_at(x - step, y)) / (2 * step)
    fd1 = (u_at(x, y + step) - u_at(x, y - step)) / (2 * step)
    scale = np.max(np.abs(jac))
    assert np.max(np.abs(jac[:, 0] - fd0)) < 1e-6 * scale
    assert np.max(np.abs(jac[:, 1] - fd1)) < 1e-6 * scale


def test_navier_residual_finite_difference(base_config, base_series):
    cfg = base_config
    rng = np.random.default_rng(7)
    step = 1e-4

    def u_at(x, y):
        return analytic.eval_displacement(base_series, np.hypot(x, y),
                                          np.arctan2(y, x))

    for rr, tt in zip(rng.uniform(0.15, 0.85, 20),
                      rng.uniform(0, 2 * np.pi, 20)):
        x, y = rr * np.cos(tt), rr * np.sin(tt)
        u0 = u_at(x, y)
        lap = (u_at(x + step, y) + u_at(x - step, y) + u_at(x, y + step)
               + u_at(x, y - step) - 4 * u0) / step ** 2

        def div_u(xx, yy):
            ux_x = (u_at(xx + step, yy)[0] - u_at(xx - step, yy)[0]) / (2 * step)
            uy_y = (u_at(xx, yy + step)[1] - u_at(xx, yy - step)[1]) / (2 * step)
            return ux_x + uy_y

        grad_div = np.array([
            (div_u(x + step, y) - div_u(x - step, y)) / (2 * step),
            (div_u(x, y + step) - div_u(x, y - step)) / (2 * step)])
        res = cfg.mu * lap + (cfg.lam + cfg.mu) * grad_div \
            + cfg.rho * cfg.omega ** 2 * u0
        assert np.max(np.abs(res)) < 1e-6 * max(np.max(np.abs(u0)), 1e-3)


# ----------------------------------------------------- incidence direction

def test_rotated_incidence_is_rotated_field():
    alpha = np.pi / 2
    straight = analytic.solve_modes(PhysicalConfig(d=(1.0, 0.0)), n_modes=30)
    rotated = analytic.solve_modes(PhysicalConfig(d=(0.0, 1.0)), n_modes=30)

    th = np.array([0.2, 1.4, 3.3])
    p_rot = analytic.eval_pressure(rotated, 1.5, th)
    p_ref = analytic.eval_pressure(straight, 1.5, th - alpha)
    assert np.max(np.abs(p_rot - p_ref)) < 1e-13

    Q = np.array([[np.cos(alpha), -np.sin(alpha)],
                  [np.sin(alpha), np.cos(alpha)]])
    u_rot = analytic.eval_displacement(rotated, 0.6, th)
    u_ref = analytic.eval_displacement(straight, 0.6, th - alpha)
    assert np.max(np.abs(u_rot - u_ref @ Q.T)) < 1e-13


def test_trace_mode_coefficients_reconstruct(base_config, base_series):
    coeffs = analytic.trace_mode_coefficients(base_series)
    M = base_series.n_modes - 1
    th = np.linspace(0, 2 * np.pi, 7)
    n = np.arange(-M, M + 1)
    p_modes = np.exp(1j * np.outer(th, n)) @ coeffs
    p_direct = analytic.eval_pressure(base_series, base_config.R, th)
    assert np.max(np.abs(p_modes - p_direct)) < 1e-12


# ------------------------------------- recurrence tables and mode-axis sums
#
# The oracle builds its Bessel/Hankel tables by recurrence and sums over the
# mode axis.  The reference below is the path it replaced: scipy order tables
# and a plain per-mode loop.

SOFT_SOLID = PhysicalConfig(mu=0.05)     # k_s R0 = 4.47: oscillatory J_n


def _reference_pressure(sol, r, th):
    cfg, M = sol.config, sol.n_modes
    tp = th - np.arctan2(cfg.d[1], cfg.d[0])
    H = sp.hankel1(np.arange(M + 1)[:, None], cfg.k * r[None, :])
    p = pr = pt = 0.0
    for n, a in enumerate(sol.pressure_coeffs):
        Hm1 = -H[1] if n == 0 else H[n - 1]
        p = p + a * H[n] * np.cos(n * tp)
        pr = pr + a * cfg.k * 0.5 * (Hm1 - H[n + 1]) * np.cos(n * tp)
        pt = pt - a * n * H[n] * np.sin(n * tp)
    return p, pr, pt


def _reference_potential(coeffs, kappa, r, tp, trig):
    J = sp.jv(np.arange(len(coeffs) + 2)[:, None], kappa * r[None, :])
    fr = ft = frr = frt = ftt = 0.0
    for n, c in enumerate(coeffs):
        Jm1 = -J[1] if n == 0 else J[n - 1]
        Jm2 = J[2] if n == 0 else (-J[1] if n == 1 else J[n - 2])
        dJ = 0.5 * (Jm1 - J[n + 1])
        ddJ = 0.25 * (Jm2 - 2.0 * J[n] + J[n + 2])
        tg = trig(n * tp)
        dtg = -n * np.sin(n * tp) if trig is np.cos else n * np.cos(n * tp)
        fr = fr + c * kappa * dJ * tg
        ft = ft + c * J[n] * dtg
        frr = frr + c * kappa ** 2 * ddJ * tg
        frt = frt + c * kappa * dJ * dtg
        ftt = ftt - c * n ** 2 * J[n] * tg
    return fr, ft, frr, frt, ftt


def _cartesian_first(fr, ft, r, c, s):
    return c * fr - s * ft / r, s * fr + c * ft / r


def _cartesian_second(fr, ft, frr, frt, ftt, r, c, s):
    """f_xx, f_xy and f_yy from the polar derivatives (chain rule)."""
    cc, cs2, ss, cs, dcs, r2 = c * c, 2 * c * s, s * s, c * s, c * c - s * s, \
        r ** 2
    fxx = cc * frr - cs2 * frt / r + ss * ftt / r2 \
        + ss * fr / r + cs2 * ft / r2
    fyy = ss * frr + cs2 * frt / r + cc * ftt / r2 \
        + cc * fr / r - cs2 * ft / r2
    fxy = cs * frr + dcs * frt / r - cs * ftt / r2 \
        - cs * fr / r - dcs * ft / r2
    return fxx, fxy, fyy


def _reference_displacement(sol, r, th):
    """u = grad(phi) + (d_y psi, -d_x psi) from the per-mode polar
    derivatives of the potentials, by the polar chain rule: the form the
    oracle had before it summed shifted modes in Cartesian form."""
    cfg = sol.config
    tp = th - np.arctan2(cfg.d[1], cfg.d[0])
    ph = _reference_potential(sol.comp_coeffs, cfg.k_p, r, tp, np.cos)
    ps = _reference_potential(sol.shear_coeffs, cfg.k_s, r, tp, np.sin)
    c, s = np.cos(th), np.sin(th)
    phx, phy = _cartesian_first(ph[0], ph[1], r, c, s)
    psx, psy = _cartesian_first(ps[0], ps[1], r, c, s)
    phxx, phxy, phyy = _cartesian_second(*ph, r, c, s)
    psxx, psxy, psyy = _cartesian_second(*ps, r, c, s)
    u = np.stack([phx + psy, phy - psx], axis=-1)
    jac = np.stack([np.stack([phxx + psxy, phxy + psyy], axis=-1),
                    np.stack([phxy - psxx, phyy - psxy], axis=-1)], axis=-2)
    return u, jac


def _relative_to_max(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("M", [30, 40])
def test_hankel_recurrence_matches_order_table(M):
    x = np.linspace(1.0, 8.0, 701)   # k r for k in {1, 2, 4}, r in [R0, R]
    ref = sp.hankel1(np.arange(M + 1)[:, None], x[None, :])
    np.testing.assert_allclose(analytic._h_table(M, x), ref, rtol=1e-12,
                               atol=0.0)


@pytest.mark.parametrize("M", [30, 40])
def test_bessel_recurrence_matches_order_table(M):
    orders = np.arange(M + 2)[:, None]
    # per entry where no J_n has a zero (x < 2.40, the first zero of J_0) ...
    x = np.concatenate([np.geomspace(1e-12, 1e-3, 50),
                        np.linspace(1e-3, 2.4, 500)])
    np.testing.assert_allclose(analytic._j_table(M, x),
                               sp.jv(orders, x[None, :]), rtol=1e-12, atol=0.0)
    # ... and relative to the column's largest entry across the zeros of the
    # soft solid's shear argument, where no path has per-entry accuracy
    x = np.linspace(2.4, SOFT_SOLID.k_s * SOFT_SOLID.R0, 300)
    ref = sp.jv(orders, x[None, :])
    err = np.abs(analytic._j_table(M, x) - ref) / np.abs(ref).max(axis=0)
    assert err.max() <= 1e-12


def test_bessel_recurrence_underflow_fallback():
    M = 40
    # seeds J_M(x) below 1e-250 take the order table: exactly scipy's values
    x = np.array([0.0, 1e-9, 1e-7])
    np.testing.assert_array_equal(
        analytic._j_table(M, x),
        sp.jv(np.arange(M + 2)[:, None], x[None, :]))


def test_radial_tables_on_distinct_radii_are_the_per_point_tables(
        mesh_pairs):
    """Every step of a radial table (seeds, recurrence, the J_0/J_1
    rescale, the tiny-seed fallback) is per column, so a column does not
    depend on the other radii of its call: a table on the distinct radii
    gathered per point, and a table on one block of the radii (as the
    oracle builds them), are bitwise that part of the per-point table."""
    cfg, M = SOFT_SOLID, 30
    disc, ann = mesh_pairs[2]
    for mesh, kappas, table in ((ann, (cfg.k,), analytic._h_table),
                                (disc, (cfg.k_p, cfg.k_s), analytic._j_table)):
        pts = harness._quad_points(mesh)
        # r = 1e-9 takes the tiny-seed fallback of the J table
        r = np.append(np.hypot(pts[..., 0], pts[..., 1]).ravel(), 1e-9)
        radii, at = np.unique(r, return_inverse=True)
        assert radii.size < r.size / 4      # the radii repeat
        for kappa in kappas:
            whole = table(M, kappa * r)
            np.testing.assert_array_equal(
                table(M, kappa * radii).take(at, axis=1), whole)
            for i in range(0, r.size, analytic._BLOCK):
                blk = slice(i, i + analytic._BLOCK)
                np.testing.assert_array_equal(table(M, kappa * r[blk]),
                                              whole[:, blk])


def test_radial_tables_are_built_per_block(monkeypatch):
    """Each block of the oracle's points builds its own radial tables,
    from that block's radii only, even where the radii repeat: 2,500
    points on 500 radii take blocks of 1,024, 1,024 and 452 points, and
    the J table gets both wave numbers' arguments of its block."""
    sol = analytic.solve_modes(PhysicalConfig())
    sizes = {"_h_table": [], "_j_table": []}
    for name, sizes_of in sizes.items():
        def spy(M, x, _original=getattr(analytic, name), _sizes=sizes_of):
            _sizes.append(x.size)
            return _original(M, x)
        monkeypatch.setattr(analytic, name, spy)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 2 * np.pi, 2500)
    analytic.eval_pressure(sol, np.repeat(np.linspace(1.0, 2.0, 500), 5),
                           theta)
    analytic.eval_displacement(sol, np.repeat(np.linspace(0.0, 1.0, 500), 5),
                               theta, with_gradient=True)
    assert sizes == {"_h_table": [1024, 1024, 452],
                     "_j_table": [2048, 2048, 904]}


@pytest.mark.parametrize("cfg", [PhysicalConfig(), SOFT_SOLID],
                         ids=["default", "soft_solid"])
def test_one_j_table_for_both_wave_numbers_is_two_calls_bitwise(
        cfg, mesh_pairs):
    """The displacement takes J_n(k_p r) and J_n(k_s r) from one
    ``_j_table`` call over both arguments (``_j_tables``).  Every step of
    the table is per column, so it is bitwise the stack of two calls: at a
    scalar radius, at the level-3 quadrature radii and at r = 0, which takes
    the tiny-seed fallback.  Scalar calls still match one batched call
    within 1e-12 of its maximum, the benchmark's oracle bound."""
    sol = analytic.solve_modes(cfg)
    M = sol.n_modes
    pts = harness._quad_points(mesh_pairs[3][0])
    quad = np.unique(np.hypot(pts[..., 0], pts[..., 1]))
    for r in ([0.37], quad, [0.0], np.append(quad, 0.0)):
        xp, xs = cfg.k_p * np.asarray(r), cfg.k_s * np.asarray(r)
        one = analytic._j_tables(M, np.concatenate([xp, xs]))
        two = np.stack([analytic._j_table(M, xp), analytic._j_table(M, xs)])
        assert one.flags.c_contiguous and one.shape == two.shape
        assert one.tobytes() == two.tobytes()
    rng = np.random.default_rng(7)
    r = np.append(np.sqrt(rng.uniform(0.0, cfg.R0 ** 2, 40)), 0.0)
    th = rng.uniform(0.0, 2 * np.pi, r.size)
    u = analytic.eval_displacement(sol, r, th, with_gradient=True)
    u_one = [analytic.eval_displacement(sol, a, b, with_gradient=True)
             for a, b in zip(r, th)]
    for batched, scalar in zip(u, zip(*u_one)):
        assert _relative_to_max(np.array(scalar), batched) <= 1e-12


def test_angle_table_matches_cos_and_sin():
    """e^{int} by angle addition against np.cos/np.sin of outer(n, t), up to
    the order cap, over the t - alpha range of the oracle.  Measured: 1.6e-14
    up to n = 29 and 1.3e-13 up to n = 200, most of it the reference's own
    rounding of n*t (up to n |t| eps / 2 = 1.4e-13 at n = 200)."""
    t = np.random.default_rng(2).uniform(-2 * np.pi, 2 * np.pi, 4000)
    nt = np.outer(np.arange(special.MAX_ORDER + 1), t)
    E = analytic._angle_table(special.MAX_ORDER + 1, t)
    err = np.maximum(np.abs(E.real - np.cos(nt)), np.abs(E.imag - np.sin(nt)))
    assert err[:30].max() <= 3e-14
    assert err.max() <= 3e-13


def _field_terms(cfg, n_max):
    """(n+1)^2 max(|A_n H_n(k R0)|, |B_n J_n(k_p R0)|, |C_n J_n(k_s R0)|)
    for n = 0..n_max-1, from the modal systems and scipy's order tables."""
    terms = []
    systems, rhs = analytic.modal_systems(cfg, n_max)
    for n in range(n_max):
        X = np.linalg.solve(systems[n], rhs[n])
        terms.append((n + 1) ** 2 * max(
            abs(X[0] * sp.hankel1(n, cfg.k * cfg.R0)),
            abs(X[1] * sp.jv(n, cfg.k_p * cfg.R0)),
            abs(X[2] * sp.jv(n, cfg.k_s * cfg.R0))))
    return np.array(terms)


def _stopped_by_the_tail(cfg, sol):
    """The field term of mode n_modes is the first one past n = 2 below
    1e-16 of the largest before it."""
    kept = sol.n_modes
    terms = _field_terms(cfg, kept + 1)
    return (terms[kept] < 1e-16 * terms[:kept].max()
            and all(terms[n] >= 1e-16 * terms[:n].max()
                    for n in range(3, kept)))


@pytest.mark.parametrize("k, kept", [(1.0, 17), (2.0, 20), (4.0, 26),
                                     (10.0, 38), (16.0, 48)])
def test_tail_stops_at_the_last_mode_that_affects_the_field(k, kept):
    """The sum stops at the first mode whose field term on r = R0 is below
    1e-16 of the largest; the smallest budget that reaches the stop keeps
    the same coefficients bitwise."""
    cfg = PhysicalConfig(k=k)
    sol = analytic.solve_modes(cfg)
    assert sol.n_modes == kept
    assert _stopped_by_the_tail(cfg, sol)
    tight = analytic.solve_modes(cfg, n_modes=kept + 1)
    for got, want in (
            (tight.pressure_coeffs, sol.pressure_coeffs),
            (tight.comp_coeffs, sol.comp_coeffs),
            (tight.shear_coeffs, sol.shear_coeffs)):
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(k=st.floats(0.05, 60.0), omega=st.floats(0.1, 20.0),
       mu=st.sampled_from([0.05, 1.0, 4.0]))
def test_default_budget_ends_at_the_tail_stop_or_is_refused(k, omega, mu):
    """With the default budget the sum either stops by the tail rule below
    the order cap or is refused; it never hands back an exhausted budget."""
    cfg = PhysicalConfig(k=k, omega=omega, mu=mu)
    try:
        sol = analytic.solve_modes(cfg)
    except (analytic.SingularModeError, ValueError):
        return
    assert sol.n_modes < special.MAX_ORDER - 1
    assert _stopped_by_the_tail(cfg, sol)


@pytest.mark.parametrize("cfg", [PhysicalConfig(k=1.0), PhysicalConfig(k=2.0),
                                 PhysicalConfig(k=4.0), SOFT_SOLID],
                         ids=["k1", "k2", "k4", "soft_solid"])
def test_fast_oracle_matches_per_mode_reference(cfg):
    sol = analytic.solve_modes(cfg, n_modes=40)
    rng = np.random.default_rng(11)
    # more points than one evaluation block, so the block seams are covered
    th = rng.uniform(0.0, 2 * np.pi, 5000)
    r = np.sqrt(rng.uniform(1.0, 4.0, th.size))
    p, grad = analytic.eval_pressure(sol, r, th, with_gradient=True)
    p_ref, pr, pt = _reference_pressure(sol, r, th)
    grad_ref = np.stack(_cartesian_first(pr, pt, r, np.cos(th), np.sin(th)),
                        axis=-1)
    assert _relative_to_max(p, p_ref) <= 1e-12
    assert _relative_to_max(grad, grad_ref) <= 1e-12

    # the Cartesian Jacobian loses eps/r near the origin in either path
    r = np.sqrt(rng.uniform(0.01, 1.0, th.size))
    u, jac = analytic.eval_displacement(sol, r, th, with_gradient=True)
    u_ref, jac_ref = _reference_displacement(sol, r, th)
    assert _relative_to_max(u, u_ref) <= 1e-12
    assert _relative_to_max(jac, jac_ref) <= 1e-12


def test_fast_displacement_near_and_at_origin(base_series):
    r = np.array([0.0, 1e-9, 1e-6, 0.5])
    th = np.array([0.3, 0.4, 1.9, 2.2])
    u = analytic.eval_displacement(base_series, r, th)
    u_ref, _ = _reference_displacement(base_series, r[1:], th[1:])
    assert _relative_to_max(u[1:], u_ref) <= 1e-12
    u0 = analytic.eval_displacement(base_series, 0.0, 0.3)
    assert np.all(np.isfinite(u0))
    assert np.array_equal(u[0], u0)


@pytest.mark.parametrize("cfg", [PhysicalConfig(k=1.0), PhysicalConfig(k=4.0),
                                 SOFT_SOLID], ids=["k1", "k4", "soft_solid"])
def test_scalar_oracle_calls_equal_one_batched_call(cfg):
    sol = analytic.solve_modes(cfg)
    rng = np.random.default_rng(3)
    th = rng.uniform(0.0, 2 * np.pi, 25)
    r_s = np.sqrt(rng.uniform(0.0, 1.0, th.size))
    r_f = np.sqrt(rng.uniform(1.0, 4.0, th.size))
    u = analytic.eval_displacement(sol, r_s, th)
    p = analytic.eval_pressure(sol, r_f, th)
    u_one = np.array([analytic.eval_displacement(sol, a, b)
                      for a, b in zip(r_s, th)])
    p_one = np.array([analytic.eval_pressure(sol, a, b)
                      for a, b in zip(r_f, th)])
    assert _relative_to_max(u_one, u) <= 1e-12
    assert _relative_to_max(p_one, p) <= 1e-12


# ---------------------------------------------------------- sector sums
#
# With sectors=S the oracle evaluates the radial and angle tables at the
# given points only and reaches theta + 2 pi j / S by phases on the mode
# axis.  The reference is one single-sector call at the turned points.

OFF_AXIS = (float(np.cos(0.7)), float(np.sin(0.7)))


@pytest.mark.parametrize("cfg", [
    PhysicalConfig(k=1.0, d=OFF_AXIS), PhysicalConfig(k=4.0, d=OFF_AXIS),
    PhysicalConfig(mu=0.05, d=OFF_AXIS)], ids=["k1", "k4", "soft_solid"])
@pytest.mark.parametrize("sectors", [8, 16])
def test_sectors_are_single_sector_calls_at_the_turned_points(cfg, sectors):
    """Values, pressure gradients and Jacobians of every sector
    within 1e-12 of their maximum, over more points than one block, the
    origin included."""
    sol = analytic.solve_modes(cfg)
    rng = np.random.default_rng(sectors)
    th = rng.uniform(0.0, 2 * np.pi / sectors, 1500)
    turned = th + (2 * np.pi / sectors) * np.arange(sectors)[:, None]
    r_f = np.sqrt(rng.uniform(1.0, 4.0, th.size))
    r_s = np.append(np.sqrt(rng.uniform(0.0, 1.0, th.size - 1)), 0.0)

    p, grad = analytic.eval_pressure(sol, r_f, th, with_gradient=True,
                                     sectors=sectors)
    p1, grad1 = analytic.eval_pressure(sol, r_f, turned, with_gradient=True)
    u, jac = analytic.eval_displacement(sol, r_s, th, with_gradient=True,
                                        sectors=sectors)
    u1, jac1 = analytic.eval_displacement(sol, r_s, turned,
                                          with_gradient=True)
    for got, ref in ((p, p1), (grad, grad1), (u, u1), (jac, jac1)):
        assert got.shape == ref.shape
        assert _relative_to_max(got, ref) <= 1e-12


def test_a_scalar_point_gains_only_the_sector_axis(base_series):
    p = analytic.eval_pressure(base_series, 1.5, 0.3, sectors=4)
    _, grad = analytic.eval_pressure(base_series, 1.5, 0.3,
                                     with_gradient=True, sectors=4)
    u, jac = analytic.eval_displacement(base_series, 0.5, 0.3,
                                        with_gradient=True, sectors=4)
    assert (p.shape, grad.shape, u.shape, jac.shape) == (
        (4,), (4, 2), (4, 2), (4, 2, 2))
    one = analytic.eval_pressure(base_series, 1.5, 0.3)
    one_p, one_grad = analytic.eval_pressure(base_series, 1.5, 0.3,
                                             with_gradient=True)
    assert type(one) is complex and type(one_p) is complex
    assert one_grad.shape == (2,)
    assert abs(p[0] - one) <= 1e-14 * abs(one)
    with pytest.raises(ValueError):
        analytic.eval_pressure(base_series, 1.5, 0.3, sectors=0)


# ------------------------------------------- modal systems from order vectors
#
# The modal systems take every Bessel value from one scipy order vector per
# argument.  The reference below is the per-mode form they replaced: about
# twenty scalar calls through the checked wrappers of ``special`` per mode.

def _reference_modal_system(n, config):
    """E_n and e_n of mode n from the scalar wrappers of ``special``."""
    def j(m, x):   # reflection for the n-1 index at n = 0
        return -special.bessel_j(-m, x) if m < 0 else special.bessel_j(m, x)

    def h(m, x):
        return -special.hankel1(-m, x) if m < 0 else special.hankel1(m, x)

    k, R0, mu = config.k, config.R0, config.mu
    kp, ks = config.k_p, config.k_s
    rf_w2 = config.rho_f * config.omega ** 2
    x, xp, xs = k * R0, kp * R0, ks * R0

    E = np.zeros((3, 3), dtype=complex)
    E[0, 0] = -h(n - 1, x) + (n / x) * h(n, x)
    E[0, 1] = (rf_w2 * kp / k) * (j(n - 1, xp) - (n / xp) * j(n, xp))
    E[0, 2] = (rf_w2 * n / x) * j(n, xs)
    E[1, 0] = 0.0
    E[1, 1] = (2 * mu * n * kp / R0) * j(n - 1, xp) \
        - (2 * mu * (n ** 2 + n) / R0 ** 2) * j(n, xp)
    E[1, 2] = ((2 * mu * (n ** 2 + n) - mu * ks ** 2 * R0 ** 2) / R0 ** 2) \
        * j(n, xs) - (2 * mu * ks / R0) * j(n - 1, xs)
    E[2, 0] = h(n, x)
    E[2, 1] = ((2 * mu * (n ** 2 + n) - mu * ks ** 2 * R0 ** 2) / R0 ** 2) \
        * j(n, xp) - (2 * mu * kp / R0) * j(n - 1, xp)
    E[2, 2] = (2 * mu * n * ks / R0) * j(n - 1, xs) \
        - (2 * mu * (n ** 2 + n) / R0 ** 2) * j(n, xs)

    eps_in = (1.0 if n == 0 else 2.0) * 1j ** n
    e = np.array([eps_in * (j(n - 1, x) - (n / x) * j(n, x)), 0.0,
                  -eps_in * j(n, x)], dtype=complex)
    return E, e


def _reference_trace(sol):
    cfg, M = sol.config, sol.n_modes - 1
    c = np.zeros(2 * M + 1, dtype=complex)
    for n in range(M + 1):
        val = sol.pressure_coeffs[n] * special.hankel1(n, cfg.k * cfg.R)
        if n == 0:
            c[M] = val
        else:
            c[M + n] = c[M - n] = 0.5 * val
    return c


def _same_bits(got, ref):
    got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cfg", [PhysicalConfig(k=k) for k in (
    1.0, 2.0, 4.0, 16.0, 43.0)] + [SOFT_SOLID],
    ids=["k1", "k2", "k4", "k16", "k43", "soft_solid"])
def test_modal_systems_equal_the_per_mode_reference_bitwise(cfg):
    """E_n and e_n of every kept mode and the first dropped one, the
    coefficients and the trace, bitwise."""
    sol = analytic.solve_modes(cfg)
    systems, rhs = analytic.modal_systems(cfg, sol.n_modes + 1)
    assert systems.shape == (sol.n_modes + 1, 3, 3)
    assert rhs.shape == (sol.n_modes + 1, 3)
    for n in range(sol.n_modes + 1):
        E, e = _reference_modal_system(n, cfg)
        assert _same_bits(systems[n], E) and _same_bits(rhs[n], e), n
        if n < sol.n_modes:
            assert _same_bits([sol.pressure_coeffs[n], sol.comp_coeffs[n],
                               sol.shear_coeffs[n]], np.linalg.solve(E, e))
    assert _same_bits(analytic.trace_mode_coefficients(sol),
                      _reference_trace(sol))


def test_modal_systems_refuse_a_mode_count_outside_the_order_cap():
    for n_modes in (0, special.MAX_ORDER + 1, 2.5):
        with pytest.raises(ValueError):
            analytic.modal_systems(PhysicalConfig(), n_modes)


def test_the_modes_make_no_scalar_bessel_call(monkeypatch):
    calls = []
    for name in ("bessel_j", "bessel_y", "hankel1"):
        def spy(*args, _original=getattr(special, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(special, name, spy)
    sol = analytic.solve_modes(PhysicalConfig(k=4.0))
    analytic.trace_mode_coefficients(sol)
    assert calls == []


def test_a_mode_whose_bessel_values_overflow_fails_at_that_mode(
        monkeypatch, capsys):
    """Y_n is inf from order 5 on: mode 5 is the first whose E_n holds it
    (H_{n-1} and H_n), so modes 0..4 solve and mode 5 is refused; the CLI
    reports a numerical failure."""
    first, yv = 5, sp.yv

    def overflowing(n, x):
        return np.where(np.asarray(n) >= first, np.inf, yv(n, x))

    monkeypatch.setattr(sp, "yv", overflowing)
    assert analytic.solve_modes(PhysicalConfig(), n_modes=first).n_modes \
        == first
    with pytest.raises(analytic.SingularModeError,
                       match=f"^mode {first}: E_n or e_n overflowed"):
        analytic.solve_modes(PhysicalConfig())
    assert cli.main(["oracle", "--point", "1.5", "0"]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure: mode {first}: " in err
    assert "Traceback" not in err


def test_a_mode_whose_bessel_values_underflow_is_named(capsys):
    """At k = 100 and the default omega, k_p R0 = 0.577 and scipy's
    J_n(k_p R0) is 0.0 from n = 131 on, so column 1 of E_132 is exactly
    zero: the refusal names the underflow, not a singular matrix."""
    with pytest.raises(analytic.SingularModeError,
                       match=r"^mode 132: J_131 and J_132 of k_p R0 = "
                             r"0\.57735 underflowed to 0 and 0"):
        analytic.solve_modes(PhysicalConfig(k=100.0))
    assert cli.main(["solve", "--k", "100", "--level", "0"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: mode 132: " in err and "underflow" in err
    assert "Singular matrix" not in err
    assert "Traceback" not in err
