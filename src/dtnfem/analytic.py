"""Closed-form modal solution for the plane wave hitting the elastic disc.

The scattered pressure and the solid displacement are expanded in angular
modes; each mode's three coefficients (scattered pressure A_n, compressional
potential B_n, shear potential C_n) solve a 3x3 system expressing the two
interface transmission conditions.  The fields are

    p(r, t) = sum_n A_n H_n(k r) cos(n t),     r >= R0,
    u = grad(phi) + (d_y psi, -d_x psi),       r <= R0,
    phi = sum_n B_n J_n(k_p r) cos(n t),  psi = sum_n C_n J_n(k_s r) sin(n t),

with t measured from the incidence direction d.  This is the ground-truth
oracle for every error norm in the package; its own correctness is pinned by
transmission-residual and PDE-residual tests rather than trusted formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from . import special
from .config import PhysicalConfig

__all__ = [
    "SeriesSolution", "SingularModeError",
    "modal_system", "solve_modes",
    "eval_pressure", "eval_displacement", "trace_mode_coefficients",
    "default_mode_budget",
]

_RESIDUAL_RTOL = 1e-12
_TAIL_RTOL = 1e-16
_BLOCK = 1024          # points per block: no temporary grows with the points
_J_SEED_MIN = 1e-250   # smallest J_M seed the backward recurrence accepts


class SingularModeError(RuntimeError):
    """A modal 3x3 system failed to solve accurately (resonant configuration)."""


def _neumann_factor(n: int) -> float:
    return 1.0 if n == 0 else 2.0


def _j(n: int, x: float) -> float:
    # reflection for the n-1 index at n = 0
    return -special.bessel_j(-n, x) if n < 0 else special.bessel_j(n, x)


def _h(n: int, x: float) -> complex:
    return -special.hankel1(-n, x) if n < 0 else special.hankel1(n, x)


def modal_system(n: int, config: PhysicalConfig):
    """Interface-matching matrix E_n and right-hand side e_n for mode n.

    Rows: normal velocity balance, zero tangential traction, normal traction
    balance; unknowns (A_n, B_n, C_n).
    """
    if n < 0 or n != int(n):
        raise ValueError("mode index must be a non-negative integer")
    k, R0, mu = config.k, config.R0, config.mu
    kp, ks = config.k_p, config.k_s
    rf_w2 = config.rho_f * config.omega ** 2
    x, xp, xs = k * R0, kp * R0, ks * R0

    E = np.zeros((3, 3), dtype=complex)
    E[0, 0] = -_h(n - 1, x) + (n / x) * _h(n, x)
    E[0, 1] = (rf_w2 * kp / k) * (_j(n - 1, xp) - (n / xp) * _j(n, xp))
    E[0, 2] = (rf_w2 * n / x) * _j(n, xs)
    E[1, 0] = 0.0
    E[1, 1] = (2 * mu * n * kp / R0) * _j(n - 1, xp) \
        - (2 * mu * (n ** 2 + n) / R0 ** 2) * _j(n, xp)
    E[1, 2] = ((2 * mu * (n ** 2 + n) - mu * ks ** 2 * R0 ** 2) / R0 ** 2) * _j(n, xs) \
        - (2 * mu * ks / R0) * _j(n - 1, xs)
    E[2, 0] = _h(n, x)
    E[2, 1] = ((2 * mu * (n ** 2 + n) - mu * ks ** 2 * R0 ** 2) / R0 ** 2) * _j(n, xp) \
        - (2 * mu * kp / R0) * _j(n - 1, xp)
    E[2, 2] = (2 * mu * n * ks / R0) * _j(n - 1, xs) \
        - (2 * mu * (n ** 2 + n) / R0 ** 2) * _j(n, xs)

    eps_in = _neumann_factor(n) * 1j ** n
    e = np.array([
        eps_in * (_j(n - 1, x) - (n / x) * _j(n, x)),
        0.0,
        -eps_in * _j(n, x),
    ], dtype=complex)
    return E, e


def default_mode_budget(config: PhysicalConfig) -> int:
    return max(30, int(np.ceil(config.k * config.R0)) + 25)


@dataclass(frozen=True)
class SeriesSolution:
    """Retained modal coefficients; orders 0 .. n_modes-1.

    n_modes is where :func:`solve_modes` stopped: the first mode whose field
    on r = R0 is negligible (see there), or the mode budget.
    """

    config: PhysicalConfig
    pressure_coeffs: np.ndarray   # A_n
    comp_coeffs: np.ndarray       # B_n
    shear_coeffs: np.ndarray      # C_n

    def __post_init__(self):
        for arr in (self.pressure_coeffs, self.comp_coeffs, self.shear_coeffs):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.pressure_coeffs.shape[0]


def solve_modes(config: PhysicalConfig,
                n_modes: int | None = None) -> SeriesSolution:
    """Solve the per-mode 3x3 systems; the mode budget is an upper bound.

    Mode n's field term on r = R0 is (n+1)^2 max(|A_n H_n(k R0)|,
    |B_n J_n(k_p R0)|, |C_n J_n(k_s R0)|), the (n+1)^2 covering the n and n^2
    of the angular derivatives.  The sum stops before the first mode past
    n = 2 whose term is below 1e-16 of the largest so far (B_n and C_n grow
    with n, so a stop on the coefficients alone would never fire).  Raises
    SingularModeError if any solve leaves a residual above 1e-12 relative (a
    resonant or otherwise degenerate configuration).
    """
    budget = default_mode_budget(config) if n_modes is None else int(n_modes)
    minimum = int(np.ceil(np.e * config.k * config.R0 / 2.0)) + 10
    if budget < minimum:
        raise ValueError(f"mode budget {budget} below tail-negligibility "
                         f"minimum {minimum}")
    if budget + 1 > special.MAX_ORDER:
        raise ValueError(f"mode budget {budget} exceeds the special-function "
                         f"order cap {special.MAX_ORDER}")

    xp, xs = config.k_p * config.R0, config.k_s * config.R0
    A, B, C = [], [], []
    largest = 0.0
    for n in range(budget):
        # an entry of E_n or of the residual that overflows is a failed mode
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                E, e = modal_system(n, config)
                X = np.linalg.solve(E, e)
                res = np.linalg.norm(E @ X - e)
                # the field term of the docstring; E[2, 0] is H_n(k R0)
                term = (n + 1) ** 2 * max(abs(X[0] * E[2, 0]),
                                          abs(X[1] * _j(n, xp)),
                                          abs(X[2] * _j(n, xs)))
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise SingularModeError(f"mode {n}: {exc}") from exc
        if res > _RESIDUAL_RTOL * max(np.linalg.norm(e), 1e-300):
            raise SingularModeError(
                f"mode {n}: solve residual {res:.3e} exceeds "
                f"{_RESIDUAL_RTOL:g} * ||e||; configuration near resonance?")
        largest = max(largest, term)
        if largest > 0.0 and term < _TAIL_RTOL * largest and n > 2:
            break
        A.append(X[0]); B.append(X[1]); C.append(X[2])

    return SeriesSolution(
        config=config,
        pressure_coeffs=np.array(A, dtype=complex),
        comp_coeffs=np.array(B, dtype=complex),
        shear_coeffs=np.array(C, dtype=complex),
    )


def _incidence_angle(config: PhysicalConfig) -> float:
    return float(np.arctan2(config.d[1], config.d[0]))


def _broadcast(r, theta):
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    return (np.broadcast_to(r, shape).ravel(),
            np.broadcast_to(theta, shape).ravel(), shape)


def _blocks(size: int):
    for start in range(0, size, _BLOCK):
        yield slice(start, start + _BLOCK)


def eval_pressure(sol: SeriesSolution, r, theta, with_gradient: bool = False,
                  check_domain: bool = True):
    """Scattered pressure at (r, theta); optionally its polar gradient.

    Returns p, or (p, (dp_dr, dp_dtheta)) with with_gradient=True.  Scalars in,
    scalars out.  The series converges for any r > 0 but only represents the
    physical field for r >= R0; check_domain=False lifts the domain guard for
    quadrature points of boundary triangles that cut the interface chord.
    """
    cfg = sol.config
    rf, tf, shape = _broadcast(r, theta)
    if check_domain and np.any(rf < cfg.R0 * (1.0 - 1e-12)):
        raise ValueError("pressure series evaluated inside the solid (r < R0)")

    M = sol.n_modes
    k = cfg.k
    tp = tf - _incidence_angle(cfg)
    a = sol.pressure_coeffs
    n = np.arange(M)
    # the table once per distinct radius (quadrature points share radii),
    # gathered per block with take, which returns C-contiguous rows: a fancy
    # index returns F-ordered ones, on which the mode-sum GEMV rounds
    # differently from the per-point tables
    radii, at = np.unique(rf, return_inverse=True)
    H_radii = _h_table(M, k * radii)          # orders 0..M
    p = np.empty(rf.shape, dtype=complex)
    pr = np.empty_like(p)
    pt = np.empty_like(p)
    for blk in _blocks(rf.size):
        H = H_radii.take(at[blk], axis=1)
        E = _angle_table(M, tp[blk])
        cn = E.real
        p[blk] = a @ (H[:M] * cn)
        if with_gradient:
            Hm1 = np.concatenate([-H[1:2], H[:M - 1]])   # H_{-1} = -H_1
            pr[blk] = (0.5 * k) * (a @ ((Hm1 - H[1:]) * cn))
            pt[blk] = -(a * n) @ (H[:M] * E.imag)

    def _shape(v):
        v = v.reshape(shape)
        return complex(v[()]) if shape == () else v

    if with_gradient:
        return _shape(p), (_shape(pr), _shape(pt))
    return _shape(p)


def _angle_table(M: int, t: np.ndarray) -> np.ndarray:
    """e^{i n t} for orders 0..M-1, shape (M, len(t)), so cos(nt) and sin(nt)
    are its real and imaginary parts.  One complex exp per point, then rows
    m+1..2m are rows 1..m times row m (angle addition): each further row
    costs one complex multiply, and no row is more than log2(n) products
    from the exp."""
    E = np.empty((M, t.size), dtype=complex)
    E[:1] = 1.0
    E[1:2] = np.exp(1j * t)
    m = 1
    while m + 1 < M:
        stop = min(2 * m + 1, M)
        np.multiply(E[1:stop - m], E[m], out=E[m + 1:stop])
        m *= 2
    return E


def _h_table(M: int, x: np.ndarray) -> np.ndarray:
    """H^(1)_n(x) for orders 0..M, shape (M+1, len(x)).

    Forward recurrence H_{n+1} = (2n/x) H_n - H_{n-1} from scipy's H_0 and
    H_1; stable because the Y_n part dominates (DLMF 10.6.1).
    """
    H = np.empty((M + 1, x.size), dtype=complex)
    H[0] = _sp.hankel1(0, x)
    H[1] = _sp.hankel1(1, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_x = 1.0 / x
        for n in range(1, M):
            H[n + 1] = (2.0 * n) * inv_x * H[n] - H[n - 1]
    return H


def _j_table(M: int, x: np.ndarray) -> np.ndarray:
    """J_n(x) for orders 0..M+1, shape (M+2, len(x)).

    Backward (Miller) recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from scipy's
    J_M and J_{M+1} (DLMF 10.74.iv), then every column rescaled by the
    least-squares fit of its J_0, J_1 to scipy's j0, j1: this removes the
    seeds' relative scale error, and J_0, J_1 share no zero.  Columns whose
    seed J_M is below 1e-250 would underflow and take scipy's order table.
    """
    J = np.empty((M + 2, x.size))
    J[M + 1] = _sp.jv(M + 1, x)
    J[M] = _sp.jv(M, x)
    tiny = ~(np.abs(J[M]) >= _J_SEED_MIN)     # nan seeds too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_x = 1.0 / x
        for n in range(M, 0, -1):
            J[n - 1] = (2.0 * n) * inv_x * J[n] - J[n + 1]
        J *= (J[0] * _sp.j0(x) + J[1] * _sp.j1(x)) / (J[0] ** 2 + J[1] ** 2)
    if np.any(tiny):
        J[:, tiny] = _sp.jv(np.arange(M + 2)[:, None], x[None, tiny])
    return J


def _mode_sum(c, X, Y):
    """sum_n c[n] X[n] Y[n] over the mode axis; c complex, given as its real
    and imaginary rows (2, M), X and Y real."""
    v = c @ (X * Y)
    return v[0] + 1j * v[1]


def _coefficient_rows(coeffs, sign):
    """The real/imaginary rows (``_mode_sum``) of the three coefficient sets
    of a potential: coeffs, sign * n * coeffs and n^2 * coeffs."""
    n = np.arange(len(coeffs))
    return [np.stack([c.real, c.imag])
            for c in (coeffs, sign * n * coeffs, coeffs * n ** 2)]


def _potential_derivs(rows, kappa, J, tg, cotg, second):
    """Polar derivatives (f_r, f_t), plus (f_rr, f_rt, f_tt) if second, of the
    potential f = sum_n coeffs[n] J_n(kappa r) tg[n], where the angular factor
    tg[n] is cos(nt) or sin(nt), its t-derivative is sign * n * cotg[n], and
    ``rows`` holds ``_coefficient_rows(coeffs, sign)``."""
    c, cd, cn2 = rows
    M = c.shape[1]
    # J[n + 2] holds J_n for n = -2..M+1: J_{-1} = -J_1, J_{-2} = J_2
    J = np.concatenate([J[2:3], -J[1:2], J])
    Jn = J[2:M + 2]
    dJ = 0.5 * (J[1:M + 1] - J[3:M + 3])
    out = [kappa * _mode_sum(c, dJ, tg), _mode_sum(cd, Jn, cotg)]
    if second:
        ddJ = 0.25 * (J[:M] - 2.0 * Jn + J[4:M + 4])
        out += [kappa ** 2 * _mode_sum(c, ddJ, tg),
                kappa * _mode_sum(cd, dJ, cotg),
                -_mode_sum(cn2, Jn, tg)]
    return out


def _cartesian_first(fr, ft, r, c, s):
    return c * fr - s * ft / r, s * fr + c * ft / r


def _polar_factors(r, c, s):
    """The factors both potentials' ``_cartesian_second`` share: c^2, 2cs,
    s^2, cs, c^2 - s^2 and r^2."""
    cc, ss = c * c, s * s
    return cc, 2 * c * s, ss, c * s, cc - ss, r ** 2


def _cartesian_second(fr, ft, frr, frt, ftt, r, factors):
    cc, cs2, ss, cs, dcs, r2 = factors
    fxx = cc * frr - cs2 * frt / r + ss * ftt / r2 \
        + ss * fr / r + cs2 * ft / r2
    fyy = ss * frr + cs2 * frt / r + cc * ftt / r2 \
        + cc * fr / r - cs2 * ft / r2
    fxy = cs * frr + dcs * frt / r - cs * ftt / r2 \
        - cs * fr / r - dcs * ft / r2
    return fxx, fxy, fyy


def _origin_values(sol: SeriesSolution):
    """Limits of u and grad(u) at r = 0 in the incidence-aligned frame."""
    cfg = sol.config
    kp, ks = cfg.k_p, cfg.k_s
    B, C = sol.comp_coeffs, sol.shear_coeffs
    b0 = B[0] if sol.n_modes > 0 else 0.0
    b1 = B[1] if sol.n_modes > 1 else 0.0
    c1 = C[1] if sol.n_modes > 1 else 0.0
    b2 = B[2] if sol.n_modes > 2 else 0.0
    c2 = C[2] if sol.n_modes > 2 else 0.0
    u = np.array([0.5 * (b1 * kp + c1 * ks), 0.0], dtype=complex)
    mix = 0.25 * (b2 * kp ** 2 + c2 * ks ** 2)
    jac = np.array([[-0.5 * b0 * kp ** 2 + mix, 0.0],
                    [0.0, -0.5 * b0 * kp ** 2 - mix]], dtype=complex)
    return u, jac


def eval_displacement(sol: SeriesSolution, r, theta,
                      with_gradient: bool = False, check_domain: bool = True):
    """Solid displacement (Cartesian 2-vector), optionally with its Jacobian
    du_i/dx_j.  Shapes: u (..., 2), jacobian (..., 2, 2)."""
    cfg = sol.config
    rf, tf, shape = _broadcast(r, theta)
    if check_domain and np.any(rf > cfg.R0 * (1.0 + 1e-12)):
        raise ValueError("displacement series evaluated outside the solid")

    alpha = _incidence_angle(cfg)
    tp = tf - alpha
    at_origin = rf < 1e-12 * cfg.R0
    # series path divides by r; park origin points at a dummy radius and
    # replace their results with the analytic limits afterwards
    rsafe = np.where(at_origin, cfg.R0, rf)

    M = sol.n_modes
    # radial tables once per distinct radius, as in eval_pressure
    radii, at = np.unique(rsafe, return_inverse=True)
    Jp = _j_table(M, cfg.k_p * radii)
    Js = _j_table(M, cfg.k_s * radii)
    comp_rows = _coefficient_rows(sol.comp_coeffs, -1.0)
    shear_rows = _coefficient_rows(sol.shear_coeffs, 1.0)
    u = np.empty((rf.size, 2), dtype=complex)
    jac = np.empty((rf.size, 2, 2), dtype=complex) if with_gradient else None
    for blk in _blocks(rf.size):
        rb = rsafe[blk]
        E = _angle_table(M, tp[blk])
        cn, sn = E.real, E.imag
        phr, pht, *ph2 = _potential_derivs(
            comp_rows, cfg.k_p, Jp.take(at[blk], axis=1), cn, sn,
            with_gradient)
        psr, pst, *ps2 = _potential_derivs(
            shear_rows, cfg.k_s, Js.take(at[blk], axis=1), sn, cn,
            with_gradient)
        c, s = np.cos(tf[blk]), np.sin(tf[blk])
        phx, phy = _cartesian_first(phr, pht, rb, c, s)
        psx, psy = _cartesian_first(psr, pst, rb, c, s)
        u[blk, 0] = phx + psy
        u[blk, 1] = phy - psx
        if with_gradient:
            factors = _polar_factors(rb, c, s)
            phxx, phxy, phyy = _cartesian_second(phr, pht, *ph2, rb, factors)
            psxx, psxy, psyy = _cartesian_second(psr, pst, *ps2, rb, factors)
            jac[blk, 0, 0] = phxx + psxy
            jac[blk, 0, 1] = phxy + psyy
            jac[blk, 1, 0] = phxy - psxx
            jac[blk, 1, 1] = phyy - psxy

    if np.any(at_origin):
        u0, j0 = _origin_values(sol)
        Q = np.array([[np.cos(alpha), -np.sin(alpha)],
                      [np.sin(alpha), np.cos(alpha)]])
        u[at_origin] = Q @ u0
        if with_gradient:
            jac[at_origin] = Q @ j0 @ Q.T

    u = u.reshape(shape + (2,))
    if not with_gradient:
        return u
    return u, jac.reshape(shape + (2, 2))


def trace_mode_coefficients(sol: SeriesSolution) -> np.ndarray:
    """Exponential-basis coefficients of p on the artificial circle r = R.

    p(R, t) = sum_m c_m e^{i m (t - incidence angle)} with c_0 = A_0 H_0(kR)
    and c_{+-n} = A_n H_n(kR)/2; suitable input for the mode-space operator
    checks in :mod:`dtnfem.dtn`.
    """
    cfg = sol.config
    M = sol.n_modes - 1
    c = np.zeros(2 * M + 1, dtype=complex)
    for n in range(M + 1):
        val = sol.pressure_coeffs[n] * special.hankel1(n, cfg.k * cfg.R)
        if n == 0:
            c[M] = val
        else:
            c[M + n] = 0.5 * val
            c[M - n] = 0.5 * val
    return c
