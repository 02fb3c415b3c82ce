"""Closed-form modal solution for the plane wave hitting the elastic disc.

The scattered pressure and the solid displacement are expanded in angular
modes; each mode's three coefficients (scattered pressure A_n, compressional
potential B_n, shear potential C_n) solve a 3x3 system expressing the two
interface transmission conditions.  The fields are

    p(r, t) = sum_n A_n H_n(k r) cos(n t),     r >= R0,
    u = grad(phi) + (d_y psi, -d_x psi),       r <= R0,
    phi = sum_n B_n J_n(k_p r) cos(n t),  psi = sum_n C_n J_n(k_s r) sin(n t),

with t measured from the incidence direction d.  Both fields and their
Cartesian gradients are mode sums taken by one block loop (``_mode_sums``).
This is the ground-truth oracle for every error norm in the package; its own
correctness is pinned by transmission-residual and PDE-residual tests rather
than trusted formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from . import special
from .config import PhysicalConfig

__all__ = [
    "SeriesSolution", "SingularModeError",
    "modal_systems", "solve_modes",
    "eval_pressure", "eval_displacement", "trace_mode_coefficients",
]

_BLOCK = 1024          # points per block: no temporary grows with the points
_J_SEED_MIN = 1e-250   # smallest J_M seed the backward recurrence accepts


class SingularModeError(RuntimeError):
    """A modal 3x3 system failed to solve accurately (resonant configuration)."""


def _modal_systems(config: PhysicalConfig, n_modes: int):
    """``modal_systems``, and J_n(k_p R0) and J_n(k_s R0) of its modes."""
    if n_modes != int(n_modes) or not 1 <= n_modes <= special.MAX_ORDER:
        raise ValueError(f"mode count must be an integer in 1 .. "
                         f"{special.MAX_ORDER}")
    k, R0, mu, kp, ks = config.k, config.R0, config.mu, config.k_p, config.k_s
    rf_w2 = config.rho_f * config.omega ** 2
    x, xp, xs = k * R0, kp * R0, ks * R0
    n, orders = np.arange(n_modes), np.arange(-1, n_modes)
    with np.errstate(all="ignore"):   # high orders overflow by design
        # orders n - 1 and n of each vector: scipy's J_{-1} is -J_1 exactly
        j_x = _sp.jv(orders, x)
        (h1, h), (jx1, jx), (jp1, jp), (js1, js) = (
            (v[:-1], v[1:]) for v in (j_x + 1j * _sp.yv(orders, x), j_x,
                                      _sp.jv(orders, xp), _sp.jv(orders, xs)))
        # 2 mu (n^2 + n) / R0^2, and with mu k_s^2 R0^2 taken off first
        q = 2 * mu * (n ** 2 + n) / R0 ** 2
        q_s = (2 * mu * (n ** 2 + n) - mu * ks ** 2 * R0 ** 2) / R0 ** 2
        E = np.zeros((n_modes, 3, 3), dtype=complex)
        E[:, 0, 0] = -h1 + (n / x) * h
        E[:, 0, 1] = (rf_w2 * kp / k) * (jp1 - (n / xp) * jp)
        E[:, 0, 2] = (rf_w2 * n / x) * js
        E[:, 1, 1] = (2 * mu * n * kp / R0) * jp1 - q * jp
        E[:, 1, 2] = q_s * js - (2 * mu * ks / R0) * js1
        E[:, 2, 0] = h
        E[:, 2, 1] = q_s * jp - (2 * mu * kp / R0) * jp1
        E[:, 2, 2] = (2 * mu * n * ks / R0) * js1 - q * js
        # epsilon_n i^n by Python's power: numpy's differs from n = 100 on
        eps_in = np.array([(2.0 if m else 1.0) * 1j ** m
                           for m in range(n_modes)])
        e = np.zeros((n_modes, 3), dtype=complex)
        e[:, 0] = eps_in * (jx1 - (n / x) * jx)
        e[:, 2] = -eps_in * jx
    return E, e, jp, js


def modal_systems(config: PhysicalConfig, n_modes: int):
    """Interface-matching matrices E_n (n_modes, 3, 3) and right-hand sides
    e_n (n_modes, 3) of the modes n = 0..n_modes-1.  Rows: normal velocity
    balance, zero tangential traction, normal traction balance; unknowns
    (A_n, B_n, C_n).  Each of k R0, k_p R0 and k_s R0 takes one order vector
    of scipy's J_n, and k R0 one of Y_n: a mode whose values overflow holds
    non-finite entries, which :func:`solve_modes` refuses at that mode."""
    return _modal_systems(config, n_modes)[:2]


@dataclass(frozen=True)
class SeriesSolution:
    """Retained modal coefficients; orders 0 .. n_modes-1.

    n_modes is where :func:`solve_modes` stopped: the first mode whose field
    on r = R0 is negligible (see there), or a budget set by the caller.
    """

    config: PhysicalConfig
    pressure_coeffs: np.ndarray   # A_n
    comp_coeffs: np.ndarray       # B_n
    shear_coeffs: np.ndarray      # C_n
    # the coefficient rows of the evaluators, per (builder, sectors), built
    # on first use: repeated scalar calls pay for them once
    _rows: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        for arr in (self.pressure_coeffs, self.comp_coeffs, self.shear_coeffs):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.pressure_coeffs.shape[0]


def solve_modes(config: PhysicalConfig,
                n_modes: int | None = None) -> SeriesSolution:
    """Solve the per-mode 3x3 systems up to the first negligible mode.

    Mode n's field term on r = R0 is (n+1)^2 max(|A_n H_n(k R0)|,
    |B_n J_n(k_p R0)|, |C_n J_n(k_s R0)|), the (n+1)^2 covering the n and n^2
    of the angular derivatives.  The sum stops before the first mode past
    n = 2 whose term is below 1e-16 of the largest so far (B_n and C_n grow
    with n, so a stop on the coefficients alone would never fire).  That is
    the only stop: a budget n_modes < MAX_ORDER is an upper bound, and the
    default, MAX_ORDER - 1, is a ValueError if it runs out first.  Raises
    SingularModeError if an entry of E_n or e_n is not finite (its Bessel
    values overflowed), if a solve's normwise backward error, in max norms,
    is above 1e-14, or if E_n with its columns and then its rows scaled to
    unit largest entry has sigma_min/sigma_max below 1e-12 (a degenerate
    system).
    """
    budget = special.MAX_ORDER - 1 if n_modes is None else int(n_modes)
    if not 1 <= budget < special.MAX_ORDER:
        raise ValueError(f"mode budget {budget} outside 1 .. "
                         f"{special.MAX_ORDER - 1}, the order cap")

    systems, rhs, jp, js = _modal_systems(config, budget)
    A, B, C = [], [], []
    largest = 0.0
    for n in range(budget):
        E, e = systems[n], rhs[n]
        # an entry of E_n or of the residual that overflows is a failed mode
        try:
            if not (np.all(np.isfinite(E)) and np.all(np.isfinite(e))):
                raise FloatingPointError("E_n or e_n overflowed the "
                                         "floating-point range")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                X = np.linalg.solve(E, e)
                backward = np.abs(E @ X - e).max() / (
                    np.abs(E).sum(1).max() * np.abs(X).max() + np.abs(e).max())
                scaled = E / np.abs(E).max(axis=0)
                scaled /= np.abs(scaled).max(axis=1, keepdims=True)
                sigma = np.linalg.svd(scaled, compute_uv=False)
                # the field term of the docstring; E[2, 0] is H_n(k R0)
                term = (n + 1) ** 2 * max(abs(X[0] * E[2, 0]),
                                          abs(X[1] * jp[n]),
                                          abs(X[2] * js[n]))
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise SingularModeError(f"mode {n}: {exc}") from exc
        if backward > 1e-14 or sigma[-1] < 1e-12 * sigma[0]:
            raise SingularModeError(
                f"mode {n}: backward error {backward:.3e}, equilibrated "
                f"sigma_min/sigma_max {sigma[-1] / sigma[0]:.3e}; "
                "configuration near resonance?")
        largest = max(largest, term)
        if largest > 0.0 and term < 1e-16 * largest and n > 2:
            break
        A.append(X[0]); B.append(X[1]); C.append(X[2])
    if n_modes is None and len(A) == budget:
        raise ValueError(f"k R0 = {config.k * config.R0:g}: the default "
                         f"budget of {budget} modes ends before the tail stop")

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


def _sector_phases(M: int, sectors: int):
    """cos and sin of 2 pi n j / sectors for sectors j and orders n < M,
    shape (sectors, M).  n j is reduced mod sectors in integers first, so
    row 0 is exactly (1, 0) and no angle reaches 2 pi."""
    angle = (2.0 * np.pi / sectors) * (
        np.outer(np.arange(sectors), np.arange(M)) % sectors)
    return np.cos(angle), np.sin(angle)


def _rotated_rows(cos_c, sin_c, phases):
    """Rows (..., sectors, 2M) of f(t + 2 pi j / sectors) against the basis
    rows [R_n cos(nt); R_n sin(nt)], n < M, where
    f(t) = sum_n R_n (cos_c[n] cos(nt) + sin_c[n] sin(nt)): angle addition
    with the phases of ``_sector_phases``."""
    cj, sj = phases
    c, s = cos_c[..., None, :], sin_c[..., None, :]
    return np.concatenate([c * cj + s * sj, s * cj - c * sj], axis=-1)


def _cached_rows(sol: SeriesSolution, build, sectors: int) -> np.ndarray:
    """Real rows (sectors, outputs, re/im, kinds * 2(L+1)) of the mode sums
    whose exponential coefficients (outputs, kinds, 2L+1) and L are
    ``build(sol)``, against the real basis [Z_l cos(lt); Z_l sin(lt)],
    l = 0..L, of each kind's radial table Z; built once per solution and
    sector count."""
    if sectors < 1:
        raise ValueError("sectors must be a positive integer")
    key = (build, sectors)
    if key not in sol._rows:
        outputs, L = build(sol)
        rows = _rotated_rows(*_trigonometric(outputs, L),
                             _sector_phases(L + 1, sectors))
        rows = rows.transpose(2, 0, 1, 3).reshape(sectors, len(outputs), -1)
        rows = np.stack([rows.real, rows.imag], axis=2)
        rows.setflags(write=False)
        sol._rows[key] = rows
    return sol._rows[key]


def _sectored(v: np.ndarray, shape: tuple) -> np.ndarray:
    """(sectors, points, ...) to (sectors,) + shape + (...), without the
    sector axis for a single sector."""
    lead = v.shape[:1] if len(v) > 1 else ()
    return v.reshape(lead + shape + v.shape[2:])


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


def _re_im(E: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex table (M, n) as one strided
    view (2, M, n): [cos(nt); sin(nt)] of an angle table, [Re H_n; Im H_n]
    of a Hankel table."""
    return E.view(float).reshape(E.shape + (2,)).transpose(2, 0, 1)


def _h_table(M: int, x: np.ndarray) -> np.ndarray:
    """H^(1)_n(x) for orders 0..M, shape (M+1, len(x)).

    Forward recurrence H_{n+1} = (2n/x) H_n - H_{n-1} from scipy's H_0 and
    H_1; stable because the Y_n part dominates (DLMF 10.6.1).
    """
    H = np.empty((M + 1, x.size), dtype=complex)
    H[0] = _sp.hankel1(0, x)
    H[1] = _sp.hankel1(1, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.multiply.outer(2.0 * np.arange(M), 1.0 / x)   # 2n / x
        for n in range(1, M):
            H[n + 1] = scale[n] * H[n] - H[n - 1]
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
        scale = np.multiply.outer(2.0 * np.arange(M + 1), 1.0 / x)
        for n in range(M, 0, -1):
            J[n - 1] = scale[n] * J[n] - J[n + 1]
        J *= (J[0] * _sp.j0(x) + J[1] * _sp.j1(x)) / (J[0] ** 2 + J[1] ** 2)
    if np.any(tiny):
        J[:, tiny] = _sp.jv(np.arange(M + 2)[:, None], x[None, tiny])
    return J


def _j_tables(M: int, x: np.ndarray) -> np.ndarray:
    """``_j_table`` of each half of x, contiguous (2, M+2, len(x) / 2), from
    one recurrence over all of x: every step is elementwise, so each half is
    its own call's table bitwise."""
    return np.ascontiguousarray(
        _j_table(M, x).reshape(M + 2, 2, -1).transpose(1, 0, 2))


def _exponential(cos_c, sin_c, L: int) -> np.ndarray:
    """e_m, m = -L..L at index m + L, such that sum_m e_m J_m e^{imt} is
    sum_n J_n (cos_c[n] cos(nt) + sin_c[n] sin(nt)), by J_{-n} = (-1)^n J_n.
    """
    n = np.arange(1, cos_c.shape[-1])
    e = np.zeros(cos_c.shape[:-1] + (2 * L + 1,), dtype=complex)
    e[..., L] = cos_c[..., 0]
    e[..., L + n] = 0.5 * (cos_c[..., 1:] - 1j * sin_c[..., 1:])
    e[..., L - n] = (0.5 * (-1.0) ** n) * (cos_c[..., 1:]
                                           + 1j * sin_c[..., 1:])
    return e


def _trigonometric(e: np.ndarray, L: int):
    """The inverse of ``_exponential``: (cos_c, sin_c) for orders 0..L."""
    n = np.arange(1, L + 1)
    up, down = e[..., L + n], (-1.0) ** n * e[..., L - n]
    return (np.concatenate([e[..., L:L + 1], up + down], axis=-1),
            np.concatenate([np.zeros_like(e[..., :1]), 1j * (up - down)],
                           axis=-1))


def _pressure_modes(sol: SeriesSolution):
    """Exponential coefficients (3 outputs, 2 kinds, 2M+1) of p, dp/dx and
    dp/dy, and L = M, for the kinds Re H_l(kr) and Im H_l(kr), l = 0..M,
    t = theta - alpha.

    D+- maps H_m(kr) e^{im theta} to -+k H_{m+-1}(kr) e^{i(m+-1) theta}, as
    it maps J_m in ``_displacement_modes`` (DLMF 10.6.2), so dp/dx +- i dp/dy
    are p's modes shifted by +-1.  A complex coefficient c on H_l is c on
    Re H_l and ic on Im H_l.  p's rows come out as exactly A_n on cos(nt)
    and 0 on sin(nt), so a single sector's p(-t) is p(t) bitwise.
    """
    cfg = sol.config
    L = sol.n_modes     # the largest order after a shift by 1
    a = sol.pressure_coeffs
    e = _exponential(a, np.zeros_like(a), L)
    turn = np.exp(1j * _incidence_angle(cfg))    # e^{i alpha}
    w = -cfg.k * turn * np.roll(e, 1)            # dp/dx + i dp/dy
    v = cfg.k * np.conj(turn) * np.roll(e, -1)   # dp/dx - i dp/dy
    outputs = np.stack([e, 0.5 * (w + v), -0.5j * (w - v)])
    return np.stack([outputs, 1j * outputs], axis=1), L


def _displacement_modes(sol: SeriesSolution):
    """Exponential coefficients (6 outputs, 2 kinds, 2M+3) of u_x, u_y,
    du_x/dx, du_x/dy, du_y/dx and du_y/dy, and L = M+1, for the kinds
    J_l(k_p r) and J_l(k_s r), l = 0..M+1, t = theta - alpha.

    With D+- = d_x +- i d_y, u_x + i u_y = D+(phi - i psi) and
    u_x - i u_y = D-(phi + i psi), and D+- maps J_m(kr) e^{im theta} to
    -+k J_{m+-1}(kr) e^{i(m+-1) theta}.  So u_x +- i u_y are the potentials'
    modes shifted by +-1, and the Jacobian comes from D+-(u_x +- i u_y),
    shifted by +2, 0, 0 and -2: every output is a mode sum with no 1/r, at
    the origin too, and turns with the sector as any mode sum does.
    """
    cfg = sol.config
    L = sol.n_modes + 1     # the largest order after a shift by 2
    B, C, zero = sol.comp_coeffs, sol.shear_coeffs, np.zeros(sol.n_modes)
    # [potential: phi at k_p, psi at k_s][phi - i psi, phi + i psi][m]
    e = _exponential(np.array([[B, B], [zero, zero]]),
                     np.array([[zero, zero], [-1j * C, 1j * C]]), L)
    minus, plus = e[:, 0], e[:, 1]
    kappa = np.array([[cfg.k_p], [cfg.k_s]])
    turn = np.exp(1j * _incidence_angle(cfg))   # e^{i alpha}
    w = -kappa * turn * np.roll(minus, 1, axis=-1)          # u_x + i u_y
    v = kappa * np.conj(turn) * np.roll(plus, -1, axis=-1)  # u_x - i u_y
    dw_plus = kappa ** 2 * turn ** 2 * np.roll(minus, 2, axis=-1)
    dw_minus = -kappa ** 2 * minus
    dv_plus = -kappa ** 2 * plus
    dv_minus = kappa ** 2 * np.conj(turn) ** 2 * np.roll(plus, -2, axis=-1)
    # D+ w = shear + i twist, D- v = shear - i twist, D- w = div + i curl
    # and D+ v = div - i curl, with shear = du_x/dx - du_y/dy,
    # twist = du_x/dy + du_y/dx and curl = du_y/dx - du_x/dy
    div, curl = 0.5 * (dw_minus + dv_plus), -0.5j * (dw_minus - dv_plus)
    shear, twist = 0.5 * (dw_plus + dv_minus), -0.5j * (dw_plus - dv_minus)
    outputs = np.stack([0.5 * (w + v), -0.5j * (w - v),
                        0.5 * (div + shear), 0.5 * (twist - curl),
                        0.5 * (twist + curl), 0.5 * (div - shear)])
    return outputs, L


def _mode_sums(sol: SeriesSolution, build, radial, rf, tf, groups: tuple,
               sectors: int) -> list:
    """The first sum(groups) outputs of ``build``'s rows (``_cached_rows``)
    at the points (rf, tf) for every sector, as complex arrays
    (sectors, points, size), one per group size.  ``radial(radii)`` gives
    the real radial tables (kinds, orders, radii), contiguous so that
    ``take`` copies no more than its columns: built once per distinct
    radius (quadrature points share radii) and gathered per block.  Each
    block's sums are one real GEMM, written through the outputs' float
    views (sector, point, output and re/im).
    """
    n_out = sum(groups)
    rows = _cached_rows(sol, build, sectors)[:, :n_out]
    rows = rows.reshape(sectors * 2 * n_out, -1)
    tp = tf - _incidence_angle(sol.config)
    radii, at = np.unique(rf, return_inverse=True)
    tables = radial(radii)
    outs = [np.empty((sectors, rf.size, n), dtype=complex) for n in groups]
    parts = (slice(0, 2 * groups[0]), slice(2 * groups[0], 2 * n_out))
    for blk in (slice(i, i + _BLOCK) for i in range(0, rf.size, _BLOCK)):
        Z = tables.take(at[blk], axis=2)
        basis = Z[:, None] * _re_im(_angle_table(Z.shape[1], tp[blk]))
        sums = (rows @ basis.reshape(rows.shape[1], -1)).reshape(
            sectors, 2 * n_out, -1)
        for out, part in zip(outs, parts):
            out.view(float)[:, blk] = sums[:, part].transpose(0, 2, 1)
    return outs


def eval_pressure(sol: SeriesSolution, r, theta, with_gradient: bool = False,
                  check_domain: bool = True, sectors: int = 1):
    """Scattered pressure at (r, theta); optionally its gradient.

    Returns p, or (p, grad) with with_gradient=True and grad[..., :] =
    (dp/dx, dp/dy), Cartesian as ``eval_displacement``'s Jacobian; a scalar
    point gives a complex p and a grad of shape (2,).  With sectors=S > 1
    every output gains a leading axis of length S whose entry j is taken at
    (r, theta + 2 pi j / S): the tables are built for the given points only,
    and each sector is a product with phases on the mode axis.  The series
    converges for any r > 0 but only represents the physical field for
    r >= R0; check_domain=False lifts the domain guard for quadrature points
    of boundary triangles that cut the interface chord.
    """
    cfg = sol.config
    rf, tf, shape = _broadcast(r, theta)
    if check_domain and np.any(rf < cfg.R0 * (1.0 - 1e-12)):
        raise ValueError("pressure series evaluated inside the solid (r < R0)")

    p, *grad = _mode_sums(
        sol, _pressure_modes,
        lambda radii: np.ascontiguousarray(
            _re_im(_h_table(sol.n_modes, cfg.k * radii))),
        rf, tf, (1, 2) if with_gradient else (1,), sectors)
    p = _sectored(p[..., 0], shape)
    if shape == () and sectors == 1:
        p = complex(p)
    return (p, _sectored(grad[0], shape)) if with_gradient else p


def eval_displacement(sol: SeriesSolution, r, theta,
                      with_gradient: bool = False, check_domain: bool = True,
                      sectors: int = 1):
    """Solid displacement (Cartesian 2-vector), optionally with its Jacobian
    du_i/dx_j.  Shapes: u (..., 2), jacobian (..., 2, 2); with sectors=S > 1
    both gain a leading axis of length S, as in ``eval_pressure``."""
    cfg = sol.config
    rf, tf, shape = _broadcast(r, theta)
    if check_domain and np.any(rf > cfg.R0 * (1.0 + 1e-12)):
        raise ValueError("displacement series evaluated outside the solid")

    u, *jac = _mode_sums(
        sol, _displacement_modes, lambda radii: _j_tables(
            sol.n_modes, np.concatenate([cfg.k_p * radii, cfg.k_s * radii])),
        rf, tf, (2, 4) if with_gradient else (2,), sectors)
    u = _sectored(u, shape)
    if not with_gradient:
        return u
    return u, _sectored(jac[0].reshape(jac[0].shape[:2] + (2, 2)), shape)


def trace_mode_coefficients(sol: SeriesSolution) -> np.ndarray:
    """Exponential-basis coefficients of p on the artificial circle r = R.

    p(R, t) = sum_m c_m e^{i m (t - incidence angle)} with c_0 = A_0 H_0(kR)
    and c_{+-n} = A_n H_n(kR)/2; suitable input for the mode-space operator
    checks in :mod:`dtnfem.dtn`.
    """
    a, x = sol.pressure_coeffs, sol.config.k * sol.config.R
    j, y = _sp.jv(np.arange(len(a)), x), _sp.yv(np.arange(len(a)), x)
    # A_n H_n(kR) in real arithmetic: numpy's complex array product may fuse
    # its multiply-adds, a product of two complex scalars does not
    val = np.empty_like(a)
    val.real, val.imag = a.real * j - a.imag * y, a.real * y + a.imag * j
    return np.concatenate([0.5 * val[:0:-1], val[:1], 0.5 * val[1:]])
