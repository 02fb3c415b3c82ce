"""Sparse solution and pointwise evaluation of the discrete fields.

Every factorization works in sector-Fourier space (``_Factor``; README,
"How the systems are factored").  A polar mesh pair is invariant under the
turn by 2 pi / S, so in its sector table (``assembly.Sectors``) a system
matrix A is block-circulant, and one FFT over the sectors splits it into S
blocks A_m (Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986), each
sector 0's rows of A times the phases of F_m.  As D A is symmetric, block
-m is D^-1 P A_m^T P D, P swapping v+ and v-: blocks 0..S//2 are factored
and block -m is a transposed solve.  A matrix without a table is one
sector.  ``solve_linear`` gates the residual against the full matrix.

A truncation sweep solves every order N from one factorization of the
N-independent matrix A0 (``LowRankSweep``): with V = P U, the system
A0 - V D V^T is solved by the Woodbury identity

    x = y + W c,   y = A0^{-1} b,   (I - D S) c = D V^T y,

with W = A0^{-1} V and S = V^T W.  The per-curve set-up factors A0 and
forms y, W and S at the largest order; W is kept, so order N takes the
leading 2N+1 columns of W and the leading (2N+1)^2 block of the capacitance
matrix I - D S, and solves no system with A0.  Mode n of V lives in blocks
m = +-n (mod S) only, so W takes one block solve per column.  The sweep
keeps c_N of every order whose x passed the residual gate, so a caller
can work on x_N = y + W c_N in coefficient space (``harness._SweepErrors``);
its gate takes A0 x - V D V^T x - b, so no order forms its system matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import dtn as dtn_ops
from .assembly import FemSystem, Sectors, SystemBlocks, _p1_geometry
from .config import PhysicalConfig
from .mesh import Mesh

__all__ = ["FieldSolution", "LowRankSweep", "SingularSystemError", "solve",
           "solve_linear", "evaluate_field"]

RESIDUAL_TOL = 1e-10
LOCATE_TOL = 1e-10   # smallest barycentric that still counts as inside
_V = np.sqrt(0.5) * np.array([[1, 1j], [1, -1j]])   # (u_x, u_y) -> v+-


class SingularSystemError(RuntimeError):
    """Numerically singular system: a Jones-type resonance or a broken
    configuration.  Never silently regularized."""


def _relative_residual(ax, rhs) -> float:
    return float(np.linalg.norm(ax - rhs) / max(np.linalg.norm(rhs), 1e-300))


def _pairs(z: np.ndarray, p: int, m: np.ndarray) -> np.ndarray:
    """z with each pair (z[2i], z[2i+1]), 2i < p, mapped by m, in place."""
    a, b = z[0:p:2], z[1:p:2]
    z[0:p:2], z[1:p:2] = m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
    return z


class _Factor:
    """LU of a matrix in sector-Fourier space (module docstring); a SuperLU
    failure in any block raises its RuntimeError."""

    def __init__(self, matrix: sp.spmatrix, sectors: Sectors | None):
        n = matrix.shape[0]
        sec = self._sec = sectors or Sectors(np.arange(n)[None], 0, 1.0)
        S, Q = sec.orbits.shape
        paired = sec.orbits[0] < sec.pairs
        self._fixed = np.all(sec.orbits == sec.orbits[0], axis=0)
        self._shift = np.where(paired, 1 - 2 * (sec.orbits[0] & 1), 0)
        # D, over S at the centre, which F copies into S rows by 1/sqrt(S)
        self._scale = (np.where(paired, sec.scale, 1.0)
                       / np.where(self._fixed, S, 1))[:, None]
        self._slot, self._sector = np.empty(n, np.int64), np.empty(n, np.int64)
        self._slot[sec.orbits], self._sector[sec.orbits] = np.arange(Q), \
            np.arange(S)[:, None]
        self._swap = self._slot[sec.orbits[0] ^ paired]
        self._m, self._q = np.arange(S)[:, None], np.arange(Q)
        self._lu = [spla.splu(block, permc_spec="MMD_AT_PLUS_A")
                    for block in self._blocks(matrix, range(S // 2 + 1))]

    def _blocks(self, matrix: sp.spmatrix, ms):
        """Blocks A_m, m in ``ms``, as CSC matrices, from sector 0's rows."""
        (S, Q), p, n = self._sec.orbits.shape, self._sec.pairs, len(self._slot)
        t_h = sp.block_diag([sp.kron(sp.identity(p // 2), _V),
                             sp.identity(n - p)], format="csr")
        rows = (t_h[self._sec.orbits[0]] @ matrix @ t_h.conj().T).tocoo()
        r, q, j = rows.row, self._slot[rows.col], self._sector[rows.col]
        turns = np.exp(2j * np.pi * np.arange(S) / S)
        for m in ms:
            on = ~self._fixed | ((m + self._shift) % S == 0)
            keep, off = on[r] & on[q], np.flatnonzero(~on)
            phase = turns[(m + self._shift[q[keep]]) * j[keep] % S]
            yield sp.csc_matrix((
                np.append(rows.data[keep] * phase, np.ones(len(off))),
                (np.append(r[keep], off), np.append(q[keep], off))),
                shape=(Q, Q))

    def _solve_block(self, m: int, b: np.ndarray) -> np.ndarray:
        S = len(self._m)
        if m <= S // 2:
            return self._lu[m].solve(b)
        d, swap = self._scale, self._swap
        return self._lu[S - m].solve((d * b)[swap], trans="T")[swap] / d

    def _forward(self, b: np.ndarray) -> np.ndarray:
        """(n, k) unknowns -> (S, Q, k), row m block m's load."""
        z = _pairs(b.astype(complex), self._sec.pairs, _V)
        f = np.fft.fft(z[self._sec.orbits], axis=0, norm="ortho")
        return f[(self._m + self._shift) % len(f), self._q]

    def _backward(self, x: np.ndarray) -> np.ndarray:
        """The inverse of ``_forward``, read at each unknown's own slot."""
        S, Q = self._sec.orbits.shape
        z = np.fft.ifft(x[(self._m - self._shift) % S, self._q], axis=0,
                        norm="ortho").reshape(S * Q, -1)
        return _pairs(np.take(z, self._sector * Q + self._slot, axis=0),
                      self._sec.pairs, _V.conj().T)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs, complex, for rhs of shape (n,) or (n, k)."""
        b = self._forward(rhs.reshape(len(rhs), -1))
        for m in range(len(b)):
            b[m] = self._solve_block(m, b[m])
        return self._backward(b).reshape(rhs.shape)

    def solve_modes(self, rows, columns, modes, out):
        """out = A^-1 V for a real A and the real V that is ``columns`` on
        the pressures ``rows`` and 0 elsewhere, column c the angular mode
        ``modes[c]``: it lives in blocks m = +-modes[c] (mod S) only, and
        block -m is P conj(block m)."""
        S = len(self._m)
        slots, at = np.unique(self._slot[rows], return_inverse=True)
        v = np.zeros((S, len(slots), columns.shape[1]))
        v[self._sector[rows], at] = columns
        v = np.fft.fft(v, axis=0, norm="ortho")
        for m in range(S // 2 + 1):
            cols = np.flatnonzero(((modes - m) % S == 0)
                                  | ((modes + m) % S == 0))
            if len(cols):
                x = np.zeros((S, len(self._q), len(cols)), complex)
                x[m, slots] = v[m][:, cols]
                x[m] = self._lu[m].solve(x[m])
                if m != -m % S:
                    x[-m % S] = x[m].conj()[self._swap]
                out[:, cols] = self._backward(x).real


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray,
                 sectors: Sectors | None = None):
    """Sparse LU with partial pivoting in sector-Fourier space through
    ``sectors`` (``FemSystem.sectors``; None for one sector) plus a hard
    post-solve residual check; returns (x, relative residual)."""
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.shape[0]:
        raise ValueError("system matrix and right-hand side sizes disagree")
    try:
        x = _Factor(matrix, sectors).solve(rhs)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    residual = _relative_residual(matrix @ x, rhs)
    if residual > RESIDUAL_TOL:
        raise SingularSystemError(
            f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL:g}; "
            "system is numerically singular")
    return x, residual


class LowRankSweep:
    """Every truncation order N <= ``order`` of one SystemBlocks from a single
    LU of the real A0, each order by the Woodbury identity (module
    docstring) for the load of the blocks.  V and D are the columns and
    weights of ``dtn.dtn_factor`` at ``order``; the leading 2N+1 of them
    are the factor of the B_N that ``dtn.assemble_dtn_matrix`` forms.

    A0 has a natural (Neumann) condition at R, so it can be singular at
    isolated k while every A0 - P B P^T is not: when SuperLU cannot factor
    A0, or an order's answer is non-finite or its residual A0 x - V D V^T x
    - b, which reads no ``FemSystem.matrix``, misses RESIDUAL_TOL, that
    order is solved by ``solve_linear`` instead.
    """

    def __init__(self, blocks: SystemBlocks, order: int):
        self.order = order
        self.kept = {}   # order -> c_N of every x that passed the gate
        self._c = {}     # order -> c_N, or None if its solve was singular
        self._a0 = blocks.matrix0
        self._dofs = blocks.dof_map.pressure(blocks.trace_r.node_indices)
        self._columns, self._weights = dtn_ops.dtn_factor(
            blocks.trace_r, blocks.config.k, blocks.config.R, order)
        try:   # A0 is real; _Factor's sparse products drop its zeros
            self._lu = _Factor(blocks.matrix0.real, blocks.sectors)
        except RuntimeError:     # A0 exactly singular: every order goes direct
            self._lu = None
            return
        # W = A0^{-1} V in Fortran order, so that an order's leading columns
        # are one contiguous block; column 2n-1 and 2n are mode n
        r = self._columns.shape[1]
        self.w = np.empty((len(blocks.load), r), order="F")
        self._lu.solve_modes(self._dofs, self._columns,
                             (np.arange(r) + 1) // 2, self.w)
        self._s = self._columns.T @ self.w[self._dofs]
        # y = A0^{-1} b: every order's system shares this read-only load
        self._y = self._lu.solve(blocks.load)

    def coefficients(self, N: int):
        """c_N of order N, or None when the capacitance matrix is exactly
        singular or A0 could not be factored; solved once per order."""
        if self._lu is None:
            return None
        if N not in self._c:
            r = 2 * N + 1
            u, d = self._columns[:, :r], self._weights[:r]
            try:
                self._c[N] = np.linalg.solve(
                    np.eye(r) - d[:, None] * self._s[:r, :r],
                    d * (u.T @ self._y[self._dofs]))
            except np.linalg.LinAlgError:
                self._c[N] = None
        return self._c[N]

    def combine(self, c: np.ndarray) -> np.ndarray:
        """x = y + W c over the leading len(c) columns of W."""
        w = self.w[:, :len(c)]   # W @ c would copy W to complex every time
        return self._y + (w @ c.real + 1j * (w @ c.imag))

    def solve(self, system: FemSystem):
        """(x, relative residual) for one order, under the same gate as
        ``solve_linear``."""
        N = system.N
        c = self.coefficients(N) if N <= self.order else None
        if c is not None:
            x = self.combine(c)
            if np.all(np.isfinite(x)):
                ax, u, p = self._a0 @ x, self._columns[:, :len(c)], self._dofs
                ax[p] -= u @ (self._weights[:len(c)] * (u.T @ x[p]))
                residual = _relative_residual(ax, system.rhs)
                if residual <= RESIDUAL_TOL:
                    self.kept[N] = c
                    return x, residual
        return solve_linear(system.matrix, system.rhs, system.sectors)


@dataclass(frozen=True)
class FieldSolution:
    """Nodal displacement over the disc and nodal pressure over the annulus
    of the system of ``config`` at the truncation order ``N``."""

    u_nodal: np.ndarray        # (n_solid, 2) complex
    p_nodal: np.ndarray        # (n_fluid,) complex
    config: PhysicalConfig
    N: int
    disc_mesh: Mesh
    annulus_mesh: Mesh
    residual: float

    def __post_init__(self):
        self.u_nodal.setflags(write=False)
        self.p_nodal.setflags(write=False)

    # point location state lives and dies with the solution
    @cached_property
    def _disc_locator(self) -> _Locator:
        return _Locator(self.disc_mesh)

    @cached_property
    def _annulus_locator(self) -> _Locator:
        return _Locator(self.annulus_mesh)


def solve(system: FemSystem, sweep: LowRankSweep | None = None
          ) -> FieldSolution:
    """Direct solve, or through ``sweep`` when several truncation orders
    share one SystemBlocks."""
    x, residual = (solve_linear(system.matrix, system.rhs, system.sectors)
                   if sweep is None else sweep.solve(system))
    ns = system.dof_map.n_solid_nodes
    return FieldSolution(
        u_nodal=x[:2 * ns].reshape(ns, 2),
        p_nodal=x[2 * ns:],
        config=system.config,
        N=system.N,
        disc_mesh=system.disc_mesh,
        annulus_mesh=system.annulus_mesh,
        residual=residual,
    )


class _Locator:
    """Point location by a vectorised barycentric test, from each triangle's
    origin node and the constant gradients of lambda_1 and lambda_2
    (``assembly._p1_geometry``), laid out (6, S, T/S) by the mesh's rotation
    table (one row without one).  A point is tested first against the row of
    its angle's wedge (``Mesh.rotations``), and that answer stands only if
    every barycentric exceeds ``_margin``; any other point takes the test of
    every triangle.  Each triangle's arithmetic is the same in both, so only
    the speed depends on the layout."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        g, area = _p1_geometry(mesh)
        self._order = np.ascontiguousarray(
            np.arange(mesh.num_triangles)[None] if mesh.rotations is None
            else mesh.rotations)
        at = self._order.ravel()
        geom = np.empty((6, at.size))
        geom[:2] = np.take(mesh.nodes, mesh.triangles[at, 0], axis=0).T
        geom[2:] = np.take(g[:, 1:].reshape(-1, 4), at, axis=0).T
        self._geom = geom.reshape((6,) + self._order.shape)
        self._wedge = 2.0 * np.pi / len(self._order)
        # Barycentrics in t all above m put the point m H from t's edges, H
        # the smallest height, 1 / G for G the largest |grad lambda|.  A
        # triangle accepting it within LOCATE_TOL has a point within
        # 2 LOCATE_TOL D of it, D the largest diameter, outside t's interior.
        # Edge a is 2 area |grad lambda_a| long, so m = 3 LOCATE_TOL
        # 2 max(area) G^2 > 2 LOCATE_TOL D / H leaves t the only triangle
        # holding the point; the 3 covers the barycentrics' rounding.
        self._margin = 6.0 * LOCATE_TOL * np.max(area) * np.max(
            g[..., 0] ** 2 + g[..., 1] ** 2)

    @staticmethod
    def _barycentrics(geom, x, y):
        x0, y0, g1x, g1y, g2x, g2y = geom
        dx, dy = x - x0, y - y0
        lam1 = g1x * dx + g1y * dy
        lam2 = g2x * dx + g2y * dy
        return 1.0 - lam1 - lam2, lam1, lam2

    def locate(self, point):
        """Lowest-index triangle holding the point, and its barycentrics."""
        x, y = (float(c) for c in point)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"point {tuple(point)} is not finite")
        j = math.floor(math.atan2(y, x) / self._wedge) % len(self._order)
        lam = self._barycentrics(self._geom[:, j], x, y)
        low = np.minimum(np.minimum(lam[0], lam[1]), lam[2])
        i = int(np.argmax(low))
        if low[i] > self._margin:
            t = self._order[j, i]
        else:
            lam = self._barycentrics(self._geom.reshape(6, -1), x, y)
            inside = np.flatnonzero((lam[0] >= -LOCATE_TOL)
                                    & (lam[1] >= -LOCATE_TOL)
                                    & (lam[2] >= -LOCATE_TOL))
            if not inside.size:
                raise ValueError(f"point {tuple(point)} lies outside the mesh")
            order = self._order.ravel()
            i = inside[np.argmin(order[inside])]
            t = order[i]
        lam = np.clip([lam[0][i], lam[1][i], lam[2][i]], 0.0, None)
        return int(t), lam / np.sum(lam)


def evaluate_field(sol: FieldSolution, point, which: str):
    """Barycentric P1 interpolation of 'u' (2-vector) or 'p' (scalar)."""
    if which == "u":
        locator, values = sol._disc_locator, sol.u_nodal
    elif which == "p":
        locator, values = sol._annulus_locator, sol.p_nodal
    else:
        raise ValueError("which must be 'u' or 'p'")
    t, lam = locator.locate(point)
    out = lam @ values[locator.mesh.triangles[t]]
    return out if which == "u" else complex(out)
