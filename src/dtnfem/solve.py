"""Sparse solution and pointwise evaluation of the discrete fields.

A single system is solved directly (``solve_linear``).  A truncation sweep
solves every order N from one factorization of the N-independent matrix A0
(``LowRankSweep``): with V = P U, the system A0 - V D V^T is solved by the
Woodbury identity

    x = y + W c,   y = A0^{-1} b,   (I - D S) c = D V^T y,

with W = A0^{-1} V and S = V^T W.  The per-curve set-up factors A0 and
forms y, W and S at the largest order; W is kept, so order N takes the
leading 2N+1 columns of W and the leading (2N+1)^2 block of the capacitance
matrix I - D S, and solves no system with A0.  A0 and V are real, so A0 is
factored in real arithmetic and W is real.  Each order's capacitance solve
runs once, and the sweep keeps c_N of every order whose x passed the
residual gate, so a caller can work on x_N = y + W c_N in coefficient space
(``harness._SweepErrors`` reduces each row's errors that way).

Both factor in the nested-dissection order of the mesh pair
(``SystemBlocks.ordering``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import dtn as dtn_ops
from .assembly import FemSystem, SystemBlocks, _p1_geometry
from .config import PhysicalConfig
from .mesh import Mesh

__all__ = ["FieldSolution", "LowRankSweep", "SingularSystemError", "solve",
           "solve_linear", "evaluate_field"]

RESIDUAL_TOL = 1e-10
LOCATE_TOL = 1e-10   # smallest barycentric that still counts as inside
_SWEEP_BLOCK = 8     # columns of V per A0 solve while forming W


class SingularSystemError(RuntimeError):
    """Numerically singular system: a Jones-type resonance or a broken
    configuration.  Never silently regularized."""


def _relative_residual(matrix, x, rhs) -> float:
    return float(np.linalg.norm(matrix @ x - rhs)
                 / max(np.linalg.norm(rhs), 1e-300))


class _Factor:
    """Sparse LU with SuperLU's partial pivoting of P A P^T, the unknowns
    taken in the elimination ``ordering``.  ``solve`` takes and returns
    vectors in the unpermuted numbering."""

    def __init__(self, matrix: sp.spmatrix, ordering: np.ndarray):
        self._ordering = ordering
        self._lu = spla.splu(matrix.tocsr()[ordering][:, ordering].tocsc(),
                             permc_spec="NATURAL")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self._ordering] = self._lu.solve(rhs[self._ordering])
        return x


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray, ordering: np.ndarray):
    """Sparse LU with partial pivoting in the elimination ``ordering``
    (``FemSystem.ordering``) plus a hard post-solve residual check; returns
    (x, relative residual)."""
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.shape[0]:
        raise ValueError("system matrix and right-hand side sizes disagree")
    try:
        lu = _Factor(matrix.astype(complex), ordering)
        x = lu.solve(rhs.astype(complex))
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    residual = _relative_residual(matrix, x, rhs)
    if residual > RESIDUAL_TOL:
        raise SingularSystemError(
            f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL:g}; "
            "system is numerically singular")
    return x, residual


class LowRankSweep:
    """Every truncation order N <= ``order`` of one SystemBlocks from a single
    real LU of A0, each order by the Woodbury identity (module docstring) for
    the load of the blocks.

    A0 has a natural (Neumann) condition at R, so it can be singular at
    isolated k while every A0 - P B P^T is not: when SuperLU cannot factor
    A0, or an order's answer is non-finite or misses RESIDUAL_TOL against the
    full system matrix, that order is solved by ``solve_linear`` instead.
    """

    def __init__(self, blocks: SystemBlocks, order: int):
        self.order = order
        self.kept = {}   # order -> c_N of every x that passed the gate
        self._c = {}     # order -> c_N, or None if its solve was singular
        self._dofs = blocks.dof_map.pressure(blocks.trace_r.node_indices)
        self._columns, self._weights = dtn_ops.dtn_factor(
            blocks.trace_r, blocks.config.k, blocks.config.R, order)
        # A0 is real; the ``real`` of a complex CSR matrix shares its data,
        # so copy before dropping the empty DtN slots (they would only add
        # fill), or blocks.matrix0 itself would lose them
        a0 = blocks.matrix0.real.copy()
        a0.eliminate_zeros()
        try:
            self._lu = _Factor(a0, blocks.ordering)
        except RuntimeError:     # A0 exactly singular: every order goes direct
            self._lu = None
            return
        # W = A0^{-1} V, a few columns at a time, in Fortran order so that an
        # order's leading columns are one contiguous block
        n, r = a0.shape[0], self._columns.shape[1]
        self.w = np.empty((n, r), order="F")
        for j in range(0, r, _SWEEP_BLOCK):
            cols = self._columns[:, j:j + _SWEEP_BLOCK]
            v = np.zeros((n, cols.shape[1]))
            v[self._dofs] = cols
            self.w[:, j:j + _SWEEP_BLOCK] = self._lu.solve(v)
        self._s = self._columns.T @ self.w[self._dofs]
        # y = A0^{-1} b: assemble_system hands every order a copy of this load
        y = self._lu.solve(np.column_stack([blocks.load.real,
                                            blocks.load.imag]))
        self._y = y[:, 0] + 1j * y[:, 1]

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
        N = system.config.N
        c = self.coefficients(N) if N <= self.order else None
        if c is not None:
            x = self.combine(c)
            if np.all(np.isfinite(x)):
                residual = _relative_residual(system.matrix, x, system.rhs)
                if residual <= RESIDUAL_TOL:
                    self.kept[N] = c
                    return x, residual
        return solve_linear(system.matrix, system.rhs, system.ordering)


@dataclass(frozen=True)
class FieldSolution:
    """Nodal displacement over the disc and nodal pressure over the annulus."""

    u_nodal: np.ndarray        # (n_solid, 2) complex
    p_nodal: np.ndarray        # (n_fluid,) complex
    config: PhysicalConfig
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
    x, residual = (solve_linear(system.matrix, system.rhs, system.ordering)
                   if sweep is None else sweep.solve(system))
    ns = system.dof_map.n_solid_nodes
    return FieldSolution(
        u_nodal=x[:2 * ns].reshape(ns, 2),
        p_nodal=x[2 * ns:],
        config=system.config,
        disc_mesh=system.disc_mesh,
        annulus_mesh=system.annulus_mesh,
        residual=residual,
    )


class _Locator:
    """Point location by one vectorised barycentric test of every triangle,
    from each triangle's origin node and the constant gradients of lambda_1
    and lambda_2 (``assembly._p1_geometry``)."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        g, _ = _p1_geometry(mesh)
        x0 = mesh.nodes[mesh.triangles[:, 0]]
        self._x0, self._y0 = x0[:, 0].copy(), x0[:, 1].copy()
        self._g1x, self._g1y = g[:, 1, 0].copy(), g[:, 1, 1].copy()
        self._g2x, self._g2y = g[:, 2, 0].copy(), g[:, 2, 1].copy()

    def locate(self, point):
        """Lowest-index triangle holding the point, and its barycentrics."""
        x, y = (float(c) for c in point)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"point {tuple(point)} is not finite")
        dx, dy = x - self._x0, y - self._y0
        lam1 = self._g1x * dx + self._g1y * dy
        lam2 = self._g2x * dx + self._g2y * dy
        lam0 = 1.0 - lam1 - lam2
        inside = ((lam0 >= -LOCATE_TOL) & (lam1 >= -LOCATE_TOL)
                  & (lam2 >= -LOCATE_TOL))
        t = int(np.argmax(inside))
        if not inside[t]:
            raise ValueError(f"point {tuple(point)} lies outside the mesh")
        lam = np.clip([lam0[t], lam1[t], lam2[t]], 0.0, None)
        return t, lam / np.sum(lam)


def evaluate_field(sol: FieldSolution, point, which: str):
    """Barycentric P1 interpolation of 'u' (2-vector) or 'p' (scalar)."""
    if which == "u":
        locator, values = sol._disc_locator, sol.u_nodal
    elif which == "p":
        locator, values = sol._annulus_locator, sol.p_nodal
    else:
        raise ValueError("which must be 'u' or 'p'")
    t, lam = locator.locate(point)
    out = np.tensordot(lam, values[locator.mesh.triangles[t]], axes=(0, 0))
    return out if which == "u" else complex(out)
