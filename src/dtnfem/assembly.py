"""P1 assembly of the coupled solid displacement / fluid pressure system.

Blocks of the variational problem, in the unknown ordering
(u_x, u_y interleaved over disc nodes | p over annulus nodes):

    [ A1   C4 ] [u]   [ -integral_Gamma n p_inc . v ]
    [ C3  A2-B] [p] = [  integral_Gamma dp_inc/dn q ]

A1: elasticity form (lam div.div + 2 mu eps:eps - rho omega^2 mass) on the disc;
A2: Helmholtz form (stiffness - k^2 mass) on the annulus; C3/C4: interface
couplings through the outward normal of the solid; B: the truncated
absorbing-boundary matrix subtracted into the pressure-pressure block.  A1
and A2 are sums of scalar P1 matrices on one scatter map per mesh
(``_P1Map``); A0 = [[A1, C4], [C3, A2]], N-independent, is written once, and
each order N subtracts B = U diag(d) U^T (``dtn.assemble_dtn_matrix``) at
fixed slots of A0's pattern.  Every system of a polar mesh pair is factored
in sector-Fourier space (``solve`` module) through the pair's sector table
(``Sectors``).  Volume element integrals are exact for P1; boundary loads
use 4-point Gauss per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import dtn as dtn_ops
from .config import PhysicalConfig
from .mesh import GAMMA, GAMMA_R, BoundaryTrace, Mesh, boundary_trace

__all__ = [
    "DofMap", "FemSystem", "Sectors", "SystemBlocks", "PhysicalConfig",
    "assemble_elastic", "assemble_helmholtz", "assemble_coupling",
    "assemble_load", "assemble_blocks", "assemble_system",
]

# 4-point Gauss-Legendre on [-1, 1] for the oscillatory boundary loads
_GAUSS_X = np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526])
_GAUSS_W = np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538])


@dataclass(frozen=True)
class DofMap:
    """Unknown numbering: node i of the disc carries (2i, 2i+1); annulus node
    j carries 2*n_solid + j.  The two blocks never share an unknown, including
    on the interface circle where both meshes have nodes."""

    n_solid_nodes: int
    n_fluid_nodes: int

    @property
    def size(self) -> int:
        return 2 * self.n_solid_nodes + self.n_fluid_nodes

    def displacement(self, nodes, component):
        return 2 * np.asarray(nodes, dtype=np.int64) + component

    def pressure(self, nodes):
        return 2 * self.n_solid_nodes + np.asarray(nodes, dtype=np.int64)


def _p1_geometry(mesh: Mesh):
    """Constant barycentric gradients (T,3,2) and areas (T,)."""
    # take copies the (T, 3) node rows about 10x faster than nodes[triangles]
    p = np.take(mesh.nodes, mesh.triangles, axis=0)
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) \
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    if np.any(det <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    g = np.empty_like(p)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        g[:, a, 0], g[:, a, 1] = y[:, b] - y[:, c], x[:, c] - x[:, b]
    g /= det[:, None, None]
    return g, 0.5 * det


class _P1Map:
    """One mesh's scatter map (Cuvelier, Japhet & Scarella, BIT Numer. Math.
    56, 2016): its CSR pattern (``indptr``, ``indices``), the slots in it of
    the element entries (T, 3, 3) and, as ``extra``, of all ``dense`` node
    pairs, row-major; and on it K_xx, K_yy, K_xy (d_x phi_i d_x phi_j, ...)
    and M, each entry (u_a v_b) area summed in triangle order, so that
    (i, j) and (j, i) of K_xx, K_yy and M are the same sum bitwise."""

    def __init__(self, mesh: Mesh, dense=()):
        g, area = _p1_geometry(mesh)
        tri, n = mesh.triangles, np.int64(mesh.num_nodes)   # keys up to n^2
        dense = np.asarray(dense, dtype=np.int64)
        keys = np.append(tri[:, :, None] * n + tri[:, None, :],
                         dense[:, None] * n + dense)
        pairs, slots = np.unique(keys, return_inverse=True)
        self.indptr = np.searchsorted(pairs, np.arange(n + 1) * n)
        self.indices = pairs % n
        self.entries = slots[:tri.size * 3].reshape(-1, 3, 3)
        self.extra = slots[tri.size * 3:]

        def scatter(u, v=None):   # u_a v_b area, or u (T, 3, 3) area
            element = u if v is None else u[:, :, None] * v[:, None, :]
            return np.bincount(self.entries.ravel(), (
                element * area[:, None, None]).ravel(), len(self.indices))
        gx, gy = g[..., 0], g[..., 1]
        self.k_xx, self.k_yy = scatter(gx, gx), scatter(gy, gy)
        self.k_xy = scatter(gx, gy)
        self.mass = scatter((np.ones((1, 3, 3)) + np.eye(3)) / 12.0)

    def csr(self, data) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(len(self.indptr) - 1,) * 2)


def assemble_helmholtz(mesh: Mesh, k: float) -> sp.csr_matrix:
    """Stiffness - k^2 mass over the fluid region, exact P1 integration."""
    p = _P1Map(mesh)
    return p.csr(p.k_xx + p.k_yy - k ** 2 * p.mass)


def assemble_elastic(mesh: Mesh, lam: float, mu: float, rho: float,
                     omega: float) -> sp.csr_matrix:
    """lam div.div + 2 mu eps:eps - rho omega^2 mass over the solid disc; a
    node pair's 2x2 block (1, 0) is (0, 1) of its transpose, bitwise."""
    return _elastic(_P1Map(mesh), lam, mu, rho, omega)


def _elastic(p: _P1Map, lam, mu, rho, omega) -> sp.csr_matrix:
    """``assemble_elastic`` on the disc's scatter map."""
    tr = np.empty_like(p.indices)   # slot (i, j) -> slot (j, i)
    tr[p.entries] = p.entries.transpose(0, 2, 1)
    mass = rho * omega ** 2 * p.mass
    v = np.empty((len(tr), 2, 2))
    v[:, 0, 0] = (lam + 2 * mu) * p.k_xx + mu * p.k_yy - mass
    v[:, 1, 1] = (lam + 2 * mu) * p.k_yy + mu * p.k_xx - mass
    v[:, 0, 1] = lam * p.k_xy + mu * p.k_xy[tr]
    v[:, 1, 0] = v[tr, 0, 1]
    n = 2 * (len(p.indptr) - 1)
    return sp.bsr_matrix((v, p.indices, p.indptr), shape=(n, n)).tocsr()


@dataclass(frozen=True)
class _InterfaceEdges:
    """Paired interface edges: same geometry, two index spaces."""

    solid_nodes: np.ndarray   # (E, 2) disc node indices
    fluid_nodes: np.ndarray   # (E, 2) annulus node indices
    points: np.ndarray        # (E, 2, 2) endpoint coordinates
    normals: np.ndarray       # (E, 2) outward from the solid
    lengths: np.ndarray       # (E,)


def _interface_edges(disc_mesh: Mesh, annulus_mesh: Mesh) -> _InterfaceEdges:
    ts = boundary_trace(disc_mesh, GAMMA)
    tf = boundary_trace(annulus_mesh, GAMMA)
    ps = disc_mesh.nodes[ts.node_indices]
    pf = annulus_mesh.nodes[tf.node_indices]
    if len(ts) != len(tf) or np.max(np.abs(ps - pf)) > 1e-12 * ts.radius:
        raise ValueError("disc and annulus interface traces do not conform")

    nxt = np.roll(np.arange(len(ts)), -1)
    solid_nodes = np.column_stack([ts.node_indices, ts.node_indices[nxt]])
    fluid_nodes = np.column_stack([tf.node_indices, tf.node_indices[nxt]])
    points = np.stack([ps, ps[nxt]], axis=1)
    tangent = points[:, 1] - points[:, 0]
    lengths = np.linalg.norm(tangent, axis=1)
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]
    return _InterfaceEdges(solid_nodes, fluid_nodes, points, normals, lengths)


def assemble_coupling(disc_mesh: Mesh, annulus_mesh: Mesh, rho_f: float,
                      omega: float, dof_map: DofMap):
    """Interface blocks: C4 (displacement rows, pressure columns) discretizes
    integral_Gamma n p . v ds; C3 = rho_f omega^2 C4^T exactly, both built
    from the same edge mass integrals of linear traces."""
    edges = _interface_edges(disc_mesh, annulus_mesh)
    edge_mass = (np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])[None]
                 * edges.lengths[:, None, None])
    # entries[e, a, comp, b] = n_comp * integral(phi_a zeta_b)
    entries = edges.normals[:, None, :, None] * edge_mass[:, :, None, :]
    rows = dof_map.displacement(edges.solid_nodes[:, :, None, None],
                                np.arange(2)[None, None, :, None])
    cols = edges.fluid_nodes[:, None, None, :]
    c4 = sp.coo_matrix((entries.ravel(), (
        np.broadcast_to(rows, entries.shape).ravel(),
        np.broadcast_to(cols, entries.shape).ravel())),
        shape=(2 * dof_map.n_solid_nodes, dof_map.n_fluid_nodes)).tocsr()
    c3 = (rho_f * omega ** 2) * c4.T.tocsr()
    return c3, c4


def assemble_load(disc_mesh: Mesh, annulus_mesh: Mesh, config: PhysicalConfig,
                  dof_map: DofMap) -> np.ndarray:
    """Incident plane-wave functional over the interface circle."""
    edges = _interface_edges(disc_mesh, annulus_mesh)
    d, k = np.asarray(config.d), config.k

    # quadrature points on every edge at once: (E, Q, 2)
    lin = 0.5 * (1.0 + _GAUSS_X)
    pts = edges.points[:, 0, None, :] \
        + (edges.points[:, 1] - edges.points[:, 0])[:, None, :] * lin[None, :, None]
    pinc = np.exp(1j * k * (pts @ d))
    shapes = np.stack([1.0 - lin, lin], axis=0)            # (2, Q)
    jac = 0.5 * edges.lengths

    rhs = np.zeros(dof_map.size, dtype=complex)
    # pressure rows: + integral (ik d.n) p_inc zeta_a; displacement rows:
    # - integral n p_inc . v
    q_weight = (1j * k * (edges.normals @ d))[:, None] * pinc * _GAUSS_W
    v_weight = pinc * _GAUSS_W[None, :]
    for a in range(2):
        np.add.at(rhs, dof_map.pressure(edges.fluid_nodes[:, a]),
                  jac * np.sum(q_weight * shapes[a][None, :], axis=1))
        base = jac * np.sum(v_weight * shapes[a][None, :], axis=1)
        for comp in range(2):
            np.add.at(rhs, dof_map.displacement(edges.solid_nodes[:, a], comp),
                      -edges.normals[:, comp] * base)
    return rhs


@dataclass(frozen=True)
class Sectors:
    """Rotation-sector table of a mesh pair's unknowns (``solve`` module),
    in the basis where disc node i carries v+- = (u_x +- i u_y) / sqrt(2)
    at (2i, 2i+1), the first ``pairs`` unknowns.  ``orbits[j, q]`` is slot
    q's unknown turned by 2 pi j / S; the disc centre, which no turn moves,
    fills its columns.  D A is symmetric for D = diag(``scale`` =
    rho_f omega^2 on displacements, 1 on pressures)."""

    orbits: np.ndarray
    pairs: int
    scale: float


def _sectors(meshes, dof_map: DofMap, scale: float) -> Sectors | None:
    """The pair's sector table from the node orbits of the meshes' rotation
    tables, or None (one sector) if a mesh has none or they disagree on S."""
    orbits, radii = [], []
    for mesh in meshes:
        rot, tri = mesh.rotations, mesh.triangles
        if rot is None:
            return None
        turn = np.empty(mesh.num_nodes, dtype=np.int64)
        turn[tri[rot]] = tri[np.roll(rot, -1, axis=0)]
        powers = [np.arange(mesh.num_nodes)]
        for _ in rot[1:]:
            powers.append(turn[powers[-1]])
        powers = np.stack(powers)
        lead = powers.min(axis=0) == powers[0]   # each orbit's lowest node
        orbits.append(powers[:, lead])
        radii.append(np.hypot(*mesh.nodes[lead].T))
    disc, ring = orbits
    if len(disc) != len(ring):
        return None
    disc = dof_map.displacement(disc[..., None], np.arange(2))
    # slots by radius: SuperLU factors the thin wedge of a block faster so
    by = np.argsort(np.append(np.repeat(radii[0], 2), radii[1]), kind="stable")
    return Sectors(np.hstack([disc.reshape(len(disc), -1),
                              dof_map.pressure(ring)])[:, by],
                   2 * dof_map.n_solid_nodes, scale)


@dataclass(frozen=True)
class SystemBlocks:
    """N-independent pieces of the systems of one mesh pair and one physics,
    reusable across truncation orders.

    ``config`` is the physics the blocks were assembled with; its N is not
    used.  ``matrix0`` is A0 = [[A1, C4], [C3, A2]]; A1 and A2 are summed on
    the disc's and the annulus's scatter maps and keep their patterns, exact
    zeros included; A2's holds the dense GAMMA_R block, explicitly zero
    where no triangle reaches: ``dtn_slots`` are the row-major positions of
    that block in A0's data.  ``p1_forms`` holds, for the disc and then the
    annulus, the scalar P1 mass and stiffness matrices (M, K_xx + K_yy) on
    those patterns.
    ``sectors`` is the sector table every factorization of the pair's
    systems works in, or None for one sector.
    """

    disc_mesh: Mesh
    annulus_mesh: Mesh
    config: PhysicalConfig
    matrix0: sp.csr_matrix
    dtn_slots: np.ndarray
    load: np.ndarray
    dof_map: DofMap
    trace_r: BoundaryTrace
    p1_forms: tuple
    sectors: Sectors | None


@dataclass
class FemSystem:
    """The system A x = ``rhs`` of one mesh pair, physics and order N.  A
    (``matrix``, A0 - P B_N P^T) is formed on first read from the
    ``blocks``, which the system then lets go of, so that A0 can be freed
    before A is factored; a row ``solve.LowRankSweep`` solves never reads A."""

    rhs: np.ndarray
    dof_map: DofMap
    disc_mesh: Mesh
    annulus_mesh: Mesh
    config: PhysicalConfig
    sectors: Sectors | None
    blocks: SystemBlocks | None = field(repr=False)   # None once formed

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        a0, blocks, self.blocks = self.blocks.matrix0, self.blocks, None
        data = a0.data.copy()
        # positional, through the module: perfbench's DtN hook wraps
        # dtn_ops.assemble_dtn_matrix and keys on (trace, k, R, N)
        data[blocks.dtn_slots] -= dtn_ops.assemble_dtn_matrix(
            blocks.trace_r, self.config.k, self.config.R,
            self.config.N).ravel()
        return sp.csr_matrix((data, a0.indices, a0.indptr), shape=a0.shape)


def assemble_blocks(disc_mesh: Mesh, annulus_mesh: Mesh,
                    config: PhysicalConfig) -> SystemBlocks:
    dof_map = DofMap(disc_mesh.num_nodes, annulus_mesh.num_nodes)
    c3, c4 = assemble_coupling(disc_mesh, annulus_mesh, config.rho_f,
                               config.omega, dof_map)
    load = assemble_load(disc_mesh, annulus_mesh, config, dof_map)
    trace_r = boundary_trace(annulus_mesh, GAMMA_R)
    disc = _P1Map(disc_mesh)
    a1 = _elastic(disc, config.lam, config.mu, config.rho, config.omega)
    ring = _P1Map(annulus_mesh, trace_r.node_indices)
    a2 = ring.csr(ring.k_xx + ring.k_yy - config.k ** 2 * ring.mass)
    # A0 by rows: A1's entries then C4's, or C3's then A2's
    top = a1.indptr + c4.indptr
    indptr = np.append(top, top[-1] + c3.indptr[1:] + a2.indptr[1:])
    data, indices = np.empty(indptr[-1], complex), np.empty(indptr[-1], int)

    def place(block, before, column0):   # entry e of row r at e + before[r]
        at = np.arange(block.nnz) + np.repeat(before, np.diff(block.indptr))
        data[at], indices[at] = block.data, column0 + block.indices
        return at

    ns2 = 2 * dof_map.n_solid_nodes
    place(a1, c4.indptr[:-1], 0)
    place(c4, a1.indptr[1:], ns2)
    place(c3, top[-1] + a2.indptr[:-1], 0)
    dtn_slots = place(a2, top[-1] + c3.indptr[1:], ns2)[ring.extra]
    matrix0 = sp.csr_matrix((data, indices, indptr), shape=(dof_map.size,) * 2)
    return SystemBlocks(disc_mesh=disc_mesh, annulus_mesh=annulus_mesh,
                        config=config, matrix0=matrix0, dtn_slots=dtn_slots,
                        load=load, dof_map=dof_map, trace_r=trace_r,
                        p1_forms=tuple((p.csr(p.mass),
                                        p.csr(p.k_xx + p.k_yy))
                                       for p in (disc, ring)),
                        sectors=_sectors((disc_mesh, annulus_mesh), dof_map,
                                         config.rho_f * config.omega ** 2))


def assemble_system(blocks: SystemBlocks, N: int) -> FemSystem:
    """The system of the blocks' mesh pair and physics at the truncation
    order N; its matrix is formed on first read (``FemSystem``)."""
    return FemSystem(blocks.load.copy(), blocks.dof_map, blocks.disc_mesh,
                     blocks.annulus_mesh, replace(blocks.config, N=N),
                     blocks.sectors, blocks)
