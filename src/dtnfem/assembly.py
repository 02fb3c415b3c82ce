"""P1 assembly of the coupled solid displacement / fluid pressure system.

Blocks of the variational problem, in the unknown ordering
(u_x, u_y interleaved over disc nodes | p over annulus nodes):

    [ A1   C4 ] [u]   [ -integral_Gamma n p_inc . v ]
    [ C3  A2-B] [p] = [  integral_Gamma dp_inc/dn q ]

A1: elasticity form (lam div.div + 2 mu eps:eps - rho omega^2 mass) on the disc;
A2: Helmholtz form (stiffness - k^2 mass) on the annulus; C3/C4: interface
couplings through the outward normal of the solid; B: the truncated
absorbing-boundary matrix subtracted into the pressure-pressure block.  The
N-independent matrix A0 = [[A1, C4], [C3, A2]] is assembled once; each order
N subtracts its B = U diag(d) U^T at fixed slots of A0's pattern.  Every
system of a mesh pair is factored in one nested-dissection order
(``SystemBlocks.ordering``) built from the unknowns' coordinates.
Volume element integrals are exact for P1; boundary loads use 4-point Gauss
per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import dtn as dtn_ops
from .config import PhysicalConfig
from .mesh import GAMMA, GAMMA_R, BoundaryTrace, Mesh, boundary_trace

__all__ = [
    "DofMap", "FemSystem", "SystemBlocks", "PhysicalConfig",
    "assemble_elastic", "assemble_helmholtz", "assemble_coupling",
    "assemble_load", "assemble_blocks", "assemble_system",
]

_P1_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0

_ND_LEAF = 64   # parts of at most this many unknowns are not cut further

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
    p = mesh.nodes[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) \
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    if np.any(det <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    g = np.empty_like(p)
    g[:, 0, 0] = y[:, 1] - y[:, 2]
    g[:, 0, 1] = x[:, 2] - x[:, 1]
    g[:, 1, 0] = y[:, 2] - y[:, 0]
    g[:, 1, 1] = x[:, 0] - x[:, 2]
    g[:, 2, 0] = y[:, 0] - y[:, 1]
    g[:, 2, 1] = x[:, 1] - x[:, 0]
    g /= det[:, None, None]
    return g, 0.5 * det


def _symmetrize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    # element matrices are exactly symmetric, but the duplicate-summation
    # order differs between (i,j) and (j,i); restore bitwise symmetry
    return ((matrix + matrix.T) * 0.5).tocsr()


def assemble_helmholtz(mesh: Mesh, k: float) -> sp.csr_matrix:
    """Stiffness - k^2 mass over the fluid region, exact P1 integration."""
    g, area = _p1_geometry(mesh)
    ke = np.einsum("tad,tbd->tab", g, g) * area[:, None, None]
    ke = ke - k ** 2 * area[:, None, None] * _P1_MASS[None]
    rows = np.broadcast_to(mesh.triangles[:, :, None], ke.shape)
    cols = np.broadcast_to(mesh.triangles[:, None, :], ke.shape)
    n = mesh.num_nodes
    return _symmetrize(sp.coo_matrix(
        (ke.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr())


def assemble_elastic(mesh: Mesh, lam: float, mu: float, rho: float,
                     omega: float) -> sp.csr_matrix:
    """lam div.div + 2 mu eps:eps - rho omega^2 mass over the solid disc."""
    g, area = _p1_geometry(mesh)
    dots = np.einsum("tad,tbd->tab", g, g)
    eye = np.eye(2)
    ke = lam * np.einsum("tai,tbj->taibj", g, g)
    ke += mu * (dots[:, :, None, :, None] * eye[None, None, :, None, :]
                + np.einsum("taj,tbi->taibj", g, g))
    ke -= rho * omega ** 2 * _P1_MASS[None, :, None, :, None] \
        * eye[None, None, :, None, :]
    ke *= area[:, None, None, None, None]

    dofs = 2 * mesh.triangles[:, :, None] + np.arange(2)[None, None, :]
    rows = np.broadcast_to(dofs[:, :, :, None, None], ke.shape)
    cols = np.broadcast_to(dofs[:, None, None, :, :], ke.shape)
    n = 2 * mesh.num_nodes
    return _symmetrize(sp.coo_matrix(
        (ke.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr())


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
    n_e = len(edges.lengths)
    edge_mass = (np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])[None]
                 * edges.lengths[:, None, None])

    # entries[e, a, comp, b] = n_comp * integral(phi_a zeta_b)
    entries = edges.normals[:, None, :, None] * edge_mass[:, :, None, :]
    rows = dof_map.displacement(edges.solid_nodes[:, :, None, None],
                                np.arange(2)[None, None, :, None])
    rows = np.broadcast_to(rows, entries.shape)
    cols = np.broadcast_to(edges.fluid_nodes[:, None, None, :], entries.shape)

    shape_c4 = (2 * dof_map.n_solid_nodes, dof_map.n_fluid_nodes)
    c4 = sp.coo_matrix(
        (entries.ravel(), (rows.ravel(), cols.ravel())), shape=shape_c4).tocsr()
    c3 = (rho_f * omega ** 2) * c4.T.tocsr()
    return c3, c4


def assemble_load(disc_mesh: Mesh, annulus_mesh: Mesh, config: PhysicalConfig,
                  dof_map: DofMap) -> np.ndarray:
    """Incident plane-wave functional over the interface circle."""
    edges = _interface_edges(disc_mesh, annulus_mesh)
    d = np.asarray(config.d)
    k = config.k

    # quadrature points on every edge at once: (E, Q, 2)
    lin = 0.5 * (1.0 + _GAUSS_X)
    pts = edges.points[:, 0, None, :] \
        + (edges.points[:, 1] - edges.points[:, 0])[:, None, :] * lin[None, :, None]
    pinc = np.exp(1j * k * (pts @ d))
    shapes = np.stack([1.0 - lin, lin], axis=0)            # (2, Q)
    jac = 0.5 * edges.lengths

    rhs = np.zeros(dof_map.size, dtype=complex)
    # pressure rows: + integral (ik d.n) p_inc zeta_b
    dn = edges.normals @ d
    q_weight = (1j * k * dn)[:, None] * pinc * _GAUSS_W[None, :]
    for b in range(2):
        vals = jac * np.sum(q_weight * shapes[b][None, :], axis=1)
        np.add.at(rhs, dof_map.pressure(edges.fluid_nodes[:, b]), vals)
    # displacement rows: - integral n p_inc . v
    v_weight = pinc * _GAUSS_W[None, :]
    for a in range(2):
        base = jac * np.sum(v_weight * shapes[a][None, :], axis=1)
        for comp in range(2):
            vals = -edges.normals[:, comp] * base
            np.add.at(rhs, dof_map.displacement(edges.solid_nodes[:, a], comp),
                      vals)
    return rhs


def _dissect(nodes, coords, rank, width, nbr, right):
    """``nodes`` of one part in elimination order: left, right, separator.
    ``coords`` is (2, m); ``right`` is all False, of length m + 1.

    Module level on purpose: a recursive closure holds itself in its own
    cell, a reference cycle that keeps ``nbr`` and ``right`` alive until the
    cyclic garbage collector runs."""
    if width[nodes].sum() <= _ND_LEAF:
        return nodes
    span = np.ptp(coords.take(nodes, axis=1), axis=1)
    nodes = nodes[np.argsort(rank[int(span[1] > span[0])].take(nodes))]
    left, rest = nodes[:len(nodes) // 2], nodes[len(nodes) // 2:]
    right[rest] = True
    sep = right.take(nbr.take(left, axis=0)).any(axis=1)
    right[rest] = False
    return np.concatenate([
        _dissect(left[~sep], coords, rank, width, nbr, right),
        _dissect(rest, coords, rank, width, nbr, right), left[sep]])


def _nested_dissection(matrix: sp.csr_matrix, coords: np.ndarray,
                       lead: np.ndarray, width: np.ndarray,
                       root: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order: ``order[i]`` is the unknown
    eliminated i-th (geometric nested dissection; George, SIAM J. Numer.
    Anal. 10, 1973).

    Node j sits at ``coords[j]`` and carries the one or two unknowns from
    ``lead[j]``; two nodes are neighbours when ``matrix`` couples their lead
    unknowns.  The unknowns in ``root`` go last.  The other nodes are cut
    recursively at the median of each part's wider coordinate axis (ties go
    to x); a cut's separator is the left-side nodes with a neighbour on the
    right.  Parts of at most _ND_LEAF unknowns are leaves and keep their
    node order.
    """
    m = len(lead)
    node_of = np.full(matrix.shape[0], -1, dtype=np.int64)
    node_of[lead] = np.arange(m)
    node_of[root] = -1
    ei = np.repeat(node_of, np.diff(matrix.indptr))
    ej = node_of[matrix.indices]
    upper = (ej > ei) & (ei >= 0)
    ei, ej = ei[upper], ej[upper]
    # padded neighbour table: row j lists j's neighbours, then m
    ei, ej = np.append(ei, ej), np.append(ej, ei)
    by = np.argsort(ei)
    ei, ej = ei[by], ej[by]
    degree = np.bincount(ei, minlength=m)
    nbr = np.full((m, degree.max() + 1), m, dtype=np.int64)
    nbr[ei, np.arange(len(ei)) - (np.cumsum(degree) - degree)[ei]] = ej
    # place along x and along y: the inverse of each axis's sort
    rank = np.argsort(np.argsort(coords.T, axis=1, kind="stable"), axis=1)

    nodes = _dissect(np.flatnonzero(node_of[lead] >= 0),
                     np.ascontiguousarray(coords.T), rank, width, nbr,
                     np.zeros(m + 1, dtype=bool))
    # a disc node's (u_x, u_y) stay adjacent
    unknowns = lead[nodes, None] + np.arange(2)
    return np.append(unknowns[np.arange(2) < width[nodes, None]], root)


@dataclass(frozen=True)
class SystemBlocks:
    """N-independent pieces of the systems of one mesh pair and one physics,
    reusable across truncation orders.

    ``config`` is the physics the blocks were assembled with; its N is not
    used.  ``matrix0`` is A0 = [[A1, C4], [C3, A2]]; its pattern also holds
    the dense GAMMA_R pressure block, explicitly zero where A2 has no entry,
    and ``dtn_slots`` are the row-major positions of that block in its data.
    ``ordering`` is the elimination order of every factorization of the
    pair's systems (``_nested_dissection``, the GAMMA_R pressures last).
    """

    disc_mesh: Mesh
    annulus_mesh: Mesh
    config: PhysicalConfig
    matrix0: sp.csr_matrix
    dtn_slots: np.ndarray
    load: np.ndarray
    dof_map: DofMap
    trace_r: BoundaryTrace
    ordering: np.ndarray


@dataclass(frozen=True)
class FemSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap
    disc_mesh: Mesh
    annulus_mesh: Mesh
    config: PhysicalConfig
    ordering: np.ndarray


def assemble_blocks(disc_mesh: Mesh, annulus_mesh: Mesh,
                    config: PhysicalConfig) -> SystemBlocks:
    dof_map = DofMap(disc_mesh.num_nodes, annulus_mesh.num_nodes)
    a1 = assemble_elastic(disc_mesh, config.lam, config.mu, config.rho,
                          config.omega)
    a2 = assemble_helmholtz(annulus_mesh, config.k)
    c3, c4 = assemble_coupling(disc_mesh, annulus_mesh, config.rho_f,
                               config.omega, dof_map)
    load = assemble_load(disc_mesh, annulus_mesh, config, dof_map)
    trace_r = boundary_trace(annulus_mesh, GAMMA_R)

    dofs = dof_map.pressure(trace_r.node_indices)
    rows, cols = np.repeat(dofs, len(dofs)), np.tile(dofs, len(dofs))
    a0 = sp.bmat([[a1.astype(complex), c4], [c3, a2]], format="coo")
    matrix0 = sp.coo_matrix(
        (np.append(a0.data, np.zeros(len(rows))),
         (np.append(a0.row, rows), np.append(a0.col, cols))),
        shape=a0.shape).tocsr()
    n = matrix0.shape[0]
    keys = np.repeat(np.arange(n), np.diff(matrix0.indptr)) * n \
        + matrix0.indices
    # disc node i leads (u_x, u_y) = (2i, 2i+1), annulus node j its pressure
    ns, nf = dof_map.n_solid_nodes, dof_map.n_fluid_nodes
    lead = np.append(dof_map.displacement(np.arange(ns), 0),
                     dof_map.pressure(np.arange(nf)))
    ordering = _nested_dissection(
        matrix0, np.vstack([disc_mesh.nodes, annulus_mesh.nodes]), lead,
        np.repeat([2, 1], [ns, nf]), dofs)
    return SystemBlocks(disc_mesh=disc_mesh, annulus_mesh=annulus_mesh,
                        config=config, matrix0=matrix0,
                        dtn_slots=np.searchsorted(keys, rows * n + cols),
                        load=load, dof_map=dof_map, trace_r=trace_r,
                        ordering=ordering)


def assemble_system(blocks: SystemBlocks, N: int) -> FemSystem:
    """Complete complex sparse system A0 - P B P^T of the blocks' mesh pair
    and physics at the truncation order N.  The system holds no reference
    to the blocks, so A0 can be freed before the system is factored."""
    config = replace(blocks.config, N=N)
    b_dtn = dtn_ops.assemble_dtn_matrix(blocks.trace_r, config.k, config.R,
                                        config.N)
    a0 = blocks.matrix0
    data = a0.data.copy()
    data[blocks.dtn_slots] -= b_dtn.ravel()
    matrix = sp.csr_matrix((data, a0.indices, a0.indptr), shape=a0.shape)
    return FemSystem(matrix=matrix, rhs=blocks.load.copy(),
                     dof_map=blocks.dof_map, disc_mesh=blocks.disc_mesh,
                     annulus_mesh=blocks.annulus_mesh, config=config,
                     ordering=blocks.ordering)
