import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy
from numpy.polynomial.legendre import leggauss

from dtnfem import PhysicalConfig, analytic, assembly, dtn, harness
from dtnfem import mesh as M

UNIT_TRIANGLE = M.Mesh(
    nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    triangles=np.array([[0, 1, 2]]),
    boundary_edges=np.zeros((0, 2), dtype=np.int64),
    boundary_tags=(),
    region=M.DISC,
)


@pytest.fixture(scope="module")
def pair16():
    return M.build_disc_mesh(1.0, 16), M.build_annulus_mesh(1.0, 2.0, 16)


def reference_matrix0(disc, ann, cfg):
    """A0 and its DtN slots by the element-matrix assembly that the scatter
    maps replaced: 5-index einsum element matrices, COO->CSR, (A + A^T)/2,
    sp.bmat, the GAMMA_R block appended as zeros and searchsorted slots."""
    p1_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0

    def symmetrized_csr(ke, rows, cols, n):
        a = sp.coo_matrix((ke.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(n, n)).tocsr()
        return ((a + a.T) * 0.5).tocsr()

    g, area = assembly._p1_geometry(ann)
    ke = np.einsum("tad,tbd->tab", g, g) * area[:, None, None] \
        - cfg.k ** 2 * area[:, None, None] * p1_mass[None]
    tri = ann.triangles
    a2 = symmetrized_csr(ke, np.broadcast_to(tri[:, :, None], ke.shape),
                         np.broadcast_to(tri[:, None, :], ke.shape),
                         ann.num_nodes)

    g, area = assembly._p1_geometry(disc)
    eye = np.eye(2)
    ke = cfg.lam * np.einsum("tai,tbj->taibj", g, g)
    ke += cfg.mu * (np.einsum("tad,tbd->tab", g, g)[:, :, None, :, None]
                    * eye[None, None, :, None, :]
                    + np.einsum("taj,tbi->taibj", g, g))
    ke -= cfg.rho * cfg.omega ** 2 * p1_mass[None, :, None, :, None] \
        * eye[None, None, :, None, :]
    ke *= area[:, None, None, None, None]
    dofs = 2 * disc.triangles[:, :, None] + np.arange(2)
    a1 = symmetrized_csr(
        ke, np.broadcast_to(dofs[:, :, :, None, None], ke.shape),
        np.broadcast_to(dofs[:, None, None], ke.shape), 2 * disc.num_nodes)

    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    c3, c4 = assembly.assemble_coupling(disc, ann, cfg.rho_f, cfg.omega, dof)
    trace = dof.pressure(M.boundary_trace(ann, M.GAMMA_R).node_indices)
    rows, cols = np.repeat(trace, len(trace)), np.tile(trace, len(trace))
    a0 = sp.bmat([[a1.astype(complex), c4], [c3, a2]], format="coo")
    a0 = sp.coo_matrix((np.append(a0.data, np.zeros(len(rows))),
                        (np.append(a0.row, rows), np.append(a0.col, cols))),
                       shape=a0.shape).tocsr()
    n = a0.shape[0]
    keys = np.repeat(np.arange(n), np.diff(a0.indptr)) * n + a0.indices
    return a0, np.searchsorted(keys, rows * n + cols)


def slot_entries(matrix, slots):
    """(row, col) of each position ``slots`` of a CSR matrix's data."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return rows[slots], matrix.indices[slots]


def h1_gram(disc, annulus):
    """Block-diagonal H1 Gram matrix of the product space (stiffness+mass)."""
    def scalar_gram(mesh):
        stiff = assembly.assemble_helmholtz(mesh, 0.0)
        mass = stiff - assembly.assemble_helmholtz(mesh, 1.0)
        return (stiff + mass).tocsr()

    gu = sp.kron(scalar_gram(disc), sp.identity(2), format="csr")
    return sp.block_diag([gu, scalar_gram(annulus)], format="csc")


# ------------------------------------------------------------------ elastic

def test_rigid_motions_annihilated(pair16):
    disc, _ = pair16
    a1 = assembly.assemble_elastic(disc, 1.0, 1.0, 1.0, 0.0)
    norm = spla.norm(a1)
    xy = disc.nodes
    modes = [np.column_stack([np.ones(len(xy)), np.zeros(len(xy))]),
             np.column_stack([np.zeros(len(xy)), np.ones(len(xy))]),
             np.column_stack([-xy[:, 1], xy[:, 0]])]
    for v in modes:
        assert np.max(np.abs(a1 @ v.ravel())) < 1e-12 * norm


def test_elastic_single_element_symbolic_oracle():
    x, y = sympy.symbols("x y")
    hats = [1 - x - y, x, y]
    ke = np.zeros((6, 6))
    for a in range(3):
        for alpha in range(2):
            for b in range(3):
                for beta in range(2):
                    u = [sympy.Integer(0)] * 2
                    v = [sympy.Integer(0)] * 2
                    u[beta] = hats[b]
                    v[alpha] = hats[a]
                    div_u = sympy.diff(u[0], x) + sympy.diff(u[1], y)
                    div_v = sympy.diff(v[0], x) + sympy.diff(v[1], y)
                    gu = sympy.Matrix([[sympy.diff(u[i], c) for c in (x, y)]
                                       for i in range(2)])
                    gv = sympy.Matrix([[sympy.diff(v[i], c) for c in (x, y)]
                                       for i in range(2)])
                    su, sv = gu + gu.T, gv + gv.T
                    integrand = div_u * div_v + sympy.Rational(1, 2) * sum(
                        su[i, j] * sv[i, j] for i in range(2) for j in range(2))
                    ke[2 * a + alpha, 2 * b + beta] = float(sympy.integrate(
                        sympy.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1)))
    got = assembly.assemble_elastic(UNIT_TRIANGLE, 1.0, 1.0, 1.0, 0.0).toarray()
    assert np.max(np.abs(got - ke)) < 1e-13


def test_helmholtz_single_element_symbolic_oracle():
    x, y = sympy.symbols("x y")
    hats = [1 - x - y, x, y]
    k = sympy.Rational(3, 2)
    ke = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            integrand = (sympy.diff(hats[a], x) * sympy.diff(hats[b], x)
                         + sympy.diff(hats[a], y) * sympy.diff(hats[b], y)
                         - k ** 2 * hats[a] * hats[b])
            ke[a, b] = float(sympy.integrate(
                sympy.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1)))
    got = assembly.assemble_helmholtz(UNIT_TRIANGLE, 1.5).toarray()
    assert np.max(np.abs(got - ke)) < 1e-13


def test_elastic_exactly_symmetric(pair16):
    disc, ann = pair16
    a1 = assembly.assemble_elastic(disc, 1.0, 1.0, 1.0, 1.0)
    assert (a1 - a1.T).nnz == 0
    a2 = assembly.assemble_helmholtz(ann, 1.5)
    assert (a2 - a2.T).nnz == 0
    ns2 = 2 * disc.num_nodes
    a1 = assembly.assemble_blocks(disc, ann, PhysicalConfig(
        lam=2.3, mu=0.7, rho=1.9, omega=1.6)).matrix0[:ns2, :ns2]
    assert (a1 - a1.T).nnz == 0


def test_degenerate_triangle_rejected():
    bad = M.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                 triangles=np.array([[0, 1, 2]]),
                 boundary_edges=np.zeros((0, 2), dtype=np.int64),
                 boundary_tags=(), region=M.DISC)
    with pytest.raises(ValueError):
        assembly.assemble_elastic(bad, 1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------- helmholtz

def test_constants_in_stiffness_kernel(pair16):
    _, ann = pair16
    a2 = assembly.assemble_helmholtz(ann, 0.0)
    ones = np.ones(ann.num_nodes)
    assert np.max(np.abs(a2 @ ones)) < 1e-12 * spla.norm(a2)


def test_mass_row_sums_are_node_areas(pair16):
    _, ann = pair16
    mass = assembly.assemble_helmholtz(ann, 0.0) \
        - assembly.assemble_helmholtz(ann, 1.0)
    areas = M.triangle_areas(ann)
    want = np.zeros(ann.num_nodes)
    for t, tri in enumerate(ann.triangles):
        want[tri] += areas[t] / 3.0
    got = np.asarray(mass.sum(axis=1)).ravel()
    assert np.max(np.abs(got - want)) < 1e-13


def test_quadratic_patch_energy_converges():
    # energy of the P1 interpolant of x^2 approaches the true Dirichlet energy
    # at O(h^2)
    defects = []
    mesh = M.build_annulus_mesh(1.0, 2.0, 16)
    for _ in range(3):
        stiff = assembly.assemble_helmholtz(mesh, 0.0)
        xsq = mesh.nodes[:, 0] ** 2
        energy = xsq @ (stiff @ xsq)
        pts = harness._quad_points(mesh)
        exact = np.einsum("q,tq,t->", harness._TRI_QW,
                          4.0 * pts[..., 0] ** 2, M.triangle_areas(mesh))
        defects.append(abs(energy - exact))
        mesh = M.refine(mesh)
    assert defects[1] < defects[0] / 3.0
    assert defects[2] < defects[1] / 3.0


# ----------------------------------------------------------------- coupling

def test_coupling_transpose_identity(pair16):
    disc, ann = pair16
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    c3, c4 = assembly.assemble_coupling(disc, ann, 1.3, 1.7, dof)
    assert (c3 - 1.3 * 1.7 ** 2 * c4.T).nnz == 0


def test_coupling_normal_field_circle_integral():
    # a3(n-hat, 1) -> rho_f omega^2 2 pi R0 at O(h^2)
    defects = []
    for n_ang in (16, 32, 64):
        disc = M.build_disc_mesh(1.0, n_ang)
        ann = M.build_annulus_mesh(1.0, 2.0, n_ang)
        dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
        c3, _ = assembly.assemble_coupling(disc, ann, 1.0, 1.0, dof)
        radii = np.linalg.norm(disc.nodes, axis=1)
        radii[radii == 0.0] = 1.0
        u = (disc.nodes / radii[:, None]).ravel()
        val = np.ones(ann.num_nodes) @ (c3 @ u)
        defects.append(abs(val - 2 * np.pi))
    assert defects[0] < 0.05 * 2 * np.pi
    assert defects[1] < defects[0] / 3.0
    assert defects[2] < defects[1] / 3.0


def test_coupling_closed_curve_normal_integral(pair16):
    disc, ann = pair16
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    _, c4 = assembly.assemble_coupling(disc, ann, 1.0, 1.0, dof)
    ones_p = np.ones(ann.num_nodes)
    for comp in range(2):
        v = np.zeros(2 * disc.num_nodes)
        v[comp::2] = 1.0
        assert abs(v @ (c4 @ ones_p)) < 1e-12


def test_coupling_nonconforming_rejected():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 32)
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    with pytest.raises(ValueError):
        assembly.assemble_coupling(disc, ann, 1.0, 1.0, dof)


# --------------------------------------------------------------------- load

def test_load_small_k_limit(pair16):
    # as k -> 0 the incident wave tends to 1: the normal-derivative part is
    # O(k) and the displacement part against constant tests closes the curve
    # up to the O(k) phase
    disc, ann = pair16
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    k = 1e-12
    rhs = assembly.assemble_load(disc, ann, PhysicalConfig(k=k), dof)
    assert np.max(np.abs(rhs[2 * disc.num_nodes:])) < 10.0 * k
    for comp in range(2):
        v = np.zeros(dof.size)
        v[comp:2 * disc.num_nodes:2] = 1.0
        assert abs(v @ rhs) < 10.0 * k


def test_load_against_high_order_quadrature(monkeypatch):
    disc, ann = harness.build_mesh_pair(1.0, 2.0, 16, 3)
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    cfg = PhysicalConfig(k=4.0)
    got = assembly.assemble_load(disc, ann, cfg, dof)
    xg, wg = leggauss(20)
    monkeypatch.setattr(assembly, "_GAUSS_X", xg)
    monkeypatch.setattr(assembly, "_GAUSS_W", wg)
    want = assembly.assemble_load(disc, ann, cfg, dof)
    assert np.max(np.abs(got - want)) < 1e-10


def test_load_rotation_symmetry(pair16):
    disc, ann = pair16
    n_ang = 16
    delta = 2 * np.pi / n_ang
    dof = assembly.DofMap(disc.num_nodes, ann.num_nodes)
    base = assembly.assemble_load(disc, ann, PhysicalConfig(d=(1.0, 0.0)), dof)
    rot = assembly.assemble_load(
        disc, ann, PhysicalConfig(d=(np.cos(delta), np.sin(delta))), dof)

    # node maps for a one-sector rotation of the structured pair
    disc_map = np.arange(disc.num_nodes)
    for ring in range((disc.num_nodes - 1) // n_ang):
        base_idx = 1 + ring * n_ang
        disc_map[base_idx:base_idx + n_ang] = \
            base_idx + (np.arange(n_ang) + 1) % n_ang
    ann_map = np.arange(ann.num_nodes)
    for ring in range(ann.num_nodes // n_ang):
        base_idx = ring * n_ang
        ann_map[base_idx:base_idx + n_ang] = \
            base_idx + (np.arange(n_ang) + 1) % n_ang

    Q = np.array([[np.cos(delta), -np.sin(delta)],
                  [np.sin(delta), np.cos(delta)]])
    u_base = base[:2 * disc.num_nodes].reshape(-1, 2)
    u_rot = rot[:2 * disc.num_nodes].reshape(-1, 2)
    assert np.max(np.abs(u_rot[disc_map] - u_base @ Q.T)) < 1e-12
    p_base = base[2 * disc.num_nodes:]
    p_rot = rot[2 * disc.num_nodes:]
    assert np.max(np.abs(p_rot[ann_map] - p_base)) < 1e-12


# ------------------------------------------------------------------- system

def test_system_dimension_and_pattern(pair16):
    disc, ann = pair16
    system = assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig()), 20)
    assert system.matrix.shape[0] == 2 * disc.num_nodes + ann.num_nodes
    assert system.rhs.shape == (system.matrix.shape[0],)
    pattern = system.matrix.copy()
    pattern.data = np.ones_like(pattern.data)
    assert (abs(pattern - pattern.T)).nnz == 0


def test_system_real_blocks(pair16):
    # only the absorbing-boundary block is complex
    disc, ann = pair16
    system = assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig()), 20)
    ns2 = 2 * disc.num_nodes
    imag = system.matrix.imag.tocoo()
    nz = imag.data != 0.0
    rows, cols = imag.row[nz], imag.col[nz]
    assert len(rows) > 0
    trace = M.boundary_trace(ann, M.GAMMA_R)
    trace_dofs = set(int(i) for i in ns2 + trace.node_indices)
    assert set(int(i) for i in rows).issubset(trace_dofs)
    assert set(int(i) for i in cols).issubset(trace_dofs)


def test_system_blocks_reused(pair16):
    """The blocks do not depend on the N of their config: a system of order
    8 is bitwise the same from blocks built at N = 8 and at N = 20."""
    disc, ann = pair16
    direct = assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig(N=8)), 8)
    reused = assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig(N=20)), 8)
    assert (direct.matrix - reused.matrix).nnz == 0
    assert np.array_equal(direct.rhs, reused.rhs)


def test_system_takes_its_meshes_and_physics_from_the_blocks(pair16):
    disc, ann = pair16
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig(k=2.0, N=20))
    assert blocks.disc_mesh is disc and blocks.annulus_mesh is ann
    system = assembly.assemble_system(blocks, 5)
    assert system.config == dataclasses.replace(blocks.config, N=5)
    assert system.disc_mesh is disc and system.annulus_mesh is ann


def test_system_at_an_integral_float_order(pair16):
    """An order of 2.0 is stored as the int 2 and builds order 2's system;
    a negative, fractional or non-finite order is a ValueError."""
    disc, ann = pair16
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig())
    system = assembly.assemble_system(blocks, 2.0)
    assert type(system.config.N) is int and system.config.N == 2
    assert type(PhysicalConfig(N=2.0).N) is int
    for bad in (-1, 2.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            PhysicalConfig(N=bad)
    assert (system.matrix - assembly.assemble_system(blocks, 2).matrix).nnz == 0


def test_system_is_matrix0_minus_the_dtn_block(pair16):
    disc, ann = pair16
    cfg = PhysicalConfig(N=8)
    blocks = assembly.assemble_blocks(disc, ann, cfg)
    system = assembly.assemble_system(blocks, cfg.N)
    dofs = blocks.dof_map.pressure(blocks.trace_r.node_indices)
    want = blocks.matrix0.toarray()
    want[np.ix_(dofs, dofs)] -= dtn.assemble_dtn_matrix(blocks.trace_r, cfg.k,
                                                        cfg.R, cfg.N)
    assert np.array_equal(system.matrix.toarray(), want)
    # A0 carries no absorbing boundary, so every entry is real
    assert np.all(blocks.matrix0.imag.data == 0.0)


def mode_sum(blocks, N):
    """B_N from scratch: a cosine and a sine outer product per mode, summed
    from mode 0 over the columns of the order's own factor."""
    cfg = blocks.config
    columns, weights = dtn.dtn_factor(blocks.trace_r, cfg.k, cfg.R, N)
    m = len(columns)
    B = np.full((m, m), weights[0] * columns[0, 0] ** 2, dtype=complex)
    for n in range(1, N + 1):
        c, s = columns[:, 2 * n - 1], columns[:, 2 * n]
        B += weights[2 * n] * (np.outer(c, c) + np.outer(s, s))
    return B


def eager_system_matrix(blocks, N):
    """The system matrix as ``assemble_system`` formed it before the matrix
    was formed on first read: a copy of A0's data less B_N at the DtN
    slots."""
    a0 = blocks.matrix0
    data = a0.data.copy()
    data[blocks.dtn_slots] -= mode_sum(blocks, N).ravel()
    return sp.csr_matrix((data, a0.indices, a0.indptr), shape=a0.shape)


@pytest.mark.parametrize("level", [1, 3])
def test_matrix_formed_on_first_read_is_the_eager_one_bitwise(mesh_pairs,
                                                              level):
    """Each system's matrix, formed on first read in an order other than
    the one its systems were assembled in, is bitwise the eager matrix with
    the from-scratch mode sum; it is formed once, and the system lets go of
    the blocks then."""
    disc, ann = mesh_pairs[level]
    cfg = PhysicalConfig(k=2.0)
    blocks = assembly.assemble_blocks(disc, ann, cfg)
    orders = (3, 7, 1, 20, 20, 5, 2, 12)
    systems = [assembly.assemble_system(blocks, N) for N in orders]
    assert all(system.blocks is blocks for system in systems)
    for i in (4, 0, 6, 2, 7, 3, 1, 5):
        got, want = systems[i].matrix, eager_system_matrix(blocks, orders[i])
        assert systems[i].blocks is None and systems[i].matrix is got
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_matrix0_blocks_match_the_reference_assembly(level):
    """A1, C4, C3 and A2 of A0 from the scatter maps are the element-matrix
    assembly's within 1e-14 relative in max norm, block by block, and
    dtn_slots address the same (row, col) entries in the same order."""
    disc, ann = harness.build_mesh_pair(1.0, 2.0, 16, level)
    ns2 = 2 * disc.num_nodes
    parts = (slice(None, ns2), slice(ns2, None))
    for cfg in (PhysicalConfig(k=1.0), PhysicalConfig(k=4.0),
                PhysicalConfig(lam=2.3, mu=0.7, rho=1.9, omega=1.6)):
        blocks = assembly.assemble_blocks(disc, ann, cfg)
        want, want_slots = reference_matrix0(disc, ann, cfg)
        for rows in parts:
            for cols in parts:
                block = want[rows, cols]
                diff = blocks.matrix0[rows, cols] - block
                assert abs(diff).max() <= 1e-14 * abs(block).max()
        for got, ref in zip(slot_entries(blocks.matrix0, blocks.dtn_slots),
                            slot_entries(want, want_slots)):
            assert np.array_equal(got, ref)


def test_galerkin_consistency_rate(base_config, base_series):
    # interpolant of the exact solution leaves a residual shrinking at least
    # at O(h) in the discrete dual norm (measured ~O(h^2))
    duals = []
    for level in (1, 2):
        disc, ann = harness.build_mesh_pair(1.0, 2.0, 16, level)
        system = assembly.assemble_system(
            assembly.assemble_blocks(disc, ann, base_config), base_config.N)
        r = np.linalg.norm(disc.nodes, axis=1)
        t = np.arctan2(disc.nodes[:, 1], disc.nodes[:, 0])
        u = analytic.eval_displacement(base_series, np.minimum(r, 1.0), t)
        ra = np.linalg.norm(ann.nodes, axis=1)
        ta = np.arctan2(ann.nodes[:, 1], ann.nodes[:, 0])
        p = analytic.eval_pressure(base_series, np.maximum(ra, 1.0), ta)
        vec = np.concatenate([u.ravel(), p])
        res = system.matrix @ vec - system.rhs
        gram = h1_gram(disc, ann)
        w = spla.spsolve(gram.astype(complex), res)
        duals.append(float(np.sqrt(abs(np.vdot(res, w)))))
    order = np.log2(duals[0] / duals[1])
    assert order > 0.8


def test_continuity_constant_bounded(base_config):
    # random probes of |A(U,V)| / (||U|| ||V||) must not grow under refinement
    rng = np.random.default_rng(11)
    cs = []
    for level in (1, 2):
        disc, ann = harness.build_mesh_pair(1.0, 2.0, 16, level)
        system = assembly.assemble_system(
            assembly.assemble_blocks(disc, ann, base_config), base_config.N)
        gram = h1_gram(disc, ann).tocsr()
        cmax = 0.0
        for _ in range(20):
            u = rng.normal(size=gram.shape[0]) + 1j * rng.normal(size=gram.shape[0])
            v = rng.normal(size=gram.shape[0]) + 1j * rng.normal(size=gram.shape[0])
            num = abs(np.vdot(v, system.matrix @ u))
            den = np.sqrt(abs(np.vdot(u, gram @ u))) \
                * np.sqrt(abs(np.vdot(v, gram @ v)))
            cmax = max(cmax, num / den)
        cs.append(cmax)
    assert cs[1] <= 1.1 * cs[0]
