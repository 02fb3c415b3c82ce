import dataclasses
import gc
import importlib
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dtnfem import (PhysicalConfig, StudyConfig, analytic, assembly, dtn,
                    harness)
from dtnfem import mesh as M
from dtnfem.solve import (FieldSolution, LowRankSweep, SingularSystemError,
                          evaluate_field, solve, solve_linear)

# the module, not the ``solve`` function the package re-exports
solve_module = importlib.import_module("dtnfem.solve")

R0, R, N_ANGULAR = 1.0, 2.0, 16


@pytest.fixture(scope="module")
def system16():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    return assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig()), 20)


@pytest.fixture(scope="module")
def solution16(system16):
    return solve(system16)


def test_identity_system():
    eye = sp.identity(10, format="csr", dtype=complex)
    rhs = np.zeros(10, dtype=complex)
    rhs[0] = 1.0
    x, residual = solve_linear(eye, rhs)
    assert np.array_equal(x, rhs)
    assert residual == 0.0


def test_residual_on_reference_configuration(solution16):
    assert solution16.residual <= 1e-10


def test_solve_keeps_the_solver_residual(system16, solution16):
    x, residual = solve_linear(system16.matrix, system16.rhs,
                               system16.sectors)
    recomputed = (np.linalg.norm(system16.matrix @ x - system16.rhs)
                  / np.linalg.norm(system16.rhs))
    assert residual == pytest.approx(recomputed, rel=1e-12)
    assert solution16.residual == residual


def test_solution_shapes_and_finiteness(system16, solution16):
    sol = solution16
    assert sol.u_nodal.shape == (system16.disc_mesh.num_nodes, 2)
    assert sol.p_nodal.shape == (system16.annulus_mesh.num_nodes,)
    assert np.all(np.isfinite(sol.u_nodal))
    assert np.all(np.isfinite(sol.p_nodal))


def test_permutation_equivariance(system16):
    x, _ = solve_linear(system16.matrix, system16.rhs, system16.sectors)
    rng = np.random.default_rng(3)
    perm = rng.permutation(system16.matrix.shape[0])
    P = sp.coo_matrix((np.ones(len(perm)), (np.arange(len(perm)), perm))).tocsr()
    # the permuted system in its own numbering, as one sector
    xp, _ = solve_linear((P @ system16.matrix @ P.T).tocsr(),
                         P @ system16.rhs)
    assert np.max(np.abs(P.T @ xp - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))


def test_deterministic_bitwise(system16):
    a, _ = solve_linear(system16.matrix, system16.rhs, system16.sectors)
    b, _ = solve_linear(system16.matrix, system16.rhs, system16.sectors)
    assert np.array_equal(a, b)


def test_singular_system_raises():
    n = 6
    matrix = sp.csr_matrix((n, n), dtype=complex)
    rhs = np.ones(n, dtype=complex)
    with pytest.raises(SingularSystemError):
        solve_linear(matrix, rhs)


def test_size_mismatch_rejected():
    eye = sp.identity(4, format="csr", dtype=complex)
    with pytest.raises(ValueError):
        solve_linear(eye, np.ones(5, dtype=complex))


# ------------------------------------------------------------- evaluation

def test_evaluate_at_node_is_nodal_value(solution16):
    mesh = solution16.disc_mesh
    for node in (0, 7, 30):
        got = evaluate_field(solution16, mesh.nodes[node], "u")
        assert np.max(np.abs(got - solution16.u_nodal[node])) < 1e-14


def test_evaluate_reproduces_linear_field(solution16):
    mesh = solution16.disc_mesh
    nodal = np.column_stack([
        2.0 + 3.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1],
        0.5 * mesh.nodes[:, 0] + 0.25 * mesh.nodes[:, 1]]).astype(complex)
    fake = FieldSolution(u_nodal=nodal, p_nodal=solution16.p_nodal.copy(),
                         config=solution16.config, disc_mesh=mesh,
                         annulus_mesh=solution16.annulus_mesh, residual=0.0)
    for pt in ((0.31, -0.22), (-0.4, 0.1), (0.0, 0.55)):
        want = np.array([2.0 + 3.0 * pt[0] - pt[1],
                         0.5 * pt[0] + 0.25 * pt[1]])
        assert np.max(np.abs(evaluate_field(fake, pt, "u") - want)) < 1e-13


def test_evaluate_centroid_is_mean(solution16):
    mesh = solution16.annulus_mesh
    tri = mesh.triangles[5]
    centroid = mesh.nodes[tri].mean(axis=0)
    got = evaluate_field(solution16, centroid, "p")
    assert abs(got - solution16.p_nodal[tri].mean()) < 1e-14


def test_evaluate_across_the_hole(solution16):
    # the far side of the annulus hole from the 0-angle side: every triangle
    # is tested at once, so no path can get stuck at the hole
    val = evaluate_field(solution16, (-1.5, 0.0), "p")
    assert np.isfinite(val)


def test_evaluate_outside_raises(solution16):
    with pytest.raises(ValueError):
        evaluate_field(solution16, (5.0, 5.0), "p")
    with pytest.raises(ValueError):
        evaluate_field(solution16, (1.5, 0.0), "u")


def test_evaluate_unknown_field_rejected(solution16):
    with pytest.raises(ValueError):
        evaluate_field(solution16, (0.1, 0.1), "w")


def test_locators_die_with_the_solution():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    sol = solve(assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig()), 20))
    assert np.isfinite(evaluate_field(sol, (1.5, 0.0), "p"))
    assert np.all(np.isfinite(evaluate_field(sol, (0.2, 0.1), "u")))
    mesh_ref = weakref.ref(ann)
    del disc, ann, sol
    gc.collect()
    assert mesh_ref() is None


# ------------------------------------- locator against a brute-force reference

def _reference_barycentric(mesh, t, points):
    """Barycentrics (3, n) of n points in triangle t by a 2x2 solve."""
    p = mesh.nodes[mesh.triangles[t]]
    T = np.column_stack([p[1] - p[0], p[2] - p[0]])
    lam = np.linalg.solve(T, (np.asarray(points, float) - p[0]).T)
    return np.vstack([1.0 - lam[0] - lam[1], lam[0], lam[1]])


def _reference_locate(mesh, points):
    """Per point, the lowest-index triangle whose barycentrics are all
    >= -1e-10 (-1 if none) and those barycentrics, by a 2x2 solve per
    triangle.  Each triangle is solved only for the points inside its
    bounding box padded by 1e-8, which holds every point it can accept."""
    points = np.asarray(points, float)
    order = np.argsort(points[:, 0])
    xs = points[order, 0]
    found = np.full(len(points), -1)
    lams = np.zeros((len(points), 3))
    for t, tri in enumerate(mesh.triangles):
        p = mesh.nodes[tri]
        lo, hi = p.min(axis=0) - 1e-8, p.max(axis=0) + 1e-8
        near = order[np.searchsorted(xs, lo[0]):
                     np.searchsorted(xs, hi[0], side="right")]
        y = points[near, 1]
        near = near[(found[near] < 0) & (y >= lo[1]) & (y <= hi[1])]
        if near.size:
            lam = _reference_barycentric(mesh, t, points[near])
            hit = lam.min(axis=0) >= -1e-10
            found[near[hit]] = t
            lams[near[hit]] = lam[:, hit].T
    return found, lams


def _area_uniform(rng, n, r_lo, r_hi):
    """Latin hypercube in (r^2, theta), as the field_probe benchmark draws."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    v = (rng.permutation(n) + rng.uniform(size=n)) / n
    r = np.sqrt(r_lo ** 2 + u * (r_hi ** 2 - r_lo ** 2))
    return np.column_stack([r * np.cos(2 * np.pi * v),
                            r * np.sin(2 * np.pi * v)])


def _edge_midpoints(mesh):
    edges = np.sort(mesh.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2),
                    axis=1)
    edges = np.unique(edges, axis=0)
    return mesh.nodes[edges].mean(axis=1)


def _random_solution(disc, ann, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(disc.num_nodes, 2)) \
        + 1j * rng.normal(size=(disc.num_nodes, 2))
    p = rng.normal(size=ann.num_nodes) + 1j * rng.normal(size=ann.num_nodes)
    return FieldSolution(u_nodal=u, p_nodal=p, config=PhysicalConfig(),
                         disc_mesh=disc, annulus_mesh=ann, residual=0.0)


def _pushed_out(mesh, eps):
    """Per boundary edge, the point whose barycentric at the opposite vertex
    of the edge's triangle is -eps: outside the mesh, but within
    LOCATE_TOL of it for eps < 1e-10."""
    local = mesh.triangles[:, [[1, 2, 0], [2, 0, 1], [0, 1, 2]]].reshape(-1, 3)
    _, at, count = np.unique(np.sort(local[:, :2], axis=1), axis=0,
                             return_inverse=True, return_counts=True)
    edge = local[count[at.ravel()] == 1]
    mid = mesh.nodes[edge[:, :2]].mean(axis=1)
    return (1.0 + eps) * mid - eps * mesh.nodes[edge[:, 2]]


def _on_rays(rng, n_rays, r_lo, r_hi):
    """Four random radii on each ray at 2 pi j / n_rays."""
    r = rng.uniform(r_lo, r_hi, size=(n_rays, 4))
    theta = 2 * np.pi * np.arange(n_rays)[:, None] / n_rays
    return np.column_stack([(r * np.cos(theta)).ravel(),
                            (r * np.sin(theta)).ravel()])


@pytest.mark.parametrize("level", [1, 2, 3])
def test_locator_matches_brute_force_reference(mesh_pairs, level):
    """The locator's triangle is the reference's lowest-index one, at random
    points, nodes, edge midpoints, points on the sector rays, points just
    outside a boundary edge and, in the disc, at and near the centre.  Its
    barycentrics are bitwise those of the test of every triangle (a mesh
    without a rotation table), and so are those of a table halved to S = 8
    and of one rolled so that no row is its wedge's, short of the nodes and
    edge midpoints."""
    disc, ann = mesh_pairs[level]
    sol = _random_solution(disc, ann, level)
    rng = np.random.default_rng(10 + level)
    apothem = np.cos(np.pi / N_ANGULAR) * 0.999
    # a line through the centre, crossing the hole: only its annulus part
    line = np.linspace(-R * apothem, R * apothem, 401)
    across = np.column_stack([line, 0.3 * line]) / np.hypot(1.0, 0.3)
    across = across[np.hypot(*across.T) >= R0 * 1.001]
    centre = [[0.0, 0.0], [1e-12, 0.0], [0.0, -1e-12], [-7e-13, 7e-13],
              [3e-13, 1e-13], [-1e-12, -0.0]]
    for mesh, which, values, locator, pattern, extra in (
            (disc, "u", sol.u_nodal, sol._disc_locator,
             _area_uniform(rng, 100, 0.0, R0 * apothem),
             np.vstack([centre, _on_rays(rng, N_ANGULAR, 0.0,
                                         R0 * apothem)])),
            (ann, "p", sol.p_nodal, sol._annulus_locator,
             np.vstack([_area_uniform(rng, 100, R0 * 1.001, R * apothem),
                        across]),
             _on_rays(rng, N_ANGULAR, R0 * 1.001, R * apothem))):
        scale = np.max(np.abs(values))
        points = np.vstack([pattern, extra, _pushed_out(mesh, 1e-11)])
        n_tables = len(points)
        points = np.vstack([points, mesh.nodes, _edge_midpoints(mesh)])
        want_t, want_lam = _reference_locate(mesh, points)
        assert np.all(want_t >= 0)
        interior = want_lam.min(axis=1) > 1e-9
        assert np.count_nonzero(interior[:len(pattern)]) >= len(pattern) - 2
        want_lam = np.clip(want_lam, 0.0, None)
        want_lam /= want_lam.sum(axis=1, keepdims=True)
        full, *tables = (solve_module._Locator(dataclasses.replace(
            mesh, rotations=table)) for table in (
                None, mesh.rotations.reshape(N_ANGULAR // 2, -1),
                np.roll(mesh.rotations, 1, axis=0)))
        for i, point in enumerate(points):
            t, lam = locator.locate(point)
            # also at nodes, edge midpoints and on rays, where several
            # triangles qualify: no barycentric here is near the 1e-10
            # threshold, so both pick the same lowest index
            assert t == want_t[i], (which, point)
            got = lam @ values[mesh.triangles[t]]
            want = want_lam[i] @ values[mesh.triangles[want_t[i]]]
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (which, point)
            full_t, full_lam = full.locate(point)
            assert t == full_t and np.array_equal(lam, full_lam), point
            for other in (tables if i < n_tables else ()):
                other_t, other_lam = other.locate(point)
                assert t == other_t and np.array_equal(lam, other_lam), point
            if i < len(pattern):
                assert np.allclose(evaluate_field(sol, point, which), got,
                                   rtol=0.0, atol=1e-15 * scale)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_locator_refuses_points_off_the_mesh(mesh_pairs, level):
    disc, ann = mesh_pairs[level]
    sol = _random_solution(disc, ann, level)
    apothem = np.cos(np.pi / N_ANGULAR)
    theta = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    in_hole = np.vstack([[0.0, 0.0], 0.5 * ring, R0 * apothem * 0.999 * ring])
    beyond = np.vstack([R * 1.0001 * ring, 10 * ring, [[1e300, 0.0]]])
    non_finite = [(np.nan, 0.0), (0.5, np.nan), (np.inf, 0.0),
                  (-np.inf, 0.5), (0.2, np.inf)]
    for mesh, which, off_mesh in ((disc, "u",
                                   np.vstack([R0 * 1.0001 * ring, beyond])),
                                  (ann, "p", np.vstack([in_hole, beyond]))):
        assert np.all(_reference_locate(mesh, off_mesh)[0] == -1)
        for point in off_mesh:
            with pytest.raises(ValueError):
                evaluate_field(sol, point, which)
        for point in non_finite:
            with pytest.raises(ValueError):
                evaluate_field(sol, point, which)


# ------------------------------------------------- sector-Fourier factor

def _level_system(mesh_pairs, level, n_angular=N_ANGULAR, k=1.0):
    disc, ann = (mesh_pairs[level]
                 if level in mesh_pairs and n_angular == N_ANGULAR
                 else harness.build_mesh_pair(R0, R, n_angular, level))
    return assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig(k=k)), 20)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sector_table_is_a_permutation_of_the_unknowns(mesh_pairs, level):
    """Every unknown sits in one slot of one sector, or is the disc centre's
    fixed pair; column q of the table is one node turned by 2 pi j / S."""
    system = _level_system(mesh_pairs, level)
    sec, dof_map = system.sectors, system.dof_map
    S = len(sec.orbits)
    assert S == N_ANGULAR and sec.pairs == 2 * dof_map.n_solid_nodes
    assert sec.scale == system.config.rho_f * system.config.omega ** 2
    n = system.matrix.shape[0]
    fixed = np.all(sec.orbits == sec.orbits[0], axis=0)
    assert np.array_equal(sec.orbits[0, fixed], [0, 1])   # the centre
    assert np.array_equal(np.sort(np.append(sec.orbits[:, ~fixed],
                                            sec.orbits[0, fixed])),
                          np.arange(n))
    nodes = np.vstack([np.repeat(system.disc_mesh.nodes, 2, axis=0),
                       system.annulus_mesh.nodes])
    angle = 2 * np.pi * np.arange(S) / S
    turn = np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])      # (2, 2, S)
    want = np.einsum("abj,qb->jqa", turn, nodes[sec.orbits[0]])
    assert np.max(np.abs(nodes[sec.orbits] - want)) <= 1e-14 * R


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_ordered_solve_matches_the_colamd_solve(mesh_pairs, level):
    """``solve`` (sector-Fourier factor) against SuperLU in its own COLAMD
    column order on the whole matrix: 1e-12 relative in the 2-norm."""
    system = _level_system(mesh_pairs, level)
    sol = solve(system)
    x = np.concatenate([sol.u_nodal.ravel(), sol.p_nodal])
    reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert sol.residual <= 1e-10
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("n_angular", [8, 10, 16, 24, 32])
def test_sector_solve_matches_the_colamd_solve(n_angular):
    """The same bound over sector counts, an odd S/2 (10) and the disc
    centre's blocks at level 0 included, at k = 1 and 4, levels 0-2."""
    for k in (1.0, 4.0):
        for level in range(3):
            system = _level_system({}, level, n_angular, k)
            assert len(system.sectors.orbits) == n_angular
            x, residual = solve_linear(system.matrix, system.rhs,
                                       system.sectors)
            reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
            assert residual <= 1e-10
            assert np.linalg.norm(x - reference) \
                <= 1e-12 * np.linalg.norm(reference), (k, level)


@pytest.mark.parametrize("n_angular", [10, 16])
def test_transposed_block_matches_its_own_factor(mesh_pairs, n_angular):
    """Block -m solved through block m's transposed factor equals a direct
    factor of block -m, 1e-12 relative, for every m of both halves."""
    system = _level_system(mesh_pairs, 1, n_angular)
    lu = solve_module._Factor(system.matrix, system.sectors)
    S = len(system.sectors.orbits)
    rng = np.random.default_rng(n_angular)
    for m in range(S // 2 + 1, S):
        block, = lu._blocks(system.matrix, [m])
        b = rng.normal(size=(block.shape[0], 2)) \
            + 1j * rng.normal(size=(block.shape[0], 2))
        want = spla.splu(block).solve(b)
        got = lu._solve_block(m, b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), m


@pytest.mark.parametrize("level", [0, 2])
def test_a_pair_without_rotation_tables_is_one_sector(mesh_pairs, level):
    """A pair with a mesh without a rotation table (``replace(mesh,
    rotations=None)``), or with tables that disagree on S, runs as one
    sector, the whole matrix in one block, and gives the same x within
    1e-12."""
    disc, ann = mesh_pairs[level]
    want, _ = solve_linear(*_parts(_level_system(mesh_pairs, level)))
    halved = disc.rotations.reshape(N_ANGULAR // 2, -1)   # S = 8 for the disc
    for table in (None, halved):
        blocks = assembly.assemble_blocks(
            dataclasses.replace(disc, rotations=table), ann, PhysicalConfig())
        assert blocks.sectors is None
        x, _ = solve_linear(*_parts(assembly.assemble_system(blocks, 20)))
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def _parts(system):
    return system.matrix, system.rhs, system.sectors


def test_ordering_cuts_fill_below_colamd(mesh_pairs):
    """The fill of the factor in use, all its blocks, stays below COLAMD's
    of the whole matrix at level 3."""
    system = _level_system(mesh_pairs, 3)
    lu = solve_module._Factor(system.matrix, system.sectors)
    colamd = spla.splu(system.matrix.tocsc())
    assert sum(b.L.nnz + b.U.nnz for b in lu._lu) \
        < colamd.L.nnz + colamd.U.nnz


def test_ordered_solves_are_bitwise_equal(system16):
    a, b = solve(system16), solve(system16)
    assert np.array_equal(a.u_nodal, b.u_nodal)
    assert np.array_equal(a.p_nodal, b.p_nodal)
    assert a.residual == b.residual


def test_singular_system_with_an_ordering_raises(system16):
    # the outer-circle pressure rows zeroed: exactly singular
    outer = system16.dof_map.pressure(
        M.boundary_trace(system16.annulus_mesh, M.GAMMA_R).node_indices)
    keep = np.ones(system16.matrix.shape[0])
    keep[outer] = 0.0
    matrix = (sp.diags(keep) @ system16.matrix).tocsr()
    with pytest.raises(SingularSystemError):
        solve_linear(matrix, system16.rhs, system16.sectors)


def test_assemble_blocks_leaves_no_reference_cycles(mesh_pairs):
    """Building the blocks, the sector table included, leaves no garbage for
    the cyclic collector: its work arrays are freed when it returns."""
    disc, ann = mesh_pairs[2]
    gc.collect()
    gc.disable()
    try:
        assembly.assemble_blocks(disc, ann, PhysicalConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------- low-rank sweep

def _no_direct_solve(matrix, rhs, sectors=None):
    raise AssertionError("the low-rank sweep fell back to the direct solve")


@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_sweep_matches_the_direct_solve(mesh_pairs, monkeypatch, level, k):
    """Every order N = 1..20 from one factorization of A0 agrees with the
    direct solve of its full system to 1e-12 in the 2-norm, and its error
    norms to 1e-10, without taking the fallback."""
    disc, ann = mesh_pairs[level]
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig(k=k))
    sweep = LowRankSweep(blocks, 20)
    quad = harness._ExactQuadrature(
        disc, ann, analytic.solve_modes(PhysicalConfig(k=k)))
    ns = blocks.dof_map.n_solid_nodes
    for N in range(1, 21):
        system = assembly.assemble_system(blocks, N)
        with monkeypatch.context() as patch:
            patch.setattr(solve_module, "solve_linear", _no_direct_solve)
            x, residual = sweep.solve(system)
        direct, _ = solve_linear(system.matrix, system.rhs, system.sectors)
        assert residual <= 1e-10
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        errs = quad.errors(x[:2 * ns].reshape(ns, 2), x[2 * ns:])
        want = quad.errors(direct[:2 * ns].reshape(ns, 2), direct[2 * ns:])
        assert errs == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("k", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [1, 2])
def test_sweep_matches_its_one_sector_path(mesh_pairs, monkeypatch, level,
                                          k):
    """W and y of the sector factor match the one-sector path within 1e-12
    relative, and W the real part of a full solve of V; each column of W is
    solved only in the blocks its mode lives in, and the imaginary part
    the sweep drops from W is at most 1e-14 of max |W|."""
    disc, ann = mesh_pairs[level]
    dropped, backward = [], solve_module._Factor._backward
    monkeypatch.setattr(solve_module._Factor, "_backward",
                        lambda lu, x: dropped.append(backward(lu, x).imag)
                        or backward(lu, x))
    sweep = LowRankSweep(assembly.assemble_blocks(disc, ann,
                                                  PhysicalConfig(k=k)), 20)
    monkeypatch.undo()
    plain = LowRankSweep(assembly.assemble_blocks(
        dataclasses.replace(disc, rotations=None), ann,
        PhysicalConfig(k=k)), 20)
    assert len(plain._lu._lu) == 1
    for got, want in ((sweep.w, plain.w), (sweep._y, plain._y)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    scale = np.max(np.abs(sweep.w))
    # one back transform per block pair, then the one of y
    assert len(dropped) == N_ANGULAR // 2 + 2
    assert max(np.max(np.abs(d)) for d in dropped[:-1]) <= 1e-14 * scale
    v = np.zeros(sweep.w.shape)
    v[sweep._dofs] = sweep._columns
    full = sweep._lu.solve(v)
    assert np.linalg.norm(full.real - sweep.w) \
        <= 1e-12 * np.linalg.norm(sweep.w)


@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_sweep_solves_no_system_per_order_and_keeps_matrix0(
        mesh_pairs, monkeypatch, level, k):
    """Once the sweep is built, orders 1..20 call no solve of its factor and
    take no fallback, and A0 is left bitwise as it was: the real factor is
    built from ``matrix0.real``, a view that shares A0's data, and nothing
    writes through it."""
    disc, ann = mesh_pairs[level]
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig(k=k))
    a0 = blocks.matrix0
    before = [a.copy() for a in (a0.indptr, a0.indices, a0.data)]
    sweep = LowRankSweep(blocks, 20)
    solves = []
    factor_solve = solve_module._Factor.solve
    monkeypatch.setattr(solve_module, "solve_linear", _no_direct_solve)
    monkeypatch.setattr(solve_module._Factor, "solve",
                        lambda lu, rhs: solves.append(rhs.shape)
                        or factor_solve(lu, rhs))
    for N in range(1, 21):
        system = assembly.assemble_system(blocks, N)
        _, residual = sweep.solve(system)
        assert residual <= 1e-10
    assert solves == []
    for old, new in zip(before, (a0.indptr, a0.indices, a0.data)):
        assert old.dtype == new.dtype and np.array_equal(old, new)


def _scattered_backward(lu, x):
    """``_Factor._backward`` by a scatter of the inverse FFT over the
    sector table, the reference of its per-unknown gather."""
    z = np.empty((len(lu._slot), x.shape[2]), complex)
    z[lu._sec.orbits] = np.fft.ifft(
        x[(lu._m - lu._shift) % len(x), lu._q], axis=0, norm="ortho")
    return solve_module._pairs(z, lu._sec.pairs, solve_module._V.conj().T)


@pytest.mark.parametrize("k", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_back_transform_gather_is_the_scatter_bitwise(mesh_pairs, monkeypatch,
                                                     level, k):
    """W and y, with every unknown read from its own (sector, slot) row of
    the inverse FFT, are bitwise those of the scatter over the sector table
    (the disc centre, which fills its columns, from the last sector)."""
    disc, ann = mesh_pairs[level]
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig(k=k))
    sweep = LowRankSweep(blocks, 20)
    monkeypatch.setattr(solve_module._Factor, "_backward",
                        _scattered_backward)
    reference = LowRankSweep(blocks, 20)
    assert np.array_equal(sweep.w, reference.w)
    assert np.array_equal(sweep._y, reference._y)


@pytest.mark.parametrize("k", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_split_residual_matches_the_full_matrix_residual(mesh_pairs, level,
                                                         k):
    """A swept order's residual, A0 x - P U diag(d) U^T P^T x - b from the
    factored operator, is the residual of its full system matrix within
    1e-14 absolute and 5% relative (measured at most 1.0e-15 and 1.3% over
    L1-L3, k = 1, 2, 4 and N = 1..20, on residuals of 3e-14 to 4e-13)."""
    disc, ann = mesh_pairs[level]
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig(k=k))
    sweep = LowRankSweep(blocks, 20)
    for N in range(1, 21):
        system = assembly.assemble_system(blocks, N)
        x, residual = sweep.solve(system)
        assert N in sweep.kept
        full = (np.linalg.norm(system.matrix @ x - system.rhs)
                / np.linalg.norm(system.rhs))
        assert abs(residual - full) <= min(1e-14, 0.05 * full)
        assert residual <= 1e-10


@pytest.mark.parametrize("failure", [None, "singular", "wrong"])
def test_only_fallback_rows_form_their_matrix(monkeypatch, failure):
    """A swept row calls no ``dtn.assemble_dtn_matrix`` and never forms its
    ``FemSystem.matrix``.  When A0 cannot be factored, or the sweep's answer
    misses the residual gate, each row falls back to the direct solve and
    forms its matrix exactly once."""
    cfg = StudyConfig(levels=(1,), n_values=(1, 2, 3, 4))
    formed, series = [], []
    lazy, dtn_matrix = assembly.FemSystem.matrix, dtn.assemble_dtn_matrix

    def matrix(system):
        if "matrix" not in system.__dict__:
            formed.append(system.config.N)
        return lazy.__get__(system, type(system))

    monkeypatch.setattr(assembly.FemSystem, "matrix", property(matrix))
    monkeypatch.setattr(dtn, "assemble_dtn_matrix", lambda *args:
                        series.append(args[3]) or dtn_matrix(*args))
    if failure == "singular":
        factor_init = solve_module._Factor.__init__

        def a0_fails(lu, matrix, *args):
            if not formed:   # A0 is factored before any row's matrix
                raise RuntimeError("Factor is exactly singular")
            factor_init(lu, matrix, *args)
        monkeypatch.setattr(solve_module._Factor, "__init__", a0_fails)
    elif failure == "wrong":
        combine = LowRankSweep.combine
        monkeypatch.setattr(LowRankSweep, "combine",
                            lambda sweep, c: 1.5 * combine(sweep, c))
    result = harness.truncation_study(cfg)
    rows = [] if failure is None else list(cfg.n_values)
    assert formed == rows and series == rows
    assert max(result.residuals) <= 1e-10


def test_dtn_terms_reach_the_module_attributes_positionally(monkeypatch):
    """A direct solve takes B_N from one call of
    ``assembly.dtn_ops.assemble_dtn_matrix(trace, k, radius, order)``, with
    positional arguments only; a swept curve makes no such call and takes
    its factor from one ``dtn_factor`` call at the largest order."""
    matrices, factors = [], []
    assemble, factor = dtn.assemble_dtn_matrix, dtn.dtn_factor

    def spy(calls, function):
        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(assembly.dtn_ops, "assemble_dtn_matrix",
                        spy(matrices, assemble))
    monkeypatch.setattr(dtn, "dtn_factor", spy(factors, factor))
    cfg = StudyConfig(levels=(1,), k_values=(1.0, 4.0), n_values=(3, 1, 4, 2))
    _, sol, _ = harness.run_single(cfg, 4.0, 5, 1)
    (args, kwargs), = matrices
    assert kwargs == {} and len(args) == 4
    assert isinstance(args[0], M.BoundaryTrace)
    assert np.array_equal(args[0].node_indices,
                          M.boundary_trace(sol.annulus_mesh,
                                           M.GAMMA_R).node_indices)
    assert args[1:] == (4.0, cfg.R, 5)

    matrices.clear()
    factors.clear()
    harness.truncation_study(cfg)
    assert matrices == []
    assert [args[1:] for args, _ in factors] == [(1.0, cfg.R, 4),
                                                  (4.0, cfg.R, 4)]


class _WrongFactor:
    """An LU whose solves are off by half: the residual gate must catch it."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs, trans="N"):
        return 1.5 * self._lu.solve(rhs, trans=trans)


@pytest.mark.parametrize("failure", ["singular", "wrong"])
def test_sweep_falls_back_to_the_direct_solve(monkeypatch, failure):
    """When SuperLU calls A0 singular, or its factor solves wrongly, every
    order is solved directly: the rows are the direct path's, bitwise."""
    cfg = StudyConfig(levels=(1,), n_values=(1, 2, 3, 4))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "LowRankSweep", lambda blocks, order: None)
        direct = harness.truncation_study(cfg)

    splu, factor_init, factored = (solve_module.spla.splu,
                                   solve_module._Factor.__init__, [])

    def counting(lu, matrix, *args):
        factored.append(matrix.shape)
        factor_init(lu, matrix, *args)

    def a0_fails(matrix, *args, **kwargs):
        if len(factored) > 1:
            return splu(matrix, *args, **kwargs)
        if failure == "singular":   # the curve's A0 is factored first
            raise RuntimeError("Factor is exactly singular")
        return _WrongFactor(splu(matrix, *args, **kwargs))

    monkeypatch.setattr(solve_module._Factor, "__init__", counting)
    monkeypatch.setattr(solve_module.spla, "splu", a0_fails)
    swept = harness.truncation_study(cfg)
    assert len(factored) == 1 + len(cfg.n_values)   # A0, then each order
    assert [dataclasses.astuple(r)[:6] for r in swept.reports] == \
        [dataclasses.astuple(r)[:6] for r in direct.reports]
    assert max(swept.residuals) <= 1e-10
