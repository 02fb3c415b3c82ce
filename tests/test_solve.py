import dataclasses
import gc
import importlib
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dtnfem import PhysicalConfig, StudyConfig, analytic, assembly, harness
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
    x, residual = solve_linear(eye, rhs, np.arange(10))
    assert np.array_equal(x, rhs)
    assert residual == 0.0


def test_residual_on_reference_configuration(solution16):
    assert solution16.residual <= 1e-10


def test_solve_keeps_the_solver_residual(system16, solution16):
    x, residual = solve_linear(system16.matrix, system16.rhs,
                               system16.ordering)
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
    x, _ = solve_linear(system16.matrix, system16.rhs, system16.ordering)
    rng = np.random.default_rng(3)
    perm = rng.permutation(system16.matrix.shape[0])
    P = sp.coo_matrix((np.ones(len(perm)), (np.arange(len(perm)), perm))).tocsr()
    # the permuted system in its own numbering: a different elimination order
    xp, _ = solve_linear((P @ system16.matrix @ P.T).tocsr(), P @ system16.rhs,
                         np.arange(len(perm)))
    assert np.max(np.abs(P.T @ xp - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))


def test_deterministic_bitwise(system16):
    a, _ = solve_linear(system16.matrix, system16.rhs, system16.ordering)
    b, _ = solve_linear(system16.matrix, system16.rhs, system16.ordering)
    assert np.array_equal(a, b)


def test_singular_system_raises():
    n = 6
    matrix = sp.csr_matrix((n, n), dtype=complex)
    rhs = np.ones(n, dtype=complex)
    with pytest.raises(SingularSystemError):
        solve_linear(matrix, rhs, np.arange(n))


def test_size_mismatch_rejected():
    eye = sp.identity(4, format="csr", dtype=complex)
    with pytest.raises(ValueError):
        solve_linear(eye, np.ones(5, dtype=complex), np.arange(4))


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


@pytest.mark.parametrize("level", [1, 2, 3])
def test_locator_matches_brute_force_reference(mesh_pairs, level):
    disc, ann = mesh_pairs[level]
    sol = _random_solution(disc, ann, level)
    rng = np.random.default_rng(10 + level)
    apothem = np.cos(np.pi / N_ANGULAR) * 0.999
    # a line through the centre, crossing the hole: only its annulus part
    line = np.linspace(-R * apothem, R * apothem, 401)
    across = np.column_stack([line, 0.3 * line]) / np.hypot(1.0, 0.3)
    across = across[np.hypot(*across.T) >= R0 * 1.001]
    for mesh, which, values, locator, pattern in (
            (disc, "u", sol.u_nodal, sol._disc_locator,
             _area_uniform(rng, 100, 0.0, R0 * apothem)),
            (ann, "p", sol.p_nodal, sol._annulus_locator,
             np.vstack([_area_uniform(rng, 100, R0 * 1.001, R * apothem),
                        across]))):
        scale = np.max(np.abs(values))
        points = np.vstack([pattern, mesh.nodes, _edge_midpoints(mesh)])
        want_t, want_lam = _reference_locate(mesh, points)
        assert np.all(want_t >= 0)
        interior = want_lam.min(axis=1) > 1e-9
        assert np.count_nonzero(interior[:len(pattern)]) >= len(pattern) - 2
        want_lam = np.clip(want_lam, 0.0, None)
        want_lam /= want_lam.sum(axis=1, keepdims=True)
        for i, point in enumerate(points):
            t, lam = locator.locate(point)
            # also at nodes and edge midpoints, where several triangles
            # qualify: no barycentric here is near the 1e-10 threshold, so
            # both pick the same lowest index
            assert t == want_t[i], (which, point)
            got = lam @ values[mesh.triangles[t]]
            want = want_lam[i] @ values[mesh.triangles[want_t[i]]]
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (which, point)
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


# ------------------------------------------------- nested-dissection order

def _level_system(mesh_pairs, level):
    disc, ann = (mesh_pairs[level] if level in mesh_pairs
                 else harness.build_mesh_pair(R0, R, N_ANGULAR, level))
    return assembly.assemble_system(
        assembly.assemble_blocks(disc, ann, PhysicalConfig()), 20)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_ordering_is_a_permutation_with_the_outer_pressures_last(
        mesh_pairs, level):
    system = _level_system(mesh_pairs, level)
    n = system.matrix.shape[0]
    outer = system.dof_map.pressure(
        M.boundary_trace(system.annulus_mesh, M.GAMMA_R).node_indices)
    assert np.array_equal(np.sort(system.ordering), np.arange(n))
    assert np.array_equal(system.ordering[n - len(outer):], outer)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_ordered_solve_matches_the_colamd_solve(mesh_pairs, level):
    """``solve`` (nested dissection) against SuperLU in its own COLAMD
    column order, the order the nested dissection replaced: 1e-12 relative
    in the 2-norm."""
    system = _level_system(mesh_pairs, level)
    sol = solve(system)
    x = np.concatenate([sol.u_nodal.ravel(), sol.p_nodal])
    reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert sol.residual <= 1e-10
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def test_ordering_cuts_fill_below_colamd(mesh_pairs):
    system = _level_system(mesh_pairs, 3)
    matrix, order = system.matrix.tocsr().astype(complex), system.ordering
    colamd = spla.splu(matrix.tocsc())
    nested = spla.splu(matrix[order][:, order].tocsc(),
                            permc_spec="NATURAL")
    assert nested.L.nnz + nested.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_ordered_solves_are_bitwise_equal(system16):
    a, b = solve(system16), solve(system16)
    assert np.array_equal(a.u_nodal, b.u_nodal)
    assert np.array_equal(a.p_nodal, b.p_nodal)
    assert a.residual == b.residual


def test_singular_system_with_an_ordering_raises(system16):
    # the outer-circle pressure rows zeroed: exactly singular
    outer = system16.ordering[-len(M.boundary_trace(
        system16.annulus_mesh, M.GAMMA_R)):]
    keep = np.ones(system16.matrix.shape[0])
    keep[outer] = 0.0
    matrix = (sp.diags(keep) @ system16.matrix).tocsr()
    with pytest.raises(SingularSystemError):
        solve_linear(matrix, system16.rhs, system16.ordering)


def _segment_offsets(part: np.ndarray, width: np.ndarray, n_parts: int):
    """Unknowns before each entry within its part (entries grouped by part),
    and the unknowns of every part."""
    totals = np.bincount(part, weights=width, minlength=n_parts).astype(np.int64)
    before = np.cumsum(width) - width
    return before - (np.cumsum(totals) - totals)[part], totals


def _nested_dissection_reference(matrix, coords, lead, width, root):
    """``assembly._nested_dissection`` as first written, level-synchronous:
    every part of one depth is cut at once, with one sort per depth, and the
    tree is laid out in postorder (left, right, separator) so a part's
    positions in ``order`` are fixed when it is cut."""
    n, m = matrix.shape[0], len(lead)
    order = np.empty(n, dtype=np.int64)
    order[n - len(root):] = root
    node_of = np.full(n, -1, dtype=np.int64)
    node_of[lead] = np.arange(m)
    node_of[root] = -1
    ei = np.repeat(node_of, np.diff(matrix.indptr))
    ej = node_of[matrix.indices]
    upper = (ej > ei) & (ei >= 0)
    ei, ej = ei[upper], ej[upper]
    rank = np.empty((2, m), dtype=np.int64)   # place along x and along y
    for axis in range(2):
        rank[axis, np.argsort(coords[:, axis], kind="stable")] = np.arange(m)

    def place(slots, nodes):
        order[slots] = lead[nodes]
        pair = width[nodes] == 2
        order[slots[pair] + 1] = lead[nodes[pair]] + 1

    # the nodes still to place, grouped by part, and each part's first slot
    nodes = np.flatnonzero(node_of[lead] >= 0)
    part = np.zeros(len(nodes), dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    while len(nodes):
        counts = np.bincount(part)
        local, size = _segment_offsets(part, width[nodes], len(counts))
        leaf = size[part] <= assembly._ND_LEAF
        place(first[part[leaf]] + local[leaf], nodes[leaf])
        cut = size > assembly._ND_LEAF
        if not cut.any():
            break
        nodes, part = nodes[~leaf], (np.cumsum(cut) - 1)[part[~leaf]]
        counts, first = counts[cut], first[cut]
        starts = np.cumsum(counts) - counts

        # sort each part along its wider axis and cut it at the median node
        xy = coords[nodes]
        span = np.maximum.reduceat(xy, starts) - np.minimum.reduceat(xy, starts)
        wide = (span[:, 1] > span[:, 0]).astype(np.int64)
        nodes = nodes[np.argsort(part * m + rank[wide[part], nodes])]
        right = np.arange(len(nodes)) - starts[part] >= counts[part] // 2
        side = np.full(m, -1, dtype=np.int64)   # 2 part + right, -1 if placed
        side[nodes] = 2 * part + right

        # separator: the left ends of the edges that cross a cut
        si, sj = side[ei], side[ej]
        same = (si >= 0) & (si >> 1 == sj >> 1)
        crossing = same & (si != sj)
        is_sep = np.zeros(m, dtype=bool)
        is_sep[np.where(si & 1, ej, ei)[crossing]] = True
        keep = same & ~crossing
        ei, ej = ei[keep], ej[keep]

        # left child, right child, then the separator, inside each part
        sep = is_sep[nodes]
        child = side[nodes]
        sizes = np.bincount(child[~sep], weights=width[nodes[~sep]],
                            minlength=2 * len(counts)).astype(np.int64)
        child_first = np.repeat(first, 2)
        child_first[1::2] += sizes[0::2]
        sep_part = part[sep]
        sep_local, _ = _segment_offsets(sep_part, width[nodes[sep]],
                                        len(counts))
        place(child_first[2 * sep_part + 1] + sizes[2 * sep_part + 1]
              + sep_local, nodes[sep])

        kept = sizes > 0
        nodes, part = nodes[~sep], (np.cumsum(kept) - 1)[child[~sep]]
        first = child_first[kept]
    return order


def _reference_ordering(disc, ann, blocks):
    """The reference order from the inputs ``assemble_blocks`` passes."""
    dof_map = blocks.dof_map
    ns, nf = dof_map.n_solid_nodes, dof_map.n_fluid_nodes
    lead = np.append(dof_map.displacement(np.arange(ns), 0),
                     dof_map.pressure(np.arange(nf)))
    return _nested_dissection_reference(
        blocks.matrix0, np.vstack([disc.nodes, ann.nodes]), lead,
        np.repeat([2, 1], [ns, nf]),
        dof_map.pressure(blocks.trace_r.node_indices))


@pytest.mark.parametrize("n_angular", [8, 10, 16, 24, 32])
def test_ordering_matches_the_level_synchronous_reference(n_angular):
    """The recursive order is bitwise the level-synchronous one it replaced,
    over radii from thin to wide bands and levels 0-3 (0-2 from 24 sectors);
    a pair whose refinement is refused is skipped."""
    for R0, R in ((1.0, 1.5), (1.0, 2.0), (0.5, 3.0), (2.0, 2.6)):
        for level in range(4 if n_angular < 24 else 3):
            try:
                disc, ann = harness.build_mesh_pair(R0, R, n_angular, level)
            except ValueError as exc:
                assert "inverts a triangle" in str(exc)
                continue
            blocks = assembly.assemble_blocks(disc, ann,
                                              PhysicalConfig(R0=R0, R=R))
            assert np.array_equal(blocks.ordering,
                                  _reference_ordering(disc, ann, blocks)), \
                (R0, R, level)


def test_ordering_matches_the_reference_at_level_four():
    disc, ann = harness.build_mesh_pair(R0, R, N_ANGULAR, 4)
    blocks = assembly.assemble_blocks(disc, ann, PhysicalConfig())
    assert np.array_equal(blocks.ordering,
                          _reference_ordering(disc, ann, blocks))


def test_assemble_blocks_leaves_no_reference_cycles(mesh_pairs):
    """Building the blocks, the order included, leaves no garbage for the
    cyclic collector: its work arrays are freed when it returns."""
    disc, ann = mesh_pairs[2]
    gc.collect()
    gc.disable()
    try:
        assembly.assemble_blocks(disc, ann, PhysicalConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------- low-rank sweep

def _no_direct_solve(matrix, rhs, ordering):
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
        direct, _ = solve_linear(system.matrix, system.rhs, system.ordering)
        assert residual <= 1e-10
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        errs = quad.errors(x[:2 * ns].reshape(ns, 2), x[2 * ns:])
        want = quad.errors(direct[:2 * ns].reshape(ns, 2), direct[2 * ns:])
        assert errs == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_sweep_solves_no_system_per_order_and_keeps_matrix0(
        mesh_pairs, monkeypatch, level, k):
    """Once the sweep is built, orders 1..20 call no solve of its factor and
    take no fallback, and A0 is left bitwise as it was: the real factor is
    built from a copy, not from the ``real`` view that shares its data."""
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


class _WrongFactor:
    """An LU whose solves are off by half: the residual gate must catch it."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs):
        return 1.5 * self._lu.solve(rhs)


@pytest.mark.parametrize("failure", ["singular", "wrong"])
def test_sweep_falls_back_to_the_direct_solve(monkeypatch, failure):
    """When SuperLU calls A0 singular, or its factor solves wrongly, every
    order is solved directly: the rows are the direct path's, bitwise."""
    cfg = StudyConfig(levels=(1,), n_values=(1, 2, 3, 4))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "LowRankSweep", lambda blocks, order: None)
        direct = harness.truncation_study(cfg)

    splu, factored = solve_module.spla.splu, []

    def a0_fails(matrix, *args, **kwargs):
        factored.append(matrix.shape)
        if len(factored) > 1:
            return splu(matrix, *args, **kwargs)
        if failure == "singular":   # the curve's A0 is factored first
            raise RuntimeError("Factor is exactly singular")
        return _WrongFactor(splu(matrix, *args, **kwargs))

    monkeypatch.setattr(solve_module.spla, "splu", a0_fails)
    swept = harness.truncation_study(cfg)
    assert len(factored) == 1 + len(cfg.n_values)   # A0, then each order
    assert [dataclasses.astuple(r)[:6] for r in swept.reports] == \
        [dataclasses.astuple(r)[:6] for r in direct.reports]
    assert max(swept.residuals) <= 1e-10
