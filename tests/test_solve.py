import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from dtnfem import PhysicalConfig, assembly
from dtnfem import mesh as M
from dtnfem.solve import (FieldSolution, SingularSystemError, evaluate_field,
                          solve, solve_linear)


@pytest.fixture(scope="module")
def system16():
    disc = M.build_disc_mesh(1.0, 16)
    ann = M.build_annulus_mesh(1.0, 2.0, 16)
    return assembly.assemble_system(disc, ann, PhysicalConfig())


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
    x, residual = solve_linear(system16.matrix, system16.rhs)
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
    x, _ = solve_linear(system16.matrix, system16.rhs)
    rng = np.random.default_rng(3)
    perm = rng.permutation(system16.matrix.shape[0])
    P = sp.coo_matrix((np.ones(len(perm)), (np.arange(len(perm)), perm))).tocsr()
    xp, _ = solve_linear((P @ system16.matrix @ P.T).tocsr(), P @ system16.rhs)
    assert np.max(np.abs(P.T @ xp - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))


def test_deterministic_bitwise(system16):
    a, _ = solve_linear(system16.matrix, system16.rhs)
    b, _ = solve_linear(system16.matrix, system16.rhs)
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
    # walking from the 0-angle side can hit the annulus hole; the exhaustive
    # fallback must still find the triangle on the far side
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
    sol = solve(assembly.assemble_system(disc, ann, PhysicalConfig()))
    assert np.isfinite(evaluate_field(sol, (1.5, 0.0), "p"))
    assert np.all(np.isfinite(evaluate_field(sol, (0.2, 0.1), "u")))
    mesh_ref = weakref.ref(ann)
    del disc, ann, sol
    gc.collect()
    assert mesh_ref() is None
