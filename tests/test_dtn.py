import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from dtnfem import dtn, special
from dtnfem.mesh import GAMMA_R, BoundaryTrace, boundary_trace, build_annulus_mesh


@pytest.fixture(scope="module")
def trace():
    return boundary_trace(build_annulus_mesh(1.0, 2.0, 16), GAMMA_R)


# -------------------------------------------------------- quadrature oracles

def moment_by_quadrature(trace, j, n, npts=10):
    """10-point Gauss per interval on the angular hat against e^{-in phi}."""
    delta = 2 * np.pi / len(trace)
    tj = trace.angles[j]
    xg, wg = leggauss(npts)
    total = 0.0 + 0.0j
    for a, b, rising in ((tj - delta, tj, True), (tj, tj + delta, False)):
        t = 0.5 * (a + b) + 0.5 * (b - a) * xg
        hat = (t - a) / delta if rising else (b - t) / delta
        total += 0.5 * (b - a) * np.sum(wg * hat * np.exp(-1j * n * t))
    return total


def matrix_by_double_quadrature(trace, k, radius, order, npts=10):
    """Direct double integral of the cosine-kernel series (primed sum)."""
    m = len(trace)
    delta = 2 * np.pi / m
    xg, wg = leggauss(npts)

    def hat_nodes(j):
        tj = trace.angles[j]
        ts, ws, vals = [], [], []
        for a, b, rising in ((tj - delta, tj, True), (tj, tj + delta, False)):
            t = 0.5 * (a + b) + 0.5 * (b - a) * xg
            ts.append(t)
            ws.append(0.5 * (b - a) * wg)
            vals.append((t - a) / delta if rising else (b - t) / delta)
        return np.concatenate(ts), np.concatenate(ws), np.concatenate(vals)

    pre = [hat_nodes(j) for j in range(m)]
    B = np.zeros((m, m), dtype=complex)
    for n in range(order + 1):
        factor = k * radius * special.hankel1_derivative(n, k * radius) \
            / (np.pi * special.hankel1(n, k * radius))
        if n == 0:
            factor *= 0.5
        for i in range(m):
            ti, wi, vi = pre[i]
            for j in range(m):
                tj, wj, vj = pre[j]
                kern = np.cos(n * (ti[:, None] - tj[None, :]))
                B[i, j] += factor * np.einsum("a,b,ab->", wi * vi, wj * vj, kern)
    return B


# -------------------------------------------------------------------- moments

def factor_moments(trace, order):
    """Hat moments M[j][n], columns n = -order..order, from the real factor:
    M[j][0] = U[j,0] and M[j][+-n] = U[j,2n-1] -+ i U[j,2n]."""
    columns, _ = dtn.dtn_factor(trace, 1.0, 2.0, order)
    cos, sin = columns[:, 1::2], columns[:, 2::2]
    return np.hstack([(cos + 1j * sin)[:, ::-1], columns[:, :1],
                      cos - 1j * sin])


def moment(trace, j, n):
    return factor_moments(trace, abs(n))[j, abs(n) + n]


def test_moment_zero_mode_is_spacing(trace):
    for j in (0, 5, 11):
        assert moment(trace, j, 0) == pytest.approx(trace.spacing, abs=1e-15)


def test_moment_closed_form_vs_quadrature(trace):
    mom = factor_moments(trace, 8)
    for j in (0, 3, 9):
        for n in range(-8, 9):
            assert abs(mom[j, 8 + n] - moment_by_quadrature(trace, j, n)) \
                < 1e-12


def test_moment_partition_of_unity(trace):
    mom = factor_moments(trace, 7)
    for n in (1, 2, 5, 7):
        assert abs(np.sum(mom[:, 7 + n])) < 1e-12


def test_moment_conjugation_symmetry(trace):
    """z_{-n} = z_n and real columns: the factor pairs +n and -n exactly."""
    columns, weights = dtn.dtn_factor(trace, 1.0, 2.0, 6)
    assert np.isrealobj(columns)
    assert np.array_equal(weights[1::2], weights[2::2])


def test_operator_moment_row_zero(trace):
    columns, weights = dtn.dtn_factor(trace, 1.0, 2.0, 5)
    assert np.allclose(columns[:, 0], trace.spacing, atol=1e-15)
    assert weights.shape == (11,)


def test_nonuniform_trace_rejected(trace):
    """A non-uniform trace, and a negative, non-integer or too large order,
    are refused by both the factor and the matrix."""
    angles = trace.angles.copy()
    angles[3] += 1e-6
    bad = BoundaryTrace(node_indices=trace.node_indices.copy(),
                        angles=angles, radius=trace.radius)
    with pytest.raises(ValueError):
        dtn.dtn_factor(bad, 1.0, 2.0, 3)
    for build in (dtn.dtn_factor, dtn.assemble_dtn_matrix):
        for order in (-1, 2.5, special.MAX_ORDER + 1):
            with pytest.raises(ValueError):
                build(trace, 1.0, 2.0, order)


@settings(max_examples=30, deadline=None)
@given(j=st.integers(min_value=0, max_value=15),
       n=st.integers(min_value=-12, max_value=12))
def test_moment_property(trace, j, n):
    got = moment(trace, j, n)
    assert abs(got - moment_by_quadrature(trace, j, n)) < 1e-12


# --------------------------------------------------------------------- matrix

def test_matrix_order_zero_rank_one(trace):
    B = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, 0)
    z0 = special.dtn_coefficient(0, 1.0, 2.0)
    want = z0 * 2.0 / (2 * np.pi) * trace.spacing ** 2 \
        * np.ones((len(trace), len(trace)))
    assert np.max(np.abs(B - want)) < 1e-15


def test_matrix_vs_double_quadrature(trace):
    B = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, 5)
    Bq = matrix_by_double_quadrature(trace, 1.0, 2.0, 5)
    assert np.max(np.abs(B - Bq)) < 1e-10


def test_matrix_exactly_symmetric(trace):
    B = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, 7)
    assert np.array_equal(B, B.T)
    assert not np.array_equal(B, np.conj(B.T))  # complex symmetric, not Hermitian


def test_matrix_rank_bound(trace):
    for order in (0, 2, 5):
        B = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, order)
        sv = np.linalg.svd(B, compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) <= 2 * order + 1


def test_factor_reproduces_the_matrix_and_nests(trace):
    """B = U diag(d) U^T with real columns [1, cos 1, sin 1, ...], and the
    order-M factor is the leading 2M+1 columns of the order-N one."""
    columns, weights = dtn.dtn_factor(trace, 1.0, 2.0, 7)
    assert columns.shape == (len(trace), 15) and np.isrealobj(columns)
    B = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, 7)
    assert np.max(np.abs((columns * weights) @ columns.T - B)) \
        < 1e-14 * np.max(np.abs(B))
    for order in (0, 3):
        c, d = dtn.dtn_factor(trace, 1.0, 2.0, order)
        assert np.allclose(c, columns[:, :2 * order + 1], rtol=1e-15, atol=0)
        assert np.array_equal(d, weights[:2 * order + 1])


def test_mode_space_matrix_space_consistency(trace):
    rng = np.random.default_rng(0)
    v = rng.normal(size=len(trace)) + 1j * rng.normal(size=len(trace))
    order = 6
    Bv = dtn.assemble_dtn_matrix(trace, 1.0, 2.0, order) @ v
    mom = factor_moments(trace, order)
    coeffs = (mom.T @ v) / (2 * np.pi)          # Fourier coefficients of the trace
    z = np.array([special.dtn_coefficient(abs(n), 1.0, 2.0)
                  for n in range(-order, order + 1)])
    Bv_modes = trace.radius * (np.conj(mom) @ (z * coeffs))
    assert np.max(np.abs(Bv - Bv_modes)) < 1e-12 * np.max(np.abs(Bv))


# ----------------------------------------------------------------- mode space

def test_apply_modal_single_mode(trace):
    """The constant trace is mode 0 alone (the hats sum to one), so every
    order maps it to R * spacing * z_0 at each node, up to the rounding of
    the vanishing cos/sin sums."""
    z0 = special.dtn_coefficient(0, 1.0, 2.0)
    for order in (0, 4):
        columns, weights = dtn.dtn_factor(trace, 1.0, 2.0, order)
        Bv = (columns * weights) @ (columns.T @ np.ones(len(trace)))
        assert np.max(np.abs(Bv - 2.0 * trace.spacing * z0)) \
            < 1e-14 * abs(2.0 * trace.spacing * z0)


def test_apply_modal_truncation_inactive(trace):
    """The weights are the mode impedances, d_0 = R z_0 / 2pi and
    d_{2n-1} = d_{2n} = R z_n / pi, and any order >= M acts identically
    on the modes |n| <= M."""
    M, R = 6, 2.0
    _, full = dtn.dtn_factor(trace, 1.0, R, M)
    z = np.array([special.dtn_coefficient(n, 1.0, R) for n in range(M + 1)])
    assert np.allclose(full[0] * 2 * np.pi / R, z[0], rtol=0, atol=1e-15)
    assert np.allclose(full[1::2] * np.pi / R, z[1:], rtol=0, atol=1e-15)
    assert np.array_equal(full[1::2], full[2::2])
    _, longer = dtn.dtn_factor(trace, 1.0, R, M + 5)
    assert np.array_equal(longer[:2 * M + 1], full)


def test_decay_single_mode_content():
    M = 10
    p = np.zeros(2 * M + 1, dtype=complex)
    p[M + 3] = 1.0   # mode n = +3
    table = dtn.truncation_decay_check(1.0, 1.0, 2.0, p, range(0, 8))
    assert np.all(table.tails[3:] == 0.0)
    assert np.all(table.tails[:3] > 0.0)


@pytest.mark.parametrize("t", [0.3, 0.45, 0.6])
def test_decay_geometric_content_ratio(t):
    M = 30
    p = np.array([t ** abs(n) for n in range(-M, M + 1)], dtype=complex)
    table = dtn.truncation_decay_check(1.0, 1.0, 2.0, p, range(0, 16))
    assert t <= table.fitted_ratio < 1.15 * t


def test_decay_larger_radius_smaller_ratio():
    # same geometric source content measured on a farther circle decays faster
    M = 25
    n = np.arange(-M, M + 1)
    h2 = np.array([special.hankel1(abs(m), 2.0) for m in n])
    h4 = np.array([special.hankel1(abs(m), 4.0) for m in n])
    source = np.array([0.5 ** abs(m) for m in n], dtype=complex)
    t2 = dtn.truncation_decay_check(1.0, 1.0, 2.0, source, range(0, 14))
    t4 = dtn.truncation_decay_check(1.0, 1.0, 4.0, source * h4 / h2,
                                    range(0, 14))
    assert t4.fitted_ratio < t2.fitted_ratio < 1.0


def test_decay_validation():
    with pytest.raises(ValueError):
        dtn.truncation_decay_check(1.0, 2.0, 1.0, np.ones(5, complex), range(3))
    with pytest.raises(ValueError):
        dtn.truncation_decay_check(1.0, 1.0, 2.0, np.ones(4, complex), range(3))
