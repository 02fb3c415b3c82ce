import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnfem import dtn, special
from dtnfem import mesh as M

mp.mp.dps = 40


# ---------------------------------------------------------------- oracles

def j_series(n, x):
    """Power-series J_n in extended precision, summed until term < 1e-30."""
    x = mp.mpf(x)
    total = mp.mpf(0)
    m = 0
    while True:
        term = (-1) ** m * (x / 2) ** (n + 2 * m) / (
            mp.factorial(m) * mp.factorial(n + m))
        total += term
        if m > 2 and abs(term) < mp.mpf("1e-30"):
            return total
        m += 1


def y0_series(x):
    """Standard series for Y_0 built on the J_0 power series."""
    x = mp.mpf(x)
    s = mp.mpf(0)
    harmonic = mp.mpf(0)
    m = 1
    while True:
        harmonic += mp.mpf(1) / m
        term = (-1) ** (m + 1) * harmonic * (x * x / 4) ** m / mp.factorial(m) ** 2
        s += term
        if abs(term) < mp.mpf("1e-32"):
            break
        m += 1
    return (2 / mp.pi) * ((mp.log(x / 2) + mp.euler) * j_series(0, x) + s)


# values frozen from the extended-precision oracles above
J0_AT_1 = 0.7651976865579665514497
Y0_AT_1 = 0.08825696421567695798293
# z_2(k=1, R=2) from a 40-digit mpmath evaluation of k H'_n(kR)/H_n(kR)
Z2_K1_R2 = -0.4669190679148829650974 + 0.6294632549738521797279j


def _jp(n, x):
    jm1 = -special.bessel_j(1, x) if n == 0 else special.bessel_j(n - 1, x)
    return jm1 - (n / x) * special.bessel_j(n, x)


def _yp(n, x):
    ym1 = -special.bessel_y(1, x) if n == 0 else special.bessel_y(n - 1, x)
    return ym1 - (n / x) * special.bessel_y(n, x)


def wronskian_residual(n, x):
    w = special.bessel_j(n, x) * _yp(n, x) - _jp(n, x) * special.bessel_y(n, x)
    return abs(w - 2 / (np.pi * x)) / (2 / (np.pi * x))


# ---------------------------------------------------------------- bessel_j

def test_j0_at_zero():
    assert special.bessel_j(0, 0.0) == 1.0


def test_jn_at_zero():
    assert special.bessel_j(1, 0.0) == 0.0
    assert special.bessel_j(7, 0.0) == 0.0


def test_j0_matches_series_oracle():
    live = float(j_series(0, 1))
    assert abs(live - J0_AT_1) < 1e-15
    assert abs(special.bessel_j(0, 1.0) - J0_AT_1) < 1e-12 * abs(J0_AT_1)


def test_j_rejects_negative_argument():
    with pytest.raises(ValueError):
        special.bessel_j(0, -1.0)


def test_order_cap_is_explicit():
    with pytest.raises(ValueError):
        special.bessel_j(special.MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError):
        special.bessel_j(-1, 1.0)


@pytest.mark.parametrize("order", [np.inf, -np.inf, np.nan])
def test_non_finite_order_is_the_order_checks_own_refusal(order):
    """A non-finite order is the order check's ValueError wherever it
    enters: the check itself, the public functions and the DtN factor."""
    trace = M.boundary_trace(M.build_annulus_mesh(1.0, 2.0, 16), M.GAMMA_R)
    for call in (lambda: special._check_order(order),
                 lambda: special.bessel_j(order, 1.0),
                 lambda: special.hankel1_derivative(order, 1.0),
                 lambda: special.dtn_coefficients(order, 1.0, 2.0),
                 lambda: dtn.dtn_factor(trace, 1.0, 2.0, order)):
        with pytest.raises(ValueError, match="non-negative integer"):
            call()


def test_j_accepts_arrays():
    x = np.array([0.5, 1.0, 2.0])
    out = special.bessel_j(3, x)
    assert out.shape == x.shape
    assert abs(out[1] - special.bessel_j(3, 1.0)) == 0.0


# ---------------------------------------------------------------- bessel_y

def test_y0_matches_series_oracle():
    live = float(y0_series(1))
    assert abs(live - Y0_AT_1) < 1e-15
    assert abs(special.bessel_y(0, 1.0) - Y0_AT_1) < 1e-12 * abs(Y0_AT_1)


def test_y_rejects_nonpositive():
    with pytest.raises(ValueError):
        special.bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        special.bessel_y(2, -0.5)


def test_y_small_argument_blowup():
    val = special.bessel_y(5, 0.1)
    assert val < 0.0
    assert abs(val) > 1e5
    asym = -math.factorial(4) * (2 / 0.1) ** 5 / np.pi
    assert abs(val / asym - 1.0) < 0.05


def test_y_overflow_raises():
    with pytest.raises(OverflowError):
        special.bessel_y(170, 0.5)


# ---------------------------------------------------------------- hankel1

def test_hankel_components_match_bessel():
    for n, x in ((0, 1.0), (3, 2.5), (17, 8.0)):
        h = special.hankel1(n, x)
        assert h.real == special.bessel_j(n, x)
        assert h.imag == special.bessel_y(n, x)


def test_hankel_frozen_value():
    h = special.hankel1(0, 1.0)
    assert abs(h - (J0_AT_1 + 1j * Y0_AT_1)) < 1e-12


def test_hankel_large_order_asymptotic():
    # |H_n(x)| ~ sqrt(2/(n pi)) (2n/(e x))^n for n >> x
    n, x = 60, 2.0
    asym = np.sqrt(2 / (n * np.pi)) * (2 * n / (np.e * x)) ** n
    ratio = abs(special.hankel1(n, x)) / asym
    assert 0.5 < ratio < 2.0


def test_hankel_derivative_order_zero():
    for x in (0.7, 2.0, 9.0):
        assert special.hankel1_derivative(0, x) == -special.hankel1(1, x)


def test_hankel_derivative_recurrence_n1():
    got = special.hankel1_derivative(1, 2.0)
    want = special.hankel1(0, 2.0) - 0.5 * special.hankel1(1, 2.0)
    assert got == want


def test_hankel_derivative_finite_difference():
    n, x, step = 3, 1.5, 1e-6
    fd = (special.hankel1(n, x + step) - special.hankel1(n, x - step)) / (2 * step)
    got = special.hankel1_derivative(n, x)
    assert abs(got - fd) / abs(fd) < 1e-6


# ---------------------------------------------------------------- dtn_coefficient

def test_z0_reduces_to_hankel_ratio():
    assert special.dtn_coefficient(0, 1.0, 2.0) == \
        -special.hankel1(1, 2.0) / special.hankel1(0, 2.0)


def test_z2_matches_extended_precision():
    z = special.dtn_coefficient(2, 1.0, 2.0)
    assert abs(z - Z2_K1_R2) < 1e-12 * abs(Z2_K1_R2)


def test_large_order_limit():
    z = special.dtn_coefficient(80, 1.0, 2.0)
    assert abs(z.real + 80 / 2.0) < 0.05 * (80 / 2.0)


def test_outgoing_sign():
    # Im z_n = 2/(pi R |H_n(kR)|^2) underflows once |H_n| ~ 1e150; test the
    # strict sign where it is representable
    for k, radius in ((1.0, 2.0), (2.0, 2.0), (4.0, 3.0), (1.0, 1.5)):
        for n in range(0, 61, 5):
            assert special.dtn_coefficient(n, k, radius).imag > 0.0


def test_static_limit_monotone_tail():
    for k, radius in ((1.0, 2.0), (2.0, 2.0)):
        t = np.array([abs(special.dtn_coefficient(n, k, radius) + n / radius)
                      for n in range(121)])
        assert np.all(np.diff(t[10:]) <= 1e-14)
        assert t[120] < 0.1 * t[10]


def test_real_part_deficit_bounded():
    # Re(-z_n) >= n/R - c with a mode-independent c; c = k covers every
    # tested configuration
    for k, radius in ((1.0, 2.0), (2.0, 2.0), (4.0, 3.0), (1.0, 1.5)):
        deficit = max(n / radius + special.dtn_coefficient(n, k, radius).real
                      for n in range(121))
        assert deficit <= k


def test_dtn_domain_errors():
    with pytest.raises(ValueError):
        special.dtn_coefficient(0, -1.0, 2.0)
    with pytest.raises(ValueError):
        special.dtn_coefficient(0, 1.0, 0.0)


@pytest.mark.parametrize("k", [0.3, 1.0, 2.0, 3.7, 10.0])
def test_dtn_table_equals_the_scalar_impedances(k):
    for radius in (1.5, 2.0, 3.0):
        for order in (0, 1, 5, 20, 40):
            loop = np.array([special.dtn_coefficient(n, k, radius)
                             for n in range(order + 1)])
            assert np.array_equal(special.dtn_coefficients(order, k, radius),
                                  loop)


def test_dtn_table_checks():
    with pytest.raises(ValueError):
        special.dtn_coefficients(special.MAX_ORDER + 1, 1.0, 2.0)
    with pytest.raises(ValueError):
        special.dtn_coefficients(-1, 1.0, 2.0)
    with pytest.raises(ValueError):
        special.dtn_coefficients(3, 0.0, 2.0)
    with pytest.raises(ValueError):
        special.dtn_coefficients(3, 1.0, -2.0)
    # H_n(kR) overflows from some mode on: the table names the first mode
    # the scalar function refuses
    k, radius = 0.01, 0.1
    first = next(n for n in range(special.MAX_ORDER + 1)
                 if not _scalar_impedance_is_finite(n, k, radius))
    with pytest.raises(OverflowError, match=f"z_{first} "):
        special.dtn_coefficients(special.MAX_ORDER, k, radius)
    special.dtn_coefficients(first - 1, k, radius)


def _scalar_impedance_is_finite(n, k, radius):
    try:
        special.dtn_coefficient(n, k, radius)
    except OverflowError:
        return False
    return True


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0, 10.0])
def test_wronskian_identity_grid(x):
    for n in range(0, 101, 4):
        assert wronskian_residual(n, x) < 1e-12


def test_three_term_recurrence():
    for x in (0.5, 1.0, 2.0, 4.0, 10.0):
        for n in range(1, 101, 3):
            jnp1 = special.bessel_j(n + 1, x)
            if abs(jnp1) <= 1e-30:
                continue
            rhs = (2 * n / x) * special.bessel_j(n, x) - special.bessel_j(n - 1, x)
            assert abs(jnp1 - rhs) < 1e-10 * abs(jnp1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=80),
       x=st.floats(min_value=0.3, max_value=50.0))
def test_wronskian_property(n, x):
    assert wronskian_residual(n, x) < 1e-11
