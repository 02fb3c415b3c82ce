"""Integer-order Bessel/Hankel functions and the circular-boundary mode impedances.

Thin, hard-checked wrappers around scipy.special: invalid arguments or
overflow raise immediately instead of letting NaN/Inf leak into assembled
matrices.  All functions accept a scalar or ndarray argument ``x`` and return
a matching scalar or ndarray.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

# Accuracy contract (<= 1e-12 relative) holds for orders up to here; larger
# orders are refused outright rather than silently degraded.
MAX_ORDER = 200

__all__ = [
    "MAX_ORDER",
    "bessel_j",
    "bessel_y",
    "hankel1",
    "hankel1_derivative",
    "dtn_coefficient",
    "dtn_coefficients",
]


def _check_order(n):
    if not (0 <= n < np.inf and n == int(n)):   # NaN fails the first test
        raise ValueError(f"order must be a non-negative integer, got {n!r}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds MAX_ORDER={MAX_ORDER}")
    return int(n)


def _as_scalar_or_array(x, values):
    if np.ndim(x) == 0:
        return values[()] if isinstance(values, np.ndarray) else values
    return values


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{what} overflowed the floating-point range")
    return values


def bessel_j(n: int, x):
    """J_n(x) for integer n >= 0 and real x >= 0."""
    n = _check_order(n)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    out = _check_finite(_sp.jv(n, xa), f"J_{n}")
    return _as_scalar_or_array(x, out)


def bessel_y(n: int, x):
    """Y_n(x) for integer n >= 0 and real x > 0 (singular at x = 0)."""
    n = _check_order(n)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("bessel_y requires x > 0")
    out = _check_finite(_sp.yv(n, xa), f"Y_{n}")
    return _as_scalar_or_array(x, out)


def hankel1(n: int, x):
    """Outgoing Hankel function H_n^(1)(x) = J_n(x) + i Y_n(x), x > 0."""
    return bessel_j(n, x) + 1j * bessel_y(n, x)


def hankel1_derivative(n: int, x):
    """d/dx H_n^(1)(x), via H'_n = H_{n-1} - (n/x) H_n (H'_0 = -H_1)."""
    n = _check_order(n)
    if n == 0:
        return -hankel1(1, x)
    xa = np.asarray(x, dtype=float)
    out = hankel1(n - 1, xa) - (n / xa) * hankel1(n, xa)
    return _as_scalar_or_array(x, out)


def dtn_coefficient(n: int, k: float, radius: float) -> complex:
    """Mode-n impedance z_n = k H'_n(kR)/H_n(kR) of the outgoing field on r = R.

    Im(z_n) > 0 for every mode (outgoing-radiation sign); Re(z_n) -> -n/R for
    large n, the static limit of the absorbing boundary.
    """
    _check_impedance_args(k, radius)
    x = k * radius
    z = k * hankel1_derivative(n, x) / hankel1(n, x)
    return _check_finite(complex(z), f"dtn coefficient z_{n}")


def _check_impedance_args(k, radius):
    if k <= 0.0 or radius <= 0.0:
        raise ValueError("dtn_coefficient requires k > 0 and radius > 0")


def dtn_coefficients(order: int, k: float, radius: float) -> np.ndarray:
    """z_0..z_order from one J and one Y table of orders 0..order+1, by the
    arithmetic of :func:`dtn_coefficient`, so entry n equals
    ``dtn_coefficient(n, k, radius)`` bitwise."""
    _check_impedance_args(k, radius)
    order = _check_order(order)
    x = k * radius
    n = np.arange(order + 2)
    with np.errstate(all="ignore"):   # a non-finite z_n is reported below
        h = _sp.jv(n, x) + 1j * _sp.yv(n, x)
        dh = np.append(-h[1], h[:order] - (n[1:order + 1] / x) * h[1:order + 1])
        z = k * dh / h[:order + 1]
    bad = np.flatnonzero(~np.isfinite(z))
    if len(bad):
        raise OverflowError(f"dtn coefficient z_{bad[0]} overflowed the "
                            "floating-point range")
    return z
