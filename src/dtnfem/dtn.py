"""Truncated Dirichlet-to-Neumann operator on the circular artificial boundary.

The operator acts mode-by-mode with impedance z_n = k H'_n(kR)/H_n(kR), and
z_{-n} = z_n.  Its Galerkin matrix over the piecewise-linear (in angle) trace
basis, hats zeta_j of half-width delta centred at phi_j, is dense, complex
symmetric and of rank at most 2N+1.  Pairing the modes +n and -n gives the
real factor used by both the assembly and the low-rank sweep:

    B = U diag(d) U^T,
    U[j][0] = delta, U[j][2n-1] = w_n cos(n phi_j), U[j][2n] = w_n sin(n phi_j),
    d[0] = (R/2pi) z_0,  d[2n-1] = d[2n] = (R/pi) z_n,

with the hat weights w_n = integral of zeta_j(phi) cos(n (phi - phi_j)) dphi
= 4 sin^2(n delta/2) / (n^2 delta).  The columns are ordered [n=0, cos 1,
sin 1, ..., cos N, sin N], so the order-M operator (M <= N) is the first
2M+1 of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import special
from .mesh import BoundaryTrace

__all__ = [
    "DecayTable", "dtn_factor", "assemble_dtn_matrix", "truncation_decay_check",
]

_UNIFORM_TOL = 1e-12


def _check_uniform(trace: BoundaryTrace) -> float:
    """The hat weights are closed-form only for equally spaced trace angles."""
    gaps = np.diff(np.append(trace.angles, trace.angles[0] + 2.0 * np.pi))
    if np.max(np.abs(gaps - trace.spacing)) > _UNIFORM_TOL * 2.0 * np.pi:
        raise ValueError("boundary trace is not uniformly spaced")
    return trace.spacing


def dtn_factor(trace: BoundaryTrace, k: float, radius: float, order: int):
    """Real columns U, shape (m, 2*order+1), and complex weights d with
    B = U diag(d) U^T; column order [n=0, cos 1, sin 1, ..., cos N, sin N]."""
    delta = _check_uniform(trace)
    z = special.dtn_coefficients(order, k, radius)
    n = np.arange(1, order + 1)
    w = 4.0 * np.sin(n * delta / 2.0) ** 2 / (n ** 2 * delta)
    columns = np.empty((len(trace), 2 * order + 1))
    columns[:, 0] = delta
    columns[:, 1::2] = w * np.cos(np.outer(trace.angles, n))
    columns[:, 2::2] = w * np.sin(np.outer(trace.angles, n))
    weights = np.empty(2 * order + 1, dtype=complex)
    weights[0] = radius / (2.0 * np.pi) * z[0]
    weights[1::2] = weights[2::2] = (radius / np.pi) * z[1:]
    return columns, weights


def assemble_dtn_matrix(trace: BoundaryTrace, k: float, radius: float,
                        order: int) -> np.ndarray:
    """Dense matrix B[i][j] = integral over the circle of (S^N zeta_j) zeta_i ds.

    Accumulated mode-by-mode from the columns of :func:`dtn_factor`, a cosine
    and a sine outer product per mode, so the complex symmetry B == B.T holds
    exactly in floating point.
    """
    columns, weights = dtn_factor(trace, k, radius, order)
    m = len(trace)
    B = np.full((m, m), weights[0] * columns[0, 0] ** 2, dtype=complex)
    for n in range(1, order + 1):
        c, s = columns[:, 2 * n - 1], columns[:, 2 * n]
        B += weights[2 * n] * (np.outer(c, c) + np.outer(s, s))
    return B


@dataclass(frozen=True)
class DecayTable:
    """Tail norms ||(S - S^N) p|| in H^{-1/2} against N, with the fitted ratio."""

    orders: np.ndarray
    tails: np.ndarray
    fitted_ratio: float


def truncation_decay_check(k: float, R0: float, radius: float,
                           coefficients: np.ndarray, orders) -> DecayTable:
    """Measure the geometric decay of the truncation error on mode content
    of a field radiating from inside r = R0 < radius."""
    if not (radius > R0 > 0.0):
        raise ValueError("need radius > R0 > 0")
    coefficients = np.asarray(coefficients)
    if coefficients.ndim != 1 or coefficients.shape[0] % 2 == 0:
        raise ValueError("modal coefficients must be a vector of odd length "
                         "(orders -M..M)")
    M = coefficients.shape[0] // 2
    n = np.arange(-M, M + 1)
    z = special.dtn_coefficients(M, k, radius)
    weight = (1.0 + n.astype(float) ** 2) ** -0.5
    terms = weight * np.abs(z[np.abs(n)] * coefficients) ** 2

    orders = np.asarray(list(orders), dtype=int)
    tails = np.array(
        [np.sqrt(np.sum(terms[np.abs(n) > N])) for N in orders])

    positive = tails > tails.max() * 1e-14 if tails.max() > 0 else np.zeros_like(tails, bool)
    if np.count_nonzero(positive) >= 2:
        slope = np.polyfit(orders[positive], np.log(tails[positive]), 1)[0]
        ratio = float(np.exp(slope))
    else:
        ratio = 0.0
    return DecayTable(orders=orders, tails=tails, fitted_ratio=ratio)
