"""Material, geometry and frequency parameters of the scattering problem."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicalConfig:
    """All physical inputs: Lame constants, densities, wave numbers, radii.

    The fluid wave number k is the primary input; the solid wave numbers are
    derived, k_p = omega sqrt(rho/(lam+2 mu)) and k_s = omega sqrt(rho/mu).
    N is the truncation order of the absorbing-boundary series and d the unit
    propagation direction of the incident plane wave p_inc = exp(i k x.d).
    """

    lam: float = 1.0
    mu: float = 1.0
    rho: float = 1.0
    rho_f: float = 1.0
    omega: float = 1.0
    k: float = 1.0
    R0: float = 1.0
    R: float = 2.0
    N: int = 20
    d: tuple = (1.0, 0.0)

    def __post_init__(self):
        if len(self.d) != 2:
            raise ValueError("incident direction d needs exactly two "
                             "components")
        if not np.all(np.isfinite([self.lam, self.mu, self.rho, self.rho_f,
                                   self.omega, self.k, self.R0, self.R,
                                   self.N, *self.d])):
            raise ValueError("physical parameters must be finite")
        if self.mu <= 0.0 or self.lam + self.mu <= 0.0:
            raise ValueError("need mu > 0 and lam + mu > 0")
        if self.rho <= 0.0 or self.rho_f <= 0.0:
            raise ValueError("densities must be positive")
        if self.omega <= 0.0 or self.k <= 0.0:
            raise ValueError("omega and k must be positive")
        # the assembly squares omega first, then scales by rho_f; solve
        # divides by the product: each must be a finite normal float
        with np.errstate(over="ignore", under="ignore"):
            omega2 = np.float64(self.omega) ** 2
            scale = np.float64(self.rho_f) * omega2
        for what, value in (
                (f"omega^2 = {omega2:g} for omega = {self.omega:g}", omega2),
                (f"rho_f omega^2 = {scale:g}", scale)):
            if not (np.isfinite(value) and value >= np.finfo(float).tiny):
                raise ValueError(f"{what} is not a finite normal float")
        if not (self.R > self.R0 > 0.0):
            raise ValueError("need R > R0 > 0")
        if self.N < 0 or self.N != int(self.N):
            raise ValueError("N must be a non-negative integer")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "d", (float(self.d[0]), float(self.d[1])))
        if abs(np.hypot(*self.d) - 1.0) > 1e-12:
            raise ValueError("incident direction d must be a unit vector")

    @property
    def k_p(self) -> float:
        return self.omega * np.sqrt(self.rho / (self.lam + 2.0 * self.mu))

    @property
    def k_s(self) -> float:
        return self.omega * np.sqrt(self.rho / self.mu)
