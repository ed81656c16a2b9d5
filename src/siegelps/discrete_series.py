"""Weight-m holomorphic vectors, their lifts to the group, and matrix coefficients.

The basic family is

    f_{mu,m}(z) = (2i)^{mn} mu((z - iI)(z + iI)^{-1}) / det(z + iI)^m,

a polynomial weight mu composed with the Cayley image of z.  Lifting by the
slash action evaluates the translated function at the base point iI; in
Cartan coordinates g = k_u h_t k_{u'} the lift has the closed form
implemented by ``matrix_coeff_kak``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from . import _small
from .errors import DimensionError, DomainError, NumericalError
from .polynomials import MatrixPolynomial
from .symplectic import (
    COND_MAX,
    KAKFactors,
    NAKFactors,
    SiegelPoint,
    SymplecticMatrix,
    act,
    chi,
    j_factor,
)

HalfSpaceFunction = Callable[[SiegelPoint], complex]


@dataclass(frozen=True)
class Weight:
    """Scalar weight m at genus n; m > n keeps the family well defined."""

    m: int
    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise DimensionError("genus must be a positive integer")
        if int(self.m) <= int(self.n):
            raise DomainError(f"weight must exceed the genus, got m={self.m}, n={self.n}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))

    @property
    def integrable(self) -> bool:
        """m > 2n: square-integrable range, where the pairings converge."""
        return self.m > 2 * self.n

    def require_integrable(self) -> "Weight":
        if not self.integrable:
            raise DomainError(f"operation needs m > 2n, got m={self.m}, n={self.n}")
        return self


@dataclass(frozen=True)
class MatrixCoefficientSpec:
    """A polynomial K-type paired with a scalar weight."""

    mu: MatrixPolynomial
    weight: Weight

    def __post_init__(self):
        if self.mu.n != self.weight.n:
            raise DimensionError("polynomial size and weight genus differ")


# ---------------------------------------------------------------------------
# the function family and the slash action
# ---------------------------------------------------------------------------

def pole_values(weight: Weight, P: np.ndarray, Q: np.ndarray | None = None,
                mu: MatrixPolynomial | None = None) -> np.ndarray:
    """Weight-vector or kernel values in pole form, over stacks (..., n, n).

    With ``mu``: (2i)^{mn} mu(Q P^{-1}) det(P)^{-m}, which is f_{mu,m}(z) at
    P = z + iI, Q = z - iI.  Without ``mu``: the kernel C_{m,n}^{-1}
    det(P)^{-m}, at P = (z - conj(xi))/2i.  ``pole_terms`` gives P and Q of a
    translate.  Q is not read when mu is constant.  ``_small.inverse_det``
    gives 1/det P, overwriting P at n = 1, and Q P^{-1}; det(P)^{-m} is
    formed by repeated squaring of 1/det P.
    """
    n, m = weight.n, weight.m
    numer = mu is not None and mu.degree() > 0
    inv, W = _small.inverse_det(P, Q if numer else None)
    values, bits = None, m
    while bits:
        if bits & 1:
            values = inv.copy() if values is None else np.multiply(values, inv, out=values)
        bits >>= 1
        if bits:
            np.multiply(inv, inv, out=inv)
    if mu is None:
        values *= 1.0 / c_mn(weight)
    else:
        values *= (2j) ** (m * n) * (mu.evaluate_batch(W) if numer
                                     else mu.evaluate(np.zeros((n, n))))
    return values


def pole_terms(weight: Weight, g: np.ndarray, cols: np.ndarray,
               mu: MatrixPolynomial | None = None,
               xi: SiegelPoint | None = None) -> np.ndarray:
    """``pole_values`` of each g = (A B; C D) of a float stack (k, 2n, 2n) at
    p points, as (k, p); ``cols`` (2n, p n) holds the points' columns [z; I]
    side by side.  By the cocycle, j(g, z)^{-m} f_{mu,m}(g.z) takes
    P = (A + iC)z + (B + iD) and, for a nonconstant mu, Q = (A - iC)z + (B - iD);
    at cols = [iI; I] it is the lift of f_{mu,m} to g.  The kernel at xi takes
    P = ((A - conj(xi) C)z + (B - conj(xi) D))/2i.  Each pair of row blocks
    [H K] gives its matrices H z + K in one product [H K] @ cols.
    """
    n = weight.n
    top, bottom = g[:, :n], g[:, n:]
    if xi is not None:
        rows = [(top - np.conj(xi.z) @ bottom) / 2j]
    else:
        rows = [top + 1j * bottom] + ([top - 1j * bottom] if mu.degree() else [])
    return pole_values(weight, *[(r.reshape(-1, 2 * n) @ cols).reshape(len(g), n, -1, n)
                                 .transpose(0, 2, 1, 3) for r in rows], mu=mu)


def f_values(mu: MatrixPolynomial, weight: Weight, Z: np.ndarray) -> np.ndarray:
    """f_{mu,m} over a stack of half-space points given as complex matrices."""
    Z = np.asarray(Z, dtype=np.complex128)
    iI = 1j * np.eye(weight.n)
    return pole_values(weight, Z + iI, Z - iI, mu)


def f_mu_m(mu: MatrixPolynomial, weight: Weight, z: SiegelPoint) -> complex:
    """The weight vector f_{mu,m} at a single point."""
    if mu.n != weight.n or z.n != weight.n:
        raise DimensionError("mu, weight and z must share the same genus")
    zc = z.z
    # sigma_min(z + iI) >= 1 on H_n, so only |z| above about COND_MAX trips this
    if np.linalg.cond(zc + 1j * np.eye(z.n)) > COND_MAX:
        raise NumericalError("z + iI is too ill-conditioned")
    return complex(f_values(mu, weight, zc[None, ...])[0])


def slash(f: HalfSpaceFunction, weight: Weight, g: SymplecticMatrix) -> HalfSpaceFunction:
    """The weight-m slash action: (f|g)(z) = j(g, z)^{-m} f(g.z)."""
    if g.n != weight.n:
        raise DimensionError("group element and weight must share the same genus")
    m = weight.m

    def translated(z: SiegelPoint) -> complex:
        try:
            factor = j_factor(g, z) ** (-m)
        except (ZeroDivisionError, OverflowError):   # |j|^-m beyond the float range
            raise NumericalError(f"j(g, z)^(-{m}) is not a finite float") from None
        return factor * f(act(g, z))

    return translated


def lift(f: HalfSpaceFunction, weight: Weight, g: SymplecticMatrix) -> complex:
    """Classical-to-group lift F_f(g) = (f|g)(iI)."""
    return slash(f, weight, g)(SiegelPoint.center(weight.n))


def lift_nak(f: HalfSpaceFunction, weight: Weight, factors: NAKFactors) -> complex:
    """The lift in Iwasawa coordinates: chi_m(u) det(y)^{m/2} f(x + iy)."""
    if factors.n != weight.n:
        raise DimensionError("factors and weight must share the same genus")
    dety = float(np.linalg.det(factors.y))
    return chi(weight.m, factors.u) * dety ** (weight.m / 2) * f(SiegelPoint(factors.x, factors.y))


def matrix_coeff_kak(spec: MatrixCoefficientSpec, factors: KAKFactors) -> complex:
    """Lift of f_{mu,m} in Cartan coordinates g = k_u h_t k_{u'}:

        det(u)^m det(u')^m mu(u tanh(d_t) u^T) / det(cosh(d_t))^m.
    """
    if factors.n != spec.weight.n:
        raise DimensionError("factors and spec must share the same genus")
    m = spec.weight.m
    u = factors.u
    W = _small.congruence_diag(u.mat, np.tanh(factors.t))
    # log cosh t = log(e^t + e^-t) - log 2, finite where cosh overflows
    log_cosh = float(np.sum(np.logaddexp(factors.t, -factors.t) - np.log(2.0)))
    return (chi(m, u) * chi(m, factors.uprime)
            * spec.mu.evaluate(W) * np.exp(-m * log_cosh))


# ---------------------------------------------------------------------------
# normalization constant and the point-evaluation kernel
# ---------------------------------------------------------------------------

def c_mn(weight: Weight) -> float:
    """The formal-degree constant

        C_{m,n} = 2^{n(n+3)/2} pi^{n(n+1)/2}
                  prod_{r=1}^{n} Gamma(m - (n+r)/2) / Gamma(m - (r-1)/2).

    For n = 1 this reduces to 4 pi / (m - 1).
    """
    m, n = weight.m, weight.n
    log = (n * (n + 3) / 2) * np.log(2.0) + (n * (n + 1) / 2) * np.log(np.pi)
    for r in range(1, n + 1):
        log += gammaln(m - (n + r) / 2) - gammaln(m - (r - 1) / 2)
    return float(np.exp(log))


def kernel_values(weight: Weight, xi: SiegelPoint, Z: np.ndarray) -> np.ndarray:
    """Point-evaluation kernel over a stack of half-space points."""
    weight.require_integrable()
    return pole_values(weight, (np.asarray(Z, dtype=np.complex128) - np.conj(xi.z)) / 2j)


def f_kernel(weight: Weight, xi: SiegelPoint, z: SiegelPoint) -> complex:
    """f_{1,m,xi}(z) = C_{m,n}^{-1} det((z - conj(xi)) / 2i)^{-m}."""
    if xi.n != weight.n or z.n != weight.n:
        raise DimensionError("xi, z and the weight must share the same genus")
    return complex(kernel_values(weight, xi, z.z[None, ...])[0])
