"""Weight-m holomorphic vectors, their lifts to the group, and matrix coefficients.

The basic family is

    f_{mu,m}(z) = (2i)^{mn} mu((z - iI)(z + iI)^{-1}) / det(z + iI)^m,

a polynomial weight mu composed with the Cayley image of z.  Lifting by the
slash action evaluates the translated function at the base point iI; in
Cartan coordinates g = k_u h_t k_{u'} the lift has the closed form
implemented by ``matrix_coeff_kak``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _small
from .errors import DimensionError, DomainError, NumericalError
from .matrixio import require_genus, require_integer
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
        object.__setattr__(self, "n", require_integer(self.n, "genus", 1, DimensionError))
        object.__setattr__(self, "m", require_integer(self.m, "weight"))
        if self.m <= self.n:
            raise DomainError(f"weight must exceed the genus, got m={self.m}, n={self.n}")

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
        require_genus(self.weight.n, mu=self.mu)


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
    P = ((A - conj(xi) C)z + (B - conj(xi) D))/2i, conj(xi) [C D] one 2-D
    product over the stack.  Each pair of row blocks [H K] gives its matrices
    H z + K in one product [H K] @ cols.  An empty stack gives shape (0, p).
    """
    n = weight.n
    points = cols.shape[1] // n
    top, bottom = g[:, :n], g[:, n:]
    if xi is not None:
        xc = np.conj(xi.z) @ bottom.transpose(1, 0, 2).reshape(n, -1)
        rows = [(top - xc.reshape(n, len(g), 2 * n).transpose(1, 0, 2)) / 2j]
    else:
        rows = [top + 1j * bottom] + ([top - 1j * bottom] if mu.degree() else [])
    return pole_values(weight, *[(r.reshape(-1, 2 * n) @ cols).reshape(len(g), n, points, n)
                                 .transpose(0, 2, 1, 3) for r in rows], mu=mu)


def f_values(mu: MatrixPolynomial, weight: Weight, Z: np.ndarray) -> np.ndarray:
    """f_{mu,m} over a stack of half-space points given as complex matrices."""
    require_genus(weight.n, mu=mu, Z=Z)
    Z = np.asarray(Z, dtype=np.complex128)
    iI = 1j * np.eye(weight.n)
    return pole_values(weight, Z + iI, Z - iI, mu)


def f_mu_m(mu: MatrixPolynomial, weight: Weight, z: SiegelPoint) -> complex:
    """The weight vector f_{mu,m} at a single point."""
    zc = z.z
    # sigma_min(z + iI) >= 1 on H_n, so only |z| above about COND_MAX trips this
    if np.linalg.cond(zc + 1j * np.eye(z.n)) > COND_MAX:
        raise NumericalError("z + iI is too ill-conditioned")
    return complex(f_values(mu, weight, zc[None, ...])[0])


def slash(f: HalfSpaceFunction, weight: Weight, g: SymplecticMatrix) -> HalfSpaceFunction:
    """The weight-m slash action: (f|g)(z) = j(g, z)^{-m} f(g.z)."""
    require_genus(weight.n, g=g)
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
    require_genus(weight.n, factors=factors)
    dety = float(np.linalg.det(factors.y))
    return chi(weight.m, factors.u) * dety ** (weight.m / 2) * f(SiegelPoint(factors.x, factors.y))


def matrix_coeff_kak(spec: MatrixCoefficientSpec, factors: KAKFactors) -> complex:
    """Lift of f_{mu,m} in Cartan coordinates g = k_u h_t k_{u'}:

        det(u)^m det(u')^m mu(u tanh(d_t) u^T) / det(cosh(d_t))^m.
    """
    require_genus(spec.weight.n, factors=factors)
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

@functools.cache
def c_mn(weight: Weight) -> float:
    """The formal-degree constant

        C_{m,n} = 2^{n(n+3)/2} pi^{n(n+1)/2}
                  prod_{r=1}^{n} Gamma(m - (n+r)/2) / Gamma(m - (r-1)/2).

    For n = 1 this reduces to 4 pi / (m - 1).  Every Gamma argument is an
    integer or a half-integer, and the numerator and the denominator hold
    equally many half-integers, so the product is an exact rational: each
    Gamma is climbed by Gamma(x + 1) = x Gamma(x) from Gamma(1) or Gamma(1/2),
    the sqrt(pi) factors cancel, and the quotient of the two integer ladders
    is rounded to float once.  Against a 40-digit product over n <= 5,
    m < 80 the result is within 7.2e-16 relative, most of it the rounding of
    pi^{n(n+1)/2}.  Cached per weight: ``pole_values`` calls it once per block.
    """
    m, n = weight.m, weight.n

    def ladder(twice: int) -> int:   # 2^{(twice-1)//2} Gamma(twice/2) / Gamma(1 or 1/2)
        return math.prod(range(twice - 2, 0, -2))

    top = [2 * m - n - r for r in range(1, n + 1)]
    bottom = [2 * m - r + 1 for r in range(1, n + 1)]
    halvings = sum((k - 1) // 2 for k in bottom) - sum((k - 1) // 2 for k in top)
    ratio = math.prod(map(ladder, top)) / math.prod(map(ladder, bottom))   # correctly rounded
    return math.ldexp(ratio, halvings + n * (n + 3) // 2) * math.pi ** (n * (n + 1) // 2)


def kernel_values(weight: Weight, xi: SiegelPoint, Z: np.ndarray) -> np.ndarray:
    """Point-evaluation kernel over a stack of half-space points."""
    require_genus(weight.n, xi=xi, Z=Z)
    weight.require_integrable()
    return pole_values(weight, (np.asarray(Z, dtype=np.complex128) - np.conj(xi.z)) / 2j)


def f_kernel(weight: Weight, xi: SiegelPoint, z: SiegelPoint) -> complex:
    """f_{1,m,xi}(z) = C_{m,n}^{-1} det((z - conj(xi)) / 2i)^{-m}."""
    return complex(kernel_values(weight, xi, z.z[None, ...])[0])
