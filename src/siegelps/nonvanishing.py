"""Non-vanishing thresholds for averaged weight vectors.

The decision quantity compares the ordered-eigenvalue integral

    I(t) = integral over { t > x_1 > ... > x_n > 0 } of
           prod x_r^{l/2} (1 - x_r)^{m/2 - n - 1} prod_{r<s} (x_r - x_s)

against half its value at t = 1.  The averaged series is guaranteed nonzero
once I(M(N)) > I(1)/2, where

    M(N) = 1 / (sqrt(1 + 4n/N^2) + sqrt(4n/N^2))^2

is the concentration level of the congruence subgroup.  The smallest such N
is the threshold reported by ``n0_detl`` (weights det^l) and ``n0_general``
(arbitrary polynomial weights, by Monte Carlo over the unitary group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betainc, beta as beta_fn, ndtri

from .errors import (
    AmbiguousThresholdError,
    ConvergenceError,
    DimensionError,
    DomainError,
    ZeroPolynomialError,
)
from .discrete_series import Weight
from .polynomials import MatrixPolynomial
from .symplectic import UnitaryMatrix, haar_unitary

METHOD_CLOSED = "closed_form_beta"
METHOD_QUAD = "adaptive_quadrature"
METHOD_MC = "monte_carlo"


@dataclass(frozen=True)
class SimplexRegion:
    """The ordered region t > x_1 > ... > x_n > 0."""

    n: int
    t: float

    def __post_init__(self):
        if int(self.n) < 1:
            raise DimensionError("genus must be positive")
        if not (0.0 < float(self.t) <= 1.0):
            raise DomainError(f"region parameter must lie in (0, 1], got {self.t}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True)
class ThresholdQuery:
    """A polynomial weight whose threshold is wanted."""

    mu: MatrixPolynomial
    weight: Weight

    def __post_init__(self):
        if self.mu.n != self.weight.n:
            raise DimensionError("polynomial size and weight genus differ")
        if self.mu.is_zero():
            raise ZeroPolynomialError("weight polynomial is identically zero")
        self.weight.require_integrable()


@dataclass(frozen=True)
class IntegralResult:
    """A numeric integral with an honest error estimate."""

    value: float
    error_estimate: float
    evaluations: int
    method: str

    def __post_init__(self):
        if self.method not in (METHOD_CLOSED, METHOD_QUAD, METHOD_MC):
            raise DomainError(f"unknown method tag {self.method!r}")
        if not (self.error_estimate >= 0 and math.isfinite(self.error_estimate)):
            raise DomainError("error estimate must be finite and nonnegative")
        if int(self.evaluations) < 0:
            raise DomainError("evaluation count must be nonnegative")


def big_m(N: int, n: int) -> float:
    """Concentration level M(N); strictly increasing in N with limit 1."""
    if int(N) < 1:
        raise DomainError("level must be a positive integer")
    if int(n) < 1:
        raise DimensionError("genus must be positive")
    q = 4.0 * n / (float(N) * float(N))
    return 1.0 / (math.sqrt(1.0 + q) + math.sqrt(q)) ** 2


def _validate_ordered(x, n: int, upper: float = 1.0) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.shape[0] != n:
        raise DimensionError(f"x must be a vector of length {n}")
    if not (np.all(arr > 0) and np.all(arr < upper) and np.all(np.diff(arr) < 0)
            if n > 1 else (arr[0] > 0 and arr[0] < upper)):
        raise DomainError("x must satisfy upper > x_1 > ... > x_n > 0")
    return arr


def _vandermonde(x: np.ndarray) -> np.ndarray:
    """prod_{r<s} (x_r - x_s) along the last axis."""
    n = x.shape[-1]
    out = np.ones(x.shape[:-1])
    for r in range(n):
        for s in range(r + 1, n):
            out = out * (x[..., r] - x[..., s])
    return out


def phi_lm(l: int, weight: Weight, x) -> float:
    """Density prod x^{l/2} (1-x)^{m/2-n-1} times the ordered Vandermonde."""
    if l < 0:
        raise DomainError("l must be nonnegative")
    m, n = weight.m, weight.n
    arr = _validate_ordered(x, n)
    val = np.prod(arr ** (l / 2.0)) * np.prod((1.0 - arr) ** (m / 2.0 - n - 1))
    return float(val * _vandermonde(arr))


def varphi_mu(mu: MatrixPolynomial, weight: Weight, u: UnitaryMatrix, x) -> float:
    """|mu(u diag(sqrt x) u^T)| (1-x)-density and Vandermonde: the general weight."""
    m, n = weight.m, weight.n
    if mu.n != n or u.n != n:
        raise DimensionError("mu, u and the weight must share the same genus")
    arr = _validate_ordered(x, n)
    W = (u.mat * np.sqrt(arr)[None, :]) @ u.mat.T
    W = (W + W.T) / 2.0
    val = abs(mu.evaluate(W)) * np.prod((1.0 - arr) ** (m / 2.0 - n - 1))
    return float(val * _vandermonde(arr))


# ---------------------------------------------------------------------------
# the threshold integral
# ---------------------------------------------------------------------------

def _beta_lower(a: float, b: float, x: float) -> float:
    """Unnormalized incomplete beta B(x; a, b)."""
    return float(betainc(a, b, x) * beta_fn(a, b))


def integral_phi(l: int, weight: Weight, region: SimplexRegion,
                 tol: float | None = None, budget: int = 10 ** 6,
                 seed: int = 0, samples: int = 200_000) -> IntegralResult:
    """I(t) over the ordered region, by the best method for the genus.

    Genus 1 is an incomplete beta in closed form; genus 2 integrates the
    exact inner layer under the substitution x = t sin^2(theta), which makes
    the integrand analytic; higher genus falls back to Monte Carlo with the
    requested sample count.  A requested tolerance that the method cannot
    certify raises ConvergenceError carrying the partial result.
    """
    if l < 0:
        raise DomainError("l must be nonnegative")
    m, n = weight.m, weight.n
    if region.n != n:
        raise DimensionError("region genus differs from the weight")
    weight.require_integrable()
    t = region.t

    if n == 1:
        a, b = l / 2.0 + 1.0, m / 2.0 - 1.0
        value = _beta_lower(a, b, t)
        result = IntegralResult(value, 16 * np.finfo(float).eps * value,
                                1, METHOD_CLOSED)
    elif n == 2:
        a, b = l / 2.0 + 1.0, m / 2.0 - 2.0

        def outer(theta):
            x1 = t * math.sin(theta) ** 2
            # 1 - t sin^2 = (1-t) + t cos^2 avoids cancellation at the right edge
            one_minus = (1.0 - t) + t * math.cos(theta) ** 2
            inner = x1 * _beta_lower(a, b, x1) - _beta_lower(a + 1.0, b, x1)
            return (x1 ** (l / 2.0) * one_minus ** (m / 2.0 - 3.0) * inner
                    * t * math.sin(2.0 * theta))

        epsrel = min(1e-11, tol) if tol is not None else 1e-11
        value, abserr, info = integrate.quad(outer, 0.0, math.pi / 2.0,
                                             epsabs=0.0, epsrel=epsrel,
                                             limit=200, full_output=True)[:3]
        result = IntegralResult(value, abserr, int(info["neval"]), METHOD_QUAD)
    else:
        rng = np.random.default_rng(seed)
        count = min(int(samples), int(budget))
        x = np.sort(rng.uniform(0.0, t, size=(count, n)), axis=1)[:, ::-1]
        vals = (np.prod(x ** (l / 2.0), axis=1)
                * np.prod((1.0 - x) ** (m / 2.0 - n - 1), axis=1)
                * _vandermonde(x))
        scale = t ** n / math.factorial(n)
        value = float(np.mean(vals) * scale)
        se = float(np.std(vals) / math.sqrt(count) * scale)
        result = IntegralResult(value, se, count, METHOD_MC)

    if tol is not None and result.error_estimate > tol * max(1.0, abs(result.value)):
        raise ConvergenceError(
            f"error estimate {result.error_estimate:.3e} exceeds tolerance", result)
    return result


# ---------------------------------------------------------------------------
# threshold searches
# ---------------------------------------------------------------------------

def _first_positive(margin) -> int:
    """Smallest N >= 1 with margin(N) > 0 for an increasing margin: double N
    (up to 2^30) until it is positive, then bisect."""
    hi = 1
    while margin(hi) <= 0.0:
        hi *= 2
        if hi > 2 ** 30:
            raise DomainError("threshold search exceeded level 2^30")
    lo = hi // 2   # margin(lo) <= 0 whenever lo >= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if margin(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ThresholdCell:
    """One entry of a threshold table."""

    n: int
    l: int
    m: int
    n0: int
    method: str
    margin: float


def n0_detl_report(l: int, weight: Weight, tol: float = 1e-10,
                   budget: int = 10 ** 6) -> ThresholdCell:
    """Smallest level N with I(M(N)) > I(1)/2, with decision diagnostics.

    The decision margin at each examined N must clear ten times the summed
    integral error estimates, otherwise the cell is ambiguous at working
    precision and AmbiguousThresholdError is raised rather than guessing.
    """
    n = weight.n
    full = integral_phi(l, weight, SimplexRegion(n, 1.0), tol=tol, budget=budget)
    target = full.value / 2.0
    cache: dict[int, float] = {}

    def margin(N: int) -> float:
        if N not in cache:
            res = integral_phi(l, weight, SimplexRegion(n, big_m(N, n)),
                               tol=tol, budget=budget)
            gap = res.value - target
            err = res.error_estimate + full.error_estimate / 2.0
            if abs(gap) <= 10.0 * err:
                raise AmbiguousThresholdError(
                    f"margin at N={N} is {gap:.3e} with error bound {err:.3e}",
                    diagnostics={N: (gap, err)})
            cache[N] = gap
        return cache[N]

    hi = _first_positive(margin)
    return ThresholdCell(n=n, l=l, m=weight.m, n0=hi, method=full.method,
                         margin=margin(hi) / full.value)


def n0_detl(l: int, weight: Weight, tol: float = 1e-10, budget: int = 10 ** 6) -> int:
    """Smallest level guaranteeing a nonzero average for the weight det^l."""
    return n0_detl_report(l, weight, tol=tol, budget=budget).n0


def n0_table(n: int, l_values, m_values, tol: float = 1e-10,
             budget: int = 10 ** 6) -> list[ThresholdCell]:
    """Threshold table over a rectangle of (l, m) pairs."""
    return [n0_detl_report(l, Weight(m, n), tol=tol, budget=budget)
            for l in l_values for m in m_values]


@dataclass(frozen=True)
class GeneralThreshold:
    """Monte Carlo threshold certificate for a general polynomial weight."""

    n0: int
    confidence: float
    samples: int
    rows: tuple          # (N, margin_estimate, margin_se) at examined levels
    note: str


def n0_general(query: ThresholdQuery, samples: int = 100_000, seed: int = 0,
               confidence: float = 0.99, budget: int = 4_000_000) -> GeneralThreshold:
    """Threshold for an arbitrary polynomial weight, by common-random-number MC.

    One sample set (ordered uniforms x paired with Haar unitaries, drawn from
    SeedSequence children of ``seed`` in the order x first, then u) serves
    every candidate level: the level only flips the indicator x_1 < M(N), so
    the estimated margin is exactly monotone in N and bisection is sound.
    Both sides of the threshold must be certified at the one-sided
    ``confidence`` level; the sample count escalates fourfold up to
    ``budget``, after which AmbiguousThresholdError reports the margins.
    """
    mu, weight = query.mu, query.weight
    m, n = weight.m, weight.n
    zq = float(ndtri(confidence))
    count = int(samples)

    while True:
        attempt_rows: dict[int, tuple] = {}
        child_x, child_u = np.random.SeedSequence(seed).spawn(2)
        rng_x = np.random.default_rng(child_x)
        rng_u = np.random.default_rng(child_u)
        x = np.sort(rng_x.uniform(0.0, 1.0, size=(count, n)), axis=1)[:, ::-1]
        us = haar_unitary(n, rng_u, count)
        W = (us * np.sqrt(x)[:, None, :]) @ np.swapaxes(us, -1, -2)
        # symmetric in exact arithmetic; enforce it so that weights which
        # vanish identically on symmetric matrices evaluate to exactly zero
        W = (W + np.swapaxes(W, -1, -2)) / 2.0
        wts = (np.abs(mu.evaluate_batch(W))
               * np.prod((1.0 - x) ** (m / 2.0 - n - 1), axis=1)
               * np.abs(_vandermonde(x)))
        if float(np.max(wts)) == 0.0:
            raise ZeroPolynomialError(
                "weight polynomial vanishes on the sampled symmetric matrices")

        half = wts / 2.0
        root = math.factorial(n) ** -1.0

        def stats(N: int) -> tuple[float, float]:
            d = wts * (x[:, 0] < big_m(N, n)) - half
            mean = float(np.mean(d)) * root
            se = float(np.std(d) / math.sqrt(count)) * root
            attempt_rows[N] = (N, mean, se)
            return mean, se

        hi = _first_positive(lambda N: stats(N)[0])
        mean_hi, se_hi = stats(hi)
        certified = mean_hi > zq * se_hi
        if hi > 1:
            mean_lo, se_lo = stats(hi - 1)
            certified = certified and (mean_lo < -zq * se_lo)
        if certified:
            note = ("" if n <= 2
                    else "no reference data at this genus; treat as unvalidated")
            rows = tuple(sorted(attempt_rows.values()))
            return GeneralThreshold(n0=hi, confidence=confidence,
                                    samples=count, rows=rows, note=note)
        if count >= budget:
            raise AmbiguousThresholdError(
                f"threshold at N={hi} not certified at confidence {confidence} "
                f"with {count} samples",
                diagnostics=tuple(sorted(attempt_rows.values())))
        count = min(4 * count, int(budget))


def vanishing_case(l: int, weight: Weight, N: int) -> bool:
    """Exact-vanishing levels for the det^l family.

    At N = 1 the compact stabilizer contains fourth roots of unity, killing
    the average unless 4 | (m + 2l); at N = 2 sign matrices force 2 | m.
    From N = 3 on the stabilizer is trivial and nothing vanishes identically.
    """
    if int(N) < 1:
        raise DomainError("level must be a positive integer")
    if l < 0:
        raise DomainError("l must be nonnegative")
    if N == 1:
        return (weight.m + 2 * l) % 4 != 0
    if N == 2:
        return weight.m % 2 != 0
    return False


# ---------------------------------------------------------------------------
# reference thresholds used by the verification suite
# ---------------------------------------------------------------------------

def _table(first_m, rows):
    return {(l, first_m + j): v for l, row in enumerate(rows) for j, v in enumerate(row)}

REFERENCE_N0 = {
    1: _table(3, [
        [14, 6, 4, 4, 3, 3, 3, 2],
        [23, 9, 6, 5, 4, 4, 3, 3],
        [32, 12, 8, 6, 5, 5, 4, 4],
        [40, 15, 10, 7, 6, 5, 5, 4],
        [49, 18, 11, 9, 7, 6, 5, 5],
        [58, 21, 13, 10, 8, 7, 6, 6],
        [67, 24, 15, 11, 9, 8, 7, 6],
        [75, 26, 16, 12, 10, 8, 7, 7],
        [84, 29, 18, 13, 11, 9, 8, 7],
        [93, 32, 20, 15, 12, 10, 9, 8],
        [102, 35, 22, 16, 13, 11, 9, 8],
        [111, 38, 23, 17, 14, 12, 10, 9],
        [119, 41, 25, 18, 15, 12, 11, 10],
    ]),
    2: _table(5, [
        [77, 25, 15, 11, 9, 8, 7, 6],
        [107, 33, 20, 14, 11, 10, 8, 8],
        [137, 41, 24, 17, 14, 11, 10, 9],
        [167, 49, 28, 20, 16, 13, 11, 10],
        [197, 58, 33, 23, 18, 15, 13, 11],
        [227, 66, 37, 26, 20, 17, 14, 12],
        [257, 74, 41, 29, 22, 18, 16, 14],
        [287, 82, 46, 32, 24, 20, 17, 15],
        [317, 90, 50, 34, 26, 22, 18, 16],
        [347, 98, 54, 37, 29, 23, 20, 17],
        [377, 107, 59, 40, 31, 25, 21, 18],
        [407, 115, 63, 43, 33, 27, 22, 19],
        [437, 123, 67, 46, 35, 28, 24, 21],
    ]),
}
