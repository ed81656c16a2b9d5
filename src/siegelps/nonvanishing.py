"""Non-vanishing thresholds for averaged weight vectors.

The decision quantity compares the ordered-eigenvalue integral

    I(t) = integral over { t > x_1 > ... > x_n > 0 } of
           prod x_r^{l/2} (1 - x_r)^{m/2 - n - 1} prod_{r<s} (x_r - x_s)

against half its value at t = 1.  The averaged series is guaranteed nonzero
once I(M(N)) > I(1)/2, where

    M(N) = 1 / (sqrt(1 + 4n/N^2) + sqrt(4n/N^2))^2

is the concentration level of the congruence subgroup.  The smallest such N
is the threshold reported by ``n0_detl`` (weights det^l, with I(t) one
Pfaffian of Gauss-Legendre integrals up to genus MAX_GENUS) and
``n0_general`` (arbitrary polynomial weights, by Monte Carlo over the
unitary group).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _small
from .errors import (
    AmbiguousThresholdError,
    ConvergenceError,
    DimensionError,
    DomainError,
    ZeroPolynomialError,
)
from .discrete_series import Weight
from .matrixio import readonly, require_genus, require_integer
from .polynomials import MatrixPolynomial
from .symplectic import UnitaryMatrix, _ginibre

METHOD_CLOSED = "closed_form_beta"
METHOD_QUAD = "adaptive_quadrature"
METHOD_MC = "monte_carlo"

THRESHOLD_TOL = 1e-10     # integral tolerance of every det^l threshold decision
MC_BUDGET = 4_000_000     # sample count past which n0_general stops escalating
_MC_BLOCK = 1 << 13       # samples per block of n0_general and mc_cmn


@dataclass(frozen=True)
class ThresholdQuery:
    """A polynomial weight whose threshold is wanted."""

    mu: MatrixPolynomial
    weight: Weight

    def __post_init__(self):
        require_genus(self.weight.n, mu=self.mu)
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
        object.__setattr__(self, "evaluations",
                           require_integer(self.evaluations, "evaluation count", 0))


def big_m(N: int, n: int) -> float:
    """Concentration level M(N); strictly increasing in N with limit 1."""
    N, n = require_integer(N, "level", 1), require_integer(n, "genus", 1, DimensionError)
    q = 4.0 * n / (float(N) * float(N))
    return 1.0 / (math.sqrt(1.0 + q) + math.sqrt(q)) ** 2


def _validate_ordered(x, n: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.shape[0] != n:
        raise DimensionError(f"x must be a vector of length {n}")
    if not (np.all(arr > 0) and np.all(arr < 1.0) and np.all(np.diff(arr) < 0)):
        raise DomainError("x must satisfy 1 > x_1 > ... > x_n > 0")
    return arr


def _vandermonde(x: np.ndarray) -> np.ndarray:
    """prod_{r<s} (x_r - x_s) along the first axis."""
    return math.prod(x[r] - x[s] for r, s in itertools.combinations(range(len(x)), 2))


def phi_lm(l: int, weight: Weight, x) -> float:
    """Density prod x^{l/2} (1-x)^{m/2-n-1} times the ordered Vandermonde."""
    l = require_integer(l, "l", 0)
    m, n = weight.m, weight.n
    arr = _validate_ordered(x, n)
    val = np.prod(arr ** (l / 2.0)) * np.prod((1.0 - arr) ** (m / 2.0 - n - 1))
    return float(val * _vandermonde(arr))


def _density(mu: MatrixPolynomial, weight: Weight, W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|mu(W)| prod (1-x)^{m/2-n-1} |Vandermonde(x)| over planes x (n, ...) and a
    stack W = u diag(sqrt x) u^T (..., n, n), made exactly symmetric so that weights
    vanishing on symmetric matrices give zero: the general threshold's integrand."""
    return (np.abs(mu.evaluate_batch(W))
            * np.prod((1.0 - x) ** (weight.m / 2.0 - weight.n - 1), axis=0)
            * np.abs(_vandermonde(x)))


def varphi_mu(mu: MatrixPolynomial, weight: Weight, u: UnitaryMatrix, x) -> float:
    """|mu(u diag(sqrt x) u^T)| (1-x)-density and Vandermonde: the general weight."""
    require_genus(weight.n, mu=mu, u=u)
    x = _validate_ordered(x, weight.n)
    return float(_density(mu, weight, _small.congruence_diag(u.mat, np.sqrt(x)), x))


# ---------------------------------------------------------------------------
# the threshold integral
# ---------------------------------------------------------------------------

BASE_NODES, MAX_DOUBLINGS = 24, 4   # nodes of the first grid, doublings after it
_NODES: dict[int, tuple] = {}   # read-only nodes and weights on [-1, 1], by count


def _gauss(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached by count."""
    if nodes not in _NODES:
        _NODES[nodes] = tuple(map(readonly, np.polynomial.legendre.leggauss(nodes)))
    return _NODES[nodes]


def _gauss_doubling(rule, tol: float, base_nodes: int = BASE_NODES):
    """The package's one quadrature rule: ``rule(x, w)`` over grids of base_nodes
    * 2^k Gauss-Legendre nodes, k <= MAX_DOUBLINGS, until every component agrees
    with the grid before to relative ``tol``.  Returns the last value, its change
    (the error), each grid's node count and whether the stop test held."""
    prev, grids = None, [base_nodes * 2 ** k for k in range(MAX_DOUBLINGS + 1)]
    for k, nodes in enumerate(grids):
        value = rule(*_gauss(nodes))
        if prev is not None:
            change = np.abs(value - prev)
            if np.all(change <= tol * np.maximum(np.abs(value), 1e-30)):
                return value, change, grids[:k + 1], True
        prev = value
    return value, change, grids, False


MAX_GENUS = 5   # the Pfaffian's cancellation amplifies the entries' errors (README)
_ROUNDING = 16 * float(np.finfo(float).eps)   # charged per unit of an entry's |terms|
_EPSREL = 1e-11


def _pfaffian(a, idx: tuple):
    """Pf(a[idx, idx]) for ascending idx by first-row expansion, exact over ints."""
    if len(idx) < 3:
        return a[idx[0]][idx[1]] if idx else 1
    return sum((-1) ** (k + 1) * a[idx[0]][idx[k]] * _pfaffian(a, idx[1:k] + idx[k + 1:])
               for k in range(1, len(idx)))


def integral_phi(l: int, weight: Weight, t: float,
                 tol: float | None = None) -> IntegralResult:
    """I(t) for t in (0, 1], as one Pfaffian at every genus (de Bruijn's identity).

    With w(x) = x^{l/2} (1-x)^{m/2-n-1} and Phi_j(x) = B(x; l/2+1+j, m/2-n),
    I(t) = Pf(a) for a_ij = int_0^t w(x) (x^j Phi_i - x^i Phi_j) dx, i < j < n,
    bordered for odd n by the closed forms a_in = Phi_i(t) (so genus 1 is the
    incomplete beta).  Under x = t sin^2(theta) each grid of _gauss_doubling
    gives a = P - P^T, P_ij = sum_k W_k Phi_i(x_k) x_k^j.  The expansion is
    exact, so the error is one rounding plus sum |dPf/da_ij| err_ij: err_ij is
    the entry's last change plus _ROUNDING (P + P^T)_ij (rounding of integrand
    and rule, which two grids can share), or _ROUNDING a_in for a closed form.
    ``evaluations`` counts incomplete betas.  Raises DimensionError above
    MAX_GENUS, and ConvergenceError, carrying the result, over ``tol``.
    """
    from scipy.special import betainc, beta as beta_fn   # on first use: import needs numpy alone
    l = require_integer(l, "l", 0)
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    if tol is not None and not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    m, n = weight.m, weight.n
    if n > MAX_GENUS:
        raise DimensionError(f"the threshold integral is certified up to genus {MAX_GENUS}")
    weight.require_integrable()
    a, b = l / 2.0 + 1.0, m / 2.0 - n
    js = np.arange(n)[:, None]
    full = beta_fn(a + js, b)

    def entries(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        theta = np.pi / 4.0 * (1.0 + nodes)
        x = t * np.sin(theta) ** 2
        # 1 - t sin^2 = (1-t) + t cos^2 avoids cancellation at the right edge
        one_minus = (1.0 - t) + t * np.cos(theta) ** 2
        w = (np.pi / 4.0 * weights * x ** (l / 2.0) * one_minus ** (b - 1.0)
             * t * np.sin(2.0 * theta))
        p = (betainc(a + js, b, x) * full * w) @ (x ** js).T
        return np.stack([p - p.T, p + p.T])   # the entries, and their sums of |terms|

    size, half = n + n % 2, (n + 1) // 2
    mat, err, grids = np.zeros((size, size)), np.zeros((size, size)), []
    if n > 1:
        (mat[:n, :n], sums), change, grids, _ = _gauss_doubling(
            entries, min(_EPSREL, tol or _EPSREL))
        err[:n, :n] = change[0] + _ROUNDING * sums
    if n % 2:
        mat[:n, n] = (betainc(a + js, b, t) * full)[:, 0]
        err[:n, n] = _ROUNDING * mat[:n, n]   # positive closed forms
    mat, err, scale, idx = mat.tolist(), err.tolist(), 1, tuple(range(size))
    if half > 1:   # integers over one power of two; one entry is its own Pfaffian
        ratios = [[x.as_integer_ratio() for x in row] for row in mat]
        scale = max(q for row in ratios for _, q in row)
        mat = [[p * (scale // q) for p, q in row] for row in ratios]
    minors = {(i, j): _pfaffian(mat, idx[:i] + idx[i + 1:j] + idx[j + 1:])
              for i in range(size) for j in range(i + 1, size)}   # each expanded once
    value = sum((-1) ** (j + 1) * mat[0][j] * minors[0, j]   # int / int is correctly rounded
                for j in range(1, size)) / scale ** half
    error = sum(abs(p) / scale ** (half - 1) * err[i][j] for (i, j), p in minors.items())
    result = IntegralResult(value, error + math.ulp(value) / 2, n * (n % 2 + sum(grids)),
                            METHOD_QUAD if grids else METHOD_CLOSED)
    if tol is not None and result.error_estimate > tol * max(1.0, abs(result.value)):
        raise ConvergenceError(
            f"error estimate {result.error_estimate:.3e} exceeds tolerance", result)
    return result


# ---------------------------------------------------------------------------
# threshold searches
# ---------------------------------------------------------------------------

def _threshold(margin, factor: float, subject: str) -> tuple[int, dict]:
    """N0, the least N >= 1 whose margin(N) = (estimate, spread) has a positive
    estimate, found by doubling N (up to 2^30) and bisecting; and each level
    examined, as {N: (estimate, spread)}.  The true margin increases with N, so
    N0 and N0 - 1 alone decide N0: each must clear zero by ``factor`` spreads,
    or AmbiguousThresholdError names ``subject`` and carries those two levels."""
    rows: dict[int, tuple] = {}

    def positive(N: int) -> bool:
        rows[N] = margin(N)
        return rows[N][0] > 0.0

    lo, hi = 0, 1   # margin(lo) <= 0 whenever lo >= 1
    while not positive(hi):
        lo, hi = hi, 2 * hi
        if hi > 2 ** 30:
            raise DomainError("threshold search exceeded level 2^30")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if positive(mid) else (mid, hi)
    deciding = {N: rows[N] for N in (lo, hi) if N}
    if not all(abs(est) > factor * spread for est, spread in deciding.values()):
        shown = ", ".join(f"{est:.3e} +- {spread:.3e} at N={N}"
                          for N, (est, spread) in deciding.items())
        raise AmbiguousThresholdError(f"{subject}: margin {shown}; each must clear zero "
                                      f"by {factor:.3g} spreads", diagnostics=deciding)
    return hi, rows


@dataclass(frozen=True)
class ThresholdCell:
    """One entry of a threshold table."""

    n: int
    l: int
    m: int
    n0: int
    method: str
    margin: float


def n0_detl_report(l: int, weight: Weight, tol: float = THRESHOLD_TOL) -> ThresholdCell:
    """Smallest level N with I(M(N)) > I(1)/2, with decision diagnostics.

    The margin I(M(N)) - I(1)/2 at N0 and at N0 - 1 must clear zero by ten
    times its error bound, the summed integral error estimates, or the cell
    is ambiguous and AmbiguousThresholdError is raised rather than guessing."""
    full = integral_phi(l, weight, 1.0, tol=tol)
    target = full.value / 2.0

    def margin(N: int) -> tuple[float, float]:
        res = integral_phi(l, weight, big_m(N, weight.n), tol=tol)
        return res.value - target, res.error_estimate + full.error_estimate / 2.0

    n0, rows = _threshold(margin, 10.0, f"genus {weight.n}, l = {l}, m = {weight.m}")
    return ThresholdCell(n=weight.n, l=l, m=weight.m, n0=n0, method=full.method,
                         margin=rows[n0][0] / full.value)


def n0_detl(l: int, weight: Weight, tol: float = THRESHOLD_TOL) -> int:
    """Smallest level guaranteeing a nonzero average for the weight det^l."""
    return n0_detl_report(l, weight, tol=tol).n0


def n0_table(n: int, l_values, m_values,
             tol: float = THRESHOLD_TOL) -> list[ThresholdCell]:
    """Threshold table over a rectangle of (l, m) pairs."""
    return [n0_detl_report(l, Weight(m, n), tol=tol)
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
               confidence: float = 0.99, budget: int = MC_BUDGET) -> GeneralThreshold:
    """Threshold for an arbitrary polynomial weight, by common-random-number MC.

    One sample set (ordered uniforms x paired with Haar unitaries, drawn from
    SeedSequence children of ``seed`` in the order x first, then u) serves
    every candidate level: the level only flips the indicator x_1 < M(N), so
    the estimated margin is exactly monotone in N and bisection is sound.
    The mean margin at N0 and at N0 - 1 must each clear zero by
    ndtri(``confidence``) standard errors, a one-sided test at that level;
    otherwise the sample count escalates fourfold up to ``budget``, after
    which AmbiguousThresholdError reports the margins at those two levels.
    ``confidence`` must lie in (1/2, 1): at 1/2 or less both tests hold by
    construction.  The densities fill one array in blocks of _MC_BLOCK samples,
    W = u diag(sqrt x) u^T coming from the Ginibre parts by _small.haar_congruence
    (closed forms at n <= 2).  A sample's margin d = wts 1[x_1 < M(N)] - wts/2 is
    +-wts/2, so E[d^2] = E[(wts/2)^2] holds at every level: a level costs one masked sum.
    """
    from scipy.special import ndtri
    count = require_integer(samples, "sample count", 1)
    budget = require_integer(budget, "budget", 1)
    seed = require_integer(seed, "seed", 0)
    if not 0.5 < confidence < 1:
        raise DomainError(f"confidence {confidence} must lie in (0.5, 1)")
    mu, weight = query.mu, query.weight
    n = weight.n
    zq = float(ndtri(confidence))
    root = math.factorial(n) ** -1.0

    while True:
        rng_x, rng_u = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        x = _small.descending(rng_x.uniform(0.0, 1.0, size=(count, n)))
        re, im = _ginibre(rng_u, (count, n, n))
        wts = np.empty(count)
        for k in range(0, count, _MC_BLOCK):
            part = slice(k, k + _MC_BLOCK)
            W = _small.haar_congruence(re[part], im[part], np.sqrt(x[:, part]))
            wts[part] = _density(mu, weight, W, x[:, part])
        top, total = x[0], float(np.sum(wts))
        if total == 0.0:                                    # every weight is >= 0
            raise ZeroPolynomialError(
                "weight polynomial vanishes on the sampled symmetric matrices")
        square = float(np.sum(wts * wts)) / (4.0 * count)   # E[d^2] at every level

        def stats(N: int) -> tuple[float, float]:
            mean = (float(np.sum(wts[top < big_m(N, n)])) - total / 2.0) / count
            return mean * root, math.sqrt(max(square - mean * mean, 0.0) / count) * root

        try:
            n0, rows = _threshold(stats, zq, f"genus {n}, weight {mu}, m = {weight.m}, "
                                  f"confidence {confidence}, {count} samples")
            break
        except AmbiguousThresholdError:
            if count >= budget:
                raise
            count = min(4 * count, budget)
    note = "" if n <= MAX_GENUS else "no reference data at this genus; treat as unvalidated"
    rows = tuple((N, *row) for N, row in sorted(rows.items()))
    return GeneralThreshold(n0=n0, confidence=confidence, samples=count, rows=rows, note=note)


def vanishing_case(l: int, weight: Weight, N: int) -> bool:
    """Exact-vanishing levels for the det^l family.

    At N = 1 the compact stabilizer contains fourth roots of unity, killing
    the average unless 4 | (m + 2l); at N = 2 sign matrices force 2 | m.
    From N = 3 on the stabilizer is trivial and nothing vanishes identically.
    """
    N, l = require_integer(N, "level", 1), require_integer(l, "l", 0)
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
