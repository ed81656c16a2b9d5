"""Genus-1 inner-product quadrature, Monte Carlo volume cross-checks and
the verification battery.

The quadrature works on the classical fundamental domain |x| <= 1/2,
|z| >= 1 in three parts: rows at 1 <= y <= Y_SPLIT and, under u = 1/y,
up to the height cutoff, each on X_POINTS periodic points in x (the
trapezoid rule), and the cap between the arc and y = 1 on k Gauss nodes
in x and k // 2 across its height.  Pairings are normalized by the order
of the central subgroup, so they match the averaged-series identities
directly.  The battery behind ``siegelps verify`` is one ``verify_*``
function per check, each returning VerificationReport values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _small
from .discrete_series import (
    MatrixCoefficientSpec,
    Weight,
    c_mn,
    matrix_coeff_kak,
    pole_terms,
)
from .errors import ConvergenceError, DomainError, SamplingError
from .matrixio import require_genus, require_integer
from .nonvanishing import (
    METHOD_MC,
    METHOD_QUAD,
    REFERENCE_N0,
    THRESHOLD_TOL,
    _MC_BLOCK,
    IntegralResult,
    _gauss,
    _gauss_doubling,
    n0_table,
)
from .poincare import CongruenceGroup, _ball_for, series_evaluator_genus1
from .polynomials import MatrixPolynomial
from .symplectic import SiegelPoint, kak_decompose, random_symplectic

PAIRING_TOL = 0.02      # relative error allowed in the pairing identities
COEFF_TOL = 1e-9        # relative error allowed in the coefficient identity
PAIRING_RADIUS = 40.0   # truncation radius of the averaged series in the pairing checks
CMN_SAMPLES = 10 ** 6   # Monte Carlo samples per estimate of C_{m,n}
Y_SPLIT = 2.0           # height between the rectangle above y = 1 and the u = 1/y strip
Y_MAX = 8.0             # height cutoff of the fundamental-domain quadrature
X_POINTS = 8            # periodic points in x on every row above y = 1
GRID_TOL = 1e-8         # relative change between two grids that stops the doubling


@dataclass(frozen=True)
class FundamentalDomainSpec:
    """The first grid's Gauss nodes in y of the genus-1 pairing; the rest of
    its rule (heights, periodic points, doublings, GRID_TOL) is constant."""

    base_nodes: int = 10

    def __post_init__(self):
        object.__setattr__(self, "base_nodes", require_integer(self.base_nodes, "base_nodes", 4))


# ---------------------------------------------------------------------------
# the classical weight-12 form, from the eighth power of Jacobi's cube
# ---------------------------------------------------------------------------

def _tau_coeffs(K: int) -> list[int]:
    """Coefficients tau(1..K) of the weight-12 form, exact integers.

    Delta = q prod (1 - q^n)^24, and the product is the eighth power of
    Jacobi's prod (1 - q^n)^3 = sum_k (-1)^k (2k + 1) q^{k(k+1)/2}: three
    squarings of that sparse series, truncated to q^{K-1}.
    """
    series = np.zeros(K, dtype=object)
    k = 0
    while k * (k + 1) // 2 < K:
        series[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        series = np.convolve(series, series)[:K]
    return series.tolist()       # coefficient of q^k is tau(k + 1)


class DiscriminantForm:
    """The normalized weight-12 cusp form as a truncated q-expansion.

    Callable on complex scalars or arrays; exact integer coefficients give
    a self-contained oracle independent of everything else in the package.
    """

    m = 12

    def __init__(self, cutoff: int = 40):
        self.cutoff = require_integer(cutoff, "cutoff", 5)
        self.tau = np.array(_tau_coeffs(self.cutoff), dtype=np.float64)

    def __call__(self, z):
        arr = np.asarray(z, dtype=np.complex128)
        q = np.exp(2j * np.pi * arr)
        acc = np.zeros_like(q)
        for t in self.tau[::-1]:
            acc = acc * q + t
        out = acc * q
        return complex(out) if np.isscalar(z) or arr.ndim == 0 else out

    def truncation_bound(self, y_min: float) -> float:
        """Rigorous tail bound via |tau(k)| <= k^{13/2}."""
        q0 = math.exp(-2.0 * math.pi * y_min)
        ks = np.arange(self.cutoff + 1, self.cutoff + 600)
        return float(np.sum(ks ** 6.5 * q0 ** ks))


# ---------------------------------------------------------------------------
# Monte Carlo value of the normalization constant
# ---------------------------------------------------------------------------

def mc_cmn(weight: Weight, samples: int = CMN_SAMPLES, seed: int = 0) -> IntegralResult:
    """Estimate C_{m,n} as 2^{n(n+1)} times the bounded-domain volume integral.

    Samples the symmetric-matrix box uniformly, keeps points with
    I - w*w positive definite, and averages det(I - w*w)^{m-n-1}: the draws come
    200,000 at a time, and per block of _MC_BLOCK _small.contraction_det decides from
    their real and imaginary parts (closed forms at n <= 2); accepted ones are powered.
    """
    m, n = weight.m, weight.n
    samples = require_integer(samples, "sample count", 1000)
    rng = np.random.default_rng(require_integer(seed, "seed", 0))
    entries = n * (n + 1) // 2
    total = total_sq = 0.0
    accepted = 0
    for done in range(0, samples, 200_000):
        count = min(200_000, samples - done)
        re = rng.uniform(-1.0, 1.0, size=(count, entries))
        im = rng.uniform(-1.0, 1.0, size=(count, entries))
        for k in range(0, count, _MC_BLOCK):
            inside, dets = _small.contraction_det(re[k:k + _MC_BLOCK], im[k:k + _MC_BLOCK])
            vals = dets[inside] ** (m - n - 1)
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
            accepted += len(vals)
    if accepted / samples < 1e-4:
        raise SamplingError(
            f"box acceptance rate {accepted / samples:.2e} too low at genus {n}")
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    factor = 2.0 ** (2 * n * (n + 1))
    return IntegralResult(value=factor * mean,
                          error_estimate=factor * math.sqrt(var / samples),
                          evaluations=samples, method=METHOD_MC)


# ---------------------------------------------------------------------------
# fundamental-domain quadrature
# ---------------------------------------------------------------------------

def _grid_value(f1, f2, m: int, yg: np.ndarray, wy: np.ndarray, grids: list):
    """The pairing integral on one grid, from one f1/f2 call; appends (x-aliasing term, points)."""
    # rows on X_POINTS x symmetric about 0: a truncated series is periodic up to its tail
    x = (np.arange(X_POINTS) + 0.5) / X_POINTS - 0.5
    lo, hi = 1.0 / Y_MAX, 1.0 / Y_SPLIT     # y = 1/u above Y_SPLIT
    Y = np.concatenate([1.0 + 0.5 * (Y_SPLIT - 1.0) * (yg + 1.0),
                        2.0 / (hi + lo + (hi - lo) * yg)])
    W = np.concatenate([0.5 * (Y_SPLIT - 1.0) * wy,
                        0.5 * (hi - lo) * wy * Y[yg.size:] ** 2]) * Y ** (m - 2)
    # the cap below y = 1, at most 1 - sqrt(3)/2 tall: k Gauss nodes in x, k // 2 across
    hg, wh = _gauss(yg.size // 2)
    ylow = np.sqrt(1.0 - 0.25 * yg * yg)[:, None]
    Yc = 0.5 * (1.0 + ylow) + 0.5 * (1.0 - ylow) * hg
    cap = 0.25 * (1.0 - ylow) * wy[:, None] * wh * Yc ** (m - 2)
    Z = np.concatenate([(x + 1j * Y[:, None]).ravel(), (0.5 * yg[:, None] + 1j * Yc).ravel()])
    g = f1(Z) * np.conj(f2(Z))
    rows = g[..., :Y.size * x.size].reshape(g.shape[:-1] + (Y.size, x.size))
    grids.append((np.abs(rows).mean(axis=-1) @ (
        W * 2.0 * (X_POINTS + 1) ** (m / 2) * np.exp(-2.0 * np.pi * X_POINTS * Y)), Z.size))
    return rows.mean(axis=-1) @ W + g[..., Y.size * x.size:] @ cap.ravel()


def petersson(f1, f2, weight: Weight,
              domain: FundamentalDomainSpec | None = None) -> IntegralResult:
    """Normalized pairing eps^{-1} integral of f1 conj(f2) y^{m-2} dx dy, where
    eps = 2 is the order of {+-I} in SL2(Z).

    ``f1`` and ``f2`` must accept complex arrays and have period 1 in x.  The
    grid's Gauss nodes k in y (module docstring) start at the domain's
    ``base_nodes`` and double, at most four times, until two grids agree to
    GRID_TOL relative: a default pairing takes grids of 10 and 20 nodes,
    730 points, as the grids count them.
    The error estimate is the last doubling difference plus the final
    grid's x-aliasing term.  That term assumes cusp forms of weight m whose
    coefficients grow at most like n^{m/2}: mode k of f1 conj(f2) at height
    y is then at most (|k| + 1)^{m/2} e^{-2 pi |k| y} times |f1 f2|, so the
    rows' rule applied to 2 (X_POINTS + 1)^{m/2} e^{-2 pi X_POINTS y}
    |f1 f2| y^{m-2} bounds the modes +-X_POINTS it aliases.  When ``f2``
    stacks several integrands on a leading axis, each is paired into an
    array of values; the doubling stops once every component has converged,
    and the error estimate is the largest component's.
    """
    require_genus(1, weight=weight)   # the quadrature harness is genus-1 only
    dom = domain or FundamentalDomainSpec()
    eps = CongruenceGroup(1, 1).epsilon()     # the quadrature covers SL2(Z)
    grids = []    # (x-aliasing term, point count) of each grid
    value, change, _, converged = _gauss_doubling(
        lambda yg, wy: _grid_value(f1, f2, weight.m, yg, wy, grids), GRID_TOL, dom.base_nodes)
    err = float(np.max(change + grids[-1][0]))
    result = IntegralResult(value=value / eps, error_estimate=err / eps,
                            evaluations=sum(count for _, count in grids), method=METHOD_QUAD)
    if not converged:
        raise ConvergenceError(f"grid doubling stalled at {err / np.max(np.abs(value)):.3e} "
                               f"relative to tolerance {GRID_TOL:g}", result)
    return result


# ---------------------------------------------------------------------------
# the verification battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """One checked identity: computed ``lhs`` against expected ``rhs`` (for a
    table, matching and all cells), error decomposition and printed summary."""

    identity: str
    lhs: complex
    rhs: complex
    rel_err: float
    error_budget: dict = field(compare=False)
    passed: bool = False
    detail: str = field(default="", compare=False)


def verify_thresholds(n: int, tol: float = THRESHOLD_TOL) -> VerificationReport:
    """Every cell of the genus-n reference threshold table, recomputed.

    An ambiguous cell raises AmbiguousThresholdError rather than passing or
    failing on a guess.
    """
    if n not in REFERENCE_N0:
        raise DomainError(f"no reference thresholds at genus {n}")
    ref = REFERENCE_N0[n]
    cells = n0_table(n, sorted({l for l, _ in ref}), sorted({m for _, m in ref}), tol=tol)
    bad = [(c.l, c.m, c.n0, ref[(c.l, c.m)])
           for c in cells if c.n0 != ref[(c.l, c.m)]]
    detail = f"{len(cells) - len(bad)}/{len(cells)} cells match the reference"
    if bad:
        detail += "; mismatches " + ", ".join(
            f"(l={l},m={m}) got {got} want {want}" for l, m, got, want in bad[:8])
    return VerificationReport(identity=f"threshold-table-genus{n}",
                              lhs=len(cells) - len(bad), rhs=len(cells),
                              rel_err=len(bad) / len(cells), error_budget={},
                              passed=not bad, detail=detail)


def verify_coefficients(samples: int = 100, seed: int = 0) -> VerificationReport:
    """Cartan closed form of the matrix coefficient against the direct lift.

    ``samples`` elements per genus 1, 2, 3 from ``random_symplectic`` with
    one generator seeded by ``seed``, each paired with the weights 1, det,
    det^2 and X_{1,1} at m = 8.  The direct lift j(g, iI)^{-m} f_{mu,m}(g.iI)
    is the pole form of g at [iI; I], one ``pole_terms`` call per genus and
    weight.  ``lhs``/``rhs`` are the closed and lifted values with the worst
    relative difference, at most COEFF_TOL to pass; a value not finite fails.
    """
    samples = require_integer(samples, "sample count", 1)
    rng = np.random.default_rng(require_integer(seed, "seed", 0))
    worst, lhs, rhs = 0.0, 0j, 0j
    for n in (1, 2, 3):
        w = Weight(8, n)
        specs = [MatrixCoefficientSpec(mu, w) for mu in (
            MatrixPolynomial.one(n), MatrixPolynomial.det_power(n, 1),
            MatrixPolynomial.det_power(n, 2), MatrixPolynomial.coordinate(n, 1, 1))]
        gs = [random_symplectic(n, rng) for _ in range(samples)]
        closed = np.array([[matrix_coeff_kak(spec, factors) for spec in specs]
                           for factors in map(kak_decompose, gs)])
        G, center = np.stack([g.g for g in gs]), np.vstack([1j * np.eye(n), np.eye(n)])
        lifted = np.stack([pole_terms(w, G, center, spec.mu)[:, 0] for spec in specs], axis=1)
        rel = np.abs(closed - lifted) / np.maximum(np.abs(closed), np.abs(lifted)).clip(1e-300)
        rel[np.isnan(rel)] = np.inf
        k = np.unravel_index(np.argmax(rel), rel.shape)    # the first worst, in draw order
        if rel[k] > worst:
            worst, lhs, rhs = float(rel[k]), complex(closed[k]), complex(lifted[k])
    return VerificationReport(
        identity="coefficient-identity", lhs=lhs, rhs=rhs, rel_err=worst,
        error_budget={}, passed=worst <= COEFF_TOL,
        detail=f"worst relative difference {worst:.3e} over {3 * 4 * samples} "
               f"evaluations (tolerance {COEFF_TOL:g})")


def verify_cmn(samples: int = CMN_SAMPLES, seed: int = 0) -> list[VerificationReport]:
    """Monte Carlo C_{m,n} at four weights, each within three of its standard
    errors of the closed gamma product."""
    reports = []
    for n, m in ((1, 4), (1, 12), (2, 5), (2, 8)):
        closed = c_mn(Weight(m, n))
        res = mc_cmn(Weight(m, n), samples=samples, seed=seed)
        sigma = abs(res.value - closed) / res.error_estimate
        reports.append(VerificationReport(
            identity=f"normalization-mc-n{n}-m{m}", lhs=res.value, rhs=closed,
            rel_err=abs(res.value - closed) / closed,
            error_budget={"standard_error": res.error_estimate},
            passed=sigma <= 3.0,
            detail=f"closed {closed:.6e}, mc {res.value:.6e} "
                   f"+- {res.error_estimate:.2e} ({sigma:.2f} sigma)"))
    return reports


def _cusp_height_budget(f1, f2, m: int) -> float:
    """Crude bound for the mass above the height cutoff, for m < 2 + 2 pi Y_MAX."""
    xs = np.linspace(-0.5, 0.5, 16)
    z_top = xs + 1j * Y_MAX
    row = np.abs(f1(z_top) * np.conj(f2(z_top))) * Y_MAX ** (m - 2)
    return float(np.max(row)) / (2.0 * math.pi - (m - 2) / Y_MAX)


def _pair_with_series(identity: str, delta: DiscriminantForm, rhs: complex,
                      ball, radius: float, **kind) -> VerificationReport:
    """Pair the form with the genus-1 series of ``kind`` (mu or xi), and report.

    The ball within radius/2 and the shell outside it each go through the
    evaluator once, stacked as (S_r, S_{r/2}), so one quadrature gives the
    pairing and its half-radius change, the "series" budget.
    """
    w = Weight(delta.m, 1)
    ball = _ball_for(CongruenceGroup(1, 1), radius, ball)
    inner, shell = (series_evaluator_genus1(w, part, **kind)
                    for part in ball.split(radius / 2.0))

    def series(z):
        half = inner(z)
        return np.stack([half + shell(z), half])

    res = petersson(delta, series, w)
    lhs, lhs_half = (complex(v) for v in res.value)
    rel = abs(lhs - rhs) / abs(rhs)
    budget = {
        "series": abs(lhs - lhs_half),
        "quadrature": res.error_estimate,
        "cutoff": (_cusp_height_budget(delta, lambda z: series(z)[0], w.m)
                   + delta.truncation_bound(math.sqrt(3.0) / 2.0)),
    }
    detail = (f"relative error {rel:.2e} (tolerance {PAIRING_TOL:g}); budget "
              + ", ".join(f"{k} {v:.2e}" for k, v in sorted(budget.items())))
    return VerificationReport(identity=identity, lhs=lhs, rhs=complex(rhs),
                              rel_err=rel, error_budget=budget,
                              passed=rel <= PAIRING_TOL, detail=detail)


def verify_cor62(radius: float = PAIRING_RADIUS, ball=None) -> VerificationReport:
    """Pairing of the weight-12 form against the averaged weight vector.

    The computed pairing must reproduce C_{12,1} times the form's value at
    the center, within PAIRING_TOL relative error.  A supplied ``ball`` must
    be a level-1 genus-1 ball of at least ``radius``; a larger one is
    restricted.
    """
    delta = DiscriminantForm()
    return _pair_with_series("pairing-vs-center-value", delta,
                             c_mn(Weight(12, 1)) * delta(1j), ball, radius,
                             mu=MatrixPolynomial.one(1))


def verify_thm93(points=(1j, 2j, 0.3 + 0.8j), radius: float = PAIRING_RADIUS,
                 ball=None) -> list[VerificationReport]:
    """Pairing against the averaged point kernel reproduces point values,
    with ``ball`` fitted as in ``verify_cor62``."""
    points = [complex(pt) for pt in points]
    if any(pt.imag <= 0 for pt in points):
        raise DomainError("evaluation points must lie in the upper half-plane")
    ball = _ball_for(CongruenceGroup(1, 1), radius, ball)
    delta = DiscriminantForm()
    return [_pair_with_series(f"kernel-pairing@{pt.real:g}+{pt.imag:g}i", delta,
                              delta(pt), ball, radius,
                              xi=SiegelPoint.from_complex(np.array([[pt]])))
            for pt in points]
