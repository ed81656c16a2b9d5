"""Genus-1 inner-product quadrature, Monte Carlo volume cross-checks and
the verification battery.

The quadrature works on the classical fundamental domain |x| <= 1/2,
|z| >= 1, split at a moderate height: below the split a tensor Gauss rule
follows the circular lower boundary, above it the substitution u = 1/y
compactifies the strip up to the height cutoff.  Pairings are normalized by
the order of the central subgroup, so they match the averaged-series
identities directly.  The battery behind ``siegelps verify`` is one
``verify_*`` function per check, each returning VerificationReport values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrete_series import (
    MatrixCoefficientSpec,
    Weight,
    c_mn,
    f_mu_m,
    lift,
    matrix_coeff_kak,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    SamplingError,
)
from .nonvanishing import METHOD_MC, METHOD_QUAD, REFERENCE_N0, IntegralResult, n0_table
from .poincare import CongruenceGroup, enumerate_ball, series_evaluator_genus1
from .polynomials import MatrixPolynomial
from .symplectic import SiegelPoint, kak_decompose, random_symplectic


@dataclass(frozen=True)
class FundamentalDomainSpec:
    """Quadrature layout for the genus-1 fundamental domain."""

    y_max: float = 8.0
    y_split: float = 2.0
    base_nodes: int = 24
    max_doublings: int = 4
    tol: float = 1e-8

    def __post_init__(self):
        if self.y_max < 2.0:
            raise DomainError("height cutoff must be at least 2")
        if not (1.0 <= self.y_split < self.y_max):
            raise DomainError("split height must lie in [1, y_max)")
        if self.base_nodes < 4 or self.max_doublings < 1:
            raise DomainError("grid parameters too small")


# ---------------------------------------------------------------------------
# the classical weight-12 form, from the 24th power of the Euler product
# ---------------------------------------------------------------------------

def _euler_coeffs(K: int) -> list[int]:
    out = [0] * (K + 1)
    out[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= K:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= K:
                out[g] += sign
        k += 1
    return out


def _conv(a: list[int], b: list[int], K: int) -> list[int]:
    out = [0] * (K + 1)
    for i, ai in enumerate(a):
        if ai:
            top = min(K - i, len(b) - 1)
            for j in range(top + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _tau_coeffs(K: int) -> list[int]:
    """Coefficients tau(1..K) of the weight-12 form, exact integers."""
    base = _euler_coeffs(K)
    result = [1] + [0] * K
    power = 24
    while power:
        if power & 1:
            result = _conv(result, base, K)
        power >>= 1
        if power:
            base = _conv(base, base, K)
    return result[: K]          # shifted by one: coefficient of q^{k} is result[k-1]


class DiscriminantForm:
    """The normalized weight-12 cusp form as a truncated q-expansion.

    Callable on complex scalars or arrays; exact integer coefficients give
    a self-contained oracle independent of everything else in the package.
    """

    m = 12

    def __init__(self, cutoff: int = 40):
        if cutoff < 5:
            raise DomainError("cutoff too small to be useful")
        self.cutoff = int(cutoff)
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

def mc_cmn(weight: Weight, samples: int = 10 ** 6, seed: int = 0) -> IntegralResult:
    """Estimate C_{m,n} as 2^{n(n+1)} times the bounded-domain volume integral.

    Samples the symmetric-matrix box uniformly, keeps points with
    I - w*w positive definite, and averages det(I - w*w)^{m-n-1}.
    """
    m, n = weight.m, weight.n
    if samples < 1000:
        raise DomainError("need at least 1000 samples for a meaningful estimate")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n)
    total = 0.0
    total_sq = 0.0
    accepted = 0
    done = 0
    while done < samples:
        count = min(200_000, samples - done)
        re = rng.uniform(-1.0, 1.0, size=(count, len(iu)))
        im = rng.uniform(-1.0, 1.0, size=(count, len(iu)))
        W = np.zeros((count, n, n), dtype=np.complex128)
        W[:, iu, ju] = re + 1j * im
        W[:, ju, iu] = re + 1j * im
        Mh = np.eye(n)[None] - np.conj(W) @ W
        evs = np.linalg.eigvalsh(Mh)
        inside = evs[:, 0] > 0.0
        dets = np.where(inside, np.prod(evs, axis=1), 1.0)
        vals = np.where(inside, dets ** (m - n - 1), 0.0)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        accepted += int(np.sum(inside))
        done += count
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

def _grid_value(f1, f2, m: int, dom: FundamentalDomainSpec, nodes: int) -> complex:
    xg, wx = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * xg
    wxs = 0.5 * wx

    def region(Y, WY, power):
        Z = x[:, None] + 1j * Y
        return np.sum(wxs[:, None] * WY * (f1(Z) * np.conj(f2(Z)) * Y ** power),
                      axis=(-2, -1))
    # region A: circular floor up to the split height
    ylow = np.sqrt(1.0 - x * x)
    half = 0.5 * (dom.y_split - ylow)
    mid = 0.5 * (dom.y_split + ylow)
    total = region(mid[:, None] + half[:, None] * xg[None, :],
                   half[:, None] * wx[None, :], m - 2)
    # region B: u = 1/y flattens the tall strip
    lo, hi = 1.0 / dom.y_max, 1.0 / dom.y_split
    U = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
    return total + region(1.0 / U[None, :], 0.5 * (hi - lo) * wx[None, :], m)


def petersson(f1, f2, weight: Weight, domain: FundamentalDomainSpec | None = None,
              eps_gamma: int = 2) -> IntegralResult:
    """Normalized pairing eps^{-1} integral of f1 conj(f2) y^{m-2} dx dy.

    ``f1`` and ``f2`` must accept complex arrays.  Node counts double until
    two successive grids agree to the domain tolerance; the last doubling
    difference is the reported error estimate.  When ``f2`` stacks several
    integrands on a leading axis, each is paired into an array of values;
    the doubling stops once every component has converged, and the error
    estimate is the largest component's.
    """
    if weight.n != 1:
        raise DimensionError("the quadrature harness is genus-1 only")
    dom = domain or FundamentalDomainSpec()
    m = weight.m
    prev = None
    evals = 0
    err = math.inf
    value = 0j
    for level in range(dom.max_doublings + 1):
        nodes = dom.base_nodes * 2 ** level
        value = _grid_value(f1, f2, m, dom, nodes)
        evals += 2 * nodes * nodes
        if prev is not None:
            diff = np.abs(value - prev)
            err = float(np.max(diff))
            if np.all(diff <= dom.tol * np.maximum(np.abs(value), 1e-30)):
                return IntegralResult(value=value / eps_gamma,
                                      error_estimate=err / eps_gamma,
                                      evaluations=evals, method=METHOD_QUAD)
        prev = value
    raise ConvergenceError(
        f"grid doubling stalled at {err:.3e} relative to tolerance {dom.tol}",
        IntegralResult(value=value / eps_gamma, error_estimate=err / eps_gamma,
                       evaluations=evals, method=METHOD_QUAD))


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


def verify_thresholds(n: int, tol: float = 1e-10) -> VerificationReport:
    """Every cell of the genus-n reference threshold table, recomputed.

    An ambiguous cell raises AmbiguousThresholdError rather than passing or
    failing on a guess.
    """
    if n not in REFERENCE_N0:
        raise DomainError(f"no reference thresholds at genus {n}")
    ref = REFERENCE_N0[n]
    cells = n0_table(n, sorted({l for l, _ in ref}), sorted({m for _, m in ref}),
                     tol=tol, budget=10 ** 6)
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


def verify_coefficients(samples: int = 100, seed: int = 0,
                        tol: float = 1e-9) -> VerificationReport:
    """Cartan closed form of the matrix coefficient against the direct lift.

    ``samples`` elements per genus 1, 2, 3 from ``random_symplectic`` with
    one generator seeded by ``seed``, each paired with the weights 1, det,
    det^2 and X_{1,1} at m = 8.  ``lhs``/``rhs`` are the closed and lifted
    values with the worst relative difference, which must be at most ``tol``.
    """
    if samples < 1:
        raise DomainError("need at least one sample per genus")
    rng = np.random.default_rng(seed)
    worst, lhs, rhs = 0.0, 0j, 0j
    for n in (1, 2, 3):
        w = Weight(8, n)
        specs = [MatrixCoefficientSpec(mu, w) for mu in (
            MatrixPolynomial.one(n), MatrixPolynomial.det_power(n, 1),
            MatrixPolynomial.det_power(n, 2), MatrixPolynomial.coordinate(n, 1, 1))]
        for _ in range(samples):
            g = random_symplectic(n, rng)
            factors = kak_decompose(g)
            for spec in specs:
                a = matrix_coeff_kak(spec, factors)
                b = lift(lambda z: f_mu_m(spec.mu, w, z), w, g)
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                if rel > worst:
                    worst, lhs, rhs = rel, a, b
    return VerificationReport(
        identity="coefficient-identity", lhs=lhs, rhs=rhs, rel_err=worst,
        error_budget={}, passed=worst <= tol,
        detail=f"worst relative difference {worst:.3e} over {3 * 4 * samples} "
               f"evaluations (tolerance {tol:g})")


def verify_cmn(samples: int = 10 ** 6, seed: int = 0) -> list[VerificationReport]:
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


def _cusp_height_budget(f1, f2, m: int, dom: FundamentalDomainSpec) -> float:
    """Crude bound for the mass above the height cutoff."""
    xs = np.linspace(-0.5, 0.5, 16)
    z_top = xs + 1j * dom.y_max
    row = np.abs(f1(z_top) * np.conj(f2(z_top))) * dom.y_max ** (m - 2)
    decay = 2.0 * math.pi - max(m - 2, 0) / dom.y_max
    if decay <= 0:
        decay = 2.0 * math.pi / 2
    return float(np.max(row)) / decay


def _pair_with_series(identity: str, delta: DiscriminantForm, rhs: complex,
                      ball, radius: float, domain, tol: float,
                      **kind) -> VerificationReport:
    """Pair the form with the genus-1 series of ``kind`` (mu or xi), and report.

    The ball within radius/2 and the shell outside it each go through the
    evaluator once, stacked as (S_r, S_{r/2}), so one quadrature gives the
    pairing and its half-radius change, the "series" budget.
    """
    w = Weight(delta.m, 1)
    dom = domain or FundamentalDomainSpec()
    if ball is None:
        ball = enumerate_ball(CongruenceGroup(1, 1), radius)
    inner, shell = (series_evaluator_genus1(w, part, **kind)
                    for part in ball.split(radius / 2.0))

    def series(z):
        half = inner(z)
        return np.stack([half + shell(z), half])

    res = petersson(delta, series, w, dom)
    lhs, lhs_half = (complex(v) for v in res.value)
    rel = abs(lhs - rhs) / abs(rhs)
    budget = {
        "series": abs(lhs - lhs_half),
        "quadrature": res.error_estimate,
        "cutoff": (_cusp_height_budget(delta, lambda z: series(z)[0], w.m, dom)
                   + delta.truncation_bound(math.sqrt(3.0) / 2.0)),
    }
    detail = (f"relative error {rel:.4f} (tolerance {tol:g}); budget "
              + ", ".join(f"{k} {v:.2e}" for k, v in sorted(budget.items())))
    return VerificationReport(identity=identity, lhs=lhs, rhs=complex(rhs),
                              rel_err=rel, error_budget=budget, passed=rel <= tol,
                              detail=detail)


def verify_cor62(radius: float = 40.0, cutoff: int = 40,
                 domain: FundamentalDomainSpec | None = None,
                 tol: float = 0.02, ball=None) -> VerificationReport:
    """Pairing of the weight-12 form against the averaged weight vector.

    The computed pairing must reproduce C_{12,1} times the form's value at
    the center, within ``tol`` relative error.
    """
    delta = DiscriminantForm(cutoff)
    return _pair_with_series("pairing-vs-center-value", delta,
                             c_mn(Weight(12, 1)) * delta(1j), ball, radius, domain,
                             tol, mu=MatrixPolynomial.one(1))


def verify_thm93(points=(1j, 2j, 0.3 + 0.8j), radius: float = 40.0,
                 cutoff: int = 40, domain: FundamentalDomainSpec | None = None,
                 tol: float = 0.02, ball=None) -> list[VerificationReport]:
    """Pairing against the averaged point kernel reproduces point values."""
    points = [complex(pt) for pt in points]
    if any(pt.imag <= 0 for pt in points):
        raise DomainError("evaluation points must lie in the upper half-plane")
    if ball is None:
        ball = enumerate_ball(CongruenceGroup(1, 1), radius)
    delta = DiscriminantForm(cutoff)
    return [_pair_with_series(f"kernel-pairing@{pt.real:g}+{pt.imag:g}i", delta,
                              delta(pt), ball, radius, domain, tol,
                              xi=SiegelPoint.from_complex(np.array([[pt]])))
            for pt in points]
