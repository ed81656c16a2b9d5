"""Tests for the fundamental-domain pairing and the verification harness."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma, gammaincc

import siegelps as sp
from siegelps import (
    ConvergenceError,
    DimensionError,
    DiscriminantForm,
    DomainError,
    FundamentalDomainSpec,
    Weight,
    mc_cmn,
)
from siegelps.petersson import X_POINTS, Y_MAX, _grid_value, petersson

TAU = (1, -24, 252, -1472, 4830, -6048)


# ---------------------------------------------------------------------------
# the weight-12 oracle form
# ---------------------------------------------------------------------------


def test_tau_coefficients():
    form = DiscriminantForm(cutoff=12)
    assert np.array_equal(form.tau[:6], np.array(TAU, dtype=np.float64))
    # tau(1..60), pinned from the 24th power of the Euler product; each is
    # below 2^53, so exact in float64
    text = ",".join(str(int(t)) for t in DiscriminantForm(60).tau)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a4ca544d93d4920d165c08211e7ab5e82af4a54576f6b3fe385f112bd64b4308")


def test_form_value_at_center():
    # Gamma(1/4)^24 / (2^24 pi^18), an exact classical evaluation
    expected = gamma(0.25) ** 24 / (2 ** 24 * np.pi ** 18)
    got = DiscriminantForm(40)(1j)
    assert got.imag == pytest.approx(0.0, abs=1e-20)
    assert got.real == pytest.approx(expected, rel=1e-12)


def test_form_periodicity_and_modular_inversion():
    delta = DiscriminantForm(60)
    for z in (0.3 + 1.1j, -0.2 + 0.9j, 0.5 + 2.0j):
        assert delta(z + 1) == pytest.approx(delta(z), rel=1e-12)
        assert delta(-1.0 / z) == pytest.approx(z ** 12 * delta(z), rel=1e-9)


def test_form_array_and_scalar_calls():
    delta = DiscriminantForm(30)
    zs = np.array([1j, 0.25 + 1.5j, -0.5 + 0.9j])
    vals = delta(zs)
    assert vals.shape == (3,)
    assert isinstance(delta(1j), complex)
    for i, z in enumerate(zs):
        assert vals[i] == pytest.approx(delta(complex(z)), rel=1e-14)


def test_truncation_bound_behaviour():
    delta = DiscriminantForm(40)
    assert delta.truncation_bound(1.0) > delta.truncation_bound(2.0) > 0.0
    # more terms means a smaller tail at fixed height
    assert (DiscriminantForm(60).truncation_bound(1.0)
            < DiscriminantForm(30).truncation_bound(1.0))
    # at the domain floor the tail is negligible against the center value
    assert delta.truncation_bound(math.sqrt(3.0) / 2.0) < 1e-12 * abs(delta(1j))


def test_form_cutoff_validation():
    with pytest.raises(DomainError):
        DiscriminantForm(cutoff=3)


# ---------------------------------------------------------------------------
# Monte Carlo normalization constant
# ---------------------------------------------------------------------------


def test_mc_cmn_matches_closed_form():
    for m, n in ((4, 1), (5, 2)):
        w = Weight(m, n)
        res = mc_cmn(w, samples=100_000, seed=0)
        assert res.method == sp.METHOD_MC
        assert abs(res.value - sp.c_mn(w)) <= 4.0 * res.error_estimate


# mc_cmn(Weight(m, n), 10**6, seed 0) as (value, error estimate), computed with
# batched eigvalsh before the closed-form test; the draws and decisions are kept
MC_CMN_GOLDEN = {
    (1, 4, 10 ** 6): (4.188822199443216, 0.0047613544116088076),
    (1, 12, 10 ** 6): (1.1424466382454774, 0.0028756335714302385),
    (2, 5, 10 ** 6): (23.541092835487763, 0.15483743730005023),
    (2, 8, 10 ** 6): (3.6137520334894795, 0.050783497691653724),
    (3, 8, 10 ** 5): (14.416662682451925, 5.419594370336842),
}


def test_mc_cmn_golden_values():
    for (n, m, samples), (value, error) in MC_CMN_GOLDEN.items():
        res = mc_cmn(Weight(m, n), samples=samples, seed=0)
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.error_estimate == pytest.approx(error, rel=1e-12)


def test_mc_cmn_validation():
    with pytest.raises(DomainError):
        mc_cmn(Weight(4, 1), samples=10)


def test_mc_cmn_refuses_a_box_it_cannot_sample():
    # at genus 5 the contractions fill too little of the box
    with pytest.raises(sp.SamplingError, match="acceptance rate"):
        mc_cmn(Weight(12, 5), samples=1000)


def test_verify_thresholds_names_a_mismatched_cell(monkeypatch):
    with pytest.raises(DomainError, match="^no reference thresholds at genus 3"):
        sp.verify_thresholds(3)
    ref = sp.REFERENCE_N0[1]
    monkeypatch.setitem(sp.REFERENCE_N0, 1, {(0, 6): ref[0, 6], (1, 6): ref[1, 6] + 1})
    rep = sp.verify_thresholds(1)
    assert not rep.passed and (rep.lhs, rep.rhs) == (1, 2)
    assert rep.detail == (f"1/2 cells match the reference; mismatches (l=1,m=6) "
                          f"got {ref[1, 6]} want {ref[1, 6] + 1}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def q_exp(z):
    return np.exp(2j * np.pi * np.asarray(z, dtype=np.complex128))


def test_quadrature_against_incomplete_gamma():
    # f1 = f2 = q gives the x-independent integrand e^{-4 pi y} y^{10},
    # whose height integral is an incomplete gamma function
    w = Weight(12, 1)
    a = 4.0 * math.pi

    def inner(x):
        lo = math.sqrt(1.0 - x * x)
        return (gamma(11.0) / a ** 11) * (gammaincc(11.0, a * lo)
                                          - gammaincc(11.0, a * Y_MAX))

    oracle, err = integrate.quad(inner, -0.5, 0.5, epsabs=1e-18, epsrel=1e-12)
    res = petersson(q_exp, q_exp, w)
    assert res.value.imag == pytest.approx(0.0, abs=1e-18)
    assert res.value.real == pytest.approx(oracle / 2.0, rel=1e-8)


def test_pairing_linearity_and_symmetry():
    w = Weight(12, 1)
    delta = DiscriminantForm(40)
    base = petersson(delta, q_exp, w)
    scaled = petersson(lambda z: 2.5 * delta(z), q_exp, w)
    assert scaled.value == pytest.approx(2.5 * base.value, rel=1e-12)
    swapped = petersson(q_exp, delta, w)
    assert swapped.value == pytest.approx(np.conj(base.value), rel=1e-12)
    # a stacked second argument is paired componentwise
    stacked = petersson(delta, lambda z: np.stack([q_exp(z), 2.5 * q_exp(z)]), w)
    assert stacked.value.shape == (2,)
    assert stacked.value[0] == pytest.approx(base.value, rel=1e-12)
    assert stacked.value[1] == pytest.approx(2.5 * base.value, rel=1e-12)


def test_pairing_norm_positive():
    delta = DiscriminantForm(40)
    res = petersson(delta, delta, Weight(12, 1))
    assert res.value.imag == pytest.approx(0.0, abs=1e-18)
    assert res.value.real > 0


def test_quadrature_genus_guard_and_validation():
    with pytest.raises(DimensionError):
        petersson(q_exp, q_exp, Weight(6, 2))
    with pytest.raises(DomainError):
        FundamentalDomainSpec(base_nodes=3)


def test_quadrature_convergence_failure_carries_partial():
    # a jump at y = 1.3 inside the rows: Gauss grids up to 160 nodes do not settle on it
    delta = DiscriminantForm(40)
    with pytest.raises(ConvergenceError) as exc:
        petersson(delta, lambda z: delta(z) * np.where(z.imag < 1.3, 1.0, 2.0), Weight(12, 1))
    partial = exc.value.partial
    assert partial.evaluations == 22010    # the grids of 10, 20, 40, 80 and 160 nodes
    assert partial.value.real > 0
    rel = partial.error_estimate / abs(partial.value)
    assert 1e-3 < rel < 1e-1
    assert str(exc.value) == f"grid doubling stalled at {rel:.3e} relative to tolerance 1e-08"


# <Delta, Delta> = integral of |Delta|^2 y^12 dx dy / y^2 over SL2(Z)\H, twice
# the normalized pairing: the published value
DELTA_NORM = 1.035362056804320922e-6


def test_delta_norm_and_its_x_aliasing_term():
    # |Delta|^2 y^10 depends on x, unlike the incomplete-gamma oracle's integrand
    delta, m = DiscriminantForm(40), 12
    assert 2.0 * petersson(delta, delta, Weight(m, 1)).value.real == pytest.approx(
        DELTA_NORM, rel=1e-13)
    # Mode k of |Delta|^2 at height y is sum_n tau(n) tau(n + k) e^{-2 pi (2n + k) y}.
    # On x = (j + 1/2)/M - 1/2 the rows' M-point rule adds (-1)^j times modes +-jM,
    # each integrated against y^10 over the rows' 1 <= y <= Y_MAX.
    tau = delta.tau

    def rows_integral(a):
        return gamma(m - 1.0) / a ** (m - 1) * (gammaincc(m - 1.0, a)
                                                 - gammaincc(m - 1.0, a * Y_MAX))

    exact = sum(2 * (-1) ** j * tau[n - 1] * tau[n + j * X_POINTS - 1]
                * rows_integral(2 * math.pi * (2 * n + j * X_POINTS))
                for j in (1, 2) for n in range(1, len(tau) - j * X_POINTS + 1))
    assert exact != 0.0
    grids = []
    _grid_value(delta, delta, m, *np.polynomial.legendre.leggauss(24), grids)
    assert abs(exact) <= grids[0][0] < 1e-16 * DELTA_NORM
    assert grids[0][1] == 2 * X_POINTS * 24 + 24 * 12   # rows, then the cap's k x k // 2


def test_default_pairing_takes_730_evaluations(ball40, monkeypatch):
    # grids of 10 and 20 nodes, each 2·8·k row points and k·⌊k/2⌋ cap points
    module, counts = sp.petersson, []
    real = module.petersson

    def counted(f1, f2, weight, domain=None):
        points = []
        res = real(f1, lambda z: points.append(np.size(z)) or f2(z), weight, domain)
        counts.append((res.evaluations, sum(points)))
        return res
    monkeypatch.setattr(module, "petersson", counted)
    sp.verify_thm93(ball=ball40)
    assert counts == [(730, 730)] * 3


def test_default_grid_parts_clear_the_tolerance(monkeypatch):
    # Each part of the default 10-node grid (rows at 1 <= y <= 2, u-rows above,
    # the cap below y = 1) against a 48-node reference, for the cor62 integrand
    # and a kernel near the arc's corner on the r = 10 ball: within 1e-9 of
    # |value|, so the first doubling clears the 1e-8 tolerance 10 times over.
    w, ball = Weight(12, 1), sp.enumerate_ball(sp.CongruenceGroup(1, 1), 10.0)
    cor62 = sp.series_evaluator_genus1(w, ball, mu=sp.MatrixPolynomial.one(1))
    kernel = sp.series_evaluator_genus1(
        w, ball, xi=sp.SiegelPoint.from_complex(np.array([[0.49 + 0.87j]])))
    delta = DiscriminantForm()
    parts = {"rows": lambda y: (1 < y) & (y < 2), "u-rows": lambda y: y > 2,
             "cap": lambda y: y < 1}

    def part(k, inside):
        def f2(z):
            return np.stack([cor62(z), kernel(z)]) * inside(np.imag(z))
        return _grid_value(delta, f2, w.m, *np.polynomial.legendre.leggauss(k), [])

    value = sum(part(48, inside) for inside in parts.values())
    for name, inside in parts.items():
        assert np.all(np.abs(part(10, inside) - part(48, inside))
                      <= 1e-9 * np.abs(value)), name
    # at k = 20 the cap on k x k/2 nodes is the cap on k x k to rounding
    half = part(20, parts["cap"])
    monkeypatch.setattr(sp.petersson, "_gauss",
                        lambda n: np.polynomial.legendre.leggauss(2 * n))
    assert np.all(np.abs(part(20, parts["cap"]) - half) <= 1e-14 * np.abs(half))


# ---------------------------------------------------------------------------
# end-to-end identities
# ---------------------------------------------------------------------------


# Pairings at radius 40 with the default quadrature, recorded from the
# evaluator that summed j(g, z)^{-m} f(g.z) directly, before the pole form.
GOLDEN_LHS = {
    "pairing-vs-center-value": 0.0020396017478975037 - 3.8659753472355046e-21j,
    "kernel-pairing@0+1i": 0.0017853698506421654 - 3.519294691803961e-21j,
    "kernel-pairing@0+2i": 3.487050489535093e-06 - 7.69645586684091e-24j,
    "kernel-pairing@0.3+0.8i": -0.0011349819700584166 + 0.006803176006185741j,
}


def test_pairing_reproduces_center_value(cor62_report):
    rep = cor62_report
    assert rep.passed
    assert rep.rel_err < 1e-6
    assert rep.lhs == pytest.approx(GOLDEN_LHS[rep.identity], rel=1e-12)
    assert set(rep.error_budget) == {"series", "quadrature", "cutoff"}
    assert rep.identity == "pairing-vs-center-value"


def test_kernel_pairing_reproduces_point_values(thm93_reports):
    reports = thm93_reports
    assert len(reports) == 3
    for rep in reports:
        assert rep.passed
        assert rep.rel_err < 1e-6
        assert rep.lhs == pytest.approx(GOLDEN_LHS[rep.identity], rel=1e-12)


def test_kernel_pairing_rejects_lower_half_plane(ball40):
    with pytest.raises(DomainError):
        sp.verify_thm93(points=(1j, -1j), ball=ball40)


def test_pairings_fit_a_supplied_ball():
    # a larger level-1 ball, or one of the same squared-norm cap, is
    # restricted to the radius; a smaller one or a ball of another level is
    # refused
    group = sp.CongruenceGroup(1, 1)
    big, small = sp.enumerate_ball(group, 14.0), sp.enumerate_ball(group, 7.0)
    same_cap = sp.enumerate_ball(group, 10.0)
    level2 = sp.enumerate_ball(sp.CongruenceGroup(1, 2), 14.0)
    for check in (sp.verify_cor62, sp.verify_thm93):
        direct = check(radius=10.0)
        assert repr(check(radius=10.0, ball=big)) == repr(direct)
        assert (repr(check(radius=10.0000001, ball=same_cap))
                == repr(check(radius=10.0000001)))
        for ball in (small, level2):
            with pytest.raises(DomainError):
                check(radius=10.0, ball=ball)
