"""Tests for weight vectors, lifts, and closed-form matrix coefficients."""

import functools

import numpy as np
import pytest

import siegelps as sp
from siegelps import (
    DomainError,
    MatrixCoefficientSpec,
    MatrixPolynomial,
    SiegelPoint,
    Weight,
)
from siegelps.discrete_series import pole_terms, pole_values
from conftest import random_point

# value of the radial coefficient at genus 1, weight 4, t = 1 for the
# constant polynomial: 1 / cosh(1)^4, frozen to machine precision
RADIAL_M4_T1 = 0.1763784476141347


def test_weight_validation():
    w = Weight(5, 2)
    assert w.m == 5 and w.n == 2
    assert w.integrable  # 5 > 4
    assert not Weight(4, 2).integrable
    with pytest.raises(DomainError):
        Weight(2, 2)  # m must exceed n
    with pytest.raises(sp.DimensionError):
        Weight(3, 0)
    with pytest.raises(DomainError):
        Weight(4, 2).require_integrable()
    assert Weight(5, 2).require_integrable() is not None


def test_spec_genus_mismatch():
    with pytest.raises(sp.DimensionError):
        MatrixCoefficientSpec(MatrixPolynomial.one(2), Weight(4, 1))


def test_f_at_center_is_mu_at_origin():
    for n in (1, 2, 3):
        w = Weight(2 * n + 4, n)
        center = SiegelPoint.center(n)
        one = MatrixPolynomial.one(n)
        assert sp.f_mu_m(one, w, center) == pytest.approx(1.0, rel=1e-13)
        det = MatrixPolynomial.det_power(n, 1)
        assert sp.f_mu_m(det, w, center) == pytest.approx(0.0, abs=1e-13)


def test_f_values_matches_scalar():
    rng = np.random.default_rng(31)
    n, w = 2, Weight(6, 2)
    mu = MatrixPolynomial.det_power(n, 1) + MatrixPolynomial.coordinate(n, 1, 2)
    pts = [random_point(n, rng) for _ in range(5)]
    Z = np.stack([p.z for p in pts])
    vals = sp.f_values(mu, w, Z)
    for i, p in enumerate(pts):
        assert vals[i] == pytest.approx(sp.f_mu_m(mu, w, p), rel=1e-12)
        assert complex(sp.f_values(mu, w, p.z)) == pytest.approx(vals[i], rel=1e-12)


def test_slash_cocycle():
    rng = np.random.default_rng(32)
    for n in (1, 2):
        w = Weight(n + 3, n)
        mu = MatrixPolynomial.one(n)
        f = lambda z: sp.f_mu_m(mu, w, z)
        for _ in range(3):
            g1 = sp.random_symplectic(n, rng)
            g2 = sp.random_symplectic(n, rng)
            z = random_point(n, rng)
            lhs = sp.slash(sp.slash(f, w, g1), w, g2)(z)
            rhs = sp.slash(f, w, g1 @ g2)(z)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lift_equals_iwasawa_form():
    rng = np.random.default_rng(33)
    for n in (1, 2, 3):
        w = Weight(2 * n + 2, n)
        mu = MatrixPolynomial.det_power(n, 1)
        f = lambda z: sp.f_mu_m(mu, w, z)
        for _ in range(3):
            g = sp.random_symplectic(n, rng)
            direct = sp.lift(f, w, g)
            via_nak = sp.lift_nak(f, w, sp.nak_decompose(g))
            assert direct == pytest.approx(via_nak, rel=1e-10)


def test_radial_coefficient_frozen_value():
    w = Weight(4, 1)
    spec = MatrixCoefficientSpec(MatrixPolynomial.one(1), w)
    g = sp.hyperbolic([1.0])
    val = sp.matrix_coeff_kak(spec, sp.kak_decompose(g))
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(RADIAL_M4_T1, rel=1e-12)
    # np.cosh overflows past t ~ 710; log cosh t has to stay finite there
    u = sp.UnitaryMatrix(np.eye(1))
    assert sp.matrix_coeff_kak(spec, sp.KAKFactors(u, [800.0], u)) == 0.0


def test_coefficient_identity_against_lift():
    # closed Cartan form of the lift versus direct evaluation
    rep = sp.verify_coefficients(samples=5, seed=34)
    assert rep.passed and rep.rel_err <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pole_terms_at_center_equal_the_slash_lift(n):
    # verify_coefficients lifts by pole_terms; this ties that lift, element by
    # element, to the validated slash -> act -> j_factor -> f_mu_m chain
    rng = np.random.default_rng(70 + n)
    w = Weight(8, n)
    gs = [sp.random_symplectic(n, rng) for _ in range(30)]
    G, center = np.stack([g.g for g in gs]), np.vstack([1j * np.eye(n), np.eye(n)])
    for mu in (MatrixPolynomial.one(n), MatrixPolynomial.det_power(n, 1),
               MatrixPolynomial.det_power(n, 2), MatrixPolynomial.coordinate(n, 1, 1)):
        got = pole_terms(w, G, center, mu)
        assert got.shape == (len(gs), 1)
        f = functools.partial(sp.f_mu_m, mu, w)
        for g, value in zip(gs, got[:, 0]):
            assert value == pytest.approx(sp.lift(f, w, g), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_pole_terms_match_each_element(n):
    # pole_terms forms conj(xi) [C D] of the whole stack in one product; each
    # term must be the kernel of its own P, up to rounding (BLAS may use FMA):
    # det(P)^-m moves by m cond(P) times a relative change of P
    rng = np.random.default_rng(80 + n)
    w = Weight(8, n)
    G = np.stack([sp.random_symplectic(n, rng).g for _ in range(20)])
    zs, xi = [random_point(n, rng) for _ in range(3)], random_point(n, rng)
    cols = np.hstack([np.vstack([z.z, np.eye(n)]) for z in zs])
    got = pole_terms(w, G, cols, xi=xi)
    assert got.shape == (len(G), len(zs))
    xc = np.conj(xi.z)
    for g, row in zip(G, got):
        A, B, C, D = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
        for z, value in zip(zs, row):
            P = ((A - xc @ C) @ z.z + (B - xc @ D)) / 2j
            tol = w.m * np.linalg.cond(P) * 1e-15
            assert value == pytest.approx(pole_values(w, P[None])[0], rel=tol, abs=0)
    assert pole_terms(w, G[:0], cols, xi=xi).shape == (0, len(zs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pole_terms_of_an_empty_stack(n):
    # a block of the centre rule can hold no element to evaluate
    w = Weight(8, n)
    cols = np.hstack([np.vstack([1j * np.eye(n), np.eye(n)])] * 3)
    for kw in ({"mu": MatrixPolynomial.one(n)}, {"mu": MatrixPolynomial.coordinate(n, 1, 1)},
               {"xi": SiegelPoint.center(n)}):
        got = pole_terms(w, np.zeros((0, 2 * n, 2 * n)), cols, **kw)
        assert got.shape == (0, 3) and got.dtype == np.complex128


def test_coefficient_conjugate_symmetry():
    # for the constant polynomial the coefficient pairs the same vector
    # with itself, so inverting the argument conjugates the value
    rng = np.random.default_rng(35)
    for n in (1, 2):
        w = Weight(2 * n + 3, n)
        spec = MatrixCoefficientSpec(MatrixPolynomial.one(n), w)
        for _ in range(4):
            g = sp.random_symplectic(n, rng)
            phi = sp.matrix_coeff_kak(spec, sp.kak_decompose(g))
            phi_inv = sp.matrix_coeff_kak(spec, sp.kak_decompose(sp.sp_inverse(g)))
            assert phi_inv == pytest.approx(np.conj(phi), rel=1e-9)


def test_lift_right_compact_equivariance():
    rng = np.random.default_rng(36)
    n, w = 2, Weight(7, 2)
    mu = MatrixPolynomial.coordinate(n, 1, 2)
    f = lambda z: sp.f_mu_m(mu, w, z)
    for _ in range(4):
        g = sp.random_symplectic(n, rng)
        u = sp.haar_unitary(n, rng)
        lhs = sp.lift(f, w, g @ sp.embed_unitary(u))
        rhs = sp.chi(w.m, u) * sp.lift(f, w, g)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_c_mn_genus_one_closed_form():
    for m in (4, 8, 12, 20):
        assert sp.c_mn(Weight(m, 1)) == pytest.approx(4 * np.pi / (m - 1), rel=1e-13)


def test_c_mn_against_mpmath():
    # an exact Gamma ladder leaves only the rounding of the float pi power;
    # a sum of log-Gammas errs by up to 1.5e-13 here (m = 65, n = 4)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for n in range(1, 6):
            for m in range(2 * n + 1, 80):
                want = mp.mpf(2) ** (n * (n + 3) // 2) * mp.pi ** (n * (n + 1) // 2)
                for r in range(1, n + 1):
                    want *= mp.gamma(m - mp.mpf(n + r) / 2) / mp.gamma(m - mp.mpf(r - 1) / 2)
                assert abs(sp.c_mn(Weight(m, n)) / want - 1) <= 2e-15, (m, n)


def test_c_mn_positive_and_decreasing():
    for n in (2, 3):
        vals = [sp.c_mn(Weight(m, n)) for m in range(2 * n + 1, 2 * n + 8)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kernel_values_matches_scalar():
    rng = np.random.default_rng(37)
    n, w = 2, Weight(6, 2)
    xi = random_point(n, rng)
    pts = [random_point(n, rng) for _ in range(4)]
    Z = np.stack([p.z for p in pts])
    vals = sp.kernel_values(w, xi, Z)
    for i, p in enumerate(pts):
        assert vals[i] == pytest.approx(sp.f_kernel(w, xi, p), rel=1e-12)
        assert complex(sp.kernel_values(w, xi, p.z)) == pytest.approx(vals[i], rel=1e-12)


def test_kernel_requires_integrable_weight():
    n = 1
    xi = SiegelPoint.center(n)
    with pytest.raises(DomainError):
        sp.f_kernel(Weight(2, 1), xi, xi)  # m = 2n is not integrable


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(38)
    w = Weight(6, 2)
    a, b = random_point(2, rng), random_point(2, rng)
    assert sp.f_kernel(w, a, b) == pytest.approx(np.conj(sp.f_kernel(w, b, a)), rel=1e-12)


def test_f_mu_m_refuses_an_ill_conditioned_point():
    z = SiegelPoint(np.zeros((2, 2)), np.diag([1e13, 1.0]))
    with pytest.raises(sp.NumericalError, match="too ill-conditioned"):
        sp.f_mu_m(MatrixPolynomial.one(2), Weight(12, 2), z)

