"""Acceptance battery: one test per deliverable criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Tolerances and sample counts are part of the contract and
must not be loosened.
"""

import math

import numpy as np
import pytest

import siegelps as sp
from siegelps import (
    CongruenceGroup,
    MatrixPolynomial,
    SiegelPoint,
    Weight,
)
from siegelps.cli import main
from conftest import random_point


def test_criterion_1_threshold_table_genus1(capsys):
    """All 104 genus-1 reference thresholds, exactly, by the closed form."""
    code = main(["verify", "table1", "--n", "1"])
    out = capsys.readouterr().out
    assert code == 0, f"threshold verification exited {code}:\n{out}"
    assert "104/104 cells match the reference" in out
    # the three corner values called out in the reference table
    assert sp.n0_detl(0, Weight(3, 1)) == 14
    assert sp.n0_detl(12, Weight(3, 1)) == 119
    assert sp.n0_detl(0, Weight(10, 1)) == 2


def test_criterion_2_threshold_table_genus2(capsys):
    """All 104 genus-2 thresholds at integral tolerance 1e-10; an
    AmbiguousThresholdError anywhere is a hard failure."""
    code = main(["verify", "table1", "--n", "2", "--tol", "1e-10"])
    out = capsys.readouterr().out
    assert code == 0, f"threshold verification exited {code}:\n{out}"
    assert "104/104 cells match the reference" in out
    assert sp.n0_detl(0, Weight(5, 2)) == 77
    assert sp.n0_detl(12, Weight(12, 2)) == 21


def test_criterion_3_matrix_coefficient_identity():
    """Closed Cartan form against the direct lift: 500 seeded elements per
    genus, four polynomial weights, relative error at most 1e-9."""
    rep = sp.verify_coefficients(samples=500, seed=2024)
    print(rep.detail)
    assert "over 6000 evaluations" in rep.detail
    assert rep.passed and rep.rel_err <= 1e-9, (
        f"coefficient identity off by {rep.rel_err:.3e} (> 1e-9)")


def test_criterion_4_normalization_constant_monte_carlo():
    """Monte Carlo volume integral vs the gamma-product closed form,
    within 3 standard errors at one million samples."""
    reports = sp.verify_cmn(samples=10 ** 6, seed=0)
    assert len(reports) == 4
    for rep in reports:
        sigma = abs(rep.lhs - rep.rhs) / rep.error_budget["standard_error"]
        print(f"{rep.identity}: {rep.detail}")
        assert rep.passed and sigma <= 3.0, (
            f"{rep.identity}: {sigma:.2f} standard errors from the closed form")


def test_criterion_5_exact_vanishing():
    """Truncated averages vanish to 1e-12 per term in the two parity cases."""
    z = SiegelPoint.from_complex(np.array([[0.3 + 1.1j]]))
    cases = [
        (1, 13, 0),      # level 1 needs 4 | (m + 2l)
        (2, 7, 1),       # level 2 needs 2 | m
    ]
    for N, m, l in cases:
        w = Weight(m, 1)
        assert sp.vanishing_case(l, w, N)
        mu = MatrixPolynomial.det_power(1, l)
        res = sp.poincare_f(mu, w, CongruenceGroup(1, N), z, 10.0)
        bound = 1e-12 * res.terms
        print(f"(N={N}, m={m}, l={l}): |sum| = {abs(res.value):.3e} "
              f"over {res.terms} terms (bound {bound:.3e})")
        assert abs(res.value) <= bound, (
            f"(N={N}, m={m}, l={l}): |{res.value}| exceeds {bound:.3e}")


def test_criterion_6_pairing_identity(cor62_report):
    """Fundamental-domain pairing of the weight-12 form against the averaged
    weight vector reproduces the normalized center value within 2%."""
    rep = cor62_report
    print(f"lhs {rep.lhs}, rhs {rep.rhs}, relative error {rep.rel_err:.3e}, "
          f"budget {rep.error_budget}")
    assert rep.passed, f"relative error {rep.rel_err:.3e} exceeds 0.02"
    assert rep.rel_err <= 0.02


def test_criterion_7_kernel_pairing_identity(thm93_reports):
    """Pairing against the averaged point kernel reproduces the form's
    value at all three reference points within 2%."""
    reports = thm93_reports
    assert len(reports) == 3
    for rep in reports:
        print(f"{rep.identity}: relative error {rep.rel_err:.3e}")
        assert rep.passed, f"{rep.identity}: {rep.rel_err:.3e} exceeds 0.02"


def test_criterion_8_property_suites():
    """Cocycle, image transform, decomposition round trips, compact
    equivariance, slash composition, Haar statistics, norm bounds."""
    rng = np.random.default_rng(77)

    # automorphy cocycle and the imaginary-part transform
    for n in (1, 2, 3):
        for _ in range(25):
            g1, g2 = sp.random_symplectic(n, rng), sp.random_symplectic(n, rng)
            z = random_point(n, rng)
            lhs = sp.j_factor(g1 @ g2, z)
            rhs = sp.j_factor(g1, sp.act(g2, z)) * sp.j_factor(g2, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs), "cocycle relation failed"
            moved = sp.act(g1, z)
            assert np.max(np.abs(moved.y - sp.im_transform(g1, z))) < 1e-10

    # decomposition round trips
    for n in (1, 2, 3):
        for _ in range(20):
            g = sp.random_symplectic(n, rng)
            nak = sp.nak_decompose(g)
            assert np.max(np.abs(nak.assemble().g - g.g)) < 1e-9
            kak = sp.kak_decompose(g)
            assert np.max(np.abs(kak.assemble().g - g.g)) < 1e-8

    # compact equivariance of the lift and slash composition
    w = Weight(7, 2)
    mu = MatrixPolynomial.coordinate(2, 1, 2)
    f = lambda z: sp.f_mu_m(mu, w, z)
    for _ in range(10):
        g = sp.random_symplectic(2, rng)
        u = sp.haar_unitary(2, rng)
        lhs = sp.lift(f, w, g @ sp.embed_unitary(u))
        rhs = sp.chi(w.m, u) * sp.lift(f, w, g)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)
        g2 = sp.random_symplectic(2, rng)
        z = random_point(2, rng)
        a = sp.slash(sp.slash(f, w, g), w, g2)(z)
        b = sp.slash(f, w, g @ g2)(z)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1e-30)

    # Haar sampling statistics: E|tr u|^2 = 1, E|u_rs|^2 = 1/n
    for n in (2, 3):
        us = np.stack([sp.haar_unitary(n, rng).mat for _ in range(4000)])
        tr2 = np.abs(np.trace(us, axis1=1, axis2=2)) ** 2
        se = float(np.std(tr2)) / math.sqrt(len(tr2))
        assert abs(float(np.mean(tr2)) - 1.0) <= 5 * se, "trace statistic drifted"
        entry_means = np.mean(np.abs(us) ** 2, axis=0)
        assert np.max(np.abs(entry_means - 1.0 / n)) < 0.025, "entry weights uneven"

    # norm estimates behind the truncation analysis
    for n, N in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        rep = sp.norm_bounds_check(CongruenceGroup(n, N), samples=200, seed=5)
        assert rep.passed, f"norm bounds failed at genus {n}, level {N}"


def test_criterion_9_spanning_probe(ball40):
    """Averages of the first six monomial weights at weight 12, level 1,
    evaluated at 8 points: the value matrix has numerical rank one, and the
    odd rows vanish by the parity rule."""
    w = Weight(12, 1)
    zs = np.array([1j, 2j, 0.3 + 0.8j, -0.4 + 1.2j, 0.1 + 0.9j,
                   0.5 + 1.5j, -0.25 + 2.5j, 0.05 + 1.05j])
    V = np.zeros((6, len(zs)), dtype=np.complex128)
    x11 = MatrixPolynomial.coordinate(1, 1, 1)
    for d in range(6):
        ev = sp.series_evaluator_genus1(w, ball40, mu=x11 ** d)
        V[d] = ev(zs)
    svals = np.linalg.svd(V, compute_uv=False)
    row_norms = np.linalg.norm(V, axis=1)
    even_scale = float(np.max(row_norms[::2]))
    odd_scale = float(np.max(row_norms[1::2]))
    print(f"singular values {svals[:3]}, odd/even row scale "
          f"{odd_scale:.3e}/{even_scale:.3e}")
    assert svals[0] > 0
    assert svals[1] < 1e-6 * svals[0], (
        f"second singular value {svals[1]:.3e} vs first {svals[0]:.3e}")
    assert odd_scale <= 1e-9 * even_scale, "odd-power rows should vanish"
