"""Tests for concentration thresholds of averaged weight vectors."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc

import siegelps as sp
from siegelps import (
    AmbiguousThresholdError,
    ConvergenceError,
    DimensionError,
    DomainError,
    MatrixPolynomial,
    ThresholdQuery,
    Weight,
    ZeroPolynomialError,
    big_m,
    integral_phi,
    n0_detl,
    n0_general,
    parse_polynomial,
    phi_lm,
    vanishing_case,
    varphi_mu,
)
from siegelps.nonvanishing import MAX_GENUS

# ---------------------------------------------------------------------------
# concentration level
# ---------------------------------------------------------------------------


def test_big_m_basic_values():
    # at genus 1, level 2: q = 1 and M = 1/(sqrt(2)+1)^2 = (sqrt(2)-1)^2
    assert big_m(2, 1) == pytest.approx((math.sqrt(2) - 1) ** 2, rel=1e-14)
    assert big_m(10 ** 9, 3) == pytest.approx(1.0, abs=1e-4)


def test_big_m_monotone_in_level():
    for n in (1, 2, 3):
        vals = [big_m(N, n) for N in range(1, 40)]
        assert all(0 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_big_m_validation():
    with pytest.raises(DomainError):
        big_m(0, 1)
    with pytest.raises(DimensionError):
        big_m(1, 0)


# ---------------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------------


def test_phi_lm_genus_one_formula():
    w = Weight(8, 1)
    for l in (0, 1, 3):
        for x in (0.1, 0.5, 0.9):
            expected = x ** (l / 2.0) * (1.0 - x) ** (w.m / 2.0 - 2.0)
            assert phi_lm(l, w, [x]) == pytest.approx(expected, rel=1e-13)


def test_phi_lm_genus_two_formula():
    w = Weight(9, 2)
    l, x1, x2 = 2, 0.7, 0.2
    expected = ((x1 * x2) ** (l / 2.0)
                * ((1 - x1) * (1 - x2)) ** (w.m / 2.0 - 3.0) * (x1 - x2))
    assert phi_lm(l, w, [x1, x2]) == pytest.approx(expected, rel=1e-13)


def test_phi_lm_validation():
    w = Weight(8, 2)
    with pytest.raises(DimensionError):
        phi_lm(0, w, [0.5])  # wrong length
    with pytest.raises(DomainError):
        phi_lm(0, w, [0.2, 0.7])  # not descending
    with pytest.raises(DomainError):
        phi_lm(0, w, [1.2, 0.5])  # outside (0, 1)
    with pytest.raises(DomainError):
        phi_lm(-1, w, [0.7, 0.2])


def test_varphi_det_power_reduces_to_phi():
    # |det(u diag(sqrt x) u^T)|^l equals prod x^{l/2} for unitary u
    rng = np.random.default_rng(41)
    w = Weight(9, 2)
    x = [0.8, 0.3]
    for l in (0, 1, 2):
        mu = MatrixPolynomial.det_power(2, l)
        for _ in range(3):
            u = sp.haar_unitary(2, rng)
            assert varphi_mu(mu, w, u, x) == pytest.approx(phi_lm(l, w, x), rel=1e-11)


def test_haar_unitary_properties():
    u = sp.haar_unitary(3, 7)
    gram = u.mat @ u.mat.conj().T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    # same seed reproduces, different seed varies
    v = sp.haar_unitary(3, 7)
    assert np.array_equal(u.mat, v.mat)
    assert not np.allclose(u.mat, sp.haar_unitary(3, 8).mat)


@pytest.mark.parametrize("make, match", [
    (lambda: sp.IntegralResult(1.0, 0.0, 1, "bogus"), "^unknown method tag 'bogus'"),
    (lambda: sp.IntegralResult(1.0, math.nan, 1, sp.METHOD_MC),
     "^error estimate must be finite and nonnegative"),
])
def test_integral_result_refuses_bad_fields(make, match):
    with pytest.raises(DomainError, match=match):
        make()


def test_threshold_search_stops_at_level_2_to_the_30():
    levels = []
    with pytest.raises(DomainError, match="^threshold search exceeded level 2\\^30"):
        sp.nonvanishing._threshold(lambda N: levels.append(N) or (-1.0, 0.0), 3.0, "never")
    assert levels == [2 ** k for k in range(31)]


# ---------------------------------------------------------------------------
# the threshold integral
# ---------------------------------------------------------------------------


def test_integral_genus_one_against_quadrature():
    for l, m in ((0, 6), (1, 4), (3, 9)):
        w = Weight(m, 1)
        for t in (0.3, 0.8, 1.0):
            res = integral_phi(l, w, t)
            oracle, err = integrate.quad(
                lambda x: x ** (l / 2.0) * (1.0 - x) ** (m / 2.0 - 2.0), 0.0, t)
            assert res.method == sp.METHOD_CLOSED
            assert res.value == pytest.approx(oracle, rel=1e-10, abs=2 * err)


def test_integral_genus_two_against_quadrature():
    for l, m in ((0, 8), (2, 7)):
        w = Weight(m, 2)
        for t in (0.5, 1.0):
            res = integral_phi(l, w, t)

            def inner(x2, x1):
                return ((x1 * x2) ** (l / 2.0)
                        * ((1 - x1) * (1 - x2)) ** (m / 2.0 - 3.0) * (x1 - x2))

            oracle, err = integrate.dblquad(inner, 0.0, t, 0.0, lambda x1: x1,
                                            epsabs=1e-13, epsrel=1e-11)
            assert res.method == sp.METHOD_QUAD
            assert res.value == pytest.approx(oracle, rel=1e-8, abs=10 * err)


def _selberg(l, m, n, mp):
    """I(1) in closed form: the Selberg integral at gamma = 1/2 over n!."""
    a, b, g = mp.mpf(l) / 2 + 1, mp.mpf(m) / 2 - n, mp.mpf(1) / 2
    return mp.fprod(mp.gamma(a + j * g) * mp.gamma(b + j * g) * mp.gamma(1 + (j + 1) * g)
                    / (mp.gamma(a + b + (n + j - 1) * g) * mp.gamma(1 + g))
                    for j in range(n)) / mp.factorial(n)


def test_integral_against_selberg_up_to_the_cap():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for n in range(1, MAX_GENUS + 1):
            for l, m in ((0, 2 * n + 1), (4, 2 * n + 4), (12, 2 * n + 8)):
                res = integral_phi(l, Weight(m, n), 1.0)
                rel = float(abs(res.value / _selberg(l, m, n, mp) - 1))
                assert rel <= res.error_estimate / res.value, (n, l, m)
                if n == 3:
                    assert rel <= 1e-13, (l, m)


@pytest.mark.parametrize("l, m", [(0, 11), (4, 14), (12, 18), (12, 11)])
def test_integral_genus_five_estimate_at_one(l, m):
    # the Selberg cells above and (12, 11), where charging the expansion for
    # its own rounding made the estimate 5.2e-5 relative
    res = integral_phi(l, Weight(m, 5), 1.0)
    assert res.error_estimate <= 1e-5 * res.value


def _mp_integral(l, m, n, t, mp):
    """I(t) with mpmath: each Pfaffian entry one mp.quad, bordered for odd n."""
    a, b = mp.mpf(l) / 2 + 1, mp.mpf(m) / 2 - n

    def entry(i, j):
        def f(theta):
            x = t * mp.sin(theta) ** 2
            inner = x ** j * mp.betainc(a + i, b, 0, x) - x ** i * mp.betainc(a + j, b, 0, x)
            return (x ** (a - 1) * ((1 - t) + t * mp.cos(theta) ** 2) ** (b - 1) * inner
                    * t * mp.sin(2 * theta))
        return mp.quad(f, [0, mp.pi / 2])

    def pf(idx):
        return 1 if not idx else mp.fsum(
            (-1) ** (k + 1) * mat[idx[0]][idx[k]] * pf(idx[1:k] + idx[k + 1:])
            for k in range(1, len(idx)))

    size = n + n % 2
    mat = [[entry(i, j) if i < j < n else mp.betainc(a + i, b, 0, t) if j == n > i else 0
            for j in range(size)] for i in range(size)]
    return pf(tuple(range(size)))


@pytest.mark.parametrize("n, l, m, N", [(2, 12, 5, 437), (2, 12, 5, 2000), (3, 12, 7, 925)])
def test_integral_near_one_against_mpmath(n, l, m, N):
    # Gauss-Legendre converges slowest as t = M(N) nears 1: the largest N0 of
    # the genus-2 and genus-3 tables (437, 925) and beyond, against entries
    # recomputed at 30 digits at the same float t
    mp = pytest.importorskip("mpmath")
    t = big_m(N, n)
    res = integral_phi(l, Weight(m, n), t)
    with mp.workdps(30):
        oracle = _mp_integral(l, m, n, mp.mpf(t), mp)
    assert abs(res.value - oracle) <= res.error_estimate


def test_integral_genus_three_against_monte_carlo():
    l, m, t, count = 2, 11, 0.7, 200_000
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, t, size=(count, 3)), axis=1)[:, ::-1]
    vals = (np.prod(x ** (l / 2.0) * (1.0 - x) ** (m / 2.0 - 4.0), axis=1)
            * (x[:, 0] - x[:, 1]) * (x[:, 0] - x[:, 2]) * (x[:, 1] - x[:, 2]))
    scale = t ** 3 / 6.0
    res = integral_phi(l, Weight(m, 3), t)
    assert res.method == sp.METHOD_QUAD
    assert abs(res.value - np.mean(vals) * scale) <= 3 * np.std(vals) / math.sqrt(count) * scale


def test_integral_above_the_cap_raises():
    n = MAX_GENUS + 1
    with pytest.raises(DimensionError):
        integral_phi(0, Weight(2 * n + 4, n), 0.5)


def test_integral_tolerance_failure_carries_partial():
    # the rounding charges alone exceed 1e-20, so the estimate misses it
    with pytest.raises(ConvergenceError) as exc:
        integral_phi(0, Weight(10, 3), 0.9, tol=1e-20)
    partial = exc.value.partial
    assert partial is not None
    assert partial.method == sp.METHOD_QUAD
    assert partial.value > 0


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_integral_rejects_bad_tolerance(tol):
    for n in (1, 2):
        with pytest.raises(DomainError):
            integral_phi(0, Weight(8, n), 0.5, tol=tol)


def test_integral_requires_integrable_weight():
    with pytest.raises(DomainError):
        integral_phi(0, Weight(2, 1), 0.5)


@pytest.mark.parametrize("t", [0.0, -0.5, 1.5, math.nan])
def test_integral_refuses_t_outside_unit_interval(t):
    with pytest.raises(DomainError):
        integral_phi(0, Weight(8, 2), t)


# ---------------------------------------------------------------------------
# thresholds for the determinant-power family
# ---------------------------------------------------------------------------


def oracle_n0_genus_one(l, m):
    """Independent search: normalized incomplete beta crossing 1/2."""
    a, b = l / 2.0 + 1.0, m / 2.0 - 1.0
    N = 1
    while betainc(a, b, big_m(N, 1)) <= 0.5:
        N += 1
    return N


def test_n0_genus_one_against_oracle():
    for l, m in ((0, 4), (0, 6), (1, 4), (2, 5), (3, 8)):
        assert n0_detl(l, Weight(m, 1)) == oracle_n0_genus_one(l, m)


def test_n0_reference_spot_cells():
    table1 = sp.REFERENCE_N0[1]
    assert table1[(0, 3)] == 14 and table1[(0, 10)] == 2
    for (l, m) in ((0, 3), (0, 6), (1, 4), (2, 8)):
        assert n0_detl(l, Weight(m, 1)) == table1[(l, m)]


def test_n0_genus_three_agrees_with_monte_carlo():
    # n0_general with mu = det^0 certifies the same level independently
    assert n0_detl(0, Weight(10, 3)) == 24
    query = ThresholdQuery(MatrixPolynomial.det_power(3, 0), Weight(10, 3))
    assert n0_general(query, samples=100_000, seed=0).n0 == 24


def _mp_big_m(N, n, mp):
    q = mp.mpf(4 * n) / N ** 2
    return 1 / (mp.sqrt(1 + q) + mp.sqrt(q)) ** 2


def _mp_genus_two(l, m, t, mp):
    """I(t) at genus 2 with mpmath: the outer integral of the exact inner layer."""
    a, b = mp.mpf(l) / 2 + 1, mp.mpf(m) / 2 - 2

    def f(theta):
        x = t * mp.sin(theta) ** 2
        inner = x * mp.betainc(a, b, 0, x) - mp.betainc(a + 1, b, 0, x)
        return (x ** (a - 1) * ((1 - t) + t * mp.cos(theta) ** 2) ** (b - 1) * inner
                * t * mp.sin(2 * theta))
    return mp.quad(f, [0, mp.pi / 2])


def test_reference_margins_against_mpmath():
    # the sign of I(M(N))/I(1) - 1/2 at N0 and N0 - 1, recomputed at 30
    # digits: every genus-1 cell, and the 5 genus-2 cells whose float margin
    # is smallest (a genus-2 mpmath integral costs about 0.1-0.3 s)
    mp = pytest.importorskip("mpmath")
    margins = {}
    with mp.workdps(30):
        for (l, m), n0 in sp.REFERENCE_N0[1].items():
            a, b = mp.mpf(l) / 2 + 1, mp.mpf(m) / 2 - 1
            for N in (n0, n0 - 1):
                margins[1, l, m, N] = mp.betainc(a, b, 0, _mp_big_m(N, 1, mp),
                                                 regularized=True) - 0.5

        def float_margin(l, m, N):
            w = Weight(m, 2)
            full = integral_phi(l, w, 1.0).value
            return abs(integral_phi(l, w, big_m(N, 2)).value / full - 0.5)

        tightest = sorted(sp.REFERENCE_N0[2].items(), key=lambda cell: min(
            float_margin(*cell[0], N) for N in (cell[1], cell[1] - 1)))[:5]
        for (l, m), n0 in tightest:
            full = _selberg(l, m, 2, mp)
            for N in (n0, n0 - 1):
                margins[2, l, m, N] = _mp_genus_two(l, m, _mp_big_m(N, 2, mp), mp) / full - 0.5
    for (n, l, m, N), margin in margins.items():
        assert (margin > 0) == (N == sp.REFERENCE_N0[n][l, m]), (n, l, m, N)
    cell = min(margins, key=lambda key: abs(margins[key]))
    assert cell == (1, 11, 3, 110)
    assert float(margins[cell]) == pytest.approx(-5.8637275906e-7, rel=1e-9)


def test_n0_genus_five_cells_of_the_exact_expansion():
    # ambiguous while the expansion was charged for its own rounding; mpmath
    # at 30 digits gives the same signs at N0 and N0 - 1
    for l, n0 in ((6, 1572), (8, 1845), (9, 1982)):
        assert n0_detl(l, Weight(11, 5)) == n0


def test_n0_genus_two_spot_cells():
    table2 = sp.REFERENCE_N0[2]
    for (l, m) in ((0, 6), (1, 6), (0, 9)):
        assert n0_detl(l, Weight(m, 2)) == table2[(l, m)]


def test_n0_report_fields():
    rep = sp.n0_detl_report(0, Weight(6, 1))
    assert (rep.n, rep.l, rep.m) == (1, 0, 6)
    assert rep.n0 == 4
    assert rep.method == sp.METHOD_CLOSED
    assert rep.margin > 0
    rep2 = sp.n0_detl_report(0, Weight(6, 2))
    assert rep2.method == sp.METHOD_QUAD


def test_n0_table_rectangle():
    cells = sp.n0_table(1, [0, 1], [4, 5])
    got = {(c.l, c.m): c.n0 for c in cells}
    expected = {(l, m): sp.REFERENCE_N0[1][(l, m)] for l in (0, 1) for m in (4, 5)}
    assert got == expected


def _chosen_margins(monkeypatch, margins, weight=Weight(6, 1)):
    """Make integral_phi give I(1) = 2 with no error and I(M(N)) = 1 + est
    with error ``spread``, so that n0_detl_report sees the margins
    {N: (est, spread)} exactly."""
    level = {big_m(N, weight.n): N for N in margins}

    def fake(l, w, t, tol=None):
        if t == 1.0:
            return sp.IntegralResult(2.0, 0.0, 0, sp.METHOD_QUAD)
        est, spread = margins[level[t]]
        return sp.IntegralResult(1.0 + est, spread, 0, sp.METHOD_QUAD)

    monkeypatch.setattr(sp.nonvanishing, "integral_phi", fake)
    return weight


def test_search_ignores_an_undecided_level_below_n0_minus_one(monkeypatch):
    # the search examines 1, 2, 4, 8, 16, 12, 10, 9; level 4 is undecided,
    # but only N0 = 10 and N0 - 1 = 9 decide the threshold
    margins = {N: (N - 9.5, 1.0 if N == 4 else 0.01) for N in range(1, 17)}
    cell = sp.n0_detl_report(0, _chosen_margins(monkeypatch, margins))
    assert (cell.n0, cell.margin) == (10, 0.25)


def test_search_raises_at_an_undecided_lower_neighbour(monkeypatch):
    margins = {N: (N - 9.5, 0.1 if N == 9 else 0.01) for N in range(1, 17)}
    with pytest.raises(AmbiguousThresholdError, match="genus 1, l = 0, m = 6") as exc:
        sp.n0_detl_report(0, _chosen_margins(monkeypatch, margins))
    assert exc.value.diagnostics == {9: (-0.5, 0.1), 10: (0.5, 0.01)}


def test_search_at_level_one_has_no_lower_neighbour(monkeypatch):
    weight = _chosen_margins(monkeypatch, {1: (0.5, 0.01)})
    assert sp.n0_detl_report(0, weight).n0 == 1
    weight = _chosen_margins(monkeypatch, {1: (0.5, 0.1)})
    with pytest.raises(AmbiguousThresholdError) as exc:
        sp.n0_detl_report(0, weight)
    assert exc.value.diagnostics == {1: (0.5, 0.1)}


@pytest.mark.parametrize("n, l, m, n0, calls", [
    (1, 0, 6, 4, 5), (2, 12, 5, 437, 19), (3, 4, 10, 44, 13)])
def test_search_integral_calls(monkeypatch, n, l, m, n0, calls):
    # I(1) once, then one integral per examined level, none twice
    real, seen = integral_phi, []
    monkeypatch.setattr(sp.nonvanishing, "integral_phi",
                        lambda *args, **kw: seen.append(args[2]) or real(*args, **kw))
    assert n0_detl(l, Weight(m, n)) == n0
    assert len(seen) == len(set(seen)) == calls


# ---------------------------------------------------------------------------
# general polynomial weights (Monte Carlo with common random numbers)
# ---------------------------------------------------------------------------


# n0_general(det^l, Weight(m, n), samples=200_000, seed=0) as (genus, l, m) ->
# rows of (N, margin, standard error), computed with a sort of the uniforms
# and np.mean / np.std over each level's margins, before the density blocks
N0_GENERAL_CLOSED_FORM_ROWS = {
    (1, 0, 6): (
        (1, -0.1956357867719601, 0.0004744141197167056),
        (2, -0.09322529826686496, 0.0006107215250269686),
        (3, -0.005343359800942781, 0.0006452075672573783),
        (4, 0.05843753778277411, 0.0006319500242941922),
    ),
    (1, 1, 4): (
        (1, -0.3245735040429631, 0.0003136166134994687),
        (2, -0.286046990716005, 0.0004647373165650686),
        (4, -0.1762897118967202, 0.0006853501771309094),
        (8, -0.015363282653282226, 0.0007898829189361477),
        (9, 0.011429661610252217, 0.000790216421035331),
        (10, 0.03495874610434057, 0.00078675574878775),
        (12, 0.0732767183616251, 0.0007734647959844504),
        (16, 0.125701432090847, 0.000738979653135364),
    ),
    (2, 0, 6): (
        (1, -0.08337684975837856, 0.00013180471514931603),
        (2, -0.08320799863736404, 0.00013233715701786334),
        (4, -0.08026235042959436, 0.00014114090063242993),
        (8, -0.06239163471319196, 0.00018074124571559915),
        (16, -0.025381526964620753, 0.00022115575678347067),
        (24, -0.001065319766636985, 0.00022830966642418485),
        (25, 0.001360556002354194, 0.00022830182380036035),
        (26, 0.003603579567787852, 0.0002281798619187101),
        (28, 0.0077285977108436325, 0.0002276671302600975),
        (32, 0.014921302600881203, 0.00022587109588704168),
    ),
}


def test_n0_general_matches_closed_form():
    for (n, l, m), want in N0_GENERAL_CLOSED_FORM_ROWS.items():
        query = ThresholdQuery(MatrixPolynomial.det_power(n, l), Weight(m, n))
        res = n0_general(query, samples=200_000, seed=0)
        assert res.n0 == sp.REFERENCE_N0[n][(l, m)]
        assert res.note == ""
        assert res.samples >= 200_000
        # examined rows bracket the threshold with the right signs
        rows = {N: (mean, se) for N, mean, se in res.rows}
        assert rows[res.n0][0] > 0
        if res.n0 > 1:
            assert rows[res.n0 - 1][0] < 0
        # and keep their values: genus 1 is pinned nowhere else
        assert [N for N, _, _ in res.rows] == [N for N, _, _ in want]
        for got, row in zip(res.rows, want):
            assert got[1:] == pytest.approx(row[1:], rel=1e-12)


# n0_general at its defaults for five genus-2 weights, computed with batched
# QR and matmul before the closed forms: (mu, m) -> (N0, samples, rows of
# (N, margin, standard error))
N0_GENERAL_GOLDEN = {
    ('det^2 + 3*X_{1,2}', 8): (13, 100000, (
        (1, -0.01606322676579677, 5.223632513239325e-05),
        (2, -0.01601106621037369, 5.239621925961351e-05),
        (4, -0.014762656030464541, 5.594234598131443e-05),
        (8, -0.007389795993238237, 6.901315350289679e-05),
        (12, -0.0005363797036016986, 7.284249565169248e-05),
        (13, 0.0007764136207471341, 7.282086255686881e-05),
        (14, 0.0019830707575586213, 7.259187632467116e-05),
        (16, 0.004059951294845104, 7.172220130103406e-05),
    )),
    ('det', 8): (14, 100000, (
        (1, -0.0047736054613431314, 1.0967558669159355e-05),
        (2, -0.0047674359789253665, 1.0994361101745819e-05),
        (4, -0.004534957366878411, 1.1937422291812185e-05),
        (8, -0.002671161978754584, 1.6637589098173485e-05),
        (12, -0.0006740067594259344, 1.853692485418182e-05),
        (13, -0.00027049184669123696, 1.8639441401926128e-05),
        (14, 0.00010484491290571332, 1.8656111856694045e-05),
        (16, 0.0007643346065241164, 1.8501847482340745e-05),
    )),
    ('X_{1,1}*X_{2,2}', 10): (10, 100000, (
        (1, -0.0009865641773163115, 3.717763062413855e-06),
        (2, -0.0009824998488533472, 3.7285106165758e-06),
        (4, -0.0008603472649238102, 4.019064167846557e-06),
        (8, -0.00017869930231028717, 4.820323281837549e-06),
        (9, -2.6024293884192125e-05, 4.852636222628402e-06),
        (10, 0.00010942615407247238, 4.840982350302057e-06),
        (12, 0.00032150418248454957, 4.745650804087504e-06),
        (16, 0.0005906738165729178, 4.479497223131049e-06),
    )),
    ('det^3', 12): (10, 100000, (
        (1, -3.9020959471176245e-05, 1.3830727451764612e-07),
        (2, -3.900720710763218e-05, 1.3834606211104893e-07),
        (4, -3.687969423022573e-05, 1.440629601940133e-07),
        (8, -1.0688249754559373e-05, 1.822439796998873e-07),
        (9, -3.6030298389067154e-06, 1.8500118033356107e-07),
        (10, 2.861898250597087e-06, 1.8513063049923317e-07),
        (12, 1.3036356747975328e-05, 1.8070912813802873e-07),
        (16, 2.5325689501727258e-05, 1.671566614814747e-07),
    )),
    ('det + X_{1,1}', 9): (11, 400000, (
        (1, -0.004597897581953673, 8.415295436728633e-06),
        (2, -0.004573511920189261, 8.448451012610606e-06),
        (4, -0.004018744371979403, 9.126504637837752e-06),
        (8, -0.0012518869506479545, 1.0943070884343102e-05),
        (10, -4.5866578789850456e-05, 1.1120413363051735e-05),
        (11, 0.00045776662639400206, 1.1097070650048326e-05),
        (12, 0.0008990860936925088, 1.1029413548012704e-05),
        (16, 0.002183877359466369, 1.0570976866864755e-05),
    )),
}


def test_n0_general_golden_rows():
    for (text, m), (n0, samples, rows) in N0_GENERAL_GOLDEN.items():
        res = n0_general(ThresholdQuery(parse_polynomial(text, 2), Weight(m, 2)))
        assert (res.n0, res.samples) == (n0, samples)
        assert [N for N, _, _ in res.rows] == [N for N, _, _ in rows]
        for got, want in zip(res.rows, rows):
            assert got[1:] == pytest.approx(want[1:], rel=1e-12)


# computed before the genus-3 kernels moved into siegelps._small
N0_GENERAL_GENUS3_ROWS = (
    (1, -2.812995021025569e-06, 2.5983544182177335e-08),
    (2, -2.812234720859185e-06, 2.5984367163705347e-08),
    (4, -2.6928319396839814e-06, 2.6110544605513045e-08),
    (8, -7.225064342294127e-07, 2.7368847668019918e-08),
    (9, -1.3077399010738958e-07, 2.7460935158610717e-08),
    (10, 3.965663008338259e-07, 2.743540285544825e-08),
    (12, 1.2009077763609924e-06, 2.7200223956376997e-08),
    (16, 2.0709790537984695e-06, 2.6671791011058636e-08),
)


def test_n0_general_higher_genus_certifies():
    query = ThresholdQuery(MatrixPolynomial.one(3), Weight(16, 3))
    res = n0_general(query, samples=100_000, seed=1, budget=400_000)
    # mu = 1 is det^0, so the certified n0_detl is a reference at this genus
    assert res.n0 == n0_detl(0, Weight(16, 3)) == 10
    assert res.note == ""
    assert res.samples == 100_000
    assert [N for N, _, _ in res.rows] == [N for N, _, _ in N0_GENERAL_GENUS3_ROWS]
    for got, want in zip(res.rows, N0_GENERAL_GENUS3_ROWS):
        assert got[1:] == pytest.approx(want[1:], rel=1e-12)


def test_n0_general_ambiguous_raises():
    # hairline margins at a distant threshold cannot be certified from
    # a small certification budget
    query = ThresholdQuery(MatrixPolynomial.one(3), Weight(8, 3))
    with pytest.raises(AmbiguousThresholdError, match="genus 3, weight 1, m = 8") as exc:
        n0_general(query, samples=50_000, seed=0, budget=50_000)
    # the two deciding levels come back to the caller, as for det^l weights
    assert list(exc.value.diagnostics) == [60, 61]


def test_n0_general_zero_on_symmetric_matrices():
    # formally nonzero, identically zero on symmetric arguments
    mu = parse_polynomial("X_{1,2} - X_{2,1}", 2)
    assert not mu.is_zero()
    with pytest.raises(ZeroPolynomialError):
        n0_general(ThresholdQuery(mu, Weight(6, 2)), samples=2_000, budget=2_000)


def test_threshold_query_rejects_formal_zero():
    with pytest.raises(ZeroPolynomialError):
        ThresholdQuery(MatrixPolynomial.zero(2), Weight(6, 2))


def test_threshold_query_requires_integrable():
    with pytest.raises(DomainError):
        ThresholdQuery(MatrixPolynomial.one(2), Weight(4, 2))


# ---------------------------------------------------------------------------
# exact vanishing levels
# ---------------------------------------------------------------------------


def test_vanishing_truth_table():
    # level 1 kills the average unless 4 | (m + 2l)
    assert not vanishing_case(0, Weight(12, 1), 1)
    assert vanishing_case(0, Weight(13, 1), 1)
    assert vanishing_case(1, Weight(4, 1), 1)      # 4 + 2 = 6, not divisible
    assert not vanishing_case(2, Weight(4, 1), 1)  # 4 + 4 = 8
    # level 2 needs even m
    assert vanishing_case(1, Weight(7, 1), 2)
    assert not vanishing_case(1, Weight(8, 1), 2)
    # level >= 3 never vanishes identically
    for N in (3, 4, 11):
        assert not vanishing_case(0, Weight(13, 1), N)


def test_vanishing_validation():
    with pytest.raises(DomainError):
        vanishing_case(0, Weight(8, 1), 0)
    with pytest.raises(DomainError):
        vanishing_case(-1, Weight(8, 1), 1)
