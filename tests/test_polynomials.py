"""Tests for the symmetric-matrix polynomial algebra."""

import numpy as np
import pytest

import siegelps as sp
from siegelps import DomainError, MatrixPolynomial, parse_polynomial


def random_sym(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_constant_and_one():
    one = MatrixPolynomial.one(2)
    const = MatrixPolynomial.constant(2, 3.5)
    w = np.eye(2, dtype=complex) * 0.4
    assert one.evaluate(w) == 1.0
    assert const.evaluate(w) == 3.5
    assert one.degree() == 0
    assert MatrixPolynomial.zero(2).is_zero()
    assert not one.is_zero()


def test_coordinate_picks_entries():
    rng = np.random.default_rng(5)
    w = random_sym(3, rng)
    for r in range(1, 4):
        for s in range(1, 4):
            p = MatrixPolynomial.coordinate(3, r, s)
            assert p.evaluate(w) == pytest.approx(w[r - 1, s - 1])


def test_det_power_matches_numpy():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        p1 = MatrixPolynomial.det_power(n, 1)
        p2 = MatrixPolynomial.det_power(n, 2)
        for _ in range(5):
            w = random_sym(n, rng)
            d = np.linalg.det(w)
            assert p1.evaluate(w) == pytest.approx(d, rel=1e-12)
            assert p2.evaluate(w) == pytest.approx(d ** 2, rel=1e-12)


def test_algebra_identities():
    rng = np.random.default_rng(7)
    n = 2
    p = MatrixPolynomial.det_power(n, 1) + MatrixPolynomial.coordinate(n, 1, 2)
    q = MatrixPolynomial.coordinate(n, 1, 1) * MatrixPolynomial.constant(n, 2.0)
    for _ in range(6):
        w = random_sym(n, rng)
        pv, qv = p.evaluate(w), q.evaluate(w)
        assert (p + q).evaluate(w) == pytest.approx(pv + qv, rel=1e-12)
        assert (p - q).evaluate(w) == pytest.approx(pv - qv, rel=1e-12)
        assert (p * q).evaluate(w) == pytest.approx(pv * qv, rel=1e-12)
        assert (p ** 3).evaluate(w) == pytest.approx(pv ** 3, rel=1e-11)


def test_degree():
    n = 2
    det = MatrixPolynomial.det_power(n, 1)
    assert det.degree() == 2
    assert (det ** 3).degree() == 6
    assert MatrixPolynomial.coordinate(n, 1, 2).degree() == 1


def test_evaluate_batch_matches_scalar():
    # an independent reference: Python complex arithmetic over each exponent tuple
    def reference(p, w):
        total = 0j
        for exps, coeff in p._terms.items():
            for r, row in enumerate(exps):
                for s, e in enumerate(row):
                    coeff *= complex(w[r, s]) ** e
            total += coeff
        return total

    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        polys = [MatrixPolynomial.det_power(n, 1) + MatrixPolynomial.coordinate(n, n, n) ** 2,
                 # a constant term, an exponent above 2 and a lower-triangle entry
                 parse_polynomial(f"X_{{{n},1}}^3 - 2*X_{{1,1}}*X_{{{n},{n}}} + 7", n),
                 MatrixPolynomial.det_power(n, 2)]
        # general complex matrices, so X_{r,s} and X_{s,r} differ
        W = rng.standard_normal((5, 7, n, n)) + 1j * rng.standard_normal((5, 7, n, n))
        for p in polys:
            batch = p.evaluate_batch(W)
            assert batch.shape == (5, 7)
            for idx in np.ndindex(5, 7):
                assert batch[idx] == pytest.approx(reference(p, W[idx]), rel=1e-12)
            single = p.evaluate_batch(W[0, 0])
            assert single.shape == ()
            assert complex(single) == pytest.approx(reference(p, W[0, 0]), rel=1e-12)
            assert p.evaluate(W[0, 0]) == complex(single)
            assert p.evaluate_batch(np.zeros((0, n, n))).shape == (0,)


def test_parse_round_trip():
    n = 2
    text = "det^2 + 3*X_{1,2}"
    p = parse_polynomial(text, n)
    q = MatrixPolynomial.det_power(n, 2) + (
        MatrixPolynomial.constant(n, 3.0) * MatrixPolynomial.coordinate(n, 1, 2))
    rng = np.random.default_rng(9)
    for _ in range(4):
        w = random_sym(n, rng)
        assert p.evaluate(w) == pytest.approx(q.evaluate(w), rel=1e-12)


def test_parse_products_and_powers():
    n = 2
    p = parse_polynomial("X_{1,1}*X_{2,2} - X_{1,2}^2", n)
    det = MatrixPolynomial.det_power(n, 1)
    rng = np.random.default_rng(10)
    w = random_sym(n, rng)
    assert p.evaluate(w) == pytest.approx(det.evaluate(w), rel=1e-12)


_DET = MatrixPolynomial.det_power(2, 1)
_ONE = MatrixPolynomial.constant(2, 1.0)


def _x(r, s):
    return MatrixPolynomial.coordinate(2, r, s)


@pytest.mark.parametrize("text, expected", [
    ("1", _ONE),
    ("det", _DET),
    ("det^3", MatrixPolynomial.det_power(2, 3)),
    ("det ^ 0", _ONE),
    ("X_{2,1}", _x(2, 1)),
    ("X_{ 1 , 2 }", _x(1, 2)),
    ("X_{1,2}^2", _x(1, 2) * _x(1, 2)),
    ("2^3", MatrixPolynomial.constant(2, 8.0)),
    ("10", MatrixPolynomial.constant(2, 10.0)),
    ("-det", -_DET),
    (" + det", _DET),
    ("- 2 * X_{1,1}", -2 * _x(1, 1)),
    ("2*X_{1,1}*X_{2,2} - det", 2 * _x(1, 1) * _x(2, 2) - _DET),
    ("det^2 + 3*X_{1,2}", MatrixPolynomial.det_power(2, 2) + 3 * _x(1, 2)),
    ("X_{1,1}*X_{2,2} - X_{1,2}*X_{2,1}", _DET),
    ("\tdet\n-1 ", _DET - _ONE),
    ("0*det", MatrixPolynomial.zero(2)),
], ids=repr)
def test_parse_accepts(text, expected):
    assert parse_polynomial(text, 2) == expected


def test_parse_errors():
    def parses(text):
        try:
            parse_polynomial(text, 2)
        except DomainError:
            return False
        return True

    rejected = ["det + + 1", "", "   ", "det^", "(det)", "det**2", "2.5", "det^-1",
                "det3", "--det", "det 2", "det^2^2", "X_{1,2", "X_ {1,2}", "det*",
                "x_{1,2}", "X_{1,3}"]         # the last: index out of range
    assert [text for text in rejected if parses(text)] == []


def test_eq_and_hash():
    n = 2
    a = MatrixPolynomial.coordinate(n, 1, 2)
    b = parse_polynomial("X_{1,2}", n)
    assert a == b
    assert hash(a) == hash(b)
    assert (a - b).is_zero()
    # transposed coordinates are formally distinct but agree on
    # symmetric arguments
    c = MatrixPolynomial.coordinate(n, 2, 1)
    assert a != c
    rng = np.random.default_rng(12)
    w = random_sym(n, rng)
    assert (a - c).evaluate(w) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("text, n", [
    ("1", 3), ("det", 2), ("det^2 + 3*X_{1,2}", 2), ("X_{1,1}^3 - 7", 1),
    ("2*X_{1,1}*X_{2,2} - det", 2)])
def test_str_is_text_the_grammar_reads_back(text, n):
    mu = parse_polynomial(text, n)
    assert parse_polynomial(str(mu), n) == mu
    assert str(MatrixPolynomial.one(n)) == "1" and str(MatrixPolynomial.zero(n)) == "0"


@pytest.mark.parametrize("m", range(3, 15))
def test_orbit_sum_of_one_over_the_fourth_roots(m):
    units = np.array([[[1]], [[1j]], [[-1]], [[-1j]]])
    want = MatrixPolynomial.constant(1, 4) if m % 4 == 0 else MatrixPolynomial.zero(1)
    assert MatrixPolynomial.one(1).orbit_sum(units, m) == want


def test_orbit_sum_is_the_substitution_on_symmetric_matrices():
    # det(u)^m mu(u W u^T) summed over the given u, against direct evaluation
    rng = np.random.default_rng(13)
    mu = parse_polynomial("det^2 + 3*X_{1,2} - X_{2,1}*X_{1,1}^2 + 2", 2)
    units = np.array([[[0, 1j], [1, 0]], [[-1, 0], [0, 1j]], [[1, 0], [0, 1]]])
    for m in (5, 8):
        got = mu.orbit_sum(units, m)
        w = random_sym(2, rng)
        want = sum(np.linalg.det(u) ** m * mu.evaluate(u @ w @ u.T) for u in units)
        assert got.evaluate(w) == pytest.approx(want, rel=1e-13)
        # X_{2,1} is read as X_{1,2}: no term is below the diagonal
        assert all(row[0] == 0 for exps in got._terms for row in exps[1:])


@pytest.mark.parametrize("units", [np.array([[[1, 1], [0, 1]]]), np.array([[[2, 0], [0, 1]]]),
                                   np.array([[[1, 0], [1, 0]]]), np.eye(3)[None]])
def test_orbit_sum_refuses_other_matrices(units):
    with pytest.raises((DomainError, sp.DimensionError)):
        MatrixPolynomial.det_power(2, 1).orbit_sum(units, 4)
