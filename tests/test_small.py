"""Each siegelps._small kernel against LAPACK: within rounding at n = 1 and
2, where it uses closed forms, and equal at n = 3 and 4, where it calls
LAPACK itself."""

import tracemalloc

import numpy as np
import pytest

import siegelps as sp
from siegelps import _small
from siegelps.discrete_series import pole_values
from siegelps.nonvanishing import _MC_BLOCK
from siegelps.symplectic import _HAAR_BLOCK, _ginibre


def ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def lapack_gram_schmidt(a):
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    return q * np.divide(d, size, out=np.ones_like(d), where=size > 0)[..., None, :]


def lapack_solve(p, q):
    """q p^{-1} over a stack."""
    return np.swapaxes(np.linalg.solve(np.swapaxes(p, -1, -2), np.swapaxes(q, -1, -2)),
                       -1, -2)


def test_det_and_solve_match_lapack():
    rng = np.random.default_rng(3)
    P, Q = ginibre(rng, (2000, 2, 2)), ginibre(rng, (2000, 2, 2))
    ref = np.linalg.det(P)
    assert np.max(np.abs(_small.det(P) - ref) / np.abs(ref)) < 1e-12
    solve = lapack_solve(P, Q)
    quotient = _small.times_adjugate(Q, P) / ref[:, None, None]
    scale = np.max(np.abs(solve), axis=(1, 2))
    assert np.max(np.max(np.abs(quotient - solve), axis=(1, 2)) / scale) < 1e-12
    # a single matrix gives a 0-d array, which can be updated in place
    one = _small.det(P[0])
    assert isinstance(one, np.ndarray) and one.shape == ()
    np.reciprocal(one, out=one)
    assert complex(one) == pytest.approx(1 / ref[0], rel=1e-13)
    # at n = 1 the determinant is a view, so the hot loop allocates nothing
    P1 = P[:, :1, :1].copy()
    assert np.shares_memory(_small.det(P1), P1)
    inv, quotient = _small.inverse_det(P1.copy(), Q[:, :1, :1])
    assert np.array_equal(inv, np.reciprocal(P1[:, 0, 0]))
    assert np.array_equal(quotient, Q[:, :1, :1] / P1)


@pytest.mark.parametrize("n", [3, 4])
def test_kernels_are_lapack_above_two(n):
    rng = np.random.default_rng(37 + n)
    p, q = ginibre(rng, (300, n, n)), ginibre(rng, (300, n, n))
    dets = np.linalg.det(p)
    assert np.array_equal(_small.det(p), dets)
    one = _small.det(p[0])
    assert isinstance(one, np.ndarray) and one.shape == ()
    inv, quotient = _small.inverse_det(p, q)
    assert np.array_equal(inv, np.reciprocal(dets))
    assert np.array_equal(quotient, lapack_solve(p, q))
    assert _small.inverse_det(p)[1] is None
    assert np.array_equal(_small.gram_schmidt(q), lapack_gram_schmidt(q))
    s = rng.uniform(0, 1, (300, n))
    w = (q * s[:, None, :]) @ np.swapaxes(q, -1, -2)
    assert np.array_equal(_small.congruence_diag(q, s), (w + np.swapaxes(w, -1, -2)) / 2)
    iu, ju = np.triu_indices(n)
    entries = ginibre(rng, (20_000, len(iu))) / (2 * n)
    W = np.zeros((len(entries), n, n), dtype=np.complex128)
    W[:, iu, ju] = entries
    W[:, ju, iu] = entries
    evs = np.linalg.eigvalsh(np.eye(n)[None] - np.conj(W) @ W)
    inside, dets = _small.contraction_det(entries.real, entries.imag)
    assert 0 < inside.sum() < len(inside)
    assert np.array_equal(inside, evs[:, 0] > 0.0)
    assert np.array_equal(dets, np.prod(evs, axis=1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pole_values_match_lapack(n):
    rng = np.random.default_rng(5 + n)
    w = sp.Weight(2 * n + 5, n)
    mu = (sp.MatrixPolynomial.det_power(n, 2)
          + 3 * sp.MatrixPolynomial.coordinate(n, 1, n))
    P, Q = ginibre(rng, (500, n, n)) + 3 * np.eye(n), ginibre(rng, (500, n, n))
    W = lapack_solve(P, Q)
    ref = (2j) ** (w.m * n) * mu.evaluate_batch(W) * np.linalg.det(P) ** -w.m
    got = pole_values(w, P.copy(), Q, mu)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12
    kernel = np.linalg.det(P) ** -w.m / sp.c_mn(w)
    got = pole_values(w, P.copy())
    assert np.max(np.abs(got - kernel) / np.abs(kernel)) < 1e-12


# computed before the genus-3 kernels moved into siegelps._small
POLE_VALUES_GENUS3 = (
    [8.793191671734522e-10 - 6.379673395080081e-10j,
     8.20050295395299e-08 + 7.729163332464004e-09j,
     -0.006175058139250912 - 0.004417130818850431j,
     2.636688436773451e-06 + 3.646337158038637e-06j],
    [-5.328121002846731e-19 + 9.816643934604626e-20j,
     -1.8073028169690927e-17 - 1.0752682064957213e-17j,
     4.92358574020399e-13 - 2.1817739455404954e-13j,
     6.059682297262948e-16 + 5.608365780064569e-16j],
)


def test_pole_values_genus_three_golden():
    rng = np.random.default_rng(31)
    P = ginibre(rng, (4, 3, 3)) + 3 * np.eye(3)
    Q = ginibre(rng, (4, 3, 3))
    w = sp.Weight(11, 3)
    mu = sp.MatrixPolynomial.det_power(3, 2) + sp.MatrixPolynomial.coordinate(3, 1, 3)
    values, kernel = POLE_VALUES_GENUS3
    assert pole_values(w, P.copy(), Q, mu) == pytest.approx(values, rel=1e-12)
    assert pole_values(w, P.copy()) == pytest.approx(kernel, rel=1e-12)


def _eigvalsh_decision(a, b, c):
    W = np.array([[a, b], [b, c]]).transpose(2, 0, 1)
    evs = np.linalg.eigvalsh(np.eye(2)[None] - np.conj(W) @ W)
    return evs[:, 0] > 0.0, np.prod(evs, axis=1)


def test_contraction_det_matches_eigvalsh():
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, (100_000, 3)) + 1j * rng.uniform(-1, 1, (100_000, 3))
    inside, dets = _small.contraction_det(w.real, w.imag)
    ref_inside, ref_dets = _eigvalsh_decision(*w.T)
    assert 1_000 < inside.sum() < 99_000
    assert np.array_equal(inside, ref_inside)
    assert np.max(np.abs(dets - ref_dets)) < 1e-13
    # scaled so that the largest singular value is 1 +- delta: the smallest
    # eigenvalue of I - conj(w) w is -+ 2 delta, within 2e-12 of zero
    W = np.array([[w[:, 0], w[:, 1]], [w[:, 1], w[:, 2]]]).transpose(2, 0, 1)[:2000]
    delta = rng.uniform(1e-13, 1e-12, 2000) * rng.choice([-1.0, 1.0], 2000)
    W *= ((1 + delta) / np.linalg.norm(W, ord=2, axis=(1, 2)))[:, None, None]
    edge = np.stack([W[:, 0, 0], W[:, 0, 1], W[:, 1, 1]], axis=1)
    inside, dets = _small.contraction_det(edge.real, edge.imag)
    ref_inside, ref_dets = _eigvalsh_decision(*edge.T)
    assert np.array_equal(inside, delta < 0)
    assert np.array_equal(ref_inside, delta < 0)
    assert np.max(np.abs(dets - ref_dets)) < 1e-14
    # genus 1: the disc |w| < 1
    w1 = w[:, :1]
    inside, dets = _small.contraction_det(w1.real, w1.imag)
    assert np.array_equal(inside, np.abs(w1[:, 0]) < 1)
    assert np.max(np.abs(dets - (1 - np.abs(w1[:, 0]) ** 2))) < 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_gram_schmidt_matches_phase_fixed_qr(n):
    a = ginibre(np.random.default_rng(13), (20_000, n, n))
    q = _small.gram_schmidt(a)
    assert np.max(np.abs(q - lapack_gram_schmidt(a))) < 1e-12
    gram = np.conj(np.swapaxes(q, -1, -2)) @ q
    assert np.max(np.abs(gram - np.eye(n))) < 1e-14


def test_gram_schmidt_zero_column_keeps_phase_one():
    a = ginibre(np.random.default_rng(17), (3, 2, 2))
    a[0, :, 0] = 0         # r00 = 0: q0 = e0, as LAPACK leaves it
    a[1, :, 1] = 0         # r11 = 0: q1 is the unit complement of q0, unturned
    a[2] = 0
    q = _small.gram_schmidt(a)               # warnings fail the suite
    assert np.allclose(q[0], lapack_gram_schmidt(a[0]), atol=1e-15)
    q0 = a[1, :, 0] / np.linalg.norm(a[1, :, 0])
    assert np.allclose(q[1, :, 0], q0, atol=1e-15)
    assert np.allclose(q[1, :, 1], [-np.conj(q0[1]), np.conj(q0[0])], atol=1e-15)
    assert np.array_equal(q[2], np.eye(2))
    assert np.array_equal(_small.gram_schmidt(np.zeros((1, 1))), np.ones((1, 1)))
    for u in q:
        assert np.allclose(np.conj(u.T) @ u, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_congruence_diag_matches_matmul(n):
    rng = np.random.default_rng(19)
    u, s = ginibre(rng, (5000, n, n)), rng.uniform(0, 1, (5000, n))
    w = _small.congruence_diag(u, s)
    ref = (u * s[:, None, :]) @ np.swapaxes(u, -1, -2)
    assert np.max(np.abs(w - ref)) < 1e-14
    assert np.array_equal(w, np.swapaxes(w, -1, -2))


def test_haar_unitary_blocks_keep_the_draws():
    count = 2 * _HAAR_BLOCK + 7
    for n in (1, 2, 3):
        rng = np.random.default_rng(23)
        re = rng.standard_normal((count, n, n))
        z = (re + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
        q = sp.haar_unitary(n, 23, count)
        if n == 3:                     # LAPACK factors each matrix alone
            assert np.array_equal(q, lapack_gram_schmidt(z))
        else:
            assert np.max(np.abs(q - lapack_gram_schmidt(z))) < 1e-12
        assert np.array_equal(sp.haar_unitary(n, 29).mat, sp.haar_unitary(n, 29, 1)[0])


@pytest.mark.parametrize("n", [2, 3])
def test_haar_unitary_peak_memory(n):
    tracemalloc.start()
    try:
        q = sp.haar_unitary(n, 0, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * q.nbytes


def test_n0_general_peak_memory():
    # det + X_{1,1} at m = 9 escalates once, to 400,000 genus-2 samples; the
    # density runs in blocks, so the peak is the draws plus a block's work
    query = sp.ThresholdQuery(sp.parse_polynomial("det + X_{1,1}", 2), sp.Weight(9, 2))
    tracemalloc.start()
    try:
        res = sp.n0_general(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.samples == 400_000
    assert peak < 64e6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_congruence_matches_gram_schmidt(n):
    count = 2 * _MC_BLOCK + 7                # the last block is ragged
    rng = np.random.default_rng(41 + n)
    re, im = _ginibre(rng, (count, n, n))
    x = rng.uniform(0, 1, (count, n))
    planes = _small.descending(x)
    assert np.array_equal(planes, np.sort(x, axis=1)[:, ::-1].T)
    s = np.sqrt(planes)
    ref = _small.congruence_diag(_small.gram_schmidt((re + 1j * im) / np.sqrt(2.0)), s.T)
    w = np.concatenate([_small.haar_congruence(re[k:k + _MC_BLOCK], im[k:k + _MC_BLOCK],
                                               s[:, k:k + _MC_BLOCK])
                        for k in range(0, count, _MC_BLOCK)])
    if n == 3:                                # gram_schmidt and congruence_diag themselves
        assert np.array_equal(w, ref)
    else:
        assert np.max(np.abs(w - ref)) < 1e-14
    assert np.array_equal(w, np.swapaxes(w, -1, -2))
