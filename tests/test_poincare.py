"""Tests for exact integer enumeration and truncated group averages."""

import functools
import hashlib
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import siegelps as sp
from siegelps import (
    BudgetError,
    CongruenceGroup,
    DimensionError,
    DomainError,
    MatrixCoefficientSpec,
    MatrixPolynomial,
    SiegelPoint,
    Weight,
    enumerate_ball,
    kernel_series,
    load_ball,
    poincare_f,
    poincare_F,
    save_ball,
)

# ---------------------------------------------------------------------------
# independent enumeration oracles
# ---------------------------------------------------------------------------


def brute_ball_genus1(N, radius):
    """Plain quadruple loop over all 2x2 integer matrices."""
    r2 = int(math.floor(radius * radius + 1e-9))
    lim = int(math.floor(math.sqrt(r2)))
    found = []
    for a in range(-lim, lim + 1):
        for b in range(-lim, lim + 1):
            for c in range(-lim, lim + 1):
                for d in range(-lim, lim + 1):
                    if a * d - b * c != 1:
                        continue
                    if a * a + b * b + c * c + d * d > r2:
                        continue
                    if (a - 1) % N or b % N or c % N or (d - 1) % N:
                        continue
                    found.append(((a, b), (c, d)))
    return {np.array(m, dtype=np.int64).tobytes() for m in found}


def brute_ball_genus2(N, radius):
    """Column-pair tables: pairs (c0, c2) and (c1, c3) joined by orthogonality.

    Builds the full candidate list per column, forms all skew-paired column
    pairs at once, then crosses the two pair tables under the remaining four
    bilinear conditions.  Independent of the production search order.
    """
    r2 = int(math.floor(radius * radius + 1e-9))
    J = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
                 dtype=np.int64)
    cap = r2 - 3
    lim = int(math.floor(math.sqrt(cap)))
    rng = np.arange(-lim, lim + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), -1).reshape(-1, 4)
    cols = []
    for j in range(4):
        res = np.zeros(4, dtype=np.int64)
        res[j] = 1
        ok = np.all((grid - res) % N == 0, axis=1) & (np.sum(grid * grid, 1) <= cap)
        cols.append(grid[ok])

    def paired(U, V, target):
        skew = U @ J @ V.T
        i, j = np.nonzero(skew == target)
        norms = np.sum(U[i] * U[i], 1) + np.sum(V[j] * V[j], 1)
        keep = norms <= r2 - 2
        return U[i[keep]], V[j[keep]], norms[keep]

    a0, a2, n02 = paired(cols[0], cols[2], 1)
    b1, b3, n13 = paired(cols[1], cols[3], 1)
    out = set()
    Jb1 = b1 @ J.T
    Jb3 = b3 @ J.T
    for v0, v2, m02 in zip(a0, a2, n02):
        ok = ((Jb1 @ v0 == 0) & (Jb3 @ v0 == 0)
              & (Jb1 @ v2 == 0) & (Jb3 @ v2 == 0)
              & (m02 + n13 <= r2))
        for v1, v3 in zip(b1[ok], b3[ok]):
            out.add(np.stack([v0, v1, v2, v3], axis=1).tobytes())
    return out


def as_byte_set(ball):
    return {e.tobytes() for e in ball.elements}


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def test_group_validation():
    with pytest.raises(DomainError):
        CongruenceGroup(0, 1)
    with pytest.raises(DomainError):
        CongruenceGroup(1, 0)


def test_group_epsilon():
    assert CongruenceGroup(1, 1).epsilon() == 2
    assert CongruenceGroup(2, 2).epsilon() == 2
    assert CongruenceGroup(1, 3).epsilon() == 1


def test_group_contains():
    g1 = CongruenceGroup(1, 1)
    assert g1.contains([[1, 1], [0, 1]])
    assert g1.contains(np.array([[1.0, 1.0], [0.0, 1.0]]))  # exact floats pass
    assert not g1.contains([[1, 1], [1, 1]])                # not symplectic
    assert not g1.contains([[1.5, 0], [0, 1]])
    g2 = CongruenceGroup(1, 2)
    assert g2.contains([[1, 2], [2, 5]])
    assert not g2.contains([[1, 1], [0, 1]])                # wrong congruence
    assert not g2.contains(np.eye(4))                       # wrong shape


def test_k_intersection_counts():
    assert len(CongruenceGroup(1, 1).k_intersection()) == 4
    assert len(CongruenceGroup(2, 1).k_intersection()) == 32
    assert len(CongruenceGroup(1, 2).k_intersection()) == 2
    assert len(CongruenceGroup(2, 2).k_intersection()) == 4
    assert len(CongruenceGroup(1, 3).k_intersection()) == 1
    # canonical arrays pinned by SHA-256 of their little-endian bytes
    digests = {
        (1, 1): "a06b8f78cf4b726f0d1f062cc0dfcfce5404960a3ff05f8c85bfa0ab22cb7ed1",
        (1, 2): "dce0242b6e3434d7023c7568e319beee3d83a82430dc101b5f835b521087ea85",
        (1, 3): "33679eedd86f9637ab73892a064cdab3d82365cf5063b145affb2272327a6ddc",
        (1, 4): "33679eedd86f9637ab73892a064cdab3d82365cf5063b145affb2272327a6ddc",
        (2, 1): "8a53ee357a9a173a655df169b61d870cc36ec5f3d9af02416fc0228ed3cbc284",
        (2, 2): "0097f0b6d1836c2479d0e08189510ac99299eb7b2bb5eb9aeb8851fb1d6d7619",
        (2, 3): "b32ccb915e3d58f1bd6613f3139eaa1f4a0ef5dcf27fb6dcf37690c86b922624",
        (2, 4): "b32ccb915e3d58f1bd6613f3139eaa1f4a0ef5dcf27fb6dcf37690c86b922624",
    }
    for (n, N), digest in digests.items():
        k = CongruenceGroup(n, N).k_intersection()
        assert hashlib.sha256(k.astype("<i8").tobytes()).hexdigest() == digest, (n, N)
    # each one really lies in the group and in the compact subgroup
    for mat in CongruenceGroup(2, 2).k_intersection():
        assert CongruenceGroup(2, 2).contains(mat)
        assert np.array_equal(mat.T @ mat, np.eye(4, dtype=np.int64))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_genus1_matches_brute_force():
    expected_counts = {1: 196, 2: 34, 3: 5}
    for N in (1, 2, 3):
        ball = enumerate_ball(CongruenceGroup(1, N), 6.0)
        oracle = brute_ball_genus1(N, 6.0)
        assert len(oracle) == expected_counts[N]
        assert as_byte_set(ball) == oracle


def test_genus2_matches_brute_force():
    ball = enumerate_ball(CongruenceGroup(2, 1), 3.0)
    oracle = brute_ball_genus2(1, 3.0)
    assert len(oracle) == 12320
    assert as_byte_set(ball) == oracle


def test_genus2_level2_matches_brute_force():
    for N, radius, count in ((2, 4.2, 260), (3, 6.0, 65)):
        ball = enumerate_ball(CongruenceGroup(2, N), radius)
        oracle = brute_ball_genus2(N, radius)
        assert len(oracle) == count
        assert as_byte_set(ball) == oracle


@pytest.mark.parametrize("n, N, radius, count, digest", [
    (1, 1, 40.0, 9460, "0b53804c0da2f5d700d63a9b52dabd18be92df80f0cb6932169e6a565810ba12"),
    (1, 3, 40.0, 433, "f2a25c568be093f6974dcea240698e68d08bcce7970840874d8019921f4c2027"),
    (2, 1, 4.0, 112800, "ca26872e751786a73bb7e16a723d48127b8593f8d5e2ec27c257944c883f1b6e"),
    (2, 2, 8.0, 16772, "107ffd6ec9bcc38b5d77858449365d469502316a74aa3a59c75967531b6aff3c"),
    (2, 3, 10.0, 1113, "40c64f23a121359db06add5f1f2171e8a3088e610f7d304112809f9eb515602a"),
], ids=["g1-N1-r40", "g1-N3-r40", "g2-N1-r4", "g2-N2-r8", "g2-N3-r10"])
def test_enumeration_golden_digests(n, N, radius, count, digest):
    """Canonical arrays pinned by count and SHA-256 of their little-endian bytes."""
    ball = enumerate_ball(CongruenceGroup(n, N), radius)
    assert len(ball) == count
    assert hashlib.sha256(ball.elements.astype("<i8").tobytes()).hexdigest() == digest


def test_higher_level_is_congruence_filter():
    base = enumerate_ball(CongruenceGroup(1, 1), 8.0)
    for N in (2, 3):
        sub = enumerate_ball(CongruenceGroup(1, N), 8.0)
        eye = np.eye(2, dtype=np.int64)
        keep = np.all((base.elements - eye) % N == 0, axis=(1, 2))
        assert np.array_equal(sub.elements, base.elements[keep])


def test_canonical_order_and_center(ball40):
    norms = ball40.norms_squared()
    assert np.all(np.diff(norms) >= 0)
    byteset = as_byte_set(ball40)
    eye = np.eye(2, dtype=np.int64)
    assert eye.tobytes() in byteset
    assert (-eye).tobytes() in byteset


def test_restrict_equals_direct(ball40):
    direct = enumerate_ball(CongruenceGroup(1, 1), 6.0)
    assert np.array_equal(ball40.restrict(6.0).elements, direct.elements)
    assert ball40.restrict(1.0).norms_squared().shape == (0,)   # no element fits
    with pytest.raises(DomainError):
        ball40.restrict(41.0)
    # a radius of the same squared-norm cap holds the same elements, so a
    # ball fits it and splits at it
    group, ball10 = CongruenceGroup(1, 1), ball40.restrict(10.0)
    inner, shell = ball10.split(10.0000001)
    assert np.array_equal(inner.elements, ball10.elements) and len(shell) == 0
    mu, w = MatrixPolynomial.one(1), Weight(12, 1)
    z = SiegelPoint.from_complex(np.array([[0.3 + 1.1j]]))
    assert (poincare_f(mu, w, group, z, 10.0000001, ball=ball10)
            == poincare_f(mu, w, group, z, 10.0000001))


@pytest.mark.parametrize("n, N, radius", [(1, 1, 40.0), (2, 1, 4.0), (2, 2, 6.0)])
def test_restrict_and_split_are_views(ball40, n, N, radius):
    # the elements are sorted by norm, so both parts are slices of the parent
    ball = ball40 if n == 1 else enumerate_ball(CongruenceGroup(n, N), radius)
    inner, shell = ball.split(radius / 2)
    for part in (ball.restrict(radius / 2), inner, shell):
        assert np.shares_memory(part.elements, ball.elements)
        assert not part.elements.flags.writeable
    assert len(inner) + len(shell) == len(ball)
    keep = ball.norms_squared() <= math.floor(radius * radius / 4)
    assert np.array_equal(inner.elements, ball.elements[keep])
    assert np.array_equal(shell.elements, ball.elements[~keep])


def test_ball_leaves_the_callers_array_writeable():
    # the ball's elements are a read-only view of the caller's array, not a copy
    ball = enumerate_ball(CongruenceGroup(1, 1), 6.0)
    a = ball.elements.copy()
    made = sp.EnumerationBall(ball.group, ball.radius, a)
    assert a.flags.writeable
    assert not made.elements.flags.writeable
    assert np.shares_memory(made.elements, a)


def test_enumeration_validation():
    with pytest.raises(DomainError):
        enumerate_ball(CongruenceGroup(1, 1), -1.0)
    with pytest.raises(DimensionError):
        enumerate_ball(CongruenceGroup(3, 1), 4.0)


@pytest.mark.parametrize("radius", [-6.0, 0.0, math.nan, math.inf, 1e200])
def test_supplied_ball_refuses_bad_radius(ball40, tmp_path, radius):
    # a supplied ball answers to the same radius rule as an enumeration:
    # -6.0 squares to the cap of 6.0, yet no series may run at it
    group, w = CongruenceGroup(1, 1), Weight(12, 1)
    z = SiegelPoint.center(1)
    ball10 = ball40.restrict(10.0)
    with pytest.raises(DomainError, match="must be positive"):
        poincare_f(MatrixPolynomial.one(1), w, group, z, radius, ball=ball10)
    with pytest.raises(DomainError, match="must be positive"):
        kernel_series(w, group, z, z, radius, ball=ball10)
    with pytest.raises(DomainError, match="must be positive"):
        ball10.split(radius)
    # nor may a cached ball carry it, even an empty one
    empty = str(tmp_path / "empty.bin")
    with open(empty, "wb") as fh:
        np.savez(fh, elements=np.zeros((0, 2, 2), np.int64), level=1, radius=radius)
    with pytest.raises(DomainError, match="must be positive"):
        load_ball(empty)


def test_budget_error_genus1():
    with pytest.raises(BudgetError) as exc:
        enumerate_ball(CongruenceGroup(1, 1), 10 ** 6, budget=100)
    feasible = exc.value.feasible_radius
    assert feasible is not None and feasible > 0
    enumerate_ball(CongruenceGroup(1, 1), feasible, budget=100)  # attainable


def test_budget_error_genus2():
    with pytest.raises(BudgetError) as exc:
        enumerate_ball(CongruenceGroup(2, 1), 5.0, budget=10 ** 6)
    assert exc.value.feasible_radius >= 2.0
    enumerate_ball(CongruenceGroup(2, 1), exc.value.feasible_radius, budget=10 ** 6)


def test_save_load_round_trip(tmp_path):
    ball = enumerate_ball(CongruenceGroup(2, 2), 4.2)
    path = str(tmp_path / "ball.bin")
    save_ball(path, ball)
    back = load_ball(path)
    assert back.group == ball.group
    assert back.radius == ball.radius
    assert np.array_equal(back.elements, ball.elements)


def test_load_rejects_corruption(tmp_path):
    ball = enumerate_ball(CongruenceGroup(1, 1), 5.0)
    path = str(tmp_path / "ball.bin")
    save_ball(path, ball)
    raw = Path(path).read_bytes()
    short = str(tmp_path / "short.bin")
    Path(short).write_bytes(raw[:10])
    with pytest.raises(DomainError):
        load_ball(short)
    chopped = str(tmp_path / "chopped.bin")
    Path(chopped).write_bytes(raw[:-8])
    with pytest.raises(DomainError):
        load_ball(chopped)
    # byte 32 lies in the archive's zip header
    tampered = bytearray(raw)
    tampered[32] ^= 1
    bad = str(tmp_path / "bad.bin")
    Path(bad).write_bytes(bytes(tampered))
    with pytest.raises(DomainError):
        load_ball(bad)
    # inside the element payload: a flipped byte, and one element cut out
    start = raw.find(ball.elements.tobytes())
    size = ball.elements[0].nbytes
    assert start > 0
    flipped = bytearray(raw)
    flipped[start + 7 * size + 3] ^= 1
    cut = raw[:start + 7 * size] + raw[start + 8 * size:]
    for broken in (bytes(flipped), cut):
        Path(bad).write_bytes(broken)
        with pytest.raises(DomainError):
            load_ball(bad)


def test_load_rejects_broken_invariants(tmp_path):
    ball = enumerate_ball(CongruenceGroup(1, 1), 10.0)
    # every element fits an infinite or NaN radius; no radius may be unusable
    for radius in (math.inf, math.nan, 0.0, -10.0):
        bad = str(tmp_path / "radius.bin")
        with open(bad, "wb") as fh:
            np.savez(fh, elements=ball.elements, level=ball.group.N, radius=radius)
        with pytest.raises(DomainError):
            load_ball(bad)
    # out of canonical order the sum's rounding changes; a repeated element
    # in place of another is out of order too
    swapped = ball.elements.copy()
    swapped[[5, 6]] = swapped[[6, 5]]
    repeated = ball.elements.copy()
    repeated[0] = repeated[1]
    for order in (ball.elements[::-1], swapped, repeated):
        bad = str(tmp_path / "order.bin")
        with open(bad, "wb") as fh:
            np.savez(fh, elements=order, level=ball.group.N, radius=ball.radius)
        with pytest.raises(DomainError):
            load_ball(bad)


def test_load_checks_every_block(tmp_path):
    # more elements than one validation block: each check reaches the last
    # block and the seams, and the symplectic failure is reported first
    ball = enumerate_ball(CongruenceGroup(1, 1), 60.0)
    seam = sp.poincare._COSETS
    assert len(ball) > seam + 10
    swapped = ball.elements.copy()
    swapped[[seam - 1, seam]] = swapped[[seam, seam - 1]]
    broken = ball.elements.copy()
    broken[seam + 5, 0, 0] += 1
    both = swapped.copy()
    both[-1, 0, 0] += 1
    bad = str(tmp_path / "blocks.bin")
    for arr, message in ((swapped, "canonical order"), (broken, "symplectic"),
                         (both, "symplectic")):
        with open(bad, "wb") as fh:
            np.savez(fh, elements=arr, level=ball.group.N, radius=ball.radius)
        with pytest.raises(DomainError, match=message):
            load_ball(bad)


def _changed(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


@pytest.mark.parametrize("broken, message", [
    (lambda g, r, e: (g, r, e[::-1]), "canonical order"),
    (lambda g, r, e: (g, r, _changed(e, [5, 6], e[[6, 5]])), "canonical order"),
    (lambda g, r, e: (g, r, _changed(e, 0, e[1])), "canonical order"),
    (lambda g, r, e: (g, r, _changed(e, (0, 0, 0), e[0, 0, 0] + 1)), "symplectic"),
    (lambda g, r, e: (CongruenceGroup(1, 2), r, e), "congruence"),
    (lambda g, r, e: (g, 9.0, e), "exceeds the radius"),
    (lambda g, r, e: (g, r, e.astype(float)), "int64"),
], ids=["reversed", "swapped", "repeated", "entry", "level", "radius", "float"])
def test_ball_checks_itself(broken, message):
    # no ball can be made that breaks the contract a series or a split
    # relies on, whichever way it is made
    ball = enumerate_ball(CongruenceGroup(1, 1), 10.0)
    group, radius, arr = broken(ball.group, ball.radius, ball.elements)
    with pytest.raises(DomainError, match=message):
        sp.EnumerationBall(group, radius, arr)
    again = sp.EnumerationBall(ball.group, ball.radius, ball.elements.copy())
    assert np.array_equal(again.elements, ball.elements)


def test_ball_is_checked_once_and_views_never(monkeypatch, tmp_path):
    check, radii = sp.poincare._validate_ball, []

    def counted(group, radius, arr):
        radii.append(radius)
        check(group, radius, arr)

    monkeypatch.setattr(sp.poincare, "_validate_ball", counted)
    group = CongruenceGroup(1, 1)
    ball = enumerate_ball(group, 10.0)
    path = str(tmp_path / "ball.bin")
    save_ball(path, ball)
    load_ball(path)
    assert radii == [10.0, 10.0]       # once per enumeration and per load

    def refuse(group, radius, arr):
        raise AssertionError("the ball check ran again")

    monkeypatch.setattr(sp.poincare, "_validate_ball", refuse)
    with pytest.raises(AssertionError):
        sp.EnumerationBall(group, ball.radius, ball.elements)
    assert len(ball.restrict(6.0)) == 196
    assert sum(map(len, ball.split(5.0))) == len(ball)
    res = poincare_f(MatrixPolynomial.one(1), Weight(12, 1), group,
                     SiegelPoint.center(1), 5.0, ball=ball)
    assert res.terms == 132
    assert sp.verify_cor62(radius=6.0, ball=ball).identity == "pairing-vs-center-value"


def test_coset_block_of_imprimitive_bottom_halves_is_empty():
    M = np.array([[[0, 0, 2, 0], [0, 0, 0, 1]]], dtype=np.int64)
    assert sp.poincare._coset_elements(M, 1, 10).shape == (0, 4, 4)


@pytest.mark.parametrize("n, N, radius", [(1, 1, 10.0), (2, 1, math.sqrt(7)),
                                          (2, 2, 4.2)])
@pytest.mark.parametrize("cosets", [1, 3])
def test_coset_block_size_does_not_change_the_ball(monkeypatch, n, N, radius, cosets):
    # small blocks give blocks whose bottom halves are all imprimitive
    group = CongruenceGroup(n, N)
    whole = enumerate_ball(group, radius)
    monkeypatch.setattr(sp.poincare, "_COSETS", cosets)
    assert np.array_equal(enumerate_ball(group, radius).elements, whole.elements)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


def test_series_matches_elementwise_sum():
    # compare the vectorized sum against a per-element evaluation
    group = CongruenceGroup(2, 1)
    w = Weight(6, 2)
    mu = MatrixPolynomial.one(2)
    ball = enumerate_ball(group, 2.2)
    assert len(ball) == 32        # only the compact elements fit
    z = SiegelPoint(np.array([[0.2, 0.1], [0.1, -0.3]]),
                    np.array([[1.1, 0.2], [0.2, 0.9]]))
    res = poincare_f(mu, w, group, z, 2.2, ball=ball)
    manual = 0j
    for e in ball.elements:
        g = sp.SymplecticMatrix(e.astype(np.float64))
        manual += sp.j_factor(g, z) ** (-w.m) * sp.f_mu_m(mu, w, sp.act(g, z))
    assert res.value == pytest.approx(manual, rel=1e-11)
    assert res.terms == 32
    empty = poincare_f(mu, w, group, z, 1.5)      # no element has norm below 2
    assert empty.value == 0 and empty.terms == 0


def test_series_radius_convergence(ball40):
    w = Weight(12, 1)
    mu = MatrixPolynomial.one(1)
    group = CongruenceGroup(1, 1)
    z = SiegelPoint.center(1)
    v12 = poincare_f(mu, w, group, z, 12.0, ball=ball40)
    v24 = poincare_f(mu, w, group, z, 24.0, ball=ball40)
    v40 = poincare_f(mu, w, group, z, 40.0, ball=ball40)
    assert abs(v24.value - v40.value) < abs(v12.value - v40.value)
    assert abs(v40.value - v24.value) < 1e-8 * max(1.0, abs(v40.value))
    assert v40.tail_estimate < 1e-6 * abs(v40.value)


def test_group_side_series_consistent(ball40):
    # averaging on the group side equals translating the base point; the
    # genus-2 cases are the benchmark's keys with the largest measured gaps
    rng = np.random.default_rng(51)
    cases = [(ball40, 30.0, Weight(12, 1), MatrixPolynomial.one(1))]
    for N, radius in ((1, 4.0), (2, 8.0)):
        cases.append((enumerate_ball(CongruenceGroup(2, N), radius), radius, Weight(8, 2),
                      sp.parse_polynomial("det^2 + 3*X_{1,2}", 2)))
    for ball, radius, w, mu in cases:
        spec = MatrixCoefficientSpec(mu, w)
        z0 = SiegelPoint.center(w.n)
        for _ in range(3):
            g = sp.random_symplectic(w.n, rng)
            lhs = poincare_F(spec, ball.group, g, radius, ball=ball)
            rhs = (sp.j_factor(g, z0) ** (-w.m)
                   * poincare_f(mu, w, ball.group, sp.act(g, z0), radius, ball=ball).value)
            assert lhs.value == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("n, N, radius, mu_text", [(1, 1, 6.0, "1 + X_{1,1}^2"),
                                                     (2, 2, 4.2, "det^2 + 3*X_{1,2}")])
def test_group_side_series_matches_brute_force_lift(n, N, radius, mu_text):
    # an oracle independent of the series code: lift f_{mu,m} at every gamma g
    rng = np.random.default_rng(52)
    w = Weight(4 * n + 4, n)
    mu = sp.parse_polynomial(mu_text, n)
    group = CongruenceGroup(n, N)
    ball = enumerate_ball(group, radius)
    f = functools.partial(sp.f_mu_m, mu, w)
    for _ in range(2):
        g = sp.random_symplectic(n, rng)
        brute = sum(sp.lift(f, w, sp.SymplecticMatrix(e.astype(np.float64)) @ g)
                    for e in ball.elements)
        got = poincare_F(MatrixCoefficientSpec(mu, w), group, g, radius, ball=ball)
        assert got.terms == len(ball)
        assert abs(got.value - brute) <= 1e-11 * abs(brute)


def test_kernel_series_hermitian_truncation(ball40):
    # the ball is inverse-closed, so truncation keeps the kernel symmetry
    w = Weight(12, 1)
    group = CongruenceGroup(1, 1)
    xi = SiegelPoint.from_complex(np.array([[0.2 + 1.3j]]))
    z = SiegelPoint.from_complex(np.array([[-0.4 + 0.8j]]))
    a = kernel_series(w, group, xi, z, 10.0, ball=ball40)
    b = kernel_series(w, group, z, xi, 10.0, ball=ball40)
    assert a.value == pytest.approx(np.conj(b.value), rel=1e-12)


def test_series_rejects_mismatches(ball40):
    w = Weight(12, 1)
    mu = MatrixPolynomial.one(1)
    z = SiegelPoint.center(1)
    with pytest.raises(DomainError):
        poincare_f(mu, w, CongruenceGroup(1, 2), z, 10.0, ball=ball40)
    with pytest.raises(DomainError):
        poincare_f(mu, w, CongruenceGroup(1, 1), z, 80.0, ball=ball40)
    with pytest.raises(DomainError):
        poincare_f(mu, Weight(2, 1), CongruenceGroup(1, 1), z, 10.0)
    with pytest.raises(DimensionError):
        poincare_f(MatrixPolynomial.one(2), Weight(6, 2), CongruenceGroup(1, 1),
                   z, 10.0)


def test_vectorized_evaluator_matches(ball40):
    w = Weight(12, 1)
    group = CongruenceGroup(1, 1)
    mu = MatrixPolynomial.one(1)
    xi = SiegelPoint.from_complex(np.array([[0.1 + 1.0j]]))
    zs = np.array([1j, 0.3 + 0.8j, -0.2 + 2.0j])
    ev_mu = sp.series_evaluator_genus1(w, ball40, mu=mu)
    ev_xi = sp.series_evaluator_genus1(w, ball40, xi=xi)
    got_mu = ev_mu(zs)
    got_xi = ev_xi(zs)
    for i, zval in enumerate(zs):
        z = SiegelPoint.from_complex(np.array([[zval]]))
        ref = poincare_f(mu, w, group, z, 40.0, ball=ball40)
        assert got_mu[i] == pytest.approx(ref.value, rel=1e-11)
        refk = kernel_series(w, group, xi, z, 40.0, ball=ball40)
        assert got_xi[i] == pytest.approx(refk.value, rel=1e-11)
    # shape is preserved and both modes refuse bad argument combinations
    assert ev_mu(zs.reshape(3, 1)).shape == (3, 1)
    with pytest.raises(DomainError):
        sp.series_evaluator_genus1(w, ball40)
    with pytest.raises(DomainError):
        sp.series_evaluator_genus1(w, ball40, mu=mu, xi=xi)


def test_vectorized_evaluator_matches_mpmath(ball40):
    # 30-digit sums of j(g, z)^{-m} f(g.z) term by term; the error is measured
    # against the largest value, since the sums cancel to 1e-13 of it at some z
    w = Weight(12, 1)
    ball = ball40.restrict(10.0)
    zs = np.array([1j, 2j, 0.3 + 0.8j, -0.4 + 1.2j, 0.1 + 0.9j,
                   0.5 + 1.5j, -0.25 + 2.5j, 0.05 + 1.05j])
    xi = 0.2 + 1.3j
    oracle = {"mu": [], "xi": []}
    with mpmath.workdps(30):
        cmn = 4 * mpmath.pi / (w.m - 1)
        xibar = mpmath.mpc(xi.real, -xi.imag)
        for zval in zs:
            z = mpmath.mpc(zval.real, zval.imag)
            sums = {"mu": mpmath.mpc(0), "xi": mpmath.mpc(0)}
            for (a, b), (c, d) in ball.elements.tolist():
                j = c * z + d
                gz = (a * z + b) / j
                sums["mu"] += j ** -w.m * (2j) ** w.m / (gz + 1j) ** w.m
                sums["xi"] += j ** -w.m * ((gz - xibar) / 2j) ** -w.m / cmn
            for key in sums:
                oracle[key].append(complex(sums[key]))
    got = {"mu": sp.series_evaluator_genus1(w, ball, mu=MatrixPolynomial.one(1))(zs),
           "xi": sp.series_evaluator_genus1(
               w, ball, xi=SiegelPoint.from_complex(np.array([[xi]])))(zs)}
    for key in got:
        want = np.array(oracle[key])
        assert np.max(np.abs(got[key] - want)) <= 1e-13 * np.max(np.abs(want)), key


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [{"r": math.nan}, {"r": math.inf}, {"samples": 0},
                                    {"r": 200.0}, {"r": -0.5}])
def test_norm_bounds_refuses_bad_input(kwargs):
    with pytest.raises(DomainError):
        sp.norm_bounds_check(CongruenceGroup(1, 1), **kwargs)


def test_norm_bounds_pass_at_r_zero():
    # at r = 0 every sampled product is unitary, of norm sqrt(2n) = the bound
    for n in (1, 2):
        rep = sp.norm_bounds_check(CongruenceGroup(n, 1), r=0.0, samples=500, seed=1)
        assert rep.max_product_norm == pytest.approx(rep.bound, rel=1e-14)
        assert rep.passed


def test_norm_bounds_reports():
    # the least squared norm outside K in each group
    least = {(1, 1): 3, (1, 2): 6, (1, 3): 11, (2, 1): 5, (2, 2): 8}
    for (n, N), sq in least.items():
        rep = sp.norm_bounds_check(CongruenceGroup(n, N), samples=50, seed=3)
        assert rep.passed
        assert rep.max_product_norm < rep.bound
        assert rep.min_noncompact_norm >= rep.threshold - 1e-12
        assert rep.min_noncompact_norm == math.sqrt(sq)
        assert rep.level == N
