"""Tests for exact integer enumeration and truncated group averages."""

import functools
import hashlib
import itertools
import math
import os
import stat
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
from siegelps.discrete_series import pole_terms

from conftest import random_point

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


def write_archive(path, reps, level, radius):
    """A ball cache archive in the format ``save_ball`` writes, of any rows."""
    with open(path, "wb") as fh:
        np.savez(fh, format="representatives", representatives=reps, level=level,
                 radius=radius)


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
    # exact at any size: int64 arithmetic would wrap det = 1 - 2^64 to 1
    assert not g1.contains(np.diag([1 + 2 ** 32, 1 - 2 ** 32]))
    assert g1.contains([[1, 2 ** 40], [0, 1]])


def _reference_membership(g, N):
    """g^T J g == J and (g - I) % N == 0 for one matrix, by whole products."""
    n = len(g) // 2
    J = sp.j_matrix(n).astype(np.int64)
    return (bool(np.all(g.T @ J @ g == J)),
            bool(np.all((g - np.eye(2 * n, dtype=np.int64)) % N == 0)))


@pytest.mark.parametrize("n, radius", [(1, 5.0), (2, 3.0)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_membership_column_pairs_match_the_whole_products(n, N, radius):
    # elements of the full group and of level N, each unchanged and with one
    # entry changed at every position, as int64 and as Python ints
    rng = np.random.default_rng(40 + 10 * n + N)
    base = [ball.elements[rng.choice(len(ball), min(len(ball), 8), replace=False)]
            for ball in (enumerate_ball(CongruenceGroup(n, level), radius) for level in (1, N))]
    stack = []
    for g in np.concatenate(base):
        stack.append(g)
        for a, b in itertools.product(range(2 * n), repeat=2):
            h = g.copy()
            h[a, b] += rng.choice([-2, -1, 1, 2, N])
            stack.append(h)
    stack = np.stack(stack)
    want = [_reference_membership(g, N) for g in stack]
    # every outcome occurs; congruence mod 1 always holds
    assert set(want) == {(True, True), (False, True)} | (
        {(True, False), (False, False)} if N > 1 else set())
    as_ints = np.frompyfunc(int, 1, 1)
    for g, expected in zip(stack, want):
        assert sp.poincare._membership(g[None], N) == expected
        assert sp.poincare._membership(as_ints(g)[None], N) == expected
    assert sp.poincare._membership(stack, N) == tuple(map(all, zip(*want)))


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
    (2, 1, 5.0, 521120, "f0630179d02447d40eb8a7661ec170c7a51bef3a96b01b33a68d27777bee4b55"),
    (2, 2, 10.0, 64212, "42667f4b9e32642497b4dd0b7cd1ffc714353b3c757f1adf0cab458f41213bd1"),
], ids=["g1-N1-r40", "g1-N3-r40", "g2-N1-r4", "g2-N2-r8", "g2-N3-r10", "g2-N1-r5",
        "g2-N2-r10"])
def test_enumeration_golden_digests(n, N, radius, count, digest):
    """Canonical arrays pinned by count and SHA-256 of their little-endian bytes."""
    ball = enumerate_ball(CongruenceGroup(n, N), radius)
    assert len(ball) == count
    assert hashlib.sha256(ball.elements.astype("<i8").tobytes()).hexdigest() == digest


def test_higher_level_is_congruence_filter():
    # the levels expand through different groups in K: 4, 2 and 1 units at
    # genus 1, 32, 4 and 1 at genus 2
    for n, radius in ((1, 8.0), (2, 4.0)):
        base = enumerate_ball(CongruenceGroup(n, 1), radius)
        for N in (2, 3):
            sub = enumerate_ball(CongruenceGroup(n, N), radius)
            eye = np.eye(2 * n, dtype=np.int64)
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
    assert ball40.restrict(1.0).elements.shape == (0, 2, 2)
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
    # the representatives are sorted by norm, and k keeps the norm, so both
    # parts are slices of the parent's, and expand to slices of its elements
    ball = ball40 if n == 1 else enumerate_ball(CongruenceGroup(n, N), radius)
    inner, shell = ball.split(radius / 2)
    for part in (ball.restrict(radius / 2), inner, shell):
        assert np.shares_memory(part.representatives, ball.representatives)
        assert not part.representatives.flags.writeable
        assert not part.elements.flags.writeable
    assert len(inner) + len(shell) == len(ball)
    keep = ball.norms_squared() <= math.floor(radius * radius / 4)
    assert np.array_equal(inner.elements, ball.elements[keep])
    assert np.array_equal(shell.elements, ball.elements[~keep])
    cut = len(inner.representatives)
    assert np.array_equal(inner.representatives, ball.representatives[:cut])
    assert np.array_equal(shell.representatives, ball.representatives[cut:])


def test_ball_leaves_the_callers_array_writeable():
    # the ball's representatives are a read-only view of the caller's array,
    # not a copy
    ball = enumerate_ball(CongruenceGroup(1, 1), 6.0)
    a = ball.representatives.copy()
    made = sp.EnumerationBall(ball.group, ball.radius, a)
    assert a.flags.writeable
    assert not made.representatives.flags.writeable
    assert np.shares_memory(made.representatives, a)


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
    write_archive(empty, np.zeros((0, 2, 2), np.int64), 1, radius)
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
    assert np.array_equal(back.representatives, ball.representatives)
    assert np.array_equal(back.elements, ball.elements)


def test_archive_holds_the_representatives_and_its_format(tmp_path):
    ball = enumerate_ball(CongruenceGroup(2, 1), 3.0)
    path = str(tmp_path / "ball.bin")
    save_ball(path, ball)
    with np.load(path) as data:
        assert sorted(data.files) == ["format", "level", "radius", "representatives"]
        assert str(data["format"]) == "representatives"
        assert len(data["representatives"]) * 32 == len(ball) == 12320
    # an archive of every element, as written before the format member, is
    # refused by its format, and never read as representatives: at level 3
    # its elements would pass as such
    old = str(tmp_path / "old.bin")
    for group, radius in ((ball.group, 3.0), (CongruenceGroup(2, 3), 8.0)):
        whole = enumerate_ball(group, radius).elements
        with open(old, "wb") as fh:
            np.savez(fh, elements=whole, level=group.N, radius=radius)
        with pytest.raises(DomainError, match="format 'elements'"):
            load_ball(old)
    write_archive(old, ball.representatives, 1, 3.0)
    assert len(load_ball(old)) == len(ball)
    with open(old, "wb") as fh:
        np.savez(fh, format="orbits", representatives=ball.representatives, level=1,
                 radius=3.0)
    with pytest.raises(DomainError, match="format 'orbits'"):
        load_ball(old)


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_save_ball_gives_the_mode_open_gives(tmp_path, umask):
    # a shared cache directory must not hold files only their writer can read
    ball = enumerate_ball(CongruenceGroup(1, 1), 3.0)
    old = os.umask(umask)
    try:
        save_ball(str(tmp_path / "ball.bin"), ball)
        open(tmp_path / "plain", "wb").close()
    finally:
        assert os.umask(old) == umask                       # save_ball restored it
    mode = stat.S_IMODE(os.stat(tmp_path / "ball.bin").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o666 & ~umask


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
    start = raw.find(ball.representatives.tobytes())
    size = ball.representatives[0].nbytes
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
    reps = ball.representatives
    # every element fits an infinite or NaN radius; no radius may be unusable
    for radius in (math.inf, math.nan, 0.0, -10.0):
        bad = str(tmp_path / "radius.bin")
        write_archive(bad, reps, ball.group.N, radius)
        with pytest.raises(DomainError):
            load_ball(bad)
    # out of canonical order the sum's rounding changes; a repeated element
    # in place of another is out of order too
    swapped = reps.copy()
    swapped[[5, 6]] = swapped[[6, 5]]
    repeated = reps.copy()
    repeated[0] = repeated[1]
    for order in (reps[::-1], swapped, repeated):
        bad = str(tmp_path / "order.bin")
        write_archive(bad, order, ball.group.N, ball.radius)
        with pytest.raises(DomainError):
            load_ball(bad)


def test_load_checks_every_block(monkeypatch, tmp_path):
    # more representatives than one validation block: each check reaches the
    # last block and the seams, and the symplectic failure is reported first
    ball = enumerate_ball(CongruenceGroup(1, 1), 60.0)
    seam = 4096
    monkeypatch.setattr(sp.poincare, "_COSETS", seam)
    reps = ball.representatives
    assert len(reps) > seam + 10
    swapped = reps.copy()
    swapped[[seam - 1, seam]] = swapped[[seam, seam - 1]]
    broken = reps.copy()
    broken[seam + 5, 0, 0] += 1
    both = swapped.copy()
    both[-1, 0, 0] += 1
    bad = str(tmp_path / "blocks.bin")
    for arr, message in ((swapped, "canonical order"), (broken, "symplectic"),
                         (both, "symplectic")):
        write_archive(bad, arr, ball.group.N, ball.radius)
        with pytest.raises(DomainError, match=message):
            load_ball(bad)


def _changed(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


def _wrapping_ball(group):
    """I and g = diag(1 + 2^32, 1 - 2^32), not in SL2(Z), both marked: in
    int64 the determinant and squared norm of g wrap to 1 and 2."""
    g = np.diag(np.array([1 + 2 ** 32, 1 - 2 ** 32], dtype=np.int64))
    return np.stack([np.eye(2, dtype=np.int64), g])


@pytest.mark.parametrize("broken, message", [
    (lambda g, r, e: (g, r, e[::-1]), "canonical order"),
    (lambda g, r, e: (g, r, _changed(e, [5, 6], e[[6, 5]])), "canonical order"),
    (lambda g, r, e: (g, r, _changed(e, 0, e[1])), "canonical order"),
    (lambda g, r, e: (g, r, _changed(e, (0, 0, 0), e[0, 0, 0] + 1)), "symplectic"),
    (lambda g, r, e: (CongruenceGroup(1, 2), r, e), "congruence"),
    (lambda g, r, e: (g, 9.0, e), "exceeds the radius"),
    (lambda g, r, e: (g, r, e.astype(float)), "int64"),
    # a representative g stored as -g, the other member of the pair +-g,
    # which is unmarked: once, and twice
    (lambda g, r, e: (g, r, _changed(e, 2, -e[2])), "marked"),
    (lambda g, r, e: (g, r, _changed(e, [0, 1], -e[[0, 1]])), "marked"),
    (lambda g, r, e: (g, 1.5, _wrapping_ball(g)), "too large for exact int64"),
], ids=["reversed", "swapped", "repeated", "entry", "level", "radius", "float", "unpaired",
        "two-unpaired", "wrapping"])
def test_ball_checks_itself(broken, message, tmp_path):
    # no ball can be made that breaks the contract a series or a split
    # relies on, whichever way it is made
    ball = enumerate_ball(CongruenceGroup(1, 1), 10.0)
    group, radius, arr = broken(ball.group, ball.radius, ball.representatives)
    with pytest.raises(DomainError, match=message):
        sp.EnumerationBall(group, radius, arr)
    path = str(tmp_path / "broken.bin")
    write_archive(path, arr, group.N, radius)
    with pytest.raises(DomainError, match=message):
        load_ball(path)
    again = sp.EnumerationBall(ball.group, ball.radius, ball.representatives.copy())
    assert np.array_equal(again.elements, ball.elements)


@pytest.mark.parametrize("n, N, radius", [(1, 1, 10.0), (2, 2, 6.0), (2, 1, 4.0)])
def test_ball_with_a_second_orbit_member_is_refused(n, N, radius, tmp_path):
    # negative controls: a stored k g beside the stored g would count the
    # orbit of g twice in every series, and a stored k g in place of g is
    # an unmarked row; both are refused, made directly or loaded
    ball = enumerate_ball(CongruenceGroup(n, N), radius)
    reps = ball.representatives
    k = ball.group.k_intersection()[1]           # u = -i, diag(-1, 1), diag(-1, -i)
    g = reps[-1]
    twice = sp.poincare._canonical_order(np.concatenate([reps, [k @ g]]))
    assert len(twice) == len(reps) + 1
    path = str(tmp_path / "orbit.bin")
    for arr in (twice, _changed(reps, -1, k @ g)):
        with pytest.raises(DomainError, match="marked"):
            sp.EnumerationBall(ball.group, radius, arr)
        write_archive(path, arr, N, radius)
        with pytest.raises(DomainError, match="marked"):
            load_ball(path)
    save_ball(path, ball)                                   # the ball itself passes
    assert np.array_equal(load_ball(path).elements, ball.elements)


def test_closure_check_with_entries_past_one_key():
    # entries of 40000 need two keys per element at genus 1; a ball need not
    # hold every group element within its radius, only whole orbits, which
    # its marked elements expand to
    group = CongruenceGroup(1, 1)
    ks = group.k_intersection()
    g = np.array([[1, 40000], [0, 1]], dtype=np.int64)
    whole = sp.poincare._canonical_order(np.concatenate([ks, ks @ g, ks @ g.T]))
    marks = sp.poincare._representatives(1, whole[:, :1], whole[:, 1:])
    assert marks.sum() == 3
    radius = math.sqrt(1 + 40000 ** 2 + 1)
    ball = sp.EnumerationBall(group, radius, whole[marks])
    assert len(ball) == 12 and np.array_equal(ball.elements, whole)
    for h in whole[marks]:
        again = sp.poincare._canonical_order(np.concatenate([whole[marks], [ks[1] @ h]]))
        with pytest.raises(DomainError, match="marked"):
            sp.EnumerationBall(group, radius, again)


def _entry_order(arr):
    """The canonical order by its reference rule: a lexsort by the squared
    norm, then by every entry."""
    flat = arr.reshape(len(arr), -1)
    return np.lexsort([np.sum(flat * flat, axis=1), *flat.T][::-1])


@pytest.mark.parametrize("n, N, radius, columns", [
    (1, 1, 40.0, 1), (1, 3, 40.0, 1), (2, 1, 4.0, 1), (2, 2, 8.0, 1), (2, 3, 10.0, 2),
], ids=["g1-N1-r40", "g1-N3-r40", "g2-N1-r4", "g2-N2-r8", "g2-N3-r10"])
def test_keyed_order_equals_entry_order(n, N, radius, columns):
    # the golden balls, shuffled, sort back to themselves under both rules;
    # the sort reads the norm and `columns` entry keys, not every entry
    ball = enumerate_ball(CongruenceGroup(n, N), radius).elements
    assert len(sp.poincare._order_keys(ball)) == 1 + columns
    shuffled = ball[np.random.default_rng(10 * n + N).permutation(len(ball))]
    assert np.array_equal(shuffled[_entry_order(shuffled)], ball)
    assert np.array_equal(sp.poincare._canonical_order(shuffled), ball)


def _k_orbits(n, tops):
    """The orbits {k g} over K at level 1 of g = [[I, S], [0, I]] and of g^T,
    for each symmetric S in ``tops``."""
    ks, eye = CongruenceGroup(n, 1).k_intersection(), np.eye(n, dtype=np.int64)
    gs = [np.block([[eye, S], [0 * eye, eye]]) for S in np.asarray(tops, dtype=np.int64)]
    return np.concatenate([ks @ h for g in gs for h in (g, g.T)])


def _bound_stack(b):
    # S holds +-b beside entries of at most 1, so |S|^2 <= b^2 + 3 and every
    # entry is within isqrt(norm - 3) = b: the digits reach the keys' bound
    return _k_orbits(2, [S for big, small, off in itertools.product((b, -b), (-1, 0, 1),
                                                                     (-1, 0, 1))
                         for S in ([[big, off], [off, small]], [[small, off], [off, big]])])


@pytest.mark.parametrize("make, columns", [
    (lambda: _k_orbits(1, [[[40000]]]), 2), (lambda: _bound_stack(3), 1),
    (lambda: _bound_stack(40000), 6),
], ids=["g1-40000", "g2-bound-3", "g2-bound-40000"])
def test_keyed_order_at_the_digit_bound(make, columns):
    arr = make()
    norms = np.sum(arr * arr, axis=(1, 2))
    n2 = arr.shape[1]
    assert np.abs(arr).max() == math.isqrt(int(norms.max()) - n2 + 1)
    assert len(sp.poincare._order_keys(arr)) == 1 + columns
    shuffled = arr[np.random.default_rng(1).permutation(len(arr))]
    ordered = sp.poincare._canonical_order(shuffled)
    assert np.array_equal(ordered, shuffled[_entry_order(shuffled)])
    # closed under K, so its marked elements make a ball, whose check reads
    # the same keys and whose expansion sorts the same products
    group = CongruenceGroup(n2 // 2, 1)
    reps = ordered[sp.poincare._representatives(1, ordered[:, :n2 // 2], ordered[:, n2 // 2:])]
    ball = sp.EnumerationBall(group, math.sqrt(norms.max() + 0.5), reps)
    assert np.array_equal(ball.elements, ordered)
    swapped = _changed(reps, [-2, -1], reps[[-1, -2]])
    with pytest.raises(DomainError, match="canonical order"):
        sp.EnumerationBall(group, ball.radius, swapped)


def test_ball_is_checked_once_and_views_never(monkeypatch, tmp_path):
    check, radii = sp.poincare._validate_ball, []

    def counted(group, radius, arr):
        radii.append(radius)
        return check(group, radius, arr)

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
        sp.EnumerationBall(group, ball.radius, ball.representatives)
    assert len(ball.restrict(6.0)) == 196
    assert sum(map(len, ball.split(5.0))) == len(ball)
    res = poincare_f(MatrixPolynomial.one(1), Weight(12, 1), group,
                     SiegelPoint.center(1), 5.0, ball=ball)
    assert res.terms == 132
    assert sp.verify_cor62(radius=6.0, ball=ball).identity == "pairing-vs-center-value"


def test_coset_block_of_imprimitive_bottom_halves_is_empty():
    M = np.array([[[0, 0, 2, 0], [0, 0, 0, 1]]], dtype=np.int64)
    assert sp.poincare._coset_elements(M, 1, 10).shape == (0, 4, 4)


@pytest.mark.parametrize("n, N, radius", [(1, 1, 10.0), (1, 2, 10.0), (2, 1, 3.0),
                                          (2, 2, 6.0)])
def test_one_bottom_half_is_completed_per_orbit(monkeypatch, n, N, radius):
    # brute force: group the bottom halves [-C^T A^T] of the inverses of the
    # ball's elements by the set of their images M k; the enumerator
    # completes one of each orbit and makes the rest of the ball as the
    # products h k of its rows h
    group = CongruenceGroup(n, N)
    ks = group.k_intersection()
    complete, seen, rows = sp.poincare._coset_elements, set(), []

    def counted(M, N, r2):
        seen.update(m.tobytes() for m in M)
        rows.append(len(out := complete(M, N, r2)))
        return out

    monkeypatch.setattr(sp.poincare, "_coset_elements", counted)
    ball = enumerate_ball(group, radius)
    assert sum(rows) * len(ks) == len(ball)
    g = ball.elements
    halves = np.unique(np.concatenate([-np.swapaxes(g[:, n:, :n], 1, 2),
                                       np.swapaxes(g[:, :n, :n], 1, 2)], axis=2), axis=0)
    orbits: dict = {}
    for M in halves:
        orbit = frozenset(img.tobytes() for img in M @ ks)
        orbits.setdefault(orbit, []).append(M.tobytes() in seen)
    assert orbits and all(len(members) == len(ks) and sum(members) == 1
               for members in orbits.values())


def brute_bottom_halves(n, N, radius):
    """Every integer n x 2n M = [0 I] (mod N) with pairwise J-orthogonal rows
    and |M|^2 <= r^2 - n: the rows from a meshgrid over Z^2n, crossed."""
    cap = sp.poincare._norm_cap(radius) - n
    lim = math.isqrt(cap)
    axis = np.arange(-lim, lim + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*[axis] * (2 * n), indexing="ij"), -1).reshape(-1, 2 * n)
    grid = grid[np.sum(grid * grid, axis=1) <= cap]
    eye = np.eye(2 * n, dtype=np.int64)
    tables = [grid[np.all((grid - eye[n + i]) % N == 0, axis=1)] for i in range(n)]
    at = np.stack(np.meshgrid(*[np.arange(len(t)) for t in tables], indexing="ij"),
                  -1).reshape(-1, n)
    M = np.stack([t[at[:, i]] for i, t in enumerate(tables)], axis=1)
    ok = np.sum(M * M, axis=(1, 2)) <= cap
    J = sp.j_matrix(n).astype(np.int64)
    for a, b in itertools.combinations(range(n), 2):
        ok &= np.einsum("ki,ij,kj->k", M[:, a], J, M[:, b]) == 0
    return M[ok]


def column_marks(N, M):
    """The mark on the columns of D - iC of each bottom half M = [C D]."""
    n = M.shape[2] // 2
    return sp.poincare._representatives(N, np.swapaxes(M[:, :, n:], 1, 2),
                                        -np.swapaxes(M[:, :, :n], 1, 2))


@pytest.mark.parametrize("n, N, radius", [(1, 1, 10.0), (1, 2, 10.0), (1, 3, 10.0),
                                          (2, 1, 3.0), (2, 2, 4.2)])
def test_sweep_keeps_the_marked_bottom_halves(n, N, radius):
    # brute force: of the bottom halves of full rank within the radius, the
    # sweep keeps exactly the marked one of each orbit {M k}, and it can
    # prune as it grows M because the first rows of a marked M pass the mark
    every = brute_bottom_halves(n, N, radius)
    full = every[np.linalg.matrix_rank(every) == n]
    marked = full[column_marks(N, full)]
    assert len(marked) * len(CongruenceGroup(n, N).k_intersection()) == len(full)
    swept = sp.poincare._bottom_halves(n, N, sp.poincare._norm_cap(radius))
    swept = swept[np.linalg.matrix_rank(swept) == n]
    assert len(swept) == len(marked) > 0
    assert {M.tobytes() for M in swept} == {M.tobytes() for M in marked}
    for i in range(1, n):
        assert np.all(column_marks(N, marked[:, :i]))


@pytest.mark.parametrize("n, N, radius, count, digest", [
    (1, 1, 40.0, 2365, "a938b8fdb86e4e1534f6e9d2ca3f2a4ff87ddaeecd99e8e9d62f66b40dc702d3"),
    (2, 1, 4.0, 3525, "bf1c68e8bc26fdc90bdfbd68b00339ead42080a8bc05b719279b03ffdda4eb4e"),
    (2, 2, 8.0, 4193, "1b2ccb7a51c6c85d8e8292a039624fd7303f967de3141ceaeda95f2ba87e3533"),
    (2, 3, 10.0, 1113, "40c64f23a121359db06add5f1f2171e8a3088e610f7d304112809f9eb515602a"),
], ids=["g1-N1-r40", "g2-N1-r4", "g2-N2-r8", "g2-N3-r10"])
def test_representatives_golden_digests(n, N, radius, count, digest):
    """The stored rows, which cache archives hold and every series sums,
    pinned by count and SHA-256 of their little-endian bytes."""
    reps = enumerate_ball(CongruenceGroup(n, N), radius).representatives
    assert len(reps) == count
    assert hashlib.sha256(reps.astype("<i8").tobytes()).hexdigest() == digest


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
# the orbit rule (weight vectors) and the centre rule (kernels)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_the_rule_group_is_the_enumerated_one(n, N):
    group = CongruenceGroup(n, N)
    units = group.k_units()
    assert len(units) == {1: 4 ** n * math.factorial(n), 2: 2 ** n}.get(N, 1)
    # the u's are built from the set k_units() states, without enumerating;
    # the ball check rebuilds each run from the orbits under them, so they
    # must be every element in K
    as_k = np.array([sp.poincare._k_matrix(u) for u in units])
    assert np.array_equal(as_k, group.k_intersection())


@pytest.mark.parametrize("n, N, radius", [(1, 1, 10.0), (1, 2, 10.0), (1, 3, 10.0),
                                          (2, 1, 3.0), (2, 2, 3.0), (2, 2, 6.0)])
def test_representatives_pick_one_element_per_orbit(n, N, radius):
    # brute force: group the elements by the set of their images k g; the
    # ball stores one of each, the one the mark predicate picks
    group = CongruenceGroup(n, N)
    ball = enumerate_ball(group, radius)
    ks = group.k_intersection()
    stored = {g.tobytes() for g in ball.representatives}
    orbits: dict = {}
    for g in ball.elements:
        orbit = frozenset(img.tobytes() for img in ks @ g)
        orbits.setdefault(orbit, []).append(g.tobytes() in stored)
    assert all(len(members) == len(ks) and sum(members) == 1
               for members in orbits.values())
    assert sum(map(len, orbits.values())) == len(ball)
    assert len(orbits) == len(stored) == len(ball.representatives)
    marks = sp.poincare._representatives(N, ball.elements[:, :n], ball.elements[:, n:])
    assert np.array_equal(ball.elements[marks], ball.representatives)


def test_mu_prime_vanishes_exactly_on_the_vanishing_cases():
    # det^l: mu' = 0 exactly where vanishing_case says the average is 0
    seen = set()
    for n, N, l in itertools.product((1, 2), (1, 2, 3), range(13)):
        for w in map(Weight, range(2 * n + 1, 2 * n + 9), itertools.repeat(n)):
            mu = MatrixPolynomial.det_power(n, l)
            zero = mu.orbit_sum(CongruenceGroup(n, N).k_units(), w.m).is_zero()
            assert zero == sp.vanishing_case(l, w, N), (l, w, N)
            seen.add(zero)
    assert seen == {True, False}


def _three_series(w, ball, rng, mu_text=None):
    """Each series over ``ball`` at seeded inputs, with the columns and the
    keyword that give ``pole_terms`` its terms."""
    n, group, radius = w.n, ball.group, ball.radius
    mu = sp.parse_polynomial(mu_text or ("1 + X_{1,1}^2" if n == 1 else "det^2 + 3*X_{1,2}"), n)
    z, xi, g = random_point(n, rng), random_point(n, rng), sp.random_symplectic(n, rng)
    cols = np.vstack([z.z, np.eye(n)])
    return {
        "poincare_f": (poincare_f(mu, w, group, z, radius, ball=ball), cols, {"mu": mu}),
        "kernel_series": (kernel_series(w, group, xi, z, radius, ball=ball), cols, {"xi": xi}),
        "poincare_F": (poincare_F(MatrixCoefficientSpec(mu, w), group, g, radius, ball=ball),
                       g.g @ np.vstack([1j * np.eye(n), np.eye(n)]), {"mu": mu}),
    }


def _every_term(w, ball, cols, kw):
    """The oracle's terms: one per element of the ball, every k g as well as g."""
    return pole_terms(w, ball.elements.astype(np.float64), cols, **kw)[:, 0]


_FULL_BALL_CASES = [   # (n, radius at N = 1, 2, 3, m, mu); None is the default mu
    (1, (20.0, 20.0, 20.0), 12, None),
    (1, (20.0, 20.0, 20.0), 12, "X_{1,1} + X_{1,1}^2"),   # at N = 1, mu' = 4 X_{1,1}^2
    (2, (3.5, 6.0, 8.0), 12, None),
    (2, (3.5, 6.0, 8.0), 8, "det^2 + 3*X_{1,2}"),        # the X_{1,2} part cancels
]


@pytest.mark.parametrize("n, N, radius, m, mu_text", [
    pytest.param(n, N, radii[N - 1], m, mu_text,
                 id=f"g{n}{'' if mu_text is None else f'-m{m}-mu'}-N{N}")
    for n, radii, m, mu_text in _FULL_BALL_CASES for N in (1, 2, 3)])
def test_series_equal_the_full_ball_sum(n, N, radius, m, mu_text):
    # a weight-vector series evaluates one element per orbit with mu', and a
    # kernel series one of each pair +-g; the oracle evaluates every element
    # with mu and sums the terms exactly.  Each term is rounded to about m
    # ulps (its power is formed by m-fold products).  With the default mu the
    # terms of an orbit agree and the bound is 1e-13 relative.  Where they
    # cancel (the mu cases), the oracle is no closer than m ulps of the sum
    # of |terms| to the true sum: at g1-m12-mu-N1 both it and the series are
    # 1.3-1.6e-13 from a 40-digit sum, so those cases allow that much more
    ball = enumerate_ball(CongruenceGroup(n, N), radius)
    w = Weight(m, n)
    rng = np.random.default_rng(80 + N)
    for name, (res, cols, kw) in _three_series(w, ball, rng, mu_text).items():
        terms = _every_term(w, ball, cols, kw)
        want = complex(math.fsum(terms.real), math.fsum(terms.imag))
        rounding = 0 if mu_text is None else w.m * np.finfo(float).eps * np.sum(np.abs(terms))
        assert res.terms == len(ball)
        assert abs(res.value - want) <= 1e-13 * abs(want) + rounding, name


def test_mu_prime_drops_the_cancelling_part():
    # the two examples of the full-ball test above, as polynomials
    g1 = sp.parse_polynomial("X_{1,1} + X_{1,1}^2", 1)
    assert g1.orbit_sum(CongruenceGroup(1, 1).k_units(), 12) == 4 * sp.parse_polynomial(
        "X_{1,1}^2", 1)
    g2 = sp.parse_polynomial("det^2 + 3*X_{1,2}", 2)
    symmetric = np.eye(2)[None]          # the identity alone: X_{2,1} read as X_{1,2}
    det2 = MatrixPolynomial.det_power(2, 2).orbit_sum(symmetric, 0)
    for N, order in ((1, 32), (2, 4)):
        assert g2.orbit_sum(CongruenceGroup(2, N).k_units(), 8) == order * det2


@pytest.mark.parametrize("N", [1, 2])
def test_series_of_odd_mn_vanish_exactly(N):
    # the terms of g and -g cancel when mn is odd: the value is an exact 0,
    # while every group element is still counted
    ball = enumerate_ball(CongruenceGroup(1, N), 20.0)
    w = Weight(13, 1)
    for name, (res, cols, kw) in _three_series(w, ball, np.random.default_rng(90 + N)).items():
        terms = _every_term(w, ball, cols, kw)
        assert res.value == 0 and res.tail_estimate == 0, name
        assert res.terms == len(ball)
        assert abs(terms.sum()) <= 1e-13 * np.sum(np.abs(terms)), name
    evaluate = sp.series_evaluator_genus1(w, ball, mu=MatrixPolynomial.one(1))
    assert np.array_equal(evaluate(np.array([1j, 0.3 + 0.8j])), np.zeros(2))


def test_series_of_a_vanishing_mu_prime_are_exactly_zero(monkeypatch):
    # mu' = 0 with mn even at level 1: X_{1,1} at m = 12, and 1 + X_{1,1}^2
    # at m = 14; nothing is evaluated, while the terms over the ball only
    # nearly cancel
    ball = enumerate_ball(CongruenceGroup(1, 1), 20.0)
    z = SiegelPoint.from_complex(np.array([[0.3 + 1.1j]]))
    for mu, w in ((MatrixPolynomial.coordinate(1, 1, 1), Weight(12, 1)),
                  (sp.parse_polynomial("1 + X_{1,1}^2", 1), Weight(14, 1))):
        cols = np.vstack([z.z, np.eye(1)])
        terms = _every_term(w, ball, cols, {"mu": mu})
        assert 0 < abs(terms.sum()) <= 1e-13 * np.sum(np.abs(terms))
        with monkeypatch.context() as patch:
            patch.setattr(sp.poincare, "pole_terms", None)      # any call would fail
            res = poincare_f(mu, w, ball.group, z, 20.0, ball=ball)
        assert res.value == 0 and res.tail_estimate == 0 and res.terms == len(ball)


def _blockwise(w, ball, cols, kw, turns=((None, 1),)):
    """The orbit rule written out: for each (k, factor) of ``turns`` the
    terms of k g over the representatives g (of g when k is None), in ball
    order, summed in blocks of _BLOCK term-points, then weighted by the
    factor."""
    step = max(sp.poincare._BLOCK // (cols.shape[1] // w.n), 1)
    sums = np.zeros((len(turns), cols.shape[1] // w.n), dtype=np.complex128)
    for k0 in range(0, len(ball.representatives), step):
        block = ball.representatives[k0:k0 + step].astype(np.float64)
        for total, (k, _) in zip(sums, turns):
            total += pole_terms(w, block if k is None else k @ block, cols, **kw).sum(axis=0)
    out = np.zeros(cols.shape[1] // w.n, dtype=np.complex128)
    for total, (_, factor) in zip(sums, turns):
        out += factor * total
    return out


def _unfolded(group):
    """One (k, factor) per element k in K modulo +-I: the element whose
    nonzero entry in row 0 is 1, weighted by the order of +-I."""
    ks = group.k_intersection()
    return [(k.astype(np.float64), group.epsilon()) for k in ks
            if group.epsilon() == 1 or k[0].sum() == 1]


@pytest.mark.parametrize("n, radius", [(1, 40.0), (2, 10.0)])
def test_series_at_level_3_keep_their_bits(n, radius):
    # only I is in K at level 3, so every element is still evaluated, in
    # the same blocks and order: values equal the plain blockwise sum exactly
    ball = enumerate_ball(CongruenceGroup(n, 3), radius)
    w = Weight(12, n)
    for name, (res, cols, kw) in _three_series(w, ball, np.random.default_rng(95 + n)).items():
        inner, shell = (_blockwise(w, part, cols, kw)[0] for part in ball.split(radius / 2))
        assert res.value == complex(inner + shell), name
    if n == 1:        # many points, so the ball spans several blocks
        zs = 0.2 * np.arange(-600, 600) / 600 + 1.1j
        kw = {"mu": sp.parse_polynomial("1 + X_{1,1}^2", 1)}
        got = sp.series_evaluator_genus1(w, ball, **kw)(zs)
        assert np.array_equal(got, _blockwise(w, ball, np.vstack([zs, np.ones(len(zs))]), kw))


@pytest.mark.parametrize("n, N, radius", [(1, 1, 40.0), (1, 2, 40.0), (2, 1, 4.0),
                                          (2, 2, 6.0)])
def test_kernel_series_keep_their_bits(n, N, radius):
    # at a xi that no element of K but +-I fixes, the kernel sums the terms
    # of k g over the representatives g for one k of each pair +-k, doubled,
    # in the same blocks and order as the other series
    ball = enumerate_ball(CongruenceGroup(n, N), radius)
    w = Weight(12, n)
    rng = np.random.default_rng(97 + N)
    z, xi = random_point(n, rng), random_point(n, rng)
    res = kernel_series(w, ball.group, xi, z, radius, ball=ball)
    cols, kw, turns = np.vstack([z.z, np.eye(n)]), {"xi": xi}, _unfolded(ball.group)
    assert len(turns) == len(ball.group.k_intersection()) // 2
    inner, shell = (_blockwise(w, part, cols, kw, turns)[0]
                    for part in ball.split(radius / 2))
    assert res.value == complex(inner + shell)
    if n == 1:
        zs = 0.2 * np.arange(-600, 600) / 600 + 1.1j
        got = sp.series_evaluator_genus1(w, ball, **kw)(zs)
        want = _blockwise(w, ball, np.vstack([zs, np.ones(len(zs))]), kw, turns)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, N, radius", [(1, 1, 20.0), (1, 2, 20.0), (1, 3, 20.0),
                                          (2, 1, 3.0), (2, 2, 6.0)])
def test_kernel_series_equal_the_elementwise_fsum(monkeypatch, n, N, radius):
    # brute force at a generic xi: one pole_terms call per element of the
    # expanded ball, summed exactly.  Each term is rounded to about m ulps,
    # so both sums are held to that much of the sum of |terms|; dropping
    # the turn of one k from the orbit rule misses that far and more
    group = CongruenceGroup(n, N)
    ball = enumerate_ball(group, radius)
    w = Weight(12, n)
    rng = np.random.default_rng(70 + 10 * n + N)
    z, xi = random_point(n, rng), random_point(n, rng)
    cols = np.vstack([z.z, np.eye(n)])
    terms = np.array([pole_terms(w, g[None].astype(np.float64), cols, xi=xi)[0, 0]
                      for g in ball.elements])
    want = complex(math.fsum(terms.real), math.fsum(terms.imag))
    bound = w.m * np.finfo(float).eps * np.sum(np.abs(terms))
    res = kernel_series(w, group, xi, z, radius, ball=ball)
    assert res.terms == len(ball)
    assert abs(res.value - want) <= bound
    rule = sp.poincare._orbit_rule

    def without_the_last_eta(*args, **kwargs):
        mu, x, turns = rule(*args, **kwargs)
        return mu, x, turns[:-1]

    monkeypatch.setattr(sp.poincare, "_orbit_rule", without_the_last_eta)
    dropped = kernel_series(w, group, xi, z, radius, ball=ball)
    assert abs(dropped.value - want) > bound


@pytest.mark.parametrize("n, radius, terms", [(1, 40.0, 2365), (2, 4.0, 3525)])
def test_kernel_at_a_point_fixed_by_k_folds(monkeypatch, n, radius, terms):
    # xi = iI is fixed by every element of K, so all its eta_k are iI and
    # their factors are added before one evaluation: the representatives
    # alone are evaluated, a fourth and a 32nd of the ball at level 1, where
    # one of each pair +-g was.  The value is the unfolded orbit sum's
    group = CongruenceGroup(n, 1)
    ball = enumerate_ball(group, radius)
    w = Weight(12, n)
    xi = SiegelPoint.center(n)
    z = random_point(n, np.random.default_rng(60 + n))
    evaluate, rows = sp.poincare.pole_terms, []

    def counted(weight, g, cols, mu=None, xi=None):
        rows.append(len(g))
        return evaluate(weight, g, cols, mu, xi)

    monkeypatch.setattr(sp.poincare, "pole_terms", counted)
    res = kernel_series(w, group, xi, z, radius, ball=ball)
    assert sum(rows) == len(ball.representatives) == terms
    assert res.terms == len(ball) == len(group.k_intersection()) * terms
    monkeypatch.undo()
    cols = np.vstack([z.z, np.eye(n)])
    unfolded = sum(_blockwise(w, part, cols, {"xi": xi}, _unfolded(group))[0]
                   for part in ball.split(radius / 2))
    assert len(_unfolded(group)) * terms == len(ball) // 2
    assert abs(res.value - unfolded) <= 1e-14 * abs(unfolded)


# Every series value of the parametrizations above as the summation over all
# group elements gave it, before the balls kept one element per orbit: the
# weight-vector series evaluated the marked elements among them, the kernel
# one of each pair +-g.  Keyed by case and series.
_WHOLE_BALL_VALUES = {
    "full:g1-N1:poincare_f": complex(15.394346414152642, -13.255917664507992),
    "full:g1-N1:kernel_series": complex(219.66982608682287, -314.66075181905956),
    "full:g1-N1:poincare_F": complex(0.00037524698487861695, -0.023285661248443525),
    "full:g1-N2:poincare_f": complex(0.03718243700462352, -0.0036960924623602328),
    "full:g1-N2:kernel_series": complex(-0.07665244050208131, -0.12084608972381684),
    "full:g1-N2:poincare_F": complex(-0.1766071266957586, 1.689670388113048),
    "full:g1-N3:poincare_f": complex(-82.31080892540129, 31.768639595476255),
    "full:g1-N3:kernel_series": complex(87079.75115397961, 84756.59457636802),
    "full:g1-N3:poincare_F": complex(-0.6248845467009575, -0.09139553293100908),
    "full:g1-m12-mu-N1:poincare_f": complex(-2.1551029595095046, 1.8557375951839497),
    "full:g1-m12-mu-N1:kernel_series": complex(219.66982608682287, -314.66075181905956),
    "full:g1-m12-mu-N1:poincare_F": complex(-5.2538673604679215e-05, 0.003259815632702095),
    "full:g1-m12-mu-N2:poincare_f": complex(-0.13673704776388818, 0.0023599161280648353),
    "full:g1-m12-mu-N2:kernel_series": complex(-0.07665244050208131, -0.12084608972381684),
    "full:g1-m12-mu-N2:poincare_F": complex(-0.13505969980799998, -0.13348997400190243),
    "full:g1-m12-mu-N3:poincare_f": complex(28.668479102427053, -14.024911630964704),
    "full:g1-m12-mu-N3:kernel_series": complex(87079.75115397961, 84756.59457636802),
    "full:g1-m12-mu-N3:poincare_F": complex(-0.18058950818631986, -0.09167155969524385),
    "full:g2-N1:poincare_f": complex(9.188522873409952e-05, -0.00101540882933979),
    "full:g2-N1:kernel_series": complex(-6.471867299413011e-05, 2.9798736966956253e-06),
    "full:g2-N1:poincare_F": complex(0.42292746289807037, -0.41627791256104285),
    "full:g2-N2:poincare_f": complex(0.0003050955977323941, -0.0002863173077202071),
    "full:g2-N2:kernel_series": complex(0.0007590231323126131, 0.0013421914735478402),
    "full:g2-N2:poincare_F": complex(-0.0049294946456450075, 0.002184386264524914),
    "full:g2-N3:poincare_f": complex(-0.01961495093999167, 0.004611301507746284),
    "full:g2-N3:kernel_series": complex(-0.23151105049035964, -2.1498153998095106),
    "full:g2-N3:poincare_F": complex(-0.02889558060148526, 0.00400649625786031),
    "full:g2-m8-mu-N1:poincare_f": complex(0.004161157886164658, -0.002342414725237892),
    "full:g2-m8-mu-N1:kernel_series": complex(-8.63911539920588e-05, 0.00023930520993204537),
    "full:g2-m8-mu-N1:poincare_F": complex(-0.22350768934359938, -0.301776551330964),
    "full:g2-m8-mu-N2:poincare_f": complex(-0.003869358112985147, 0.0029362410551465705),
    "full:g2-m8-mu-N2:kernel_series": complex(0.0018474765687445092, 0.004132351477137725),
    "full:g2-m8-mu-N2:poincare_F": complex(0.0007392283994766512, 0.001696370921573244),
    "full:g2-m8-mu-N3:poincare_f": complex(0.011604107203029929, -0.07123078123581228),
    "full:g2-m8-mu-N3:kernel_series": complex(0.28033226107766973, -0.3024638483955733),
    "full:g2-m8-mu-N3:poincare_F": complex(-0.07297111613284883, -0.056694978614281716),
    "kernel:1-1-40.0": complex(0.08905268177028762, -0.37020906518310365),
    "kernel:1-2-40.0": complex(3628.1296499410305, -479.7826500745783),
    "kernel:2-1-4.0": complex(-63.57767539964024, -59.59981046659789),
    "kernel:2-2-6.0": complex(-4.90912898311093e-09, -1.0362024185755415e-08),
}
# series_evaluator_genus1 of the kernel cases (1, N, 40.0) at zs[::100]
_WHOLE_BALL_EVALUATOR = {
    1: [complex(-6.3844622539506695, -21.3922353534505),
        complex(-1.8338527317186168, -22.146877160677064),
        complex(2.735016135691357, -21.96303589041758),
        complex(7.139822270378959, -20.870981953104604),
        complex(11.212722318818424, -18.931751320028003),
        complex(14.803501396641057, -16.232403274361378),
        complex(17.781528784720138, -12.881953812649455),
        complex(20.03715724909823, -9.008157360805404),
        complex(21.483161137456737, -4.755011817537784),
        complex(22.056658976097385, -0.28061459758709056),
        complex(21.72173546216273, 4.245169878719698),
        complex(20.472696156535154, 8.643835716586663)],
    2: [complex(0.1704371587684064, -6.410553315813458),
        complex(1.6511577075186847, -6.392421212011891),
        complex(3.1287793265605823, -6.0022111147582535),
        complex(4.501150260222498, -5.2414265915319485),
        complex(5.667335938421297, -4.142276405827254),
        complex(6.537662768785559, -2.76673940885227),
        complex(7.043119156929851, -1.202107589724897),
        complex(7.142818338148318, 0.44658633606712295),
        complex(6.828469415346375, 2.0663634890859015),
        complex(6.125226179351231, 3.5470723018843873),
        complex(5.088813712943891, 4.791749058576663),
        complex(3.7993759821556914, 5.725252483642128)],
}
# the 30-digit sum (mpmath) of the terms of kernel:2-2-6.0, over C_{m,n}
_KERNEL_2_2_EXACT = complex(-4.909128983111379e-09, -1.0362024185756947e-08)


def test_series_keep_the_whole_ball_values():
    # within 1e-14 relative, all but one: the terms of kernel:2-2-6.0 cancel
    # to 1/436 of the sum of |terms|, so the whole-ball value is itself
    # 1.4e-13 from their exact sum, and a value must be no farther from it
    got = {}
    for n, radii, m, mu_text in _FULL_BALL_CASES:
        for N in (1, 2, 3):
            ball = enumerate_ball(CongruenceGroup(n, N), radii[N - 1])
            key = f"full:g{n}{'' if mu_text is None else f'-m{m}-mu'}-N{N}"
            series = _three_series(Weight(m, n), ball, np.random.default_rng(80 + N), mu_text)
            got.update({f"{key}:{name}": res.value for name, (res, _, _) in series.items()})
    for n, N, radius in [(1, 1, 40.0), (1, 2, 40.0), (2, 1, 4.0), (2, 2, 6.0)]:
        ball = enumerate_ball(CongruenceGroup(n, N), radius)
        w, rng = Weight(12, n), np.random.default_rng(97 + N)
        z, xi = random_point(n, rng), random_point(n, rng)
        got[f"kernel:{n}-{N}-{radius}"] = kernel_series(w, ball.group, xi, z, radius,
                                                        ball=ball).value
        if n == 1:
            zs = (0.2 * np.arange(-600, 600) / 600 + 1.1j)[::100]
            want = np.array(_WHOLE_BALL_EVALUATOR[N])
            value = sp.series_evaluator_genus1(w, ball, xi=xi)(zs)
            assert np.all(np.abs(value - want) <= 1e-14 * np.abs(want)), (n, N)
    assert got.keys() == _WHOLE_BALL_VALUES.keys()
    for key, want in _WHOLE_BALL_VALUES.items():
        if key != "kernel:2-2-6.0":
            assert abs(got[key] - want) <= 1e-14 * abs(want), key
    exact, whole = _KERNEL_2_2_EXACT, _WHOLE_BALL_VALUES["kernel:2-2-6.0"]
    assert abs(got["kernel:2-2-6.0"] - exact) <= abs(whole - exact)


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
