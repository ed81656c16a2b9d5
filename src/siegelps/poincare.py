"""Integer symplectic balls and truncated averages over congruence subgroups.

Enumeration is exact and the same at every genus.  The translations
[[I, N S], [0, I]] (S symmetric) act on the left of the group, and each coset
is fixed by its bottom half M = [C D], so a ball is enumerated in three
stages:

1. sweep the bottom halves: M = [0 I] (mod N) with pairwise J-orthogonal
   rows and |M|^2 <= r^2 - n, built row by row from norm-sorted tables;
2. complete each coset once: integer Euclid on J M^T gives T with
   T J M^T = I exactly when M is primitive, then T += triu(T J T^T, 1) M makes
   [T; M] symplectic and a symmetric shift makes T = [I 0] (mod N);
3. enumerate the symmetric S with |T + N S M|^2 <= r^2 - |M|^2 by
   Fincke-Pohst over the n(n+1)/2 entries of S, then filter norms exactly.

No step branches on the genus; genus 3 and above are refused until an
independent oracle can check them.

Stages 2 and 3 run over blocks of cosets.  The ``budget`` of
``enumerate_ball`` caps the size of stage 1, estimated before any work; the
series take none, so to bound one, enumerate its ball and pass it.
Elements are stored in a canonical order (norm, then entries) so that sums
are reproducible; the order and the ball check read one integer key per
element, ``_entry_forms``.

A ball holds the elements of squared norm at most its cap floor(r^2), so
radii with the same cap have the same elements: a supplied ball fits any
radius whose cap is no larger, and is restricted to it.  Every radius,
enumerated, loaded, split or fitted, goes through that cap, which refuses
one that is not positive and finite.  Every ``EnumerationBall`` is checked
once, when it is made, in one pass that also marks one element of each
orbit under left multiplication by the group's elements in K: int64
elements of its group, within its cap and in canonical order, and each run
of whole shells rebuilt exactly by the orbits of its marked elements.
Membership tests g^T J g = J on column pairs, as numpy's batched small
products have no BLAS path, and N = 1 has no congruence test, which every
integer matrix passes.  The views from ``restrict`` and ``split`` cut by
norm, so they keep that check and its marks, and no series or cache hit
repeats it.  On Sp(2n, R), |g|^2 >= 2n with equality exactly on the compact
subgroup K, so the group's elements in K are the ball of cap 2n.

The series sum over orbits of the group's elements in K.  Each such k is
(X Y; -Y X) with u = X + iY unitary: a monomial matrix with entries in
{+-1, +-i} at level N = 1 (order 4 at genus 1, 32 at genus 2), a diagonal
sign matrix at N = 2 (orders 2 and 4) and I from N = 3 on.  As |kg| = |g|,
a checked ball is a union of left orbits, each with one element per k.  In
the complex rows rho = (A + iC | B + iD) of g = (A B; C D), the pole rows of
its terms, k acts as rho -> conj(u) rho, so the weight-vector term of kg is
det(u)^m mu(u W u^T) times the term's other factors, W = Q P^{-1}.  The
weight-vector and group-side series therefore evaluate one element per
orbit with mu' = sum_k det(u)^m mu(u W u^T) in place of mu
(``MatrixPolynomial.orbit_sum``), and are exactly 0 when mu' is.  The
kernel term of kg is the kernel at k^{-1} xi, not a multiple of the kernel
at xi, so the kernel series keeps only the centre: at N <= 2 the term of -g
is (-1)^{mn} times the term of g, so it evaluates one of each pair +-g,
doubles the sum and is exactly 0 when mn is odd.
``TruncatedSeriesResult.terms`` still counts group elements.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .discrete_series import MatrixCoefficientSpec, Weight, pole_terms
from .errors import BudgetError, DimensionError, DomainError
from .matrixio import require_genus, require_integer
from .polynomials import MatrixPolynomial
from .symplectic import (
    SiegelPoint,
    SymplecticMatrix,
    _embed,
    embed_unitary,
    haar_unitary,
    hyperbolic,
    j_matrix,
)

ENUMERATION_BUDGET = 2 * 10 ** 9   # bottom-half candidates a ball may sweep
_PRODUCT_ROUNDING = 32 * float(np.finfo(float).eps)   # of a sampled product's norm


@dataclass(frozen=True)
class CongruenceGroup:
    """Integer symplectic matrices congruent to the identity mod N."""

    n: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "n", require_integer(self.n, "genus"))
        object.__setattr__(self, "N", require_integer(self.N, "level"))
        if self.n < 1 or self.N < 1:
            raise DomainError("genus and level must be positive integers")

    def epsilon(self) -> int:
        """Order of the central subgroup {+-I} inside the group."""
        return 2 if self.N <= 2 else 1

    def contains(self, mat) -> bool:
        """Whether one matrix is in the group, in exact integer arithmetic
        (Python ints), so entries of any size are decided correctly."""
        arr = np.asarray(mat)
        if arr.shape != (2 * self.n, 2 * self.n):
            return False
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(np.isfinite(arr) & (arr == np.round(arr))):
                return False
        return all(_membership(np.frompyfunc(int, 1, 1)(arr)[None], self.N))

    def k_intersection(self) -> np.ndarray:
        """All elements lying in the compact subgroup, as integer matrices:
        the ball of squared norm 2n, canonically ordered."""
        return enumerate_ball(self, math.sqrt(2 * self.n)).elements

    def k_units(self) -> np.ndarray:
        """The same elements k = (X Y; -Y X), in the same order, as the
        unitary u = X + iY, stacked (k, n, n): every monomial matrix with
        entries in {+-1, +-i} at N = 1, the diagonal sign matrices at N = 2,
        and I alone from N = 3 on.  They are built from that set, without
        enumerating; the ball check rebuilds each run from the orbits of its
        marked elements under them.  Read-only."""
        return _k_units(self)


def _k_matrix(u: np.ndarray) -> np.ndarray:
    """The integer k = (X Y; -Y X) of a unitary u = X + iY, or of a stack."""
    return _embed(u).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _k_units(group: CongruenceGroup) -> np.ndarray:
    n, N = group.n, group.N
    eye = np.eye(n)
    rows = itertools.permutations(eye) if N == 1 else [eye]
    signs = {1: (1, 1j, -1, -1j), 2: (1, -1)}.get(N, (1,))
    u = np.array([np.array(sign)[:, None] * np.array(p)
                  for p in rows for sign in itertools.product(signs, repeat=n)])
    k = _canonical_order(_k_matrix(u))
    out = k[:, :n, :n] + 1j * k[:, :n, n:]
    out.setflags(write=False)
    return out


def _membership(stack: np.ndarray, N: int) -> tuple[bool, bool]:
    """For an integer stack (k, 2n, 2n), int64 or of Python ints: whether
    every matrix is symplectic, g^T J g = J, and whether every one is
    congruent to I mod N.  As g^T J g is antisymmetric, only its entries
    i < j are tested, sum_{r<n} c_i[r] c_j[n+r] - c_i[n+r] c_j[r] on columns
    c of a (column, row, element) copy; mod 1 every integer matrix passes."""
    n = stack.shape[-1] // 2
    c = np.ascontiguousarray(stack.transpose(2, 1, 0))
    symplectic = all(np.all(sum(c[i, r] * c[j, n + r] - c[i, n + r] * c[j, r]
                                for r in range(n)) == (j == i + n))
                     for i, j in itertools.combinations(range(2 * n), 2))
    return symplectic, N == 1 or bool(np.all((stack - np.eye(2 * n, dtype=np.int64)) % N == 0))


def _entry_forms(shape: tuple, max_norm: int) -> np.ndarray:
    """The int64 forms (c, size) whose products with a flattened element of
    squared norm at most ``max_norm`` are its c keys: its entries, row-major,
    as mixed-radix digits, most significant first, split so that no key
    overflows.  No row of a symplectic matrix is zero, so an entry's square
    is at most the norm less 2n - 1; the digits are balanced, within
    (base - 1) / 2, so the keys compare as the entries do, in turn."""
    size = math.prod(shape)
    base = 2 * math.isqrt(max(max_norm - shape[0] + 1, 0)) + 1
    per = max(p for p in range(1, size + 1) if base ** p // 2 < 2 ** 63)   # digits per key
    digit = np.arange(size)
    forms = np.zeros((-(-size // per), size), np.int64)
    forms[digit // per, digit] = base ** (per - 1 - digit % per)
    return forms


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """The squared norms of an integer stack's elements, as row dot products
    of the flattened stack; the explicit width keeps an empty stack's shape."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return np.einsum("ij,ij->i", flat, flat)


def _order_keys(arr: np.ndarray) -> list[np.ndarray]:
    """The keys of the canonical order, most significant first: the squared
    norm, then the entry keys of ``_entry_forms``."""
    flat = arr.reshape(len(arr), math.prod(arr.shape[1:]))
    norms = _squared_norms(arr)
    return [norms, *(flat @ _entry_forms(arr.shape[1:], int(norms.max(initial=0))).T).T]


def _canonical_order(arr: np.ndarray) -> np.ndarray:
    """Sort by norm then entries; the summation order contract."""
    return np.ascontiguousarray(arr[np.lexsort(_order_keys(arr)[::-1])])


def _norm_cap(radius: float) -> int:
    """The largest squared norm in the ball of radius r: floor(r^2), allowing
    1e-9 for a radius given as the root of an integer.  Radii with the same
    cap have the same elements.  Every radius passes through here, and one
    that is not positive with a finite square is refused."""
    if not (radius > 0 and math.isfinite(radius * radius)):
        raise DomainError(f"radius {radius} must be positive with a finite square")
    return int(math.floor(radius * radius + 1e-9))


@dataclass(frozen=True)
class EnumerationBall:
    """All group elements with Frobenius norm at most ``radius``, in canonical
    order; a shell from ``split`` holds only those outside its inner radius.

    Making one checks the elements, an int64 array (k, 2n, 2n) of symplectic
    matrices congruent to I mod N, none past the radius's cap, in canonical
    order, and marks one element of each orbit {kg} over the group's
    elements k in K, in one pass (``_validate_ball``) that proves the marks:
    the orbits of the marked elements must rebuild each run of whole shells
    exactly.  The weight-vector series evaluate only the marked elements,
    ``representatives`` (None from N = 3 on, where only I is in K): at N = 1
    each complex row of rho = (A + iC | B + iD) has its first nonzero entry
    in {re > 0, im >= 0} and the rows increase (lexicographically in re, im
    of each entry); at N = 2 each row's first nonzero entry has re > 0, or
    re = 0 and im > 0.  ``restrict`` and ``split`` return views that keep the
    check and slice the marks: they cut between norms, and k keeps the
    norm."""

    group: CongruenceGroup
    radius: float
    elements: np.ndarray
    representatives: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.elements).view()   # no copy; the caller's flag stays
        n2 = 2 * self.group.n
        if arr.dtype != np.int64 or arr.shape[1:] != (n2, n2):
            raise DomainError(f"ball elements must be an int64 array of shape "
                              f"(k, {n2}, {n2}), got {arr.dtype} {arr.shape}")
        marks = _validate_ball(self.group, self.radius, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "representatives", marks)

    def _view(self, radius: float, cut: slice) -> "EnumerationBall":
        """A ball of a prefix or suffix of these elements.  It keeps the
        contract this ball was checked for, so the check does not run again."""
        view = object.__new__(EnumerationBall)
        keep = self.representatives
        view.__dict__.update(group=self.group, radius=float(radius),
                             elements=self.elements[cut],
                             representatives=None if keep is None else keep[cut])
        return view

    def __len__(self) -> int:
        return self.elements.shape[0]

    def norms_squared(self) -> np.ndarray:
        return _squared_norms(self.elements)

    def restrict(self, radius: float) -> "EnumerationBall":
        """The ball of ``radius``: a view of the prefix within its cap, found
        by binary search over the elements sorted by norm."""
        cap = _norm_cap(radius)
        if cap > _norm_cap(self.radius):
            raise DomainError(f"a ball of radius {self.radius} does not reach "
                              f"radius {radius}")
        k = bisect.bisect_right(self.elements, cap, key=lambda g: int(np.sum(g * g)))
        return self._view(radius, slice(k))

    def split(self, radius: float) -> tuple["EnumerationBall", "EnumerationBall"]:
        """Views of the ball of ``radius`` and of the shell of the other
        elements, which keeps this radius; this ball's sum is theirs."""
        inner = self.restrict(radius)
        return inner, self._view(self.radius, slice(len(inner), None))


# Candidate pairs per block of the bottom-half sweep, and cosets per block of
# the completion and the S search; the ball check takes _COSETS rows at a time
# too.
_PAIRS = 1 << 20
_COSETS = 1 << 14


def _bottom_halves(n: int, N: int, r2: int) -> np.ndarray:
    """Every M = [C D] = [0 I] (mod N) with nonzero, pairwise J-orthogonal rows
    and |M|^2 <= r2 - n, grown row by row from norm-sorted candidate tables."""
    J = j_matrix(n).astype(np.int64)
    cap = r2 - n                         # the top half has norm at least n
    lim = math.isqrt(cap - n + 1)        # the other rows have norm at least 1
    M = np.zeros((1, 0, 2 * n), np.int64)
    for i in range(n):
        row_cap = cap - (n - 1 - i)
        axes = [np.arange(-((lim + e) // N), (lim - e) // N + 1) * N + e
                for e in np.eye(2 * n, dtype=np.int64)[n + i]]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2 * n)
        norms = _squared_norms(grid)
        keep = np.flatnonzero((norms >= 1) & (norms <= row_cap))
        keep = keep[np.argsort(norms[keep], kind="stable")]
        table, tnorms = grid[keep], norms[keep]
        rows, step = [], max(_PAIRS // max(len(table), 1), 1)
        for b0 in range(0, len(M), step):
            part = M[b0:b0 + step]
            u = _squared_norms(part)
            k = int(np.searchsorted(tnorms, row_cap - u.min(), side="right"))
            ok = u[:, None] + tnorms[None, :k] <= row_cap
            ok &= np.all((part @ J) @ table[:k].T == 0, axis=1)
            p, q = np.nonzero(ok)
            rows.append(np.concatenate([part[p], table[q, None]], axis=1))
        M = np.concatenate(rows)
    return M


def _coset_elements(M: np.ndarray, N: int, r2: int) -> np.ndarray:
    """The elements [T + N S M; M] of norm^2 <= r2 over primitive bottom halves M."""
    n = M.shape[1]
    J = j_matrix(n).astype(np.int64)
    # Euclid on the columns of [J M^T | I]: U J M^T = [H; 0] with H triangular
    A = np.concatenate([J @ np.swapaxes(M, 1, 2),
                        np.broadcast_to(np.eye(2 * n, dtype=np.int64), (len(M), 2 * n, 2 * n))],
                       axis=2)
    at = np.arange(len(M))
    for j in range(n):
        while np.any(A[:, j + 1:, j]):
            col = np.abs(A[:, j:, j])
            p = j + np.argmin(np.where(col > 0, col, np.iinfo(np.int64).max), axis=1)
            A[at, j], A[at, p] = A[at, p], A[at, j]
            piv = A[:, j, j]
            q = A[:, j + 1:, j] // np.where(piv == 0, 1, piv)[:, None]
            A[:, j + 1:] -= q[:, :, None] * A[:, None, j]
    # M is primitive exactly when H is unimodular; row operations make H = I
    diag = np.diagonal(A[:, :n, :n], axis1=1, axis2=2)
    prim = np.all(np.abs(diag) == 1, axis=1)
    A, M = A[prim], M[prim]
    A[:, :n] *= diag[prim][:, :, None]
    for j in range(n - 1, 0, -1):
        A[:, :j] -= A[:, :j, j, None] * A[:, None, j]
    T = A[:, :n, n:]                                   # T J M^T = I
    T += np.triu(T @ J @ np.swapaxes(T, 1, 2), 1) @ M  # T J T^T = 0
    B = T[:, :, n:] % N
    T -= (np.triu(B) + np.swapaxes(np.triu(B, 1), 1, 2)) @ M   # T = [I 0] (mod N)
    # Fincke-Pohst over the symmetric S: |T + N S M|^2 = |t + s b|^2
    pairs = [(a, c) for a in range(n) for c in range(a, n)]
    E = np.zeros((len(pairs), n, n), np.int64)
    for k, (a, c) in enumerate(pairs):
        E[k, a, c] = E[k, c, a] = 1
    b = (N * (E @ M[:, None])).reshape(len(M), len(E), 2 * n * n).astype(np.float64)
    t = T.reshape(len(M), 2 * n * n).astype(np.float64)
    Q = b @ np.swapaxes(b, 1, 2)
    center = -np.linalg.solve(Q, (b @ t[:, :, None]))[:, :, 0]
    R = np.swapaxes(np.linalg.cholesky(Q), 1, 2)
    closest = t + np.einsum("zk,zkf->zf", center, b)
    # rounding slack: the intervals may only widen, the exact filter below
    # drops what they let through
    rho = r2 - _squared_norms(M) - np.sum(closest * closest, axis=1) + 1e-6 * r2
    z, s = np.arange(len(M)), np.zeros((len(M), len(E)), np.int64)
    for i in range(len(E) - 1, -1, -1):
        rii = R[z, i, i]
        mid = center[z, i] - np.sum(R[z, i, i + 1:] * (s[:, i + 1:] - center[z, i + 1:]),
                                    axis=1) / rii
        half = np.sqrt(np.maximum(rho, 0.0)) / rii
        lo = np.ceil(mid - half - 1e-9).astype(np.int64)
        count = np.maximum(np.floor(mid + half + 1e-9).astype(np.int64) - lo + 1, 0)
        node = np.repeat(np.arange(len(z)), count)
        z, s, rho, mid = z[node], s[node], rho[node], mid[node]
        s[:, i] = lo[node] + np.arange(len(node)) - np.repeat(np.cumsum(count) - count, count)
        rho = rho - (rii[node] * (s[:, i] - mid)) ** 2
    S = (s @ E.reshape(len(E), -1)).reshape(-1, n, n)
    out = np.concatenate([T[z] + N * (S @ M[z]), M[z]], axis=1)
    return out[_squared_norms(out) <= r2]


def enumerate_ball(group: CongruenceGroup, radius: float,
                   budget: int = ENUMERATION_BUDGET) -> EnumerationBall:
    """Every group element of Frobenius norm <= radius, canonically ordered.

    ``budget`` caps the bottom-half sweep, counted before any work as the
    volume estimate of its candidates; past it, BudgetError names the
    largest radius that fits.
    """
    r2 = _norm_cap(radius)
    n, N = group.n, group.N
    if n > 2:
        raise DimensionError("exact enumeration is implemented for genus 1 and 2")
    arr = np.zeros((0, 2 * n, 2 * n), np.int64)
    if r2 >= 2 * n:                      # |T|^2, |M|^2 >= n each
        d = 2 * n * n                    # lattice points of norm <= r2 - n in Z^d
        log_size = d / 2 * math.log(math.pi * (r2 - n) / N ** 2) - math.lgamma(d / 2 + 1)
        log_budget = math.log(max(budget, 1))
        if log_size > log_budget:
            fit = N ** 2 / math.pi * math.exp((log_budget + math.lgamma(d / 2 + 1)) * 2 / d)
            raise BudgetError(
                f"the bottom-half sweep has about 10^{log_size / math.log(10):.1f} "
                f"candidates, over the budget {budget}",
                feasible_radius=math.sqrt(n + int(fit * (1 - 1e-12))))
        M = _bottom_halves(n, N, r2)
        arr = _canonical_order(np.concatenate([_coset_elements(M[k:k + _COSETS], N, r2)
                                               for k in range(0, len(M), _COSETS)]))
    return EnumerationBall(group, radius, arr)


def _ball_for(group: CongruenceGroup, radius: float,
              ball: EnumerationBall | None = None) -> EnumerationBall:
    """The ball of ``radius``: enumerated when none is supplied, else the
    supplied ball of the same group and no smaller cap, restricted."""
    if ball is None:
        return enumerate_ball(group, radius)
    if ball.group != group:
        raise DomainError("supplied ball was enumerated for a different group")
    return ball.restrict(radius)


def _validate_ball(group: CongruenceGroup, radius: float,
                   arr: np.ndarray) -> np.ndarray | None:
    """The ball contract, checked when an ``EnumerationBall`` is made, in one
    pass that also returns the marks of ``_representatives`` (None from
    N = 3 on).  The pass walks runs of whole shells, at least _COSETS rows
    each: membership over slices of at most _COSETS rows, then each
    element's keys of ``_entry_forms`` once, which serve the order check
    between rows of equal norm; at N <= 2 the sorted keys of {kg : g marked,
    k in K} must then equal the run's sorted keys.  The run holds no
    element twice (the order is strict) and k keeps the norm, so as the
    action is free that holds exactly when the run is a union of whole
    orbits with one mark in each.  Only keys are held, never a copy of the
    ball.  No product is formed before the entries are known to keep every
    sum of the checks within int64."""
    cap = _norm_cap(radius)
    n2 = arr.shape[1]
    big = max(int(arr.max(initial=0)), -int(arr.min(initial=0)))
    if (n2 * big) ** 2 >= 2 ** 63:
        raise DomainError("ball element entries are too large for exact int64 arithmetic")
    flat = arr.reshape(len(arr), n2 * n2)
    norms = _squared_norms(arr)
    top = int(norms.max(initial=0))
    forms = _entry_forms(arr.shape[1:], top)
    ks = _k_matrix(group.k_units()) if group.N <= 2 else None
    if ks is not None:   # forms[c] . (k g) = (k^T forms[c]) . g
        k_forms = (np.swapaxes(ks, 1, 2)[:, None] @ forms.reshape(-1, n2, n2)).reshape(
            -1, n2 * n2).T
    marks = None if ks is None else np.empty(len(arr), dtype=bool)
    congruent = closed = True
    ordered = bool(np.all(np.diff(norms) >= 0))
    starts = np.flatnonzero(np.diff(norms)) + 1
    s = 0
    while s < len(arr):
        i = np.searchsorted(starts, s + _COSETS)
        e = int(starts[i]) if i < len(starts) else len(arr)
        for k in range(s, e, _COSETS):
            part = arr[k:min(k + _COSETS, e)]
            is_symplectic, is_congruent = _membership(part, group.N)
            if not is_symplectic:   # reported first whatever follows; marks need it
                raise DomainError("enumerated element fails the exact symplectic relation")
            congruent &= is_congruent
            if ks is not None:
                marks[k:k + len(part)] = _representatives(group.N, part)
        keys = flat[s:e] @ forms.T
        # canonical order among rows of equal norm: the first key that
        # differs must increase
        tied = np.diff(norms[s:e]) == 0
        for key in keys.T:
            step = np.diff(key)
            ordered &= not np.any(tied & (step < 0))
            tied &= step == 0
        ordered &= not tied.any()
        if ks is not None:
            marked = flat[s:e][marks[s:e]]
            closed &= len(marked) * len(ks) == e - s and np.array_equal(
                _sorted_rows((marked @ k_forms).reshape(e - s, -1)), _sorted_rows(keys))
        s = e
    if not congruent:
        raise DomainError("enumerated element fails the congruence condition")
    if top > cap:
        raise DomainError("enumerated element exceeds the radius")
    if not ordered:
        raise DomainError("ball elements are not in canonical order")
    if not closed:
        raise DomainError("ball is not closed under g -> kg for the group's elements k "
                          "in K, as the series at levels 1 and 2 need")
    return marks


def _sorted_rows(keys: np.ndarray) -> np.ndarray:
    """The rows of an integer array (k, c) in lexicographic order."""
    if keys.shape[1] == 1:
        return np.sort(keys[:, 0])
    return keys[np.lexsort(keys.T[::-1])]


def _representatives(N: int, arr: np.ndarray) -> np.ndarray:
    """The mask of the elements of a stack at N <= 2 that represent their
    orbits {kg} (see ``EnumerationBall``)."""
    n = arr.shape[1] // 2
    # the rows of rho = (A + iC | B + iD), re and im of each entry side by side
    rows = arr.reshape(len(arr), 2, n, 2 * n).transpose(0, 2, 3, 1).reshape(len(arr), n, 4 * n)
    at, lead = _leading(rows)
    ok = lead > 0                               # N = 2: re > 0, or re = 0 < im
    if N == 1:                                  # re > 0 <= im, rows increasing
        ok &= (at % 2 == 0) & (np.take_along_axis(rows, at[..., None] + 1, 2)[..., 0] >= 0)
        ok[:, 1:] &= _leading(np.diff(rows, axis=1))[1] > 0
    return ok.all(axis=1)


def _leading(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index and the value of the first nonzero entry along the last axis."""
    at = np.argmax(x != 0, axis=-1)
    return at, np.take_along_axis(x, at[..., None], -1)[..., 0]


# ---------------------------------------------------------------------------
# ball cache
# ---------------------------------------------------------------------------

def save_ball(path: str, ball: EnumerationBall) -> None:
    """Write the ball as a numpy .npz archive (elements, level, radius),
    atomically: to a temporary file, given the mode ``open()`` gives (0o666
    less the umask, not mkstemp's 0o600), that then replaces ``path``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, elements=ball.elements, level=ball.group.N, radius=ball.radius)
        os.umask(umask := os.umask(0o077))   # read by setting it, to a stricter one
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_ball(path: str) -> EnumerationBall:
    """Read a ball written by ``save_ball``.  Each archive member's CRC-32
    catches a changed or cut payload, and the ball checks itself; any other
    file, the older raw format included, raises DomainError."""
    with open(path, "rb") as fh:        # np.load(path) leaks the handle on error
        try:
            with np.load(fh, allow_pickle=False) as data:
                arr, N, radius = data["elements"], int(data["level"]), float(data["radius"])
            n = arr.shape[1] // 2
        # a cut payload fails a seek (OSError); a bare .npy has no members (TypeError)
        except (ValueError, KeyError, IndexError, EOFError, OSError, TypeError,
                zipfile.BadZipFile) as exc:
            raise DomainError(f"{path}: not a valid ball cache ({exc})") from None
    return EnumerationBall(CongruenceGroup(n, N), radius, arr)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

# Terms x points per block: 2**16 complex values, 1 MB, which stays in cache
# where a whole ball at once does not.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TruncatedSeriesResult:
    """A finite average with its doubling-tail diagnostic."""

    value: complex
    terms: int
    radius: float
    tail_estimate: float


def _pole_sums(weight: Weight, ball: EnumerationBall, cols: np.ndarray,
               mu: MatrixPolynomial | None = None, xi: SiegelPoint | None = None):
    """Sums over the ball of ``pole_terms`` at the points' columns ``cols``, in
    blocks of terms, in ball order, that span about _BLOCK term-points.

    The orbit rule, for the weight-vector terms: the ball is a union of
    orbits {kg} over the group's elements k in K, of order 4, 2, 1 at genus 1
    and 32, 4, 1 at genus 2 for levels N = 1, 2, >= 3, and the orbit of g
    sums to the term of g with mu' = sum_k det(u)^m mu(u W u^T).  The caller
    passes that mu' as ``mu`` (``_orbit_weight``), made once per series;
    only ``ball.representatives`` are evaluated with it, and a mu' of 0
    gives exactly 0 with nothing evaluated; an odd mn is one such case.

    The centre rule, for the kernel terms (``xi``): the kernel term of kg is
    the kernel at k^{-1} xi, so only the centre {+-I} (N <= 2) folds.  The
    term of -g is (-1)^{mn} times the term of g, so an odd mn gives exactly 0
    and an even mn evaluates the elements whose first nonzero entry
    (row-major) is positive, one of each pair, and doubles their sum.

    A block holds as many times the rows as the order folded, so the
    evaluated part still spans about _BLOCK term-points."""
    points = cols.shape[1] // weight.n
    out = np.zeros(points, dtype=np.complex128)
    if xi is None:
        if mu.is_zero():
            return out
        order, scale, marks = len(ball.group.k_units()), 1, ball.representatives
    else:
        order = scale = ball.group.epsilon()
        if order == 2 and weight.m * weight.n % 2:
            return out
        marks = None
    step = order * max(_BLOCK // max(points, 1), 1)
    for k0 in range(0, len(ball), step):
        block = ball.elements[k0:k0 + step]
        if marks is not None:
            block = block[marks[k0:k0 + step]]
        elif scale == 2:
            block = block[_leading(block[:, 0])[1] > 0]   # no row of g is zero
        out += pole_terms(weight, block.astype(np.float64), cols, mu, xi).sum(axis=0)
    return scale * out


def _orbit_weight(mu: MatrixPolynomial | None, group: CongruenceGroup,
                  m: int) -> MatrixPolynomial | None:
    """mu' = sum over the group's elements in K of det(u)^m mu(u W u^T), for
    ``_pole_sums``; mu itself when only I is in K, so those sums keep their
    bits, and None for a kernel series."""
    units = group.k_units()
    return mu if mu is None or len(units) == 1 else mu.orbit_sum(units, m)


def _series(weight: Weight, group: CongruenceGroup, radius: float, ball, cols: np.ndarray,
            mu: MatrixPolynomial | None = None,
            xi: SiegelPoint | None = None) -> TruncatedSeriesResult:
    """The series at the point with columns ``cols``; the tail is the shell
    outside half the radius."""
    ball = _ball_for(group, radius, ball)
    mu = _orbit_weight(mu, group, weight.m)
    inner, shell = (_pole_sums(weight, part, cols, mu, xi).reshape(())
                    for part in ball.split(ball.radius / 2.0))
    return TruncatedSeriesResult(value=complex(inner + shell), terms=len(ball),
                                 radius=ball.radius, tail_estimate=abs(shell))


def poincare_f(mu: MatrixPolynomial, weight: Weight, group: CongruenceGroup,
               z: SiegelPoint, radius: float,
               ball: EnumerationBall | None = None) -> TruncatedSeriesResult:
    """Truncation of the average of (f_{mu,m} | gamma)(z) over the group."""
    weight.require_integrable()
    require_genus(weight.n, mu=mu, group=group, z=z)
    return _series(weight, group, radius, ball, np.vstack([z.z, np.eye(weight.n)]), mu=mu)


def poincare_F(spec: MatrixCoefficientSpec, group: CongruenceGroup,
               g: SymplecticMatrix, radius: float,
               ball: EnumerationBall | None = None) -> TruncatedSeriesResult:
    """Truncation of the group-side average sum of F(gamma g): each term is the
    lift of f_{mu,m} to gamma g, its pole form at the columns g [iI; I]."""
    weight = spec.weight
    weight.require_integrable()
    require_genus(weight.n, group=group, g=g)
    cols = g.g @ np.vstack([1j * np.eye(weight.n), np.eye(weight.n)])
    return _series(weight, group, radius, ball, cols, mu=spec.mu)


def kernel_series(weight: Weight, group: CongruenceGroup, xi: SiegelPoint,
                  z: SiegelPoint, radius: float,
                  ball: EnumerationBall | None = None) -> TruncatedSeriesResult:
    """Truncated average of the point-evaluation kernel at xi."""
    weight.require_integrable()
    require_genus(weight.n, group=group, xi=xi, z=z)
    return _series(weight, group, radius, ball, np.vstack([z.z, np.eye(weight.n)]), xi=xi)


def series_evaluator_genus1(weight: Weight, ball: EnumerationBall,
                            mu: MatrixPolynomial | None = None,
                            xi: SiegelPoint | None = None):
    """Vectorized genus-1 evaluator: complex array z -> truncated series values.

    Exactly one of ``mu`` (weight-vector series) and ``xi`` (kernel series)
    must be given.  Useful as a quadrature integrand.
    """
    if (mu is None) == (xi is None):
        raise DomainError("give exactly one of mu and xi")
    require_genus(1, weight=weight, ball=ball.group, mu=mu, xi=xi)
    weight.require_integrable()
    mu = _orbit_weight(mu, ball.group, weight.m)
    return lambda z: _pole_sums(weight, ball, np.vstack([np.ravel(z), np.ones(np.size(z))]),
                                mu, xi).reshape(np.shape(z))


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormBoundsReport:
    """Sampled product-norm bound and the exact minimum outside the compact part."""

    r: float
    bound: float
    max_product_norm: float
    samples: int
    level: int
    threshold: float
    min_noncompact_norm: float
    ball_radius: float
    passed: bool


def norm_bounds_check(group: CongruenceGroup, r: float = 0.5, samples: int = 1000,
                      seed: int = 0, ball_radius: float | None = None,
                      budget: int = ENUMERATION_BUDGET) -> NormBoundsReport:
    """Check the two norm estimates behind the truncation analysis.

    Sampled part: products k h_t k' h_{-t'} k'' with |t|, |t'| <= r stay within
    sqrt(2n cosh 4r) in Frobenius norm, up to rounding (equal at r = 0).  Exact
    part: every enumerated group element outside the compact subgroup has
    squared norm at least N^2 + 2n.  A negative r is refused, as is one whose
    bound is not a finite float.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    n, N = group.n, group.N
    try:
        bound = math.sqrt(2 * n * math.cosh(4 * r))
    except OverflowError:
        bound = math.inf
    if not (r >= 0 and math.isfinite(bound)):
        raise DomainError(f"r = {r} is out of range: it must be nonnegative, "
                          f"with 2n cosh 4r a finite float")
    rng = np.random.default_rng(seed)
    mx = 0.0
    for _ in range(int(samples)):
        t = rng.uniform(-r, r, size=n)
        tp = rng.uniform(-r, r, size=n)
        gmat = (embed_unitary(haar_unitary(n, rng)).g
                @ hyperbolic(t).g
                @ embed_unitary(haar_unitary(n, rng)).g
                @ hyperbolic(-tp).g
                @ embed_unitary(haar_unitary(n, rng)).g)
        mx = max(mx, float(np.linalg.norm(gmat)))
    threshold = math.sqrt(N * N + 2 * n)
    ball_radius = float(ball_radius) if ball_radius is not None else threshold + 1.0
    norms = enumerate_ball(group, ball_radius, budget=budget).norms_squared()
    noncompact = norms[norms > 2 * n]         # |g|^2 = 2n exactly on K
    min_nc = math.sqrt(float(np.min(noncompact))) if len(noncompact) else math.inf
    passed = mx <= bound * (1 + _PRODUCT_ROUNDING) and bool(np.all(noncompact >= N * N + 2 * n))
    return NormBoundsReport(r=float(r), bound=bound, max_product_norm=mx,
                            samples=int(samples), level=N, threshold=threshold,
                            min_noncompact_norm=min_nc, ball_radius=ball_radius,
                            passed=passed)
