"""Integer symplectic balls and truncated averages over congruence subgroups.

Enumeration is exact and the same at every genus.  The translations
[[I, N S], [0, I]] (S symmetric) act on the left of the group, and each coset
is fixed by its bottom half M = [C D].  The group's elements k in K (below)
act on the right: the elements with bottom half M k are the h k with bottom
half M, of the same norms.  So a ball is enumerated in four stages:

1. sweep the bottom halves: M = [0 I] (mod N) with pairwise J-orthogonal
   rows and |M|^2 <= r^2 - n, built row by row from norm-sorted tables;
   D - iC -> (D - iC) u permutes the columns and multiplies each by a unit,
   freely where M has full rank, as then D - iC is invertible, so keeping
   the M whose columns of D - iC bear the mark (``EnumerationBall``), tested
   as each row is added, keeps one of each orbit {M k}; an M of lower rank
   is imprimitive, so stage 2 drops it whether kept or not;
2. complete each coset once: integer Euclid on J M^T gives T with
   T J M^T = I exactly when M is primitive, then T += triu(T J T^T, 1) M makes
   [T; M] symplectic and a symmetric shift makes T = [I 0] (mod N);
3. enumerate the symmetric S with |T + N S M|^2 <= r^2 - |M|^2 by
   Fincke-Pohst over the n(n+1)/2 entries of S, then filter norms exactly;
4. invert: these h hold one element of each orbit {h k}, so the
   g = -J h^T J hold one of each orbit {k g}; the rows of g's A + iC are
   the columns of h's D - iC, so each g is its orbit's marked element, and
   they are sorted.

No step branches on the genus or the level; genus 3 and above are refused
until an independent oracle can check them.  The ``budget`` of
``enumerate_ball`` caps stage 1, estimated before any work; to bound a
series, enumerate its ball and pass it.  Elements are kept in a canonical
order (norm, then entries, read as the integer keys of ``_entry_forms``) so
that sums are reproducible.

A ball holds the elements of squared norm at most its cap floor(r^2), so
radii with the same cap have the same elements: a supplied ball fits any
radius whose cap is no larger, and is restricted to it.  Every radius,
enumerated, loaded, split or fitted, goes through that cap, which refuses
one that is not positive and finite.  A ball stores the marked element of
each orbit under left multiplication by the group's elements in K, checked
once, when made; ``restrict`` and ``split`` cut by norm, which k keeps, so
no series or cache hit checks again.  On Sp(2n, R), |g|^2 >= 2n with
equality exactly on the compact subgroup K, so the group's elements in K
are the ball of cap 2n.

Each such k is (X Y; -Y X) with u = X + iY unitary: a monomial matrix with
entries in {+-1, +-i} at level N = 1 (order 4 at genus 1, 32 at genus 2), a
diagonal sign matrix at N = 2 (orders 2 and 4) and I from N = 3 on.  Every
series sums over the orbits of the stored elements g (``_orbit_rule``).  In
the complex rows rho = (A + iC | B + iD) of g, its terms' pole rows, k acts
as rho -> conj(u) rho, so the weight-vector and group-side series evaluate g
with mu' = sum_k det(u)^m mu(u W u^T) (``MatrixPolynomial.orbit_sum``),
W = Q P^{-1}, and are exactly 0 when mu' is.  The kernel term of kg at xi is
c_k = det(X + conj(xi) Y)^{-m} times the term of g at eta_k = k^{-1} xi: the
kernel series sums over the g once per distinct eta_k, k modulo +-I, the
c_k of equal eta_k added, so at a xi fixed by K, such as iI, once.
``TruncatedSeriesResult.terms`` still counts group elements.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from . import _small
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
        object.__setattr__(self, "n", require_integer(self.n, "genus", 1, DimensionError))
        object.__setattr__(self, "N", require_integer(self.N, "level", 1))

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
        and I alone from N = 3 on, built without enumerating.  Read-only."""
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


def _order_keys(arr: np.ndarray, ks: np.ndarray | None = None) -> list[np.ndarray]:
    """The keys of the canonical order, most significant first, of the
    products k g over the elements g and the signed permutations k of ``ks``
    (I alone by default), k g at g * len(ks) + k: the squared norm, which k
    keeps, then the entry keys of ``_entry_forms``, as (k^T forms) . g."""
    n2 = arr.shape[-1]
    ks = np.eye(n2, dtype=np.int64)[None] if ks is None else ks
    norms = _squared_norms(arr)
    forms = _entry_forms(arr.shape[1:], int(norms.max(initial=0))).reshape(-1, n2, n2)
    turned = (np.swapaxes(ks, 1, 2)[:, None] @ forms).reshape(-1, n2 * n2)
    keys = (arr.reshape(len(arr), n2 * n2) @ turned.T).reshape(-1, len(forms))
    return [np.repeat(norms, len(ks)), *keys.T]


def _canonical_order(arr: np.ndarray, ks: np.ndarray | None = None) -> np.ndarray:
    """The products of ``_order_keys`` sorted by norm then entries, the
    summation order contract, gathered _COSETS at a time from the rows of
    the g and -g, as each k is a signed permutation.  The entry keys are
    unique, so one unstable argsort (a lexsort for two keys or more) sorts
    each run of equal norm."""
    n2 = arr.shape[-1]
    ks = np.eye(n2, dtype=np.int64)[None] if ks is None else ks
    norms, *keys = _order_keys(arr, ks)
    order = np.argsort(norms, kind="stable")
    cuts = [0, *np.flatnonzero(np.diff(norms[order])) + 1, len(order)]
    for s, e in zip(cuts[:-1], cuts[1:]):
        run = order[s:e]
        order[s:e] = run[np.argsort(keys[0][run]) if len(keys) == 1
                         else np.lexsort([key[run] for key in keys[::-1]])]
    rows = np.concatenate([arr, -arr]).reshape(-1, n2)
    at = np.argmax(ks != 0, axis=2)            # row i of k g is +-(row at[k, i] of g)
    at += (np.take_along_axis(ks, at[..., None], 2)[..., 0] < 0) * (len(arr) * n2)
    out = np.empty((len(order), n2, n2), arr.dtype)
    for a in range(0, len(order), _COSETS):
        g, k = np.divmod(order[a:a + _COSETS], len(ks))
        index = np.take(at, k, axis=0)
        index += (g * n2)[:, None]
        # every index is in range; "clip" only spares the buffered copy of out
        np.take(rows, index, axis=0, out=out[a:a + len(g)], mode="clip")
    return out


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
    """All group elements with Frobenius norm at most ``radius``, stored as
    the marked element of each orbit {kg} over the group's elements k in K,
    in canonical order: ``representatives``, an int64 array (k, 2n, 2n),
    checked when the ball is made (``_validate_ball``).  The mark is read
    on the rows of A + iC, which are the columns of D - iC of the bottom
    half [C D] of g^{-1}: at N = 1 each row's first nonzero entry is in
    {re > 0, im >= 0} and the rows increase (lexicographically in re, im of
    each entry); at N = 2 each row's first nonzero entry has re > 0, or
    re = 0 and im > 0; from N = 3 on every element is marked.  An orbit has
    one marked element, so ``len`` is |K| times the rows, and ``elements``,
    the whole ball in canonical order, is made when first read; no series
    reads it.  ``restrict`` and ``split`` (whose shell holds the elements
    outside its inner radius) return views that keep the check."""

    group: CongruenceGroup
    radius: float
    representatives: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.representatives).view()   # the caller's flag stays
        n2 = 2 * self.group.n
        if arr.dtype != np.int64 or arr.shape[1:] != (n2, n2):
            raise DomainError(f"ball elements must be an int64 array of shape "
                              f"(k, {n2}, {n2}), got {arr.dtype} {arr.shape}")
        _validate_ball(self.group, self.radius, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "representatives", arr)
        object.__setattr__(self, "radius", float(self.radius))

    @functools.cached_property
    def elements(self) -> np.ndarray:
        """Every k g over the group's elements k in K, sorted.  Read-only."""
        out = _canonical_order(self.representatives, _k_matrix(self.group.k_units()))
        out.setflags(write=False)
        return out

    def _view(self, radius: float, cut: slice) -> "EnumerationBall":
        """The ball of a prefix or suffix of the representatives, unchecked."""
        view = object.__new__(EnumerationBall)
        view.__dict__.update(group=self.group, radius=float(radius),
                             representatives=self.representatives[cut])
        return view

    def __len__(self) -> int:
        return len(self.representatives) * len(self.group.k_units())

    def restrict(self, radius: float) -> "EnumerationBall":
        """The ball of ``radius``: a view of the prefix within its cap, found
        by binary search over the representatives sorted by norm."""
        cap = _norm_cap(radius)
        if cap > _norm_cap(self.radius):
            raise DomainError(f"a ball of radius {self.radius} does not reach "
                              f"radius {radius}")
        k = bisect.bisect_right(self.representatives, cap, key=lambda g: int(np.sum(g * g)))
        return self._view(radius, slice(k))

    def split(self, radius: float) -> tuple["EnumerationBall", "EnumerationBall"]:
        """Views of the ball of ``radius`` and of the shell of the other
        elements, which keeps this radius; this ball's sum is theirs."""
        inner = self.restrict(radius)
        return inner, self._view(self.radius, slice(len(inner.representatives), None))


# Candidate pairs per block of the bottom-half sweep, and cosets per block of
# the completion and the S search; the ball check takes _COSETS rows at a time
# too.
_PAIRS = 1 << 20
_COSETS = 1 << 14


def _bottom_halves(n: int, N: int, r2: int) -> np.ndarray:
    """Every M = [C D] = [0 I] (mod N) with nonzero, pairwise J-orthogonal rows
    and |M|^2 <= r2 - n, grown row by row from norm-sorted candidate tables
    and cut, at each height, to those whose columns of D - iC pass the mark."""
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
            grown = np.concatenate([part[p], table[q, None]], axis=1)
            cols = grown.swapaxes(1, 2)        # the columns of D - iC, as rows
            rows.append(grown[_representatives(N, cols[:, n:], -cols[:, :n])])
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
    budget = require_integer(budget, "budget", 1)
    n, N = group.n, group.N
    if n > 2:
        raise DimensionError("exact enumeration is implemented for genus 1 and 2")
    arr = np.zeros((0, 2 * n, 2 * n), np.int64)
    if r2 >= 2 * n:                      # |T|^2, |M|^2 >= n each
        d = 2 * n * n                    # lattice points of norm <= r2 - n in Z^d
        log_size = d / 2 * math.log(math.pi * (r2 - n) / N ** 2) - math.lgamma(d / 2 + 1)
        log_budget = math.log(budget)
        if log_size > log_budget:
            fit = N ** 2 / math.pi * math.exp((log_budget + math.lgamma(d / 2 + 1)) * 2 / d)
            raise BudgetError(
                f"the bottom-half sweep has about 10^{log_size / math.log(10):.1f} "
                f"candidates, over the budget {budget}",
                feasible_radius=math.sqrt(n + int(fit * (1 - 1e-12))))
        M = _bottom_halves(n, N, r2)
        h = np.concatenate([_coset_elements(M[k:k + _COSETS], N, r2)
                            for k in range(0, len(M), _COSETS)])
        J = j_matrix(n).astype(np.int64)
        # h^{-1}: the marked element of each orbit {k g}
        arr = _canonical_order(-(J @ np.swapaxes(h, 1, 2) @ J))
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


def _validate_ball(group: CongruenceGroup, radius: float, arr: np.ndarray) -> None:
    """The contract of an ``EnumerationBall``'s representatives: membership
    over slices of at most _COSETS rows, the marks, and the strict order by
    each element's ``_order_keys``.  The orbits of distinct marked
    elements are disjoint, so the ball they make needs no check of its own.
    No product is formed before the entries are known to fit int64."""
    cap = _norm_cap(radius)
    n2 = arr.shape[1]
    big = max(int(arr.max(initial=0)), -int(arr.min(initial=0)))
    if (n2 * big) ** 2 >= 2 ** 63:
        raise DomainError("ball element entries are too large for exact int64 arithmetic")
    congruent = True
    for k in range(0, len(arr), _COSETS):
        is_symplectic, is_congruent = _membership(arr[k:k + _COSETS], group.N)
        if not is_symplectic:   # reported first whatever follows
            raise DomainError("enumerated element fails the exact symplectic relation")
        congruent &= is_congruent
    n = n2 // 2
    # on the rows of A + iC, nonzero and distinct as A + iC is invertible
    marked = np.all(_representatives(group.N, arr[:, :n, :n], arr[:, n:, :n]))
    keys = np.stack(_order_keys(arr), axis=1)
    top = int(keys[:, 0].max(initial=0))
    # a row's first key unequal to the row before's is larger; compared, as a difference can wrap
    step = (keys[1:] > keys[:-1]).astype(np.int8) - (keys[1:] < keys[:-1])
    ordered = bool(np.all(_leading(step)[1] > 0))
    if not congruent:
        raise DomainError("enumerated element fails the congruence condition")
    if top > cap:
        raise DomainError("enumerated element exceeds the radius")
    if not marked:
        raise DomainError("ball holds an element that is not the marked one of its orbit "
                          "{kg} over the group's elements k in K")
    if not ordered:
        raise DomainError("ball elements are not in canonical order")


def _representatives(N: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The mask of the complex matrices re + i im, stacked (k, rows, width),
    whose rows bear the mark of ``EnumerationBall`` (every one from N = 3
    on).  A zero row, or a row equal to the next, is left undecided, so the
    first columns of a marked matrix pass too; on nonzero, distinct rows the
    mark is decided."""
    rows = np.stack([re, im], -1).reshape(*re.shape[:2], 2 * re.shape[2])
    at, lead = _leading(rows)
    ok = (lead >= 0) | (N >= 3)                 # N = 2: re > 0, or re = 0 < im
    if N == 1:                                  # re > 0 <= im, rows increasing
        ok &= (at % 2 == 0) & (np.take_along_axis(rows, at[..., None] | 1, 2)[..., 0] >= 0)
        ok[:, 1:] &= _leading(np.diff(rows, axis=1))[1] >= 0
    return ok.all(axis=1)


def _leading(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index and the value of the first nonzero entry along the last axis."""
    at = np.argmax(x != 0, axis=-1)
    return at, np.take_along_axis(x, at[..., None], -1)[..., 0]


# ---------------------------------------------------------------------------
# ball cache
# ---------------------------------------------------------------------------

_CACHE_FORMAT = "representatives"   # the archives before it held every element


def save_ball(path: str, ball: EnumerationBall) -> None:
    """Write the ball as a numpy .npz archive (format, representatives, level,
    radius), atomically: to a new file beside ``path``, named for this process
    and a random suffix, that replaces ``path``.  ``open()`` makes it, so it
    gets the mode ``open()`` gives, and the process umask is never touched."""
    tmp = f"{path}.{os.getpid()}-{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")                # refuses a name that exists, so creates it
    try:
        with fh:
            np.savez(fh, format=_CACHE_FORMAT, representatives=ball.representatives,
                     level=ball.group.N, radius=ball.radius)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_ball(path: str) -> EnumerationBall:
    """Read a ball written by ``save_ball``.  Each archive member's CRC-32
    catches a changed or cut payload, and the ball checks itself.  Another
    format raises DomainError naming it (format "elements", of every element,
    where there is no format member), and so does any other file."""
    with open(path, "rb") as fh:        # np.load(path) leaks the handle on error
        try:
            with np.load(fh, allow_pickle=False) as data:
                # the archives before the format member held "elements"
                form = str(data["format"] if "format" in data or "elements" not in data
                           else "elements")
                if form == _CACHE_FORMAT:
                    arr = data["representatives"]
                    radius = float(data["radius"])
                    group = CongruenceGroup(arr.shape[1] // 2, data["level"].item())
        # a cut payload fails a seek (OSError); a bare .npy has no members (TypeError);
        # elements of fewer than two rows give genus 0 (DimensionError)
        except (ValueError, KeyError, IndexError, EOFError, OSError, TypeError,
                DimensionError, zipfile.BadZipFile) as exc:
            raise DomainError(f"{path}: not a valid ball cache ({exc})") from None
    if form != _CACHE_FORMAT:
        raise DomainError(f"{path}: a ball cache of format {form!r}, which is not read; "
                          f"this version writes and reads format {_CACHE_FORMAT!r}, one "
                          f"element per orbit.  Remove the file to enumerate the ball again")
    return EnumerationBall(group, radius, arr)


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


def _pole_sums(weight: Weight, ball: EnumerationBall, cols: np.ndarray, rule: tuple):
    """Sums over the ball of ``pole_terms`` at the points' columns ``cols`` by
    the rule (mu, xi, turns) of ``_orbit_rule``, in blocks of about _BLOCK
    term-points of ``ball.representatives`` in ball order."""
    mu, xi, turns = rule
    points = cols.shape[1] // weight.n
    # glibc maps a block's temporaries afresh, and faults them in, on every
    # call until a larger freed array raises its mmap threshold: free one
    np.empty(2 * _BLOCK * weight.n ** 2, dtype=np.complex128)
    sums = np.zeros((len(turns), points), dtype=np.complex128)
    step = max(_BLOCK // max(points, 1), 1)
    for k0 in range(0, len(ball.representatives) if turns else 0, step):
        block = ball.representatives[k0:k0 + step].astype(np.float64)
        for total, (k, _) in zip(sums, turns):
            total += pole_terms(weight, block if k is None else k @ block, cols, mu, xi).sum(0)
    return sum((factor * total for total, (_, factor) in zip(sums, turns)),
               np.zeros(points, dtype=np.complex128))


def _orbit_rule(group: CongruenceGroup, m: int, mu: MatrixPolynomial | None = None,
                xi: SiegelPoint | None = None) -> tuple:
    """(mu, xi, turns): the series over the ball is the sum over (k, factor)
    in ``turns`` of factor times the terms of k g (g when k is None) over
    the representatives g.  A weight-vector series has the turn (None, 1)
    with mu', none when mu' is 0.  A kernel series has one turn per
    distinct eta_k over k modulo +-I, whose factor adds c_k' / c_k over the
    k' of equal eta_k, doubled for -k when -I is in the group, none when mn
    is odd there.  The term of g at eta_k is evaluated as c_k^{-1} times the
    term of k g at xi, whose pole rows are exact, not at a rounded eta_k."""
    units = group.k_units()
    if xi is None:
        mu = mu.orbit_sum(units, m)
        return mu, None, [] if mu.is_zero() else [(None, 1)]
    sign = group.epsilon()
    if sign == 2 and m * group.n % 2:
        return None, xi, []
    lead = _leading(units[:, 0])[1]            # one of each pair +-u: lead 1 or i
    units = units[lead.real + lead.imag > 0]
    xt, yt, xb = np.swapaxes(units.real, 1, 2), np.swapaxes(units.imag, 1, 2), np.conj(xi.z)
    # 1/det P and Q P^{-1}, P = (X + conj(xi) Y)^T, Q = (conj(xi) X - Y)^T
    inv, conj_eta = _small.inverse_det(xt + yt @ xb, xt @ xb - yt)
    same: dict = {}
    for k, eta, c in zip(_k_matrix(units).astype(np.float64), conj_eta + 0.0, inv):
        same.setdefault(eta.tobytes(), []).append((k, c))   # + 0.0 makes -0.0 equal 0.0
    return None, xi, [(k, sign * (1 + sum((c / c0) ** m for _, c in rest)))
                      for (k, c0), *rest in same.values()]


def _series(weight: Weight, group: CongruenceGroup, radius: float, ball, cols: np.ndarray,
            mu: MatrixPolynomial | None = None,
            xi: SiegelPoint | None = None) -> TruncatedSeriesResult:
    """The series at the point with columns ``cols``; the tail is the shell
    outside half the radius."""
    ball = _ball_for(group, radius, ball)
    rule = _orbit_rule(group, weight.m, mu, xi)
    inner, shell = (_pole_sums(weight, part, cols, rule).reshape(())
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
    rule = _orbit_rule(ball.group, weight.m, mu, xi)
    return lambda z: _pole_sums(weight, ball, np.vstack([np.ravel(z), np.ones(np.size(z))]),
                                rule).reshape(np.shape(z))


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
    samples = require_integer(samples, "sample count", 1)
    seed = require_integer(seed, "seed", 0)
    budget = require_integer(budget, "budget", 1)     # before the samples are drawn
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
    for _ in range(samples):
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
    # k g has the norm of g for k in K, so the representatives hold every norm
    norms = _squared_norms(enumerate_ball(group, ball_radius, budget=budget).representatives)
    noncompact = norms[norms > 2 * n]         # |g|^2 = 2n exactly on K
    min_nc = math.sqrt(float(np.min(noncompact))) if len(noncompact) else math.inf
    passed = mx <= bound * (1 + _PRODUCT_ROUNDING) and bool(np.all(noncompact >= N * N + 2 * n))
    return NormBoundsReport(r=float(r), bound=bound, max_product_norm=mx,
                            samples=samples, level=N, threshold=threshold,
                            min_noncompact_norm=min_nc, ball_radius=ball_radius,
                            passed=passed)
