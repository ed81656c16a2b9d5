"""Integer symplectic balls and truncated averages over congruence subgroups.

Enumeration is exact int64 arithmetic: genus 1 sweeps coprime bottom rows
and solves the congruence for the top row; genus 2 runs a column-by-column
search (first and third columns pair to 1 under the skew form, the rest
complete by orthogonality) with vectorized masks.  Elements are stored in a
canonical order (norm, then entries) so that sums are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .discrete_series import MatrixCoefficientSpec, Weight, pole_values
from .errors import BudgetError, DimensionError, DomainError
from .nonvanishing import haar_unitary
from .polynomials import MatrixPolynomial
from .symplectic import (
    SiegelPoint,
    SymplecticMatrix,
    act,
    embed_unitary,
    hyperbolic,
    j_factor,
    j_matrix,
)


@dataclass(frozen=True)
class CongruenceGroup:
    """Integer symplectic matrices congruent to the identity mod N."""

    n: int
    N: int

    def __post_init__(self):
        if int(self.n) < 1 or int(self.N) < 1:
            raise DomainError("genus and level must be positive integers")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "N", int(self.N))

    def epsilon(self) -> int:
        """Order of the central subgroup {+-I} inside the group."""
        return 2 if self.N <= 2 else 1

    def contains(self, mat) -> bool:
        arr = np.asarray(mat)
        if arr.shape != (2 * self.n, 2 * self.n):
            return False
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.round(arr)):
                return False
            arr = np.round(arr).astype(np.int64)
        J = j_matrix(self.n).astype(np.int64)
        if not np.array_equal(arr.T @ J @ arr, J):
            return False
        return bool(np.all((arr - np.eye(2 * self.n, dtype=np.int64)) % self.N == 0))

    def k_intersection(self) -> np.ndarray:
        """All elements lying in the compact subgroup, as integer matrices."""
        return _k_intersection(self.n, self.N)


@functools.lru_cache(maxsize=None)
def _k_intersection(n: int, N: int) -> np.ndarray:
    mats = []
    if N >= 3:
        mats.append(np.eye(2 * n, dtype=np.int64))
    elif N == 2:
        for signs in itertools.product((1, -1), repeat=n):
            d = np.diag(np.array(signs, dtype=np.int64))
            mats.append(np.block([[d, np.zeros((n, n), np.int64)],
                                  [np.zeros((n, n), np.int64), d]]))
    else:
        # u = diag(i^{a_1}, ..., i^{a_n}) P over fourth roots and permutations
        for perm in itertools.permutations(range(n)):
            for phases in itertools.product((1, 1j, -1, -1j), repeat=n):
                u = np.zeros((n, n), dtype=np.complex128)
                for r in range(n):
                    u[r, perm[r]] = phases[r]
                a = np.round(u.real).astype(np.int64)
                b = np.round(u.imag).astype(np.int64)
                mats.append(np.block([[a, b], [-b, a]]))
    arr = np.stack(mats)
    out = _canonical_order(arr)
    out.setflags(write=False)
    return out


def _canonical_order(arr: np.ndarray) -> np.ndarray:
    """Sort by norm then entries; the summation order contract."""
    flat = arr.reshape(arr.shape[0], -1)
    norms = np.sum(flat * flat, axis=1)
    keys = tuple(flat[:, i] for i in range(flat.shape[1] - 1, -1, -1)) + (norms,)
    return np.ascontiguousarray(arr[np.lexsort(keys)])


@dataclass(frozen=True)
class EnumerationBall:
    """All group elements with Frobenius norm at most ``radius``; a shell
    from ``split`` holds only those outside its inner radius."""

    group: CongruenceGroup
    radius: float
    elements: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[1:] != (2 * self.group.n, 2 * self.group.n):
            raise DimensionError("elements must have shape (k, 2n, 2n)")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)
        object.__setattr__(self, "radius", float(self.radius))

    def __len__(self) -> int:
        return self.elements.shape[0]

    def norms_squared(self) -> np.ndarray:
        return np.sum(self.elements * self.elements, axis=(1, 2))

    def restrict(self, radius: float) -> "EnumerationBall":
        return self.split(radius)[0]

    def split(self, radius: float) -> tuple["EnumerationBall", "EnumerationBall"]:
        """The ball of ``radius`` and the shell of the other elements, which
        keeps this radius; a sum over this ball is the sum over the two."""
        if radius > self.radius + 1e-12:
            raise DomainError("cannot restrict to a larger radius")
        keep = self.norms_squared() <= int(math.floor(radius * radius + 1e-9))
        return (EnumerationBall(self.group, radius, self.elements[keep]),
                EnumerationBall(self.group, self.radius, self.elements[~keep]))


def _xgcd(u: int, v: int) -> tuple[int, int, int]:
    """g, x, y with x*u + y*v = g = gcd(u, v)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while v:
        q, u, v = u // v, v, u % v
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if u < 0:
        return -u, -x0, -y0
    return u, x0, y0


def _ball_genus1(N: int, radius: float, budget: int) -> np.ndarray:
    r2 = int(math.floor(radius * radius + 1e-9))
    rows = []
    if r2 >= 2:
        cmax = math.isqrt(max(r2 - 1, 0))    # the top row contributes at least 1
        if (2 * cmax + 1) ** 2 // (N * N) > budget:
            feasible = (math.isqrt(budget) * N - 1) / 2.0
            raise BudgetError(
                f"genus-1 sweep needs about {(2 * cmax + 1) ** 2 // (N * N)} row pairs",
                feasible_radius=feasible)
        for c in range(-cmax, cmax + 1):
            if c % N != 0:
                continue
            dmax = math.isqrt(r2 - 1 - c * c)
            for d in range(-dmax, dmax + 1):
                if (d - 1) % N != 0 or math.gcd(abs(c), abs(d)) != 1:
                    continue
                g, p, q = _xgcd(d, -c)      # p d - q c = 1
                a0, b0 = p, q
                A = c * c + d * d
                cap = r2 - A
                disc = (a0 * c + b0 * d) ** 2 - A * (a0 * a0 + b0 * b0 - cap)
                if disc < 0:
                    continue
                s = math.sqrt(disc)
                mid = -(a0 * c + b0 * d)
                tlo = math.ceil((mid - s) / A - 1e-12)
                thi = math.floor((mid + s) / A + 1e-12)
                if N > 1:
                    tlo += (-b0 - tlo) % N   # b = b0 + t d = 0 mod N, d = 1 mod N
                for t in range(tlo, thi + 1, N if N > 1 else 1):
                    a, b = a0 + t * c, b0 + t * d
                    if a * a + b * b <= cap:
                        rows.append((a, b, c, d))
    if not rows:
        return np.zeros((0, 2, 2), dtype=np.int64)
    return np.array(rows, dtype=np.int64).reshape(-1, 2, 2)


def _jdot2(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Skew pairing v^T J w at genus 2; w may be a stack (k, 4)."""
    return (v[0] * w[..., 2] + v[1] * w[..., 3]
            - v[2] * w[..., 0] - v[3] * w[..., 1])


def _column_grid(j: int, N: int, cap: int) -> tuple[np.ndarray, np.ndarray, int]:
    lim = math.isqrt(cap)
    axes = []
    for i in range(4):
        res = 1 if i == j else 0
        lo = math.ceil((-lim - res) / N)
        hi = math.floor((lim - res) / N)
        axes.append(np.arange(lo, hi + 1, dtype=np.int64) * N + res)
    size = 1
    for ax in axes:
        size *= len(ax)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    norms = np.sum(grid * grid, axis=1)
    keep = norms <= cap
    return grid[keep], norms[keep], size


def _genus2_grid_size(N: int, r2: int) -> int:
    lim = math.isqrt(max(r2 - 3, 0))
    per_axis = 2 * (lim // N) + 2
    return per_axis ** 4


def _ball_genus2(N: int, radius: float, budget: int) -> np.ndarray:
    r2 = int(math.floor(radius * radius + 1e-9))
    if r2 < 4:
        return np.zeros((0, 4, 4), dtype=np.int64)
    if _genus2_grid_size(N, r2) > budget:
        rr = radius
        while rr > 2.0 and _genus2_grid_size(N, int(rr * rr)) > budget:
            rr -= 0.5
        raise BudgetError(
            f"genus-2 candidate grid has about {_genus2_grid_size(N, r2)} points",
            feasible_radius=rr)
    cap = r2 - 3
    cols = []
    for j in range(4):
        grid, norms, _ = _column_grid(j, N, cap)
        order = np.argsort(norms, kind="stable")
        cols.append((grid[order], norms[order]))
    c0s, n0s = cols[0]
    c1s, n1s = cols[1]
    c2s, n2s = cols[2]
    c3s, n3s = cols[3]
    out = []
    work = 0
    for v0, nv0 in zip(c0s, n0s):
        if work > budget:
            # everything of total norm at most nv0 + 3 is already emitted
            raise BudgetError(
                f"genus-2 search passed the work budget {budget}",
                feasible_radius=math.sqrt(max(nv0 + 3, 4)))
        # norm-sorted candidates let every mask work on a prefix slice
        k2 = int(np.searchsorted(n2s, r2 - 2 - nv0, side="right"))
        m2 = _jdot2(v0, c2s[:k2]) == 1
        work += k2
        if not m2.any():
            continue
        jd01 = _jdot2(v0, c1s)
        jd03 = _jdot2(v0, c3s)
        work += len(c1s) + len(c3s)
        for v2, nv2 in zip(c2s[:k2][m2], n2s[:k2][m2]):
            k1 = int(np.searchsorted(n1s, r2 - 1 - nv0 - nv2, side="right"))
            m1 = (jd01[:k1] == 0) & (_jdot2(v2, c1s[:k1]) == 0)
            work += 2 * k1
            if not m1.any():
                continue
            base3 = (jd03 == 0) & (_jdot2(v2, c3s) == 0)
            c3b, n3b = c3s[base3], n3s[base3]
            work += len(c3s)
            if not len(c3b):
                continue
            for v1, nv1 in zip(c1s[:k1][m1], n1s[:k1][m1]):
                k3 = int(np.searchsorted(n3b, r2 - nv0 - nv1 - nv2, side="right"))
                m3 = _jdot2(v1, c3b[:k3]) == 1
                work += k3
                v3block = c3b[:k3][m3]
                if len(v3block):
                    blk = np.empty((len(v3block), 4, 4), dtype=np.int64)
                    blk[:, :, 0] = v0
                    blk[:, :, 1] = v1
                    blk[:, :, 2] = v2
                    blk[:, :, 3] = v3block
                    out.append(blk)
                    work += 16 * len(v3block)
    if not out:
        return np.zeros((0, 4, 4), dtype=np.int64)
    return np.concatenate(out, axis=0)


def enumerate_ball(group: CongruenceGroup, radius: float,
                   budget: int = 2 * 10 ** 9) -> EnumerationBall:
    """Every group element of Frobenius norm <= radius, canonically ordered."""
    if radius <= 0 or not math.isfinite(radius):
        raise DomainError("radius must be positive and finite")
    if group.n == 1:
        arr = _ball_genus1(group.N, radius, budget)
    elif group.n == 2:
        arr = _ball_genus2(group.N, radius, budget)
    else:
        raise DimensionError("exact enumeration is implemented for genus 1 and 2")
    arr = _canonical_order(arr) if len(arr) else arr
    _validate_ball(group, radius, arr)
    return EnumerationBall(group, radius, arr)


def _validate_ball(group: CongruenceGroup, radius: float, arr: np.ndarray) -> None:
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"ball radius {radius} is not positive and finite")
    if not len(arr):
        return
    n, N = group.n, group.N
    J = j_matrix(n).astype(np.int64)
    gram = np.swapaxes(arr, 1, 2) @ (J[None] @ arr)
    if not np.all(gram == J[None]):
        raise DomainError("enumerated element fails the exact symplectic relation")
    if not np.all((arr - np.eye(2 * n, dtype=np.int64)) % N == 0):
        raise DomainError("enumerated element fails the congruence condition")
    flat = arr.reshape(len(arr), -1)
    norms = np.sum(flat * flat, axis=1)
    if np.max(norms) > radius * radius + 1e-9:
        raise DomainError("enumerated element exceeds the radius")
    # canonical order on adjacent rows: the first key that differs, of the
    # norm and then the entries, must increase
    tied, descending = np.ones(len(arr) - 1, dtype=bool), False
    for key in [norms] + list(flat.T):
        step = np.diff(key)
        descending |= bool(np.any(tied & (step < 0)))
        tied &= step == 0
    if descending or tied.any():
        raise DomainError("ball elements are not in canonical order")


# ---------------------------------------------------------------------------
# ball cache
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<qqdq")    # n, N, radius, count


def save_ball(path: str, ball: EnumerationBall) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(ball.group.n, ball.group.N, ball.radius, len(ball)))
        fh.write(np.ascontiguousarray(ball.elements.astype("<i8")).tobytes())


def load_ball(path: str) -> EnumerationBall:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise DomainError(f"{path}: truncated ball cache header")
        n, N, radius, count = _HEADER.unpack(head)
        payload = fh.read()
    expect = count * (2 * n) * (2 * n) * 8
    if len(payload) != expect:
        raise DomainError(f"{path}: ball cache payload has {len(payload)} bytes, "
                          f"expected {expect}")
    arr = np.frombuffer(payload, dtype="<i8").astype(np.int64)
    arr = arr.reshape(count, 2 * n, 2 * n)
    group = CongruenceGroup(n, N)
    _validate_ball(group, radius, arr)
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


def _pole_sums(weight: Weight, ball: EnumerationBall, Z: np.ndarray,
               mu: MatrixPolynomial | None = None, xi: SiegelPoint | None = None):
    """Sums over the ball of j(g, z)^{-m} f(g.z), f = f_{mu,m} or the kernel at xi.

    Each term is ``pole_values`` at the pole matrices of g at z; ``Z`` stacks
    points as (..., n, n).  Blocks of terms, in ball order, span about _BLOCK
    term-points; a block's matrices H z + K come from one product [H K] @ [z; I].
    """
    n = weight.n
    Z = np.asarray(Z, dtype=np.complex128)
    shape, Z = Z.shape[:-2], Z.reshape(-1, n, n)
    cols = (np.concatenate([Z, np.broadcast_to(np.eye(n), Z.shape)], axis=1)
            .transpose(1, 0, 2).reshape(2 * n, -1))
    out = np.zeros(len(Z), dtype=np.complex128)
    step = max(_BLOCK // max(len(Z), 1), 1)
    for k0 in range(0, len(ball), step):
        E = ball.elements[k0:k0 + step].astype(np.float64)
        top, bottom = E[:, :n], E[:, n:]
        if xi is not None:
            rows = [(top - np.conj(xi.z) @ bottom) / 2j]
        else:
            rows = [top + 1j * bottom] + ([top - 1j * bottom] if mu.degree() else [])
        poles = [(r.reshape(-1, 2 * n) @ cols).reshape(len(E), n, -1, n)
                 .transpose(0, 2, 1, 3) for r in rows]
        out += pole_values(weight, *poles, mu=mu).sum(axis=0)
    return out.reshape(shape)


def _series(weight: Weight, group: CongruenceGroup, radius: float, ball, budget: int,
            z: np.ndarray, mu: MatrixPolynomial | None = None,
            xi: SiegelPoint | None = None) -> TruncatedSeriesResult:
    """The series at one point; the tail is the shell outside half the radius."""
    if ball is None:
        ball = enumerate_ball(group, radius, budget=budget)
    elif ball.group != group:
        raise DomainError("supplied ball was enumerated for a different group")
    elif ball.radius < radius - 1e-12:
        raise DomainError("supplied ball is smaller than the requested radius")
    elif ball.radius > radius + 1e-12:
        ball = ball.restrict(radius)
    inner, shell = (_pole_sums(weight, part, z, mu, xi)
                    for part in ball.split(ball.radius / 2.0))
    return TruncatedSeriesResult(value=complex(inner + shell), terms=len(ball),
                                 radius=ball.radius, tail_estimate=abs(shell))


def poincare_f(mu: MatrixPolynomial, weight: Weight, group: CongruenceGroup,
               z: SiegelPoint, radius: float, ball: EnumerationBall | None = None,
               budget: int = 2 * 10 ** 9) -> TruncatedSeriesResult:
    """Truncation of the average of (f_{mu,m} | gamma)(z) over the group."""
    weight.require_integrable()
    if group.n != weight.n or z.n != weight.n or mu.n != weight.n:
        raise DimensionError("mu, weight, group and z must share the same genus")
    return _series(weight, group, radius, ball, budget, z.z, mu=mu)


def poincare_F(spec: MatrixCoefficientSpec, group: CongruenceGroup,
               g: SymplecticMatrix, radius: float,
               ball: EnumerationBall | None = None,
               budget: int = 2 * 10 ** 9) -> TruncatedSeriesResult:
    """Truncation of the group-side average sum of F(gamma g).

    By the cocycle, F(gamma g) = j(g, iI)^{-m} (f | gamma)(g.iI), so this is
    the weight-vector series at g.iI times j(g, iI)^{-m}.
    """
    weight = spec.weight
    weight.require_integrable()
    if group.n != weight.n or g.n != weight.n:
        raise DimensionError("spec, group and g must share the same genus")
    center = SiegelPoint.center(weight.n)
    res = _series(weight, group, radius, ball, budget, act(g, center).z, mu=spec.mu)
    factor = j_factor(g, center) ** (-weight.m)
    return replace(res, value=factor * res.value,
                   tail_estimate=abs(factor) * res.tail_estimate)


def kernel_series(weight: Weight, group: CongruenceGroup, xi: SiegelPoint,
                  z: SiegelPoint, radius: float,
                  ball: EnumerationBall | None = None,
                  budget: int = 2 * 10 ** 9) -> TruncatedSeriesResult:
    """Truncated average of the point-evaluation kernel at xi."""
    weight.require_integrable()
    if group.n != weight.n or z.n != weight.n or xi.n != weight.n:
        raise DimensionError("weight, group, xi and z must share the same genus")
    return _series(weight, group, radius, ball, budget, z.z, xi=xi)


def series_evaluator_genus1(weight: Weight, ball: EnumerationBall,
                            mu: MatrixPolynomial | None = None,
                            xi: SiegelPoint | None = None):
    """Vectorized genus-1 evaluator: complex array z -> truncated series values.

    Exactly one of ``mu`` (weight-vector series) and ``xi`` (kernel series)
    must be given.  Useful as a quadrature integrand.
    """
    if (mu is None) == (xi is None):
        raise DomainError("give exactly one of mu and xi")
    if ball.group.n != 1 or weight.n != 1:
        raise DimensionError("this evaluator is genus-1 only")
    weight.require_integrable()
    return lambda z: _pole_sums(
        weight, ball, np.asarray(z, dtype=np.complex128)[..., None, None], mu, xi)


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
                      budget: int = 2 * 10 ** 9) -> NormBoundsReport:
    """Check the two norm estimates behind the truncation analysis.

    Sampled part: products k h_t k' h_{-t'} k'' with |t|, |t'| <= r stay below
    sqrt(2n cosh 4r) in Frobenius norm.  Exact part: every enumerated group
    element outside the compact subgroup has norm at least sqrt(N^2 + 2n).
    """
    n, N = group.n, group.N
    rng = np.random.default_rng(seed)
    bound = math.sqrt(2 * n * math.cosh(4 * r))
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
    if n > 2:
        raise DimensionError("exact enumeration is implemented for genus 1 and 2")
    ball = enumerate_ball(group, ball_radius, budget=budget)
    eye = np.eye(2 * n, dtype=np.int64)
    compact = np.array([np.array_equal(e.T @ e, eye) for e in ball.elements])
    noncompact = ball.norms_squared()[~compact]
    min_nc = math.sqrt(float(np.min(noncompact))) if len(noncompact) else math.inf
    passed = (mx < bound) and (min_nc >= threshold - 1e-12)
    return NormBoundsReport(r=float(r), bound=bound, max_product_norm=mx,
                            samples=int(samples), level=N, threshold=threshold,
                            min_noncompact_norm=min_nc, ball_radius=ball_radius,
                            passed=passed)
