"""Core types and operations for the real symplectic group of genus n.

Conventions: a group element is a real 2n x 2n matrix g = [[A, B], [C, D]]
with g^T J g = J for J = [[0, I], [-I, 0]].  The group acts on the Siegel
upper half-space (z = x + iy, y positive definite) by
g.z = (Az + B)(Cz + D)^{-1}, with automorphy factor j(g, z) = det(Cz + D).
The maximal compact subgroup is the image of U(n) under
u = a + ib  ->  [[a, b], [-b, a]]  (see ``embed_unitary``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _small
from .errors import DimensionError, DomainError, NumericalError
from .matrixio import (
    as_matrix,
    readonly,
    require_genus,
    require_integer,
    require_positive_definite,
    require_symmetric,
)

SP_TOL = 1e-10          # max-norm defect in g^T J g = J, per unit of |g|_F^2
UNITARY_TOL = 1e-10     # max-norm defect allowed in u* u = I
COND_MAX = 1e12         # condition cap for Cz + D before acting
_NAK_TOL = 1e-8         # unitarity defect allowed in the Iwasawa compact residual
_KAK_GUARD = 1e-6       # KAK reassembly defect per unit of max(1, |g|_F), and the
                        # |t| below which singular values form the unit cluster


def j_matrix(n: int) -> np.ndarray:
    """The standard skew form [[0, I], [-I, 0]]."""
    n = require_integer(n, "genus", 1, DimensionError)
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def sp_check(g) -> bool:
    """True when max|g^T J g - J| <= SP_TOL * max(1, |g|_F^2).

    Rounding in g^T J g grows with |g|_F^2, so the defect is measured
    relative to it; an absolute bound rejects valid elements far from K.
    """
    arr = as_matrix(g, "g", square=True)
    if arr.shape[0] % 2 != 0:
        raise DimensionError(f"symplectic matrices have even size, got {arr.shape[0]}")
    J = j_matrix(arr.shape[0] // 2)
    scale = max(1.0, float(np.vdot(arr, arr)))
    return float(np.max(np.abs(arr.T @ J @ arr - J))) <= SP_TOL * scale


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated element of Sp(2n, R)."""

    g: np.ndarray

    def __post_init__(self):
        arr = as_matrix(self.g, "g")
        if not sp_check(arr):
            raise DomainError("matrix fails the symplectic relation g^T J g = J")
        object.__setattr__(self, "g", readonly(arr))

    @property
    def n(self) -> int:
        return self.g.shape[0] // 2

    @property
    def A(self) -> np.ndarray:
        return self.g[: self.n, : self.n]

    @property
    def B(self) -> np.ndarray:
        return self.g[: self.n, self.n:]

    @property
    def C(self) -> np.ndarray:
        return self.g[self.n:, : self.n]

    @property
    def D(self) -> np.ndarray:
        return self.g[self.n:, self.n:]

    @classmethod
    def identity(cls, n: int) -> "SymplecticMatrix":
        return cls(np.eye(2 * require_integer(n, "genus", 1, DimensionError)))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        require_genus(self.n, other=other)
        return SymplecticMatrix(self.g @ other.g)


def sp_inverse(g: SymplecticMatrix) -> SymplecticMatrix:
    """Exact block-transpose inverse [[D^T, -B^T], [-C^T, A^T]]."""
    top = np.hstack([g.D.T, -g.B.T])
    bot = np.hstack([-g.C.T, g.A.T])
    return SymplecticMatrix(np.vstack([top, bot]))


@dataclass(frozen=True)
class SiegelPoint:
    """Point z = x + iy of the upper half-space: x, y real symmetric, y > 0."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, "x", square=True)
        y = as_matrix(self.y, "y")
        if x.shape != y.shape:
            raise DimensionError("x and y must have the same shape")
        require_symmetric(x, "x")
        require_symmetric(y, "y")
        require_positive_definite(0.5 * (y + y.T), "y")
        object.__setattr__(self, "x", readonly(0.5 * (x + x.T)))
        object.__setattr__(self, "y", readonly(0.5 * (y + y.T)))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def z(self) -> np.ndarray:
        return self.x + 1j * self.y

    @classmethod
    def from_complex(cls, zmat) -> "SiegelPoint":
        arr = as_matrix(zmat, "z", np.complex128)
        return cls(arr.real, arr.imag)

    @classmethod
    def center(cls, n: int) -> "SiegelPoint":
        """The distinguished base point iI."""
        n = require_integer(n, "genus", 1, DimensionError)
        return cls(np.zeros((n, n)), np.eye(n))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A validated element of U(n)."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat, "u", np.complex128, square=True)
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if defect > UNITARY_TOL:
            raise DomainError(f"matrix fails unitarity by {defect:.3e}")
        object.__setattr__(self, "mat", readonly(m))

    @property
    def n(self) -> int:
        return self.mat.shape[0]


# ---------------------------------------------------------------------------
# group action on the half-space
# ---------------------------------------------------------------------------

def act(g: SymplecticMatrix, z: SiegelPoint) -> SiegelPoint:
    """Moebius action g.z = (Az + B)(Cz + D)^{-1}."""
    require_genus(g.n, z=z)
    zc = z.z
    M = g.C @ zc + g.D
    if np.linalg.cond(M) > COND_MAX:
        raise NumericalError("Cz + D is too ill-conditioned to act reliably")
    num = g.A @ zc + g.B
    znew = np.linalg.solve(M.T, num.T).T
    znew = 0.5 * (znew + znew.T)
    return SiegelPoint.from_complex(znew)


def j_factor(g: SymplecticMatrix, z: SiegelPoint) -> complex:
    """Automorphy factor j(g, z) = det(Cz + D)."""
    require_genus(g.n, z=z)
    return complex(np.linalg.det(g.C @ z.z + g.D))


def im_transform(g: SymplecticMatrix, z: SiegelPoint) -> np.ndarray:
    """Imaginary part of g.z computed directly: (Cz+D)^{-*} y (Cz+D)^{-1}."""
    require_genus(g.n, z=z)
    M = g.C @ z.z + g.D
    Minv = np.linalg.inv(M)
    out = Minv.conj().T @ z.y @ Minv
    return 0.5 * (out.real + out.real.T)


# ---------------------------------------------------------------------------
# the compact subgroup
# ---------------------------------------------------------------------------

def _embed(u: np.ndarray) -> np.ndarray:
    a, b = u.real, u.imag
    return np.block([[a, b], [-b, a]])


def embed_unitary(u: UnitaryMatrix) -> SymplecticMatrix:
    """U(n) -> Sp(2n, R), u = a + ib mapped to [[a, b], [-b, a]]."""
    return SymplecticMatrix(_embed(u.mat))


def chi(r: int, u: UnitaryMatrix) -> complex:
    """Character det(u)^r of the compact subgroup."""
    return complex(np.linalg.det(u.mat) ** require_integer(r, "character power"))


def _ginibre(rng: np.random.Generator, stack: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The parts of a Ginibre stack: all real parts, then all imaginary ones."""
    return rng.standard_normal(stack), rng.standard_normal(stack)


def haar_unitary(n: int, seed) -> UnitaryMatrix:
    """Haar-distributed element of U(n): the parts drawn by _ginibre, then
    the phase-fixed QR factor, of a stack of one so that the closed forms
    round as they do on every stack.  ``seed`` is a Generator or an integer
    seed of at least 0."""
    n = require_integer(n, "genus", 1, DimensionError)
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(require_integer(seed, "seed", 0)))
    re, im = _ginibre(rng, (1, n, n))
    return UnitaryMatrix(_small.gram_schmidt((re + 1j * im) / np.sqrt(2.0))[0])


# ---------------------------------------------------------------------------
# one-parameter pieces and standard generators
# ---------------------------------------------------------------------------

def _spd_sqrt(y: np.ndarray):
    """Symmetric square root and its inverse, via the spectral decomposition."""
    vals, vecs = np.linalg.eigh(0.5 * (y + y.T))
    if vals[0] <= 0:
        raise DomainError("matrix is not positive definite")
    r = np.sqrt(vals)
    return (vecs * r) @ vecs.T, (vecs / r) @ vecs.T


def upper_translation(x) -> SymplecticMatrix:
    """n_x = [[I, x], [0, I]] for symmetric x."""
    arr = require_symmetric(as_matrix(x, "x", square=True), "x")
    n = arr.shape[0]
    out = np.eye(2 * n)
    out[:n, n:] = arr
    return SymplecticMatrix(out)


def diagonal_scaling(y) -> SymplecticMatrix:
    """a_y = [[y^{1/2}, 0], [0, y^{-1/2}]] for positive definite y."""
    arr = require_symmetric(as_matrix(y, "y", square=True), "y")
    ysq, ysqinv = _spd_sqrt(arr)
    n = arr.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = ysq
    out[n:, n:] = ysqinv
    return SymplecticMatrix(out)


def hyperbolic(t) -> SymplecticMatrix:
    """h_t = diag(e^{t_1}, ..., e^{t_n}, e^{-t_1}, ..., e^{-t_n}), refused where
    |h_t|_F^2 is not a finite float (some |t_i| above about 354.9)."""
    tv = np.atleast_1d(np.asarray(t, dtype=np.float64))
    with np.errstate(over="ignore"):
        d = np.exp(np.concatenate([tv, -tv]))
        if not np.isfinite(np.sum(d * d)):
            raise DomainError(f"t = {tv.tolist()} is out of range: |h_t|_F^2 is not finite")
    return SymplecticMatrix(np.diag(d))


def random_symplectic(n: int, rng: np.random.Generator) -> SymplecticMatrix:
    """Generic element n_x a_y k_u: x uniform symmetric in [-1, 1],
    y = b b^T + 0.3 I with b standard normal, u Haar (drawn in that order)."""
    n = require_integer(n, "genus", 1, DimensionError)
    x = rng.uniform(-1.0, 1.0, size=(n, n))
    x = (x + x.T) / 2.0
    b = rng.standard_normal((n, n))
    y = b @ b.T + 0.3 * np.eye(n)
    return upper_translation(x) @ diagonal_scaling(y) @ embed_unitary(haar_unitary(n, rng))


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NAKFactors:
    """g = n_x a_y k_u with x + iy = g.(iI)."""

    x: np.ndarray
    y: np.ndarray
    u: UnitaryMatrix

    def __post_init__(self):
        pt = SiegelPoint(self.x, self.y)   # validates symmetry and positivity
        require_genus(pt.n, u=self.u)
        object.__setattr__(self, "x", pt.x)
        object.__setattr__(self, "y", pt.y)

    @property
    def n(self) -> int:
        return self.u.n

    def assemble(self) -> SymplecticMatrix:
        return SymplecticMatrix(
            upper_translation(self.x).g @ diagonal_scaling(self.y).g @ embed_unitary(self.u).g
        )


@dataclass(frozen=True)
class KAKFactors:
    """g = k_u h_t k_{u'} with t descending and nonnegative."""

    u: UnitaryMatrix
    t: np.ndarray
    uprime: UnitaryMatrix

    def __post_init__(self):
        tv = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        require_genus(self.u.n, uprime=self.uprime)
        if tv.ndim != 1 or tv.shape[0] != self.u.n:
            raise DimensionError(f"t must be a vector of length {self.u.n}, the genus of u")
        if np.any(tv < -1e-12):
            raise DomainError("singular exponents must be nonnegative")
        if np.any(np.diff(tv) > 1e-12):
            raise DomainError("singular exponents must be sorted in descending order")
        object.__setattr__(self, "t", readonly(np.maximum(tv, 0.0)))

    @property
    def n(self) -> int:
        return self.u.n

    def assemble(self) -> SymplecticMatrix:
        h = np.concatenate([np.exp(self.t), np.exp(-self.t)])
        return SymplecticMatrix(
            (embed_unitary(self.u).g * h[None, :]) @ embed_unitary(self.uprime).g
        )


def nak_decompose(g: SymplecticMatrix) -> NAKFactors:
    """Iwasawa coordinates of g: position g.(iI) plus the compact residual."""
    n = g.n
    z = act(g, SiegelPoint.center(n))
    ysq, ysqinv = _spd_sqrt(z.y)
    ninv = np.eye(2 * n)
    ninv[:n, n:] = -z.x
    ainv = np.zeros((2 * n, 2 * n))
    ainv[:n, :n] = ysqinv
    ainv[n:, n:] = ysq
    k = ainv @ ninv @ g.g
    u = k[:n, :n] + 1j * k[:n, n:]
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if defect > _NAK_TOL:
        raise NumericalError(f"compact residual fails unitarity by {defect:.3e}")
    U, _, Vh = np.linalg.svd(u)     # polar factor: the nearest unitary matrix
    return NAKFactors(x=z.x, y=z.y, u=UnitaryMatrix(U @ Vh))


def _kak_from_basis(arr: np.ndarray, V: np.ndarray, t: np.ndarray, n: int):
    """Build candidate factors from the top-half right singular vectors V of g."""
    # deterministic column gauge: the largest-|entry| coordinate made positive
    V = V * np.where(V[np.argmax(np.abs(V), axis=0), np.arange(n)] < 0, -1.0, 1.0)
    # g V e^{-t} = [a; -b] for the left factor a + ib: these columns are the
    # large singular directions, so their scaling loses no precision.  Columns
    # come in descending t, and the error of column i grows like e^{t_1 - t_i}
    # relative to |g|, so Gram-Schmidt in column order cleans each direction
    # against the more accurate ones; a polar factor would spread the error of
    # the small directions onto the dominant ones.
    K1 = (arr @ V) * np.exp(-t)[None, :]
    u_left = _small.gram_schmidt(K1[:n, :] - 1j * K1[n:, :])
    # [V, -JV] = [[a, -b], [b, a]] embeds a - ib; the right factor is its inverse
    u_right = _small.gram_schmidt(V[:n, :] + 1j * V[n:, :]).T
    h = np.concatenate([np.exp(t), np.exp(-t)])
    g_back = (_embed(u_left) * h[None, :]) @ _embed(u_right)
    return u_left, t, u_right, float(np.max(np.abs(g_back - arr)))


def kak_decompose(g: SymplecticMatrix) -> KAKFactors:
    """Cartan coordinates g = k_u h_t k_{u'}.

    The singular value decomposition of g supplies the right compact factor;
    singular values come in e^{t}, e^{-t} pairs.  Near-unit singular values
    are re-paired as (v, -Jv) inside their cluster, since the solver's basis
    for a degenerate cluster need not respect the skew pairing; of the direct
    and clustered candidates, the one reassembling g more accurately wins.
    The reassembly defect must stay within 1e-6 * max(1, |g|_F).
    """
    n = g.n
    arr = np.asarray(g.g)
    _, sig, Vh = np.linalg.svd(arr)
    vec = Vh.T
    t_all = np.log(np.maximum(sig, 1e-300))
    t = np.maximum(t_all[:n], 0.0)
    candidates = [_kak_from_basis(arr, vec[:, :n], t, n)]

    # re-pair the sigma ~ 1 subspace E: [p; q] -> p + iq turns -J into
    # multiplication by i, so a complex orthonormal basis u_j of E's image
    # gives the pairs v_j = [Re u_j; Im u_j], -J v_j
    E = vec[:, np.abs(t_all) < _KAK_GUARD]
    k = E.shape[1] // 2
    if k:
        U = np.linalg.svd(E[:n] + 1j * E[n:], full_matrices=False)[0][:, :k]
        V = vec[:, :n].copy()
        V[:, n - k:] = np.vstack([U.real, U.imag])
        t2 = t.copy()
        t2[n - k:] = 0.0
        candidates.append(_kak_from_basis(arr, V, t2, n))

    u_left, tbest, u_right, defect = min(candidates, key=lambda c: c[-1])
    if defect > _KAK_GUARD * max(1.0, float(np.linalg.norm(arr))):
        raise NumericalError(f"factor reassembly defect {defect:.3e} exceeds guard")
    return KAKFactors(u=UnitaryMatrix(u_left), t=tbest, uprime=UnitaryMatrix(u_right))
