"""Core types and operations for the real symplectic group of genus n.

Conventions: a group element is a real 2n x 2n matrix g = [[A, B], [C, D]]
with g^T J g = J for J = [[0, I], [-I, 0]].  The group acts on the Siegel
upper half-space (z = x + iy, y positive definite) by
g.z = (Az + B)(Cz + D)^{-1}, with automorphy factor j(g, z) = det(Cz + D).
The maximal compact subgroup is the image of U(n) under
u = a + ib  ->  [[a, b], [-b, a]]  (see ``embed_unitary``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from .matrixio import (
    as_complex_matrix,
    as_real_matrix,
    as_square,
    readonly,
    require_positive_definite,
    require_symmetric,
)

SP_TOL = 1e-10          # max-norm defect in g^T J g = J, per unit of |g|_F^2
UNITARY_TOL = 1e-10     # max-norm defect allowed in u* u = I
SYM_TOL = 1e-12         # relative symmetry defect for half-space points
COND_MAX = 1e12         # condition cap for Cz + D before acting


def j_matrix(n: int) -> np.ndarray:
    """The standard skew form [[0, I], [-I, 0]]."""
    if n < 1:
        raise DimensionError("genus must be a positive integer")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def sp_check(g, tol: float = SP_TOL) -> bool:
    """True when max|g^T J g - J| <= tol * max(1, |g|_F^2).

    Rounding in g^T J g grows with |g|_F^2, so the defect is measured
    relative to it; an absolute bound rejects valid elements far from K.
    """
    arr = as_real_matrix(g, "g")
    as_square(arr, "g")
    if arr.shape[0] % 2 != 0:
        raise DimensionError(f"symplectic matrices have even size, got {arr.shape[0]}")
    J = j_matrix(arr.shape[0] // 2)
    scale = max(1.0, float(np.vdot(arr, arr)))
    return float(np.max(np.abs(arr.T @ J @ arr - J))) <= tol * scale


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated element of Sp(2n, R)."""

    g: np.ndarray
    tol: float = SP_TOL

    def __post_init__(self):
        arr = as_real_matrix(self.g, "g")
        if not sp_check(arr, self.tol):
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
        return cls(np.eye(2 * n))

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.n != other.n:
            raise DimensionError("cannot multiply symplectic matrices of different genus")
        return SymplecticMatrix(self.g @ other.g)


def sp_inverse(g: SymplecticMatrix) -> SymplecticMatrix:
    """Exact block-transpose inverse [[D^T, -B^T], [-C^T, A^T]]."""
    top = np.hstack([g.D.T, -g.B.T])
    bot = np.hstack([-g.C.T, g.A.T])
    return SymplecticMatrix(np.vstack([top, bot]), tol=g.tol)


@dataclass(frozen=True)
class SiegelPoint:
    """Point z = x + iy of the upper half-space: x, y real symmetric, y > 0."""

    x: np.ndarray
    y: np.ndarray
    sym_tol: float = SYM_TOL

    def __post_init__(self):
        x = as_real_matrix(self.x, "x")
        y = as_real_matrix(self.y, "y")
        as_square(x, "x")
        if x.shape != y.shape:
            raise DimensionError("x and y must have the same shape")
        require_symmetric(x, self.sym_tol, "x")
        require_symmetric(y, self.sym_tol, "y")
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
    def from_complex(cls, zmat, sym_tol: float = SYM_TOL) -> "SiegelPoint":
        arr = as_complex_matrix(zmat, "z")
        return cls(arr.real, arr.imag, sym_tol)

    @classmethod
    def center(cls, n: int) -> "SiegelPoint":
        """The distinguished base point iI."""
        return cls(np.zeros((n, n)), np.eye(n))


@dataclass(frozen=True)
class BoundedDomainPoint:
    """Symmetric complex w with I - w*w positive definite (Cayley image)."""

    w: np.ndarray
    sym_tol: float = SYM_TOL

    def __post_init__(self):
        w = as_complex_matrix(self.w, "w")
        as_square(w, "w")
        scale = max(1.0, float(np.max(np.abs(w))))
        if float(np.max(np.abs(w - w.T))) > self.sym_tol * scale:
            raise DomainError("w is not symmetric")
        require_positive_definite(np.eye(w.shape[0]) - w.conj().T @ w, "I - w*w")
        object.__setattr__(self, "w", readonly(0.5 * (w + w.T)))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def density(self) -> float:
        """Invariant volume density 2^{n(n+1)} det(I - w*w)^{-(n+1)}."""
        n = self.n
        d = np.linalg.det(np.eye(n) - self.w.conj().T @ self.w).real
        return float(2.0 ** (n * (n + 1)) * d ** (-(n + 1)))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A validated element of U(n)."""

    mat: np.ndarray
    tol: float = UNITARY_TOL

    def __post_init__(self):
        m = as_complex_matrix(self.mat, "u")
        as_square(m, "u")
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if defect > self.tol:
            raise DomainError(f"matrix fails unitarity by {defect:.3e}")
        object.__setattr__(self, "mat", readonly(m))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def det(self) -> complex:
        return complex(np.linalg.det(self.mat))


# ---------------------------------------------------------------------------
# group action on the half-space and the bounded domain
# ---------------------------------------------------------------------------

def _require_same_n(g: SymplecticMatrix, z: SiegelPoint) -> None:
    if g.n != z.n:
        raise DimensionError(f"genus mismatch: g has n={g.n}, z has n={z.n}")


def act(g: SymplecticMatrix, z: SiegelPoint, cond_max: float = COND_MAX) -> SiegelPoint:
    """Moebius action g.z = (Az + B)(Cz + D)^{-1}."""
    _require_same_n(g, z)
    zc = z.z
    M = g.C @ zc + g.D
    if np.linalg.cond(M) > cond_max:
        raise NumericalError("Cz + D is too ill-conditioned to act reliably")
    num = g.A @ zc + g.B
    znew = np.linalg.solve(M.T, num.T).T
    znew = 0.5 * (znew + znew.T)
    return SiegelPoint.from_complex(znew)


def j_factor(g: SymplecticMatrix, z: SiegelPoint) -> complex:
    """Automorphy factor j(g, z) = det(Cz + D)."""
    _require_same_n(g, z)
    return complex(np.linalg.det(g.C @ z.z + g.D))


def im_transform(g: SymplecticMatrix, z: SiegelPoint) -> np.ndarray:
    """Imaginary part of g.z computed directly: (Cz+D)^{-*} y (Cz+D)^{-1}."""
    _require_same_n(g, z)
    M = g.C @ z.z + g.D
    Minv = np.linalg.inv(M)
    out = Minv.conj().T @ z.y @ Minv
    return 0.5 * (out.real + out.real.T)


def cayley(z: SiegelPoint) -> BoundedDomainPoint:
    """w = (z - iI)(z + iI)^{-1}, into the bounded domain."""
    zc = z.z
    eye = np.eye(z.n)
    M = zc + 1j * eye
    w = np.linalg.solve(M.T, (zc - 1j * eye).T).T
    return BoundedDomainPoint(0.5 * (w + w.T))


def cayley_inv(w: BoundedDomainPoint) -> SiegelPoint:
    """z = i(I + w)(I - w)^{-1}, back to the half-space."""
    eye = np.eye(w.n)
    M = eye - w.w
    z = np.linalg.solve(M.T, (1j * (eye + w.w)).T).T
    return SiegelPoint.from_complex(0.5 * (z + z.T))


def domain_density(w: BoundedDomainPoint) -> float:
    return w.density()


# ---------------------------------------------------------------------------
# the compact subgroup
# ---------------------------------------------------------------------------

def embed_unitary(u: UnitaryMatrix) -> SymplecticMatrix:
    """U(n) -> Sp(2n, R), u = a + ib mapped to [[a, b], [-b, a]]."""
    a, b = u.mat.real, u.mat.imag
    top = np.hstack([a, b])
    bot = np.hstack([-b, a])
    return SymplecticMatrix(np.vstack([top, bot]))


def unitary_part(k: np.ndarray, tol: float = UNITARY_TOL) -> UnitaryMatrix:
    """Inverse of ``embed_unitary`` on matrices of the block form above."""
    arr = as_real_matrix(k, "k")
    n = arr.shape[0] // 2
    return UnitaryMatrix(arr[:n, :n] + 1j * arr[:n, n:], tol)


def chi(r: int, u: UnitaryMatrix) -> complex:
    """Character det(u)^r of the compact subgroup."""
    return complex(np.linalg.det(u.mat) ** int(r))


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
    arr = as_real_matrix(x, "x")
    require_symmetric(as_square(arr, "x"), SYM_TOL, "x")
    n = arr.shape[0]
    out = np.eye(2 * n)
    out[:n, n:] = arr
    return SymplecticMatrix(out)


def diagonal_scaling(y) -> SymplecticMatrix:
    """a_y = [[y^{1/2}, 0], [0, y^{-1/2}]] for positive definite y."""
    arr = as_real_matrix(y, "y")
    require_symmetric(as_square(arr, "y"), SYM_TOL, "y")
    ysq, ysqinv = _spd_sqrt(arr)
    n = arr.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = ysq
    out[n:, n:] = ysqinv
    return SymplecticMatrix(out)


def hyperbolic(t) -> SymplecticMatrix:
    """h_t = diag(e^{t_1}, ..., e^{t_n}, e^{-t_1}, ..., e^{-t_n})."""
    tv = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return SymplecticMatrix(np.diag(np.concatenate([np.exp(tv), np.exp(-tv)])))


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
        if pt.n != self.u.n:
            raise DimensionError("x, y and u must share the same size")
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
        if tv.ndim != 1 or tv.shape[0] != self.u.n or self.u.n != self.uprime.n:
            raise DimensionError("t must be a vector matching the size of u and u'")
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


def _polar_unitary(u: np.ndarray) -> np.ndarray:
    """Nearest unitary matrix (polar factor via SVD)."""
    U, _, Vh = np.linalg.svd(u)
    return U @ Vh


def nak_decompose(g: SymplecticMatrix, unitary_tol: float = 1e-8) -> NAKFactors:
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
    if defect > unitary_tol:
        raise NumericalError(f"compact residual fails unitarity by {defect:.3e}")
    return NAKFactors(x=z.x, y=z.y, u=UnitaryMatrix(_polar_unitary(u)))


def _sign_fix(V: np.ndarray) -> np.ndarray:
    """Deterministic column gauge: largest-|entry| coordinate made positive."""
    V = V.copy()
    for i in range(V.shape[1]):
        j = int(np.argmax(np.abs(V[:, i])))
        if V[j, i] < 0:
            V[:, i] = -V[:, i]
    return V


def _kak_from_basis(arr: np.ndarray, V: np.ndarray, t: np.ndarray, n: int, J: np.ndarray):
    """Build candidate factors from a top-half eigenbasis V of g^T g."""
    V = _sign_fix(V)
    K2 = np.hstack([V, -J @ V])            # right compact factor, transposed
    hinv = np.concatenate([np.exp(-t), np.exp(t)])
    K1 = (arr @ K2) * hinv[None, :]
    u_left = _polar_unitary(K1[:n, :n] + 1j * K1[:n, n:])
    # K2 = [[a, -b], [b, a]] embeds a - ib; the right factor is its inverse
    u_right = _polar_unitary(V[:n, :].T + 1j * V[n:, :].T)
    h = np.concatenate([np.exp(t), np.exp(-t)])
    a1, b1 = u_left.real, u_left.imag
    a2, b2 = u_right.real, u_right.imag
    k1 = np.vstack([np.hstack([a1, b1]), np.hstack([-b1, a1])])
    k2 = np.vstack([np.hstack([a2, b2]), np.hstack([-b2, a2])])
    defect = float(np.max(np.abs((k1 * h[None, :]) @ k2 - arr)))
    return u_left, t, u_right, defect


def kak_decompose(g: SymplecticMatrix, guard: float = 1e-6) -> KAKFactors:
    """Cartan coordinates g = k_u h_t k_{u'}.

    The eigenbasis of g^T g supplies the right compact factor; eigenvalues
    come in e^{2t}, e^{-2t} pairs.  Near-unit eigenvalues are re-paired as
    (v, -Jv) inside their cluster, since the eigensolver's basis for a
    degenerate cluster need not respect the skew pairing; of the direct and
    clustered candidates, the one reassembling g more accurately wins.
    """
    n = g.n
    arr = np.asarray(g.g)
    gram = arr.T @ arr
    gram = 0.5 * (gram + gram.T)
    lam, vec = np.linalg.eigh(gram)
    order = np.arange(2 * n - 1, n - 1, -1)
    t = 0.5 * np.log(np.maximum(lam[order], 1e-300))
    t = np.maximum(t, 0.0)
    J = j_matrix(n)
    candidates = [_kak_from_basis(arr, vec[:, order], t, n, J)]

    if t[-1] < guard:
        # re-pair the lambda ~ 1 eigenspace
        t_all = 0.5 * np.log(np.maximum(lam, 1e-300))
        E = vec[:, np.abs(t_all) < guard]
        pairs = []
        while E.shape[1] >= 2:
            v = E[:, 0] / np.linalg.norm(E[:, 0])
            w = -J @ v
            w = w - v * (v @ w)
            w /= np.linalg.norm(w)
            pairs.append(v)
            P = E - np.outer(v, v @ E) - np.outer(w, w @ E)
            if E.shape[1] == 2:
                break
            U, _, _ = np.linalg.svd(P, full_matrices=False)
            E = U[:, : E.shape[1] - 2]
        if pairs:
            k = len(pairs)
            V = vec[:, order].copy()
            V[:, n - k:] = np.stack(pairs, axis=1)
            t2 = t.copy()
            t2[n - k:] = 0.0
            candidates.append(_kak_from_basis(arr, V, t2, n, J))

    u_left, tbest, u_right, defect = min(candidates, key=lambda c: c[-1])
    if defect > guard:
        raise NumericalError(f"factor reassembly defect {defect:.3e} exceeds guard")
    return KAKFactors(u=UnitaryMatrix(u_left), t=tbest, uprime=UnitaryMatrix(u_right))
