"""Closed forms for stacks of 1x1 and 2x2 matrices.

Batched LAPACK pays a call per matrix, which on stacks of 2x2 matrices costs
10-30 times these entrywise formulas.  Each function takes a stack
(..., n, n), or its upper-triangle entries, at the sizes its docstring
names; callers keep LAPACK for larger n.
"""

from __future__ import annotations

import numpy as np


def det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices, as a new array (0-d for one
    matrix, so that it can be updated in place)."""
    out = np.empty(a.shape[:-2], dtype=a.dtype)
    np.multiply(a[..., 0, 0], a[..., 1, 1], out=out)
    out -= a[..., 0, 1] * a[..., 1, 0]
    return out


def times_adjugate(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q adj(p) over stacks of 2x2 matrices: q p^{-1} times det(p)."""
    p00, p01, p10, p11 = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
    out = np.empty(np.broadcast_shapes(q.shape, p.shape), dtype=np.result_type(q, p))
    for i in range(2):
        qi0, qi1 = q[..., i, 0], q[..., i, 1]
        out[..., i, 0] = qi0 * p11 - qi1 * p10
        out[..., i, 1] = qi1 * p00 - qi0 * p01
    return out


def _phase(z: np.ndarray, size: np.ndarray) -> np.ndarray:
    """z / size where size > 0, else 1."""
    return np.divide(z, size, out=np.ones_like(z), where=size > 0)


def gram_schmidt(a: np.ndarray) -> np.ndarray:
    """The phase-fixed QR factor of a stack of 1x1 or 2x2 complex matrices:
    diag(r) > 0, a zero diagonal keeping phase 1.

    At n = 2 the second column is the unit vector (-conj q10, conj q00)
    orthogonal to the first, turned by the phase of d = q00 a11 - q10 a01,
    which is r11 e^{i arg}; no subtraction of near-parallel columns occurs.
    """
    if a.shape[-1] == 1:
        return _phase(a, np.abs(a))
    a0, a1 = a[..., :, 0], a[..., :, 1]
    size = np.sqrt((a0.real ** 2 + a0.imag ** 2).sum(axis=-1))
    q00 = _phase(a0[..., 0], size)              # a zero column gives e_0
    q10 = np.divide(a0[..., 1], size, out=np.zeros_like(q00), where=size > 0)
    d = q00 * a1[..., 1] - q10 * a1[..., 0]
    phase = _phase(d, np.abs(d))
    q = np.empty_like(a)
    q[..., 0, 0] = q00
    q[..., 1, 0] = q10
    q[..., 0, 1] = -phase * np.conj(q10)
    q[..., 1, 1] = phase * np.conj(q00)
    return q


def congruence_diag(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """u diag(s) u^T over stacks of 1x1 or 2x2 u, entry by entry:
    w_ij = sum_k u_ik s_k u_jk, with w_10 a copy of w_01, so the result is
    exactly symmetric."""
    v = u * s[..., None, :]
    if u.shape[-1] == 1:
        return v * u
    w = np.empty_like(v)
    for i, j in ((0, 0), (1, 1), (0, 1)):
        w[..., i, j] = v[..., i, 0] * u[..., j, 0] + v[..., i, 1] * u[..., j, 1]
    w[..., 1, 0] = w[..., 0, 1]
    return w


def contraction_det(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For symmetric w given by its upper-triangle entries (count, 1) at genus
    1 or (count, 3) = (w00, w01, w11) at genus 2: whether I - conj(w) w is
    positive definite, and its determinant.

    At genus 2, M = I - conj(w) w has M00 = 1 - |a|^2 - |b|^2,
    M11 = 1 - |b|^2 - |c|^2 and M01 = -(conj(a) b + conj(b) c) for
    (a, b, c) = (w00, w01, w11); the Hermitian M is positive definite
    exactly when M00 > 0 and det M > 0.
    """
    sq = w.real ** 2 + w.imag ** 2
    if w.shape[-1] == 1:
        dets = 1.0 - sq[:, 0]
        return dets > 0.0, dets
    a, b, c = w[:, 0], w[:, 1], w[:, 2]
    m00 = 1.0 - sq[:, 0] - sq[:, 1]
    m11 = 1.0 - sq[:, 1] - sq[:, 2]
    m01 = np.conj(a) * b + np.conj(b) * c
    dets = m00 * m11 - (m01.real ** 2 + m01.imag ** 2)
    return (m00 > 0.0) & (dets > 0.0), dets
