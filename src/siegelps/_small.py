"""Stacks of small matrices: the one place that picks closed forms or LAPACK.

Each function takes a stack (..., n, n), or its upper-triangle entries, of
any size n; callers do not branch on n.  At n <= 2 entrywise closed forms
replace batched LAPACK, which pays a call per matrix and costs 10-30 times
as much on 2x2 stacks.
"""

from __future__ import annotations

import numpy as np


def det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack, in an array the caller may overwrite (0-d for
    one matrix).  At n = 1 it is the view a[..., 0, 0], so no copy is made."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n > 2:
        return np.asarray(np.linalg.det(a))
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


def inverse_det(p: np.ndarray,
                q: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """(1/det p, q p^{-1}) over a stack, or (1/det p, None) without q; p is
    overwritten at n = 1.  At n = 2, q p^{-1} is q adj(p) / det p."""
    n = p.shape[-1]
    if q is None:
        quotient = None
    elif n == 1:
        quotient = q / p
    elif n == 2:
        quotient = times_adjugate(q, p)
    else:
        quotient = np.swapaxes(np.linalg.solve(np.swapaxes(p, -1, -2),
                                               np.swapaxes(q, -1, -2)), -1, -2)
    inv = det(p)
    np.reciprocal(inv, out=inv)
    if n == 2 and q is not None:
        quotient *= inv[..., None, None]
    return inv, quotient


def _phase(z: np.ndarray, size: np.ndarray) -> np.ndarray:
    """z / size where size > 0, else 1."""
    return np.divide(z, size, out=np.ones_like(z), where=size > 0)


def _first_column(a00, a01, a10, a11) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first column (q00, q10) of the phase-fixed QR factor of a 2x2 stack, and
    d = q00 a11 - q10 a01 = r11 e^{i arg}: the second column is (-conj q10, conj q00)
    turned by the phase of d, so no near-parallel columns are subtracted."""
    size = np.sqrt(a00.real ** 2 + a00.imag ** 2 + (a10.real ** 2 + a10.imag ** 2))
    q00 = _phase(a00, size)                     # a zero column gives e_0
    q10 = np.divide(a10, size, out=np.zeros_like(q00), where=size > 0)
    return q00, q10, q00 * a11 - q10 * a01


def gram_schmidt(a: np.ndarray) -> np.ndarray:
    """The phase-fixed QR factor of a stack of square complex matrices:
    diag(r) > 0, a zero diagonal keeping phase 1; closed forms at n <= 2."""
    if a.shape[-1] == 1:
        return _phase(a, np.abs(a))
    if a.shape[-1] > 2:
        q, r = np.linalg.qr(a)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return q * _phase(d, np.abs(d))[..., None, :]
    q00, q10, d = _first_column(a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1])
    phase = _phase(d, np.abs(d))
    q = np.empty_like(a)
    q[..., 0, 0] = q00
    q[..., 1, 0] = q10
    q[..., 0, 1] = -phase * np.conj(q10)
    q[..., 1, 1] = phase * np.conj(q00)
    return q


def congruence_diag(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """u diag(s) u^T over a stack, exactly symmetric: at n = 2 w_10 is a copy
    of w_01, above that the product is averaged with its transpose."""
    v = u * s[..., None, :]
    n = u.shape[-1]
    if n == 1:
        return v * u
    if n > 2:
        w = v @ np.swapaxes(u, -1, -2)
        return (w + np.swapaxes(w, -1, -2)) / 2.0
    w = np.empty_like(v)
    for i, j in ((0, 0), (1, 1), (0, 1)):
        w[..., i, j] = v[..., i, 0] * u[..., j, 0] + v[..., i, 1] * u[..., j, 1]
    w[..., 1, 0] = w[..., 0, 1]
    return w


def haar_congruence(re: np.ndarray, im: np.ndarray, s: np.ndarray) -> np.ndarray:
    """u diag(s) u^T, exactly symmetric, over stacks of parts re, im (count, n, n)
    and planes s (n, count), for u the phase-fixed QR factor of (re + i im)/sqrt 2.
    At n = 2, u = (q, p conj v) for v = (-q10, q00) and p the phase of d
    (_first_column), so W = s0 q q^T + s1 p^2 conj(v v^T) needs no second column."""
    if re.shape[-1] != 2:                      # the phase at n = 1, LAPACK above 2
        return congruence_diag(gram_schmidt((re + 1j * im) / np.sqrt(2.0)), s.T)
    a = np.empty((4, len(re)), dtype=np.complex128)   # planes a00, a01, a10, a11
    np.multiply(re.reshape(-1, 4).T, 1.0 / np.sqrt(2.0), out=a.real)   # as z / sqrt(2)
    np.multiply(im.reshape(-1, 4).T, 1.0 / np.sqrt(2.0), out=a.imag)
    q00, q10, d = _first_column(*a)
    t = _phase(d, np.abs(d)) ** 2 * s[1]
    x2, y2, xy, s0 = q00 * q00, q10 * q10, q00 * q10, s[0]
    w01 = s0 * xy - t * np.conj(xy)
    return np.stack([s0 * x2 + t * np.conj(y2), w01,
                     w01, s0 * y2 + t * np.conj(x2)], axis=-1).reshape(re.shape)


def descending(x: np.ndarray) -> np.ndarray:
    """The rows of x (count, n) in descending order as planes (n, count): at n = 2 max, min."""
    if x.shape[-1] != 2:
        return np.sort(x, axis=-1)[:, ::-1].T
    return np.stack([np.maximum(*x.T), np.minimum(*x.T)])


def contraction_det(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For symmetric w = re + i im, given by the parts of its upper-triangle
    entries (count, n(n+1)/2), row by row: whether I - conj(w) w is positive
    definite, and its determinant, from the eigenvalues above genus 2.

    At genus 2, M = I - conj(w) w has M00 = 1 - |a|^2 - |b|^2,
    M11 = 1 - |b|^2 - |c|^2 and M01 = -(conj(a) b + conj(b) c) for
    (a, b, c) = (w00, w01, w11); the Hermitian M is positive definite
    exactly when M00 > 0 and det M > 0.
    """
    n = int(np.sqrt(2 * re.shape[-1]))      # n < sqrt(n(n+1)) < n + 1
    if n > 2:
        iu, ju = np.triu_indices(n)
        W = np.zeros((len(re), n, n), dtype=np.complex128)
        W.real[:, iu, ju] = W.real[:, ju, iu] = re
        W.imag[:, iu, ju] = W.imag[:, ju, iu] = im
        evs = np.linalg.eigvalsh(np.eye(n)[None] - np.conj(W) @ W)
        return evs[:, 0] > 0.0, np.prod(evs, axis=1)
    sq = re ** 2 + im ** 2
    if n == 1:
        dets = 1.0 - sq[:, 0]
        return dets > 0.0, dets
    (ar, br, cr), (ai, bi, ci) = re.T, im.T
    m00 = 1.0 - sq[:, 0] - sq[:, 1]
    m11 = 1.0 - sq[:, 1] - sq[:, 2]
    m01r = ar * br + ai * bi + (br * cr + bi * ci)
    m01i = ar * bi - ai * br + (br * ci - bi * cr)
    dets = m00 * m11 - (m01r ** 2 + m01i ** 2)
    return (m00 > 0.0) & (dets > 0.0), dets
