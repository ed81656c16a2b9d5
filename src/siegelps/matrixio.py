"""Validation helpers, among them the genus rule, and the JSON on-disk schema.

A matrix is stored as ``{"rows": r, "cols": c, "re": [[...]], "im": [[...]]}``
with ``im`` omitted for real matrices; entries are row-major lists of floats.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionError, DomainError

SYM_TOL = 1e-12         # symmetry defect allowed, relative to max(1, max|a|)


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject NaN/Inf entries."""
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    return a


def as_matrix(a, name: str = "matrix", dtype=np.float64, square: bool = False) -> np.ndarray:
    """Coerce to a finite, nonempty 2-d array of ``dtype`` (a real one refuses
    nonzero imaginary parts), so that nothing is made at genus 0."""
    arr = np.asarray(a)
    to_real = np.iscomplexobj(arr) and not np.issubdtype(dtype, np.complexfloating)
    if to_real and np.any(arr.imag):
        raise DomainError(f"{name} has a nonzero imaginary part")
    arr = np.asarray(arr.real if to_real else arr, dtype=dtype)
    if arr.ndim != 2 or not arr.size:
        raise DimensionError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    check_finite(arr, name)
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject a when max|a - a^T| > SYM_TOL * max(1, max|a|)."""
    if a.size and np.max(np.abs(a - a.T)) > SYM_TOL * max(1.0, float(np.max(np.abs(a)))):
        raise DomainError(f"{name} is not symmetric within {SYM_TOL}")
    return a


def require_integer(value, what: str, minimum: int | None = None, error=DomainError) -> int:
    """``value`` as an int, refused with ``error`` unless it equals an integer
    of at least ``minimum``: the one rule of every count, power and size, so
    that 8.9, NaN and inf are refused rather than truncated."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):   # int(NaN), int(inf), int(None)
        number = None
    if number is None or number != value:
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise error(f"{what} must be at least {minimum}, got {number}")
    return number


def require_genus(n: int, **inputs) -> None:
    """Refuse, naming each, the inputs whose genus is not n: an input's genus is
    its ``.n``, or k for an array of shape (..., k, k).  None is skipped."""
    shapes = {name: (x.n, x.n) if hasattr(x, "n") else np.shape(x)[-2:]
              for name, x in inputs.items() if x is not None}
    wrong = [f"{name} has genus {s[0]}" if len(s) == 2 and s[0] == s[1]
             else f"{name} has trailing shape {s}" for name, s in shapes.items() if s != (n, n)]
    if wrong:
        raise DimensionError(f"expected genus {n}, but {' and '.join(wrong)}")


def require_positive_definite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Positive definiteness via Cholesky (the cheapest reliable test)."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise DomainError(f"{name} is not positive definite") from None
    return a


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a matrix into the JSON schema."""
    a = np.asarray(a)
    out = {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
           "re": [[float(v) for v in row] for row in np.real(a)]}
    if np.iscomplexobj(a) and np.any(np.imag(a) != 0):
        out["im"] = [[float(v) for v in row] for row in np.imag(a)]
    return out


def matrix_from_json(obj: dict, name: str = "matrix") -> np.ndarray:
    """Decode the JSON schema; returns float64 or complex128."""
    try:
        rows, cols = (require_integer(obj[key], f"{name}: {key}", 1, DimensionError)
                      for key in ("rows", "cols"))
        parts = {key: np.asarray(obj[key], dtype=np.float64) for key in ("re", "im") if key in obj}
        re = parts["re"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{name}: malformed matrix object ({exc})") from None
    for key, part in parts.items():
        if part.shape != (rows, cols):
            raise DimensionError(
                f"{name}: {key!r} has shape {part.shape}, header says {(rows, cols)}")
    return check_finite(re + 1j * parts["im"] if "im" in parts else re, name)


def load_matrix(path: str, name: str = "matrix") -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:        # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"{path}: not a JSON matrix file ({exc})") from None
    return matrix_from_json(obj, name=name)


def save_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)


def readonly(a: np.ndarray) -> np.ndarray:
    """Copy and freeze, so dataclass fields cannot be mutated in place."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out
