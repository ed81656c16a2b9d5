"""Matrix validation helpers and the JSON on-disk schema.

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
    """Coerce to a finite 2-d array of ``dtype``, and require it square if asked."""
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    check_finite(arr, name)
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject a when max|a - a^T| > SYM_TOL * max(1, max|a|)."""
    if a.size and np.max(np.abs(a - a.T)) > SYM_TOL * max(1.0, float(np.max(np.abs(a)))):
        raise DomainError(f"{name} is not symmetric within {SYM_TOL}")
    return a


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
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{name}: malformed matrix object ({exc})") from None
    if re.shape != (rows, cols):
        raise DimensionError(f"{name}: 're' has shape {re.shape}, header says {(rows, cols)}")
    if "im" in obj:
        im = np.asarray(obj["im"], dtype=np.float64)
        if im.shape != (rows, cols):
            raise DimensionError(f"{name}: 'im' has shape {im.shape}, header says {(rows, cols)}")
        return check_finite(re + 1j * im, name)
    return check_finite(re, name)


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
