"""Polynomials in the entries of a symmetric n x n matrix variable.

Terms are stored against integer exponent matrices; evaluation works on a
single matrix or on an arbitrary stack of them.  A small text grammar covers
the common weights: ``1``, ``det``, ``det^3``, ``X_{1,2}``, and integer
combinations such as ``2*X_{1,1}*X_{2,2} - det``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re

import numpy as np

from .errors import DimensionError, DomainError
from .matrixio import require_genus, require_integer

_UNIT_POWER = {1: 0, 1j: 1, -1: 2, -1j: 3}     # c -> t with c = i^t


def _canonical_terms(n, terms):
    canon = {}
    for exps, coeff in terms.items():
        E = tuple(tuple(require_integer(v, "exponent", 0) for v in row) for row in exps)
        if len(E) != n or any(len(row) != n for row in E):
            raise DimensionError(f"exponent matrix must be {n}x{n}")
        c = complex(coeff)
        if c != 0:
            canon[E] = canon.get(E, 0j) + c
    return {e: c for e, c in sorted(canon.items()) if c != 0}


class MatrixPolynomial:
    """Immutable polynomial in the entries of an n x n matrix."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        n = require_integer(n, "matrix size", 1, DimensionError)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", _canonical_terms(n, dict(terms or {})))

    def __setattr__(self, *_):
        raise AttributeError("MatrixPolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MatrixPolynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "MatrixPolynomial":
        n = require_integer(n, "genus", 1, DimensionError)
        zero_exp = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        return cls(n, {zero_exp: c})

    @classmethod
    def one(cls, n: int) -> "MatrixPolynomial":
        return cls.constant(n, 1.0)

    @classmethod
    def coordinate(cls, n: int, r: int, s: int) -> "MatrixPolynomial":
        """The entry X_{r,s}, indices 1-based."""
        n = require_integer(n, "genus", 1, DimensionError)
        r, s = (require_integer(i, "coordinate index", 1) for i in (r, s))
        if max(r, s) > n:
            raise DomainError(f"coordinate indices must lie in 1..{n}")
        exp = [[0] * n for _ in range(n)]
        exp[r - 1][s - 1] = 1
        return cls(n, {tuple(map(tuple, exp)): 1.0})

    @classmethod
    def det_power(cls, n: int, power: int) -> "MatrixPolynomial":
        return _det_power_cached(n, require_integer(power, "determinant power", 0))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(v for row in e for v in row) for e in self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixPolynomial)
                and self.n == other.n and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, tuple(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"MatrixPolynomial({self.n}, 0)"
        return f"MatrixPolynomial({self.n}, {len(self._terms)} terms, degree {self.degree()})"

    def __str__(self):
        """The polynomial in the text grammar, one monomial per term."""
        def monomial(exps, c):
            atoms = [f"X_{{{r + 1},{s + 1}}}" + (f"^{e}" if e > 1 else "")
                     for r, row in enumerate(exps) for s, e in enumerate(row) if e]
            coeff = f"{c.real:.15g}" if c.imag == 0 else str(c)
            return "*".join(atoms if c == 1 and atoms else [coeff, *atoms])
        return " + ".join(monomial(*term) for term in self._terms.items()).replace("+ -", "- ") or "0"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        require_genus(self.n, other=other)
        merged = dict(self._terms)
        for e, c in other._terms.items():
            merged[e] = merged.get(e, 0j) + c
        return MatrixPolynomial(self.n, merged)

    def __neg__(self):
        return MatrixPolynomial(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MatrixPolynomial(self.n, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        require_genus(self.n, other=other)
        prod: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(e1, e2))
                prod[e] = prod.get(e, 0j) + c1 * c2
        return MatrixPolynomial(self.n, prod)

    __rmul__ = __mul__

    def orbit_sum(self, units, m: int) -> "MatrixPolynomial":
        """The polynomial sum over u in ``units`` of det(u)^m p(u X u^T), as a
        function of a symmetric X, with every X_{s,r} (s > r) read as X_{r,s}.

        Each u is a monomial n x n matrix whose nonzero entries are powers of
        i, so X_{r,s} -> c_r c_s X_{p(r),p(s)} where u[r, p(r)] = c_r: each
        term is relabelled, and its unit factors are counted as Gaussian
        integers before they meet the coefficient.  Terms that cancel are
        therefore exactly 0."""
        m = require_integer(m, "weight")
        units = np.asarray(units, dtype=np.complex128)
        require_genus(self.n, units=units)
        nonzero = units != 0
        perms = np.argmax(nonzero, axis=2)
        if not (np.all(nonzero.sum(axis=2) == 1)
                and np.all(np.sort(perms, axis=1) == np.arange(self.n))
                and np.isin(units[nonzero], list(_UNIT_POWER)).all()):
            raise DomainError("each u must be a monomial matrix with entries in {+-1, +-i}")
        counts: dict = {}         # (target, source) -> counts of i^0, i^1, i^2, i^3
        for u, perm in zip(units, perms.tolist()):
            power = [_UNIT_POWER[complex(u[r, p])] for r, p in enumerate(perm)]
            # det(u) = sign(perm) prod c_r, and sign(perm) = i^(2 * inversions)
            det = sum(power) + 2 * sum(a > b for a, b in itertools.combinations(perm, 2))
            for exps in self._terms:
                target, t = [[0] * self.n for _ in range(self.n)], m * det
                for r, row in enumerate(exps):
                    for s, e in enumerate(row):
                        if e:
                            a, b = sorted((perm[r], perm[s]))
                            target[a][b] += e
                            t += e * (power[r] + power[s])
                key = (tuple(map(tuple, target)), exps)
                counts.setdefault(key, [0, 0, 0, 0])[t % 4] += 1
        out: dict = {}
        for (target, exps), (c0, c1, c2, c3) in counts.items():
            out[target] = out.get(target, 0j) + self._terms[exps] * complex(c0 - c2, c1 - c3)
        return MatrixPolynomial(self.n, out)

    def __pow__(self, k: int):
        k = require_integer(k, "power", 0)
        out = MatrixPolynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, w) -> complex:
        """Value at a single n x n matrix."""
        return complex(self.evaluate_batch(np.asarray(w, dtype=np.complex128)))

    def evaluate_batch(self, W: np.ndarray) -> np.ndarray:
        """Value at a stack (..., n, n): sum of coeff * W[..., r, s] ** e over nonzero e."""
        W = np.asarray(W, dtype=np.complex128)
        require_genus(self.n, W=W)
        out = np.zeros(W.shape[:-2], dtype=np.complex128)
        for exps, coeff in self._terms.items():
            term = coeff
            for r, row in enumerate(exps):
                for s, e in enumerate(row):
                    if e:
                        term = term * W[..., r, s] ** e
            out += term
        return out


@functools.lru_cache(maxsize=None)
def _det_power_cached(n: int, power: int) -> MatrixPolynomial:
    det = MatrixPolynomial.zero(n)
    for perm in itertools.permutations(range(n)):
        # the sign of a permutation is the parity of its inversion count
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        exp = [[0] * n for _ in range(n)]
        for i, j in enumerate(perm):
            exp[i][j] += 1
        det = det + MatrixPolynomial(n, {tuple(map(tuple, exp)): float(sign)})
    return det ** power


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# The grammar has no parentheses, so it is regular: signed terms, each a
# product of atoms (det, X_{r,s} or an integer) with an optional integer power.
_ATOM = r"(?:det|X_\{\s*\d+\s*,\s*\d+\s*\}|\d+)(?:\s*\^\s*\d+)?"
_TERM = rf"{_ATOM}(?:\s*\*\s*{_ATOM})*"
_POLYNOMIAL = re.compile(rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")


def parse_polynomial(text: str, n: int) -> MatrixPolynomial:
    """Parse the shorthand grammar into a polynomial of size n."""
    if not _POLYNOMIAL.fullmatch(text):
        raise DomainError(f"cannot parse {text!r} as a polynomial")
    # + and - only join terms, and * only joins atoms
    first, *rest = re.split(r"([+-])", text)
    if first.strip():
        rest = ["+", first, *rest]
    (sign, out), *terms = [
        (sign, functools.reduce(operator.mul, (_atom(a, n) for a in term.split("*"))))
        for sign, term in zip(rest[::2], rest[1::2])]
    out = out * (-1 if sign == "-" else 1)
    for sign, term in terms:
        out = out - term if sign == "-" else out + term
    return out


def _atom(text: str, n: int) -> MatrixPolynomial:
    base, _, power = (part.strip() for part in text.partition("^"))
    if base == "det":
        out = MatrixPolynomial.det_power(n, 1)
    elif base.startswith("X"):
        out = MatrixPolynomial.coordinate(n, *map(int, re.findall(r"\d+", base)))
    else:
        out = MatrixPolynomial.constant(n, float(base))
    return out ** int(power) if power else out
