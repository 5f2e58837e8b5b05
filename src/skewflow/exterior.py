"""Dense exterior algebra Lambda^p R^n.

A p-vector is stored as a dense coefficient array over the lexicographically
ordered p-element subsets of {1, ..., n}.  That basis is orthonormal for the
metric induced from R^n, so inner products are plain dot products of
coefficient arrays.  Dimensions are capped at n <= 6 (at most C(6,3) = 20
coefficients), which covers every Grassmannian used downstream; sparse
storage would buy nothing at this scale.

Fields of p-vectors put the coefficient axis first, shape (C(n, p), *sizes);
one p-vector is the case without grid axes, so ``wedge`` calls ``wedge_field``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import UnsupportedCaseError

MAX_AMBIENT_DIM = 6


@lru_cache(maxsize=None)
def index_sets(degree: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All degree-element subsets of {1..n} in lexicographic order."""
    return tuple(combinations(range(1, n + 1), degree))


@lru_cache(maxsize=None)
def _ordinal_of(degree: int, n: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(index_sets(degree, n))}


class MultiVector:
    """Element of Lambda^p R^n as a dense coefficient vector."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs):
        if not (0 <= degree <= n):
            raise ValueError(f"degree {degree} out of range for n={n}")
        if n > MAX_AMBIENT_DIM:
            raise UnsupportedCaseError(f"ambient dimension {n} > {MAX_AMBIENT_DIM}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (comb(n, degree),):
            raise ValueError(
                f"need {comb(n, degree)} coefficients for degree {degree} in R^{n}, "
                f"got shape {coeffs.shape}"
            )
        self.n = n
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n: int, degree: int) -> "MultiVector":
        return cls(n, degree, np.zeros(comb(n, degree)))

    @classmethod
    def from_vector(cls, v) -> "MultiVector":
        """Degree-1 multivector from an ordinary vector."""
        v = np.asarray(v, dtype=float)
        return cls(v.shape[0], 1, v.copy())

    def coeff(self, members) -> float:
        """Coefficient on the basis subset given by 1-based members."""
        return float(self.coeffs[_ordinal_of(self.degree, self.n)[tuple(members)]])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # arithmetic is handy for finite differences of Grassmann points
    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_compatible(other)
        return MultiVector(self.n, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        self._check_compatible(other)
        return MultiVector(self.n, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "MultiVector":
        return MultiVector(self.n, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "MultiVector":
        return MultiVector(self.n, self.degree, self.coeffs / float(scalar))

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.n, self.degree, -self.coeffs)

    def _check_compatible(self, other: "MultiVector"):
        if self.n != other.n or self.degree != other.degree:
            raise ValueError(
                f"incompatible multivectors: (n={self.n}, p={self.degree}) vs "
                f"(n={other.n}, p={other.degree})"
            )

    def __repr__(self):
        return f"MultiVector(n={self.n}, degree={self.degree}, coeffs={self.coeffs!r})"


def wedge_vectors(vectors) -> MultiVector:
    """Wedge product v_1 ^ ... ^ v_m of ordinary vectors.

    The coefficient on the subset S is the m x m minor of the row matrix of
    the inputs taken on the columns S; sorting a wedge word into the
    lexicographic basis contributes the permutation sign.
    """
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a list of equal-length vectors")
    m, n = mat.shape
    if m > n:
        raise ValueError(f"cannot wedge {m} vectors in R^{n}")
    sets = index_sets(m, n)
    coeffs = np.empty(len(sets))
    for k, members in enumerate(sets):
        cols = [j - 1 for j in members]
        coeffs[k] = np.linalg.det(mat[:, cols]) if m > 1 else mat[0, cols[0]]
    return MultiVector(n, m, coeffs)


@lru_cache(maxsize=None)
def _wedge_table(p: int, q: int, n: int):
    """Per coefficient R_k of Lambda^{p+q}, the terms (i, j, sign) with
    e_{S_i} ^ e_{T_j} = sign * e_{R_k}, in lexicographic (i, j) order."""
    rank = _ordinal_of(p + q, n)
    table = [[] for _ in rank]
    for i, s in enumerate(index_sets(p, n)):
        for j, t in enumerate(index_sets(q, n)):
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t if a > b)
            table[rank[tuple(sorted(s + t))]].append((i, j, -1.0 if inversions % 2 else 1.0))
    return tuple(tuple(terms) for terms in table)


def wedge_field(a, b, p: int, q: int, n: int, out=None, scratch=None) -> np.ndarray:
    """Wedge of coefficient arrays a (C(n, p), ...) and b (C(n, q), ...).

    The trailing axes broadcast.  Each output coefficient ``out[k]`` is its
    first table term, then the others added or subtracted in table order, so
    a 2-vector coefficient comes out as the single minor u_a v_b - u_b v_a.
    ``scratch`` is one field of one coefficient's shape, allocated when not
    given.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[0] != comb(n, p) or b.shape[0] != comb(n, q):
        raise ValueError(
            f"coefficient counts {a.shape[0]}, {b.shape[0]} do not match degrees {p}, {q} in R^{n}"
        )
    table = _wedge_table(p, q, n)
    if out is None:
        out = np.empty((len(table),) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    tmp = np.empty(out.shape[1:]) if scratch is None else scratch
    for k, terms in enumerate(table):
        acc = out[k, ...]  # a view, also where out[k] would be a scalar
        i, j, sign = terms[0]
        np.multiply(a[i], b[j], out=acc)
        if sign < 0:
            np.negative(acc, out=acc)
        for i, j, sign in terms[1:]:
            np.multiply(a[i], b[j], out=tmp)
            (np.add if sign > 0 else np.subtract)(acc, tmp, out=acc)
    return out


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Bilinear graded-anticommutative product Lambda^p x Lambda^q -> Lambda^{p+q}."""
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    if a.degree + b.degree > a.n:
        raise ValueError(
            f"degree overflow: {a.degree} + {b.degree} > {a.n}"
        )
    return MultiVector(a.n, a.degree + b.degree, wedge_field(a.coeffs, b.coeffs, a.degree, b.degree, a.n))


def inner(a: MultiVector, b: MultiVector) -> float:
    """Metric induced from R^n; the lexicographic basis is orthonormal."""
    if a.n != b.n or a.degree != b.degree:
        raise ValueError(
            f"inner product needs matching (n, degree): "
            f"({a.n}, {a.degree}) vs ({b.n}, {b.degree})"
        )
    return float(np.dot(a.coeffs, b.coeffs))


def simplicity_residual(a: MultiVector) -> float:
    """|p12 p34 - p13 p24 + p14 p23| for a 2-vector in R^4; 0 iff simple."""
    if a.degree != 2 or a.n != 4:
        raise UnsupportedCaseError(
            f"simplicity test only implemented for degree 2 in R^4, "
            f"got degree {a.degree} in R^{a.n}"
        )
    c = a.coeffs  # lex order: 12, 13, 14, 23, 24, 34
    return float(abs(c[0] * c[5] - c[1] * c[4] + c[2] * c[3]))
