"""The oriented Grassmannian G(m, k) of m-planes in R^n, n = m + k.

A plane is represented by the unit simple m-vector spanned by any oriented
orthonormal basis; the tangent space at a point is spanned by the wedges
obtained by swapping one tangent leg for a normal one.  The coefficient
matrix of a tangent vector against that basis realises the tensor-product
picture (plane) x (complement), and for k = 2 carries the complex structure
that rotates the normal leg by a quarter turn.

The ``*_field`` functions take component-first arrays, structural axes
first and grid axes last: a frame field has shape (m, n, *sizes).  The
pointwise API applies them to one frame, the case without grid axes, and
wraps the result in MultiVector objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import FrameError, NotNormalError, NotTangentError, UnsupportedCaseError
from .exterior import MultiVector, inner, simplicity_residual, wedge_field, wedge_vectors

FRAME_TOL = 1e-10
TANGENT_TOL = 1e-8  # upstream discretisation noise exceeds machine epsilon


@dataclass
class AdaptedFrame:
    """Oriented orthonormal basis of R^n split as (plane | complement).

    ``e`` has shape (m, n) and spans the plane, ``nu`` has shape (k, n) and
    spans the orthogonal complement; the stacked frame must be positively
    oriented.
    """

    e: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        self.e = np.atleast_2d(np.asarray(self.e, dtype=float))
        self.nu = np.atleast_2d(np.asarray(self.nu, dtype=float))
        if self.e.shape[1] != self.nu.shape[1]:
            raise FrameError("tangent and normal vectors live in different dimensions")
        check_frames(np.vstack([self.e, self.nu]))

    @property
    def n(self) -> int:
        return self.e.shape[1]

    @property
    def m(self) -> int:
        return self.e.shape[0]

    @property
    def k(self) -> int:
        return self.nu.shape[0]


@dataclass
class GrassmannPoint:
    """A point of G(m, k): a unit simple m-vector, with an optional frame."""

    xi: MultiVector
    frame: AdaptedFrame | None = None

    def __post_init__(self):
        if abs(inner(self.xi, self.xi) - 1.0) > FRAME_TOL:
            raise FrameError("Grassmann point is not a unit multivector")
        if self.xi.degree == 2 and self.xi.n == 4:
            if simplicity_residual(self.xi) > FRAME_TOL:
                raise FrameError("2-vector in R^4 violates the simplicity relation")
        if self.frame is not None:
            spanned = wedge_vectors(self.frame.e)
            if np.max(np.abs(spanned.coeffs - self.xi.coeffs)) > FRAME_TOL:
                raise FrameError("frame does not span the stored multivector")


def rho_field(e) -> np.ndarray:
    """Wedge e_1 ^ ... ^ e_m of the rows of e, shape (m, n, ...) -> (C(n, m), ...).

    For an orthonormal tangent frame this is the unit simple m-vector of the
    plane, per node.  ``e`` may also be a sequence of m vector fields.  When
    m = 1 the result is a view of e's only row.
    """
    out, n = e[0], len(e[0])
    for i in range(1, len(e)):
        out = wedge_field(out, e[i], i, 1, n)
    return out


def tangent_basis_field(e: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Per-node orthonormal tangent basis of the Grassmannian, shape (m, k, C, ...).

    Entry (i, alpha) is the wedge of the plane basis with leg i replaced by
    normal vector alpha.  Each row i runs one wedge chain over views of the
    legs, leg i swapped for nu, whose alpha axis broadcasts against the other
    legs; its last wedge writes into the basis, so one frame's basis is
    contiguous and no grid-sized copy of the legs is made.
    """
    (m, n), k = e.shape[:2], nu.shape[0]
    basis = np.empty((m, k, comb(n, m)) + e.shape[2:])
    scratch = np.empty((k,) + e.shape[2:])
    for i in range(m):
        legs = [*e[:i, :, None], np.moveaxis(nu, 0, 1), *e[i + 1 :, :, None]]  # (n, 1 or k, ...) each
        head = rho_field(legs[:-1]) if m > 1 else np.ones(1)  # 1 is the empty wedge
        wedge_field(head, legs[-1], m - 1, 1, n, out=np.moveaxis(basis[i], 1, 0), scratch=scratch)
    return basis


def project_field(e: np.ndarray, nu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Tangent coefficients of a multivector field w (C, ...), shape (m, k, ...)."""
    return np.einsum("ikc...,c...->ik...", tangent_basis_field(e, nu), w)


def embed(frame: AdaptedFrame) -> GrassmannPoint:
    """Unit simple m-vector of the plane; independent of the oriented basis."""
    return GrassmannPoint(xi=MultiVector(frame.n, frame.m, rho_field(frame.e)), frame=frame)


def tangent_basis(frame: AdaptedFrame) -> list[list[MultiVector]]:
    """Orthonormal tangent basis at the frame's plane.

    Entry [i][alpha] is the wedge of the plane basis with leg i replaced by
    normal vector alpha.  Returned nested as m rows of k multivectors.
    """
    return [[MultiVector(frame.n, frame.m, c) for c in row] for row in tangent_basis_field(frame.e, frame.nu)]


def project_to_tangent(frame: AdaptedFrame, w: MultiVector) -> np.ndarray:
    """Coefficients of the tangential part of w, as an (m, k) matrix."""
    if w.n != frame.n or w.degree != frame.m:
        raise ValueError(
            f"multivector (n={w.n}, degree={w.degree}) does not match frame "
            f"(n={frame.n}, m={frame.m})"
        )
    return project_field(frame.e, frame.nu, w.coeffs)


def psi(frame: AdaptedFrame, coeffs) -> MultiVector:
    """Tangent multivector with the given (m, k) coefficient matrix."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (frame.m, frame.k):
        raise ValueError(f"expected coefficient shape {(frame.m, frame.k)}, got {coeffs.shape}")
    return MultiVector(frame.n, frame.m, np.einsum("ik,ikc->c", coeffs, tangent_basis_field(frame.e, frame.nu)))


def psi_inv(frame: AdaptedFrame, v: MultiVector) -> np.ndarray:
    """Coefficient matrix of a tangent multivector; errors if v leaves the span."""
    coeffs = project_to_tangent(frame, v)
    residual = (v - psi(frame, coeffs)).norm()
    if residual > TANGENT_TOL * max(1.0, v.norm()):
        raise NotTangentError(
            f"multivector has out-of-tangent component {residual:.3e} beyond tolerance {TANGENT_TOL:.1e}"
        )
    return coeffs


def normal_rotate(frame: AdaptedFrame, w) -> np.ndarray:
    """Quarter-turn of a normal vector, positively w.r.t. the frame orientation.

    For a valid frame the rotation sends nu_1 -> nu_2 and nu_2 -> -nu_1, which
    makes (e_1, ..., e_m, w, Jw) positively oriented for every nonzero normal w.
    """
    if frame.k != 2:
        raise UnsupportedCaseError(f"normal rotation needs a 2-dimensional complement, got k={frame.k}")
    w = np.asarray(w, dtype=float)
    tangential = frame.e @ w
    if np.max(np.abs(tangential), initial=0.0) > TANGENT_TOL * max(1.0, float(np.linalg.norm(w))):
        raise NotNormalError(
            f"vector has tangential component {np.max(np.abs(tangential)):.3e}"
        )
    c = frame.nu @ w
    # positive orientation of the full frame fixes the sign: J nu1 = +nu2
    return c[0] * frame.nu[1] - c[1] * frame.nu[0]


def jtilde_coeffs(coeffs) -> np.ndarray:
    """Complex structure on (m, 2, ...) tangent coefficients: rotate the normal index."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim < 2 or coeffs.shape[1] != 2:
        raise UnsupportedCaseError(
            f"complex structure needs (m, 2, ...) coefficients, got shape {coeffs.shape}"
        )
    return np.stack([-coeffs[:, 1], coeffs[:, 0]], axis=1)


def check_frames(full: np.ndarray):
    """FrameError unless each frame of a stack (..., n, n), vectors as rows, is orthonormal and oriented."""
    if full.shape[-2] != full.shape[-1]:
        raise FrameError(f"{full.shape[-2]} frame vectors cannot span R^{full.shape[-1]}")
    gram = full @ np.swapaxes(full, -1, -2)
    if np.max(np.abs(gram - np.eye(full.shape[-1]))) > FRAME_TOL:
        raise FrameError("frame is not orthonormal to tolerance")
    if np.any(np.linalg.det(full) <= 0):
        raise FrameError("frame is negatively oriented")


def oriented_q(mats: np.ndarray) -> np.ndarray:
    """Q factors of square matrices (..., n, n), sign-fixed so that R has a positive
    diagonal, with the last column flipped where det Q < 0; bitwise the same stacked or alone."""
    q, r = np.linalg.qr(mats)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]  # deterministic QR representative
    q[..., -1] = np.where((np.linalg.det(q) < 0)[..., None], -q[..., -1], q[..., -1])
    return q


def random_adapted_frame(rng: np.random.Generator, m: int, n: int) -> AdaptedFrame:
    """Seeded random frame: the oriented Q factor of one n x n Gaussian matrix."""
    q = oriented_q(rng.standard_normal((n, n)))
    return AdaptedFrame(e=q[:, :m].T, nu=q[:, m:].T)


def frame_curve(seed: int, m: int, n: int):
    """Smooth curve t -> AdaptedFrame for finite-difference connection checks.

    Gram-Schmidt of a smooth invertible matrix family is smooth, so the
    returned callable samples a genuinely differentiable curve of adapted
    frames through t = 0.
    """
    rng = np.random.default_rng(seed)
    base = np.eye(n) + 0.25 * rng.standard_normal((n, n))
    if np.linalg.det(base) < 0:
        base[:, -1] = -base[:, -1]
    drift = 0.5 * rng.standard_normal((n, n))
    curl = 0.5 * rng.standard_normal((n, n))

    def at(t: float) -> AdaptedFrame:
        mat = base + np.sin(t) * drift + (1.0 - np.cos(t)) * curl
        q = _gram_schmidt_columns(mat)
        return AdaptedFrame(e=q[:, :m].T, nu=q[:, m:].T)

    return at


def _gram_schmidt_columns(mat: np.ndarray) -> np.ndarray:
    q = np.array(mat, dtype=float)
    n = q.shape[1]
    for j in range(n):
        for i in range(j):
            q[:, j] -= np.dot(q[:, i], q[:, j]) * q[:, i]
        nrm = np.linalg.norm(q[:, j])
        if nrm < 1e-12:
            raise FrameError("matrix columns are numerically dependent")
        q[:, j] /= nrm
    return q
