from math import comb

import numpy as np
import pytest

from skewflow import (
    AdaptedFrame,
    GrassmannPoint,
    MultiVector,
    embed,
    inner,
    jtilde_coeffs,
    normal_rotate,
    project_to_tangent,
    psi,
    psi_inv,
    random_adapted_frame,
    simplicity_residual,
    tangent_basis,
)
from skewflow.errors import FrameError, NotNormalError, NotTangentError, UnsupportedCaseError
from skewflow.geometry import rotate_normal_field
from skewflow.exterior import wedge_field
from skewflow.grassmann import frame_curve, oriented_q, project_field, rho_field, tangent_basis_field
from skewflow.verify import connection_residual, kahler_residual


def standard_frame(m, n):
    eye = np.eye(n)
    return AdaptedFrame(e=eye[:m], nu=eye[m:])


def rotation_in_plane(frame, theta):
    c, s = np.cos(theta), np.sin(theta)
    e = np.stack([c * frame.e[0] + s * frame.e[1], -s * frame.e[0] + c * frame.e[1]])
    return AdaptedFrame(e=e, nu=frame.nu.copy())


def test_adapted_frame_validation():
    with pytest.raises(FrameError):
        AdaptedFrame(e=np.array([[1.0, 1.0, 0.0]]), nu=np.eye(3)[1:])
    flipped = np.eye(3)
    flipped[2, 2] = -1.0
    with pytest.raises(FrameError):
        AdaptedFrame(e=flipped[:1], nu=flipped[1:])


def test_embed_standard_frame():
    point = embed(standard_frame(2, 4))
    assert point.xi.coeff((1, 2)) == pytest.approx(1.0)
    assert point.xi.norm() == pytest.approx(1.0)


def test_embed_rotation_invariant():
    frame = standard_frame(2, 4)
    base = embed(frame).xi.coeffs
    for theta in np.linspace(0.1, 6.0, 13):
        rotated = embed(rotation_in_plane(frame, theta)).xi.coeffs
        assert np.max(np.abs(rotated - base)) < 1e-12


def test_embed_random_frames_unit_and_simple():
    rng = np.random.default_rng(10)
    for _ in range(300):
        point = embed(random_adapted_frame(rng, 2, 4))
        assert abs(point.xi.norm() - 1.0) < 1e-12
        assert simplicity_residual(point.xi) < 1e-12


def test_grassmann_point_validation():
    bad = MultiVector(4, 2, np.array([1.0, 0, 0, 0, 0, 1.0]))  # non-simple
    with pytest.raises(FrameError):
        GrassmannPoint(xi=bad * (1.0 / bad.norm()))


def test_tangent_basis_one_transposition_sign():
    basis = tangent_basis(standard_frame(2, 4))
    # slot 1 swapped for the first normal: e3 ^ e2 = -(e2 ^ e3)
    assert basis[0][0].coeff((2, 3)) == pytest.approx(-1.0)


def test_tangent_basis_orthonormal_and_normal_to_point():
    rng = np.random.default_rng(11)
    for m, n in [(2, 4), (1, 3), (2, 5)]:
        frame = random_adapted_frame(rng, m, n)
        basis = tangent_basis(frame)
        point = embed(frame).xi
        flat = [basis[i][a] for i in range(m) for a in range(n - m)]
        for p, bp in enumerate(flat):
            assert abs(inner(bp, point)) < 1e-12
            for q, bq in enumerate(flat):
                assert inner(bp, bq) == pytest.approx(1.0 if p == q else 0.0, abs=1e-12)


def test_tangent_basis_degree_one():
    basis = tangent_basis(standard_frame(1, 3))
    assert np.allclose(basis[0][0].coeffs, [0, 1, 0])
    assert np.allclose(basis[0][1].coeffs, [0, 0, 1])


def test_project_embed_is_zero():
    rng = np.random.default_rng(12)
    frame = random_adapted_frame(rng, 2, 4)
    assert np.max(np.abs(project_to_tangent(frame, embed(frame).xi))) < 1e-12


def test_project_basis_element():
    frame = standard_frame(2, 4)
    coeffs = project_to_tangent(frame, tangent_basis(frame)[0][0])
    expect = np.zeros((2, 2))
    expect[0, 0] = 1.0
    assert np.allclose(coeffs, expect, atol=1e-12)


def test_projection_residual_orthogonal_to_tangent_space():
    rng = np.random.default_rng(13)
    for _ in range(50):
        frame = random_adapted_frame(rng, 2, 4)
        w = MultiVector(4, 2, rng.standard_normal(6))
        coeffs = project_to_tangent(frame, w)
        residual = w - psi(frame, coeffs)
        basis = tangent_basis(frame)
        for i in range(2):
            for a in range(2):
                assert abs(inner(residual, basis[i][a])) < 1e-10


def test_psi_unit_matrix_gives_basis_element():
    frame = standard_frame(2, 4)
    c = np.zeros((2, 2))
    c[1, 0] = 1.0
    assert np.allclose(psi(frame, c).coeffs, tangent_basis(frame)[1][0].coeffs)


def test_psi_isometry_seeded():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        frame = random_adapted_frame(rng, 2, 4)
        c = rng.standard_normal((2, 2))
        d = rng.standard_normal((2, 2))
        assert abs(inner(psi(frame, c), psi(frame, d)) - np.sum(c * d)) < 1e-12


def test_psi_inv_round_trip():
    rng = np.random.default_rng(15)
    for _ in range(100):
        frame = random_adapted_frame(rng, 2, 4)
        c = rng.standard_normal((2, 2))
        assert np.max(np.abs(psi_inv(frame, psi(frame, c)) - c)) < 1e-12


def test_psi_inv_rejects_off_tangent():
    frame = standard_frame(2, 4)
    with pytest.raises(NotTangentError):
        psi_inv(frame, embed(frame).xi)


def test_normal_rotate_right_handed_curve_case():
    frame = standard_frame(1, 3)
    got = normal_rotate(frame, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(got, np.cross(frame.e[0], [0, 1, 0]))  # e1 x e2 = e3
    assert np.allclose(got, [0.0, 0.0, 1.0])


def test_normal_rotate_surface_case():
    frame = standard_frame(2, 4)
    assert np.allclose(normal_rotate(frame, np.array([0.0, 0, 1, 0])), [0, 0, 0, 1])


def test_normal_rotate_is_complex_structure():
    rng = np.random.default_rng(16)
    for m, n in [(1, 3), (2, 4)]:
        for _ in range(100):
            frame = random_adapted_frame(rng, m, n)
            w = rng.standard_normal(2) @ frame.nu
            jw = normal_rotate(frame, w)
            assert abs(np.dot(jw, w)) < 1e-12
            assert np.linalg.norm(jw) == pytest.approx(np.linalg.norm(w), abs=1e-12)
            assert np.allclose(normal_rotate(frame, jw), -w, atol=1e-12)
            full = np.vstack([frame.e, w, jw])
            if np.linalg.norm(w) > 1e-3:
                assert np.linalg.det(full) > 0


def test_normal_rotate_matches_rotate_normal_field():
    # the frame formula c0 nu2 - c1 nu1 against the determinant definition
    rng = np.random.default_rng(21)
    for m, n in [(1, 3), (2, 4)]:
        frames = [random_adapted_frame(rng, m, n) for _ in range(50)]
        ws = np.stack([rng.standard_normal(2) @ f.nu for f in frames], axis=-1)
        expect = np.stack([normal_rotate(f, w) for f, w in zip(frames, ws.T)], axis=-1)
        got = rotate_normal_field(np.stack([f.e for f in frames], axis=-1), ws)
        assert np.max(np.abs(got - expect)) < 1e-12


def test_normal_rotate_rejects_tangential():
    frame = standard_frame(2, 4)
    with pytest.raises(NotNormalError):
        normal_rotate(frame, np.array([1.0, 0, 0.5, 0]))


def test_normal_rotate_needs_codimension_two():
    rng = np.random.default_rng(17)
    frame = random_adapted_frame(rng, 2, 5)
    with pytest.raises(UnsupportedCaseError):
        normal_rotate(frame, frame.nu[0])


def test_jtilde_coefficient_action():
    c = np.zeros((2, 2))
    c[0, 0] = 1.0
    b = jtilde_coeffs(c)
    assert b[0, 1] == 1.0 and abs(b[0, 0]) < 1e-15


def test_jtilde_on_fields_and_shape_check():
    rng = np.random.default_rng(22)
    c = rng.standard_normal((2, 2, 3, 5))
    got = jtilde_coeffs(c)
    for node in np.ndindex(3, 5):
        assert np.array_equal(got[(..., *node)], jtilde_coeffs(c[(..., *node)]))
    for bad in (np.zeros(2), np.zeros((2, 3))):
        with pytest.raises(UnsupportedCaseError):
            jtilde_coeffs(bad)


def test_jtilde_squares_to_minus_one_and_isometry():
    rng = np.random.default_rng(18)
    for _ in range(200):
        c = rng.standard_normal((3, 2))
        d = rng.standard_normal((3, 2))
        assert np.allclose(jtilde_coeffs(jtilde_coeffs(c)), -c)
        assert np.sum(jtilde_coeffs(c) * jtilde_coeffs(d)) == pytest.approx(np.sum(c * d))


def test_jtilde_matches_normal_rotate_through_psi():
    # the coefficient rotation and the pointwise quarter-turn are one operator
    rng = np.random.default_rng(19)
    for _ in range(100):
        frame = random_adapted_frame(rng, 2, 4)
        c = rng.standard_normal((2, 2))
        lhs = psi(frame, jtilde_coeffs(c))
        legs = [c[i] @ frame.nu for i in range(2)]
        rotated = np.stack([normal_rotate(frame, leg) for leg in legs])
        rhs_coeffs = rotated @ frame.nu.T
        rhs = psi(frame, rhs_coeffs)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_sphere_identification_cross_product():
    # unit tangent planes of curves are points of S^2; the complex structure
    # is the cross product with the base point
    rng = np.random.default_rng(20)
    for _ in range(1000):
        frame = random_adapted_frame(rng, 1, 3)
        u = frame.e[0]
        c = rng.standard_normal((1, 2))
        v = psi(frame, c)  # degree-1 multivector = tangent vector at u
        jv = psi(frame, jtilde_coeffs(c))
        assert np.max(np.abs(jv.coeffs - np.cross(u, v.coeffs))) < 1e-12


def test_connection_preservation_observed_order():
    curve = frame_curve(seed=23, m=2, n=4)
    r1 = connection_residual(curve, 1e-3)
    r2 = connection_residual(curve, 5e-4)
    order = np.log2(r1 / r2)
    assert order >= 0.9


def test_connection_preservation_curve_case():
    curve = frame_curve(seed=24, m=1, n=3)
    r1 = connection_residual(curve, 1e-3)
    r2 = connection_residual(curve, 5e-4)
    assert np.log2(r1 / r2) >= 0.9


def test_kahler_compatibility_observed_order():
    curve = frame_curve(seed=25, m=2, n=4)
    rng = np.random.default_rng(25)
    c = rng.standard_normal((2, 2))
    r1 = kahler_residual(curve, 1e-3, c)
    r2 = kahler_residual(curve, 5e-4, c)
    assert np.log2(r1 / r2) >= 0.9


def test_frame_curve_is_smoothly_adapted():
    curve = frame_curve(seed=26, m=2, n=4)
    for t in (-0.01, 0.0, 0.01):
        frame = curve(t)
        assert frame.m == 2 and frame.k == 2
    drift = np.max(np.abs(curve(1e-5).e - curve(0.0).e))
    assert drift < 1e-3


def _legs_tangent_basis_field(e, nu):
    """The tangent basis from one (m, n, m, k, ...) copy of the legs and one
    wedge chain over all entries: the layout before one chain per row."""
    (m, n), k = e.shape[:2], nu.shape[0]
    legs = np.empty((m, n, m, k) + e.shape[2:])
    legs[...] = e[:, :, None, None]
    for i in range(m):
        legs[i, :, i] = np.swapaxes(nu, 0, 1)
    head = rho_field(legs[:-1]) if m > 1 else np.ones(1)
    basis = np.empty((m, k, comb(n, m)) + e.shape[2:])
    wedge_field(head, legs[-1], m - 1, 1, n, out=np.moveaxis(basis, 2, 0))
    return basis


def _oriented_frames(seed, n, tail):
    """Oriented orthonormal frames of R^n on the trailing axes, (n, n, *tail) with
    vectors as rows, views of stacked Q factors as ``isometry_max_error`` takes them."""
    q = oriented_q(np.random.default_rng(seed).standard_normal(tail + (n, n)))
    return np.moveaxis(q, (-1, -2), (0, 1))  # [r, :, *node] is column r of that node's Q


@pytest.mark.parametrize("m, n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
@pytest.mark.parametrize("tail", [(), (40,), (6, 5)], ids=["frame", "trials", "grid"])
def test_tangent_basis_field_is_the_legs_layout_bit_for_bit(m, n, tail):
    full = _oriented_frames(m * 10 + n, n, tail)
    e, nu = full[:m], full[m:]
    basis = tangent_basis_field(e, nu)
    expect = _legs_tangent_basis_field(e, nu)
    assert basis.shape == expect.shape and basis.tobytes() == expect.tobytes()


@pytest.mark.parametrize("m, n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
def test_project_field_is_the_legs_layout_bit_for_bit(m, n):
    # connection_residual projects a (C, m, k) stack of differenced basis entries
    # at one frame; a grid field and one multivector at a frame are the other shapes
    rng = np.random.default_rng(m * 10 + n)
    k, C = n - m, comb(n, m)
    for tail, w_shape in [((), (C, m, k)), ((), (C,)), ((6, 5), (C, 6, 5))]:
        full = _oriented_frames(m + n, n, tail)
        e, nu, w = full[:m], full[m:], rng.standard_normal(w_shape)
        coeffs = project_field(e, nu, w)
        expect = np.einsum("ikc...,c...->ik...", _legs_tangent_basis_field(e, nu), w)
        assert coeffs.shape == expect.shape and coeffs.tobytes() == expect.tobytes()
