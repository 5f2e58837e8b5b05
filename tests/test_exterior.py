import numpy as np
import pytest

from skewflow import MultiVector, index_sets, inner, simplicity_residual, wedge, wedge_vectors
from skewflow.errors import UnsupportedCaseError
from skewflow.exterior import _wedge_table, wedge_field
from skewflow.grassmann import rho_field


def ev(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_wedge_vectors_identity_case():
    w = wedge_vectors([ev(0, 3), ev(1, 3)])
    assert w.coeff((1, 2)) == 1.0
    assert np.count_nonzero(w.coeffs) == 1


def test_wedge_vectors_alternating():
    w = wedge_vectors([ev(0, 3) + ev(1, 3), ev(1, 3)])
    assert w.coeff((1, 2)) == pytest.approx(1.0)
    assert abs(w.coeff((1, 3))) < 1e-15
    assert abs(w.coeff((2, 3))) < 1e-15


def test_wedge_vectors_dependent_is_zero():
    u = np.array([1.0, 2.0, -0.5])
    assert wedge_vectors([u, u]).norm() < 1e-15


def test_wedge_vectors_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge_vectors(np.ones((5, 4)))


def test_wedge_matches_wedge_vectors():
    a = MultiVector.from_vector(ev(0, 3))
    b = MultiVector.from_vector(ev(1, 3))
    assert np.allclose(wedge(a, b).coeffs, wedge_vectors([ev(0, 3), ev(1, 3)]).coeffs)


def test_wedge_field_matches_minors_oracle():
    # the table kernel against determinant minors, node by node, for every
    # degree split and with and without leading axes
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        for m in range(1, n + 1):
            for lead in ((), (3, 5)):
                vs = rng.standard_normal((m, n) + lead)
                expect = np.empty((len(index_sets(m, n)),) + lead)
                for node in np.ndindex(*lead):
                    expect[(..., *node)] = wedge_vectors(vs[(..., *node)]).coeffs
                tol = 1e-12 * max(1.0, np.max(np.abs(expect)))
                assert np.max(np.abs(rho_field(vs) - expect)) <= tol
                for p in range(1, m):
                    head = np.empty((len(index_sets(p, n)),) + lead)
                    tail = np.empty((len(index_sets(m - p, n)),) + lead)
                    for node in np.ndindex(*lead):
                        head[(..., *node)] = wedge_vectors(vs[(..., *node)][:p]).coeffs
                        tail[(..., *node)] = wedge_vectors(vs[(..., *node)][p:]).coeffs
                    got = wedge_field(head, tail, p, m - p, n)
                    assert got.shape == expect.shape
                    assert np.max(np.abs(got - expect)) <= tol


def test_every_wedge_table_row_starts_with_a_plus_sign():
    # wedge_field writes each row's first term with no sign: R_k's p smallest
    # members, then its q largest, is an order with no inversion
    for n in range(1, 7):
        for p in range(0, n + 1):
            for q in range(0, n - p + 1):
                table = _wedge_table(p, q, n)
                assert len(table) == len(index_sets(p + q, n))
                for k, terms in enumerate(table):
                    i, j, sign = terms[0]
                    assert sign == 1.0, (p, q, n, k)
                    assert index_sets(p, n)[i] + index_sets(q, n)[j] == index_sets(p + q, n)[k]


def test_wedge_field_rejects_wrong_coefficient_count():
    with pytest.raises(ValueError):
        wedge_field(np.zeros(4), np.zeros(6), 1, 1, 4)


def test_wedge_single_transposition_sign():
    w = wedge(MultiVector.from_vector(ev(2, 4)), MultiVector.from_vector(ev(1, 4)))
    assert w.coeff((2, 3)) == -1.0


def test_wedge_top_degree():
    e12 = wedge_vectors([ev(0, 4), ev(1, 4)])
    e34 = wedge_vectors([ev(2, 4), ev(3, 4)])
    assert wedge(e12, e34).coeff((1, 2, 3, 4)) == pytest.approx(1.0)


def test_wedge_degree_overflow():
    e12 = wedge_vectors([ev(0, 4), ev(1, 4)])
    e234 = wedge_vectors([ev(1, 4), ev(2, 4), ev(3, 4)])
    with pytest.raises(ValueError):
        wedge(e12, e234)


def test_wedge_graded_anticommutative_and_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        q = int(rng.integers(1, n - p + 1))
        a = MultiVector(n, p, rng.standard_normal(len(index_sets(p, n))))
        b = MultiVector(n, q, rng.standard_normal(len(index_sets(q, n))))
        ab = wedge(a, b)
        ba = wedge(b, a)
        sign = (-1.0) ** (p * q)
        assert np.allclose(ab.coeffs, sign * ba.coeffs, atol=1e-12)
        c = MultiVector(n, q, rng.standard_normal(len(index_sets(q, n))))
        lhs = wedge(a, b + 2.0 * c)
        rhs = wedge(a, b) + 2.0 * wedge(a, c)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_wedge_associative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u, v, w = (MultiVector.from_vector(rng.standard_normal(5)) for _ in range(3))
        left = wedge(wedge(u, v), w)
        right = wedge(u, wedge(v, w))
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_wedge_vectors_multilinear_alternating_random():
    # 1000 random column operations leave the wedge invariant up to the rule
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        vs = rng.standard_normal((m, n))
        lam = rng.standard_normal()
        scaled = vs.copy()
        scaled[0] *= lam
        assert np.allclose(
            wedge_vectors(scaled).coeffs, lam * wedge_vectors(vs).coeffs, atol=1e-12
        )
        sheared = vs.copy()
        sheared[0] += lam * vs[1]  # adding a multiple of another row is invisible
        assert np.allclose(
            wedge_vectors(sheared).coeffs, wedge_vectors(vs).coeffs, atol=1e-12
        )


def test_inner_orthonormal_basis():
    e12 = wedge_vectors([ev(0, 3), ev(1, 3)])
    e13 = wedge_vectors([ev(0, 3), ev(2, 3)])
    assert inner(e12, e12) == pytest.approx(1.0)
    assert inner(e12, e13) == pytest.approx(0.0)


def test_inner_degree_mismatch():
    with pytest.raises(ValueError):
        inner(MultiVector.from_vector(ev(0, 3)), wedge_vectors([ev(0, 3), ev(1, 3)]))


def test_inner_gram_determinant_frozen_example():
    # independent 2x2 determinant: det [[2, 1], [1, 2]] = 3
    u = np.array([1.0, 1.0, 0.0])
    v = np.array([0.0, 1.0, 1.0])
    w = wedge_vectors([u, v])
    assert inner(w, w) == pytest.approx(3.0, abs=1e-12)


def test_inner_equals_gram_determinant_random():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        us = rng.standard_normal((m, n))
        vs = rng.standard_normal((m, n))
        gram = us @ vs.T
        expected = np.linalg.det(gram) if m > 1 else gram[0, 0]
        got = inner(wedge_vectors(us), wedge_vectors(vs))
        assert got == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))


def test_unit_norm_of_orthonormal_wedge():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        w = wedge_vectors(q[:, :3].T)
        assert abs(w.norm() - 1.0) < 1e-12


def test_simplicity_residual_cases():
    e12 = wedge_vectors([ev(0, 4), ev(1, 4)])
    assert simplicity_residual(e12) == 0.0
    mixed = e12 + wedge_vectors([ev(2, 4), ev(3, 4)])
    assert simplicity_residual(mixed) == pytest.approx(1.0)


def test_simplicity_residual_of_wedges_vanishes():
    rng = np.random.default_rng(6)
    for _ in range(500):
        w = wedge_vectors(rng.standard_normal((2, 4)))
        assert simplicity_residual(w) <= 1e-12 * max(1.0, w.norm() ** 2)


def test_simplicity_residual_unsupported():
    with pytest.raises(UnsupportedCaseError):
        simplicity_residual(MultiVector.from_vector(ev(0, 3)))


def test_multivector_validation():
    with pytest.raises(ValueError):
        MultiVector(3, 2, np.zeros(4))
    with pytest.raises(UnsupportedCaseError):
        MultiVector(9, 1, np.zeros(9))
    z = MultiVector.zero(4, 2)
    assert inner(z, z) == 0.0
