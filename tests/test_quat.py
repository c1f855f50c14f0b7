import numpy as np
import pytest

from loxpairs.errors import NotSimilar
from loxpairs.quat import (Quaternion, align_sp1, conjugator_within_class,
                           similar, similarity_representative)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


def _as_matrix(q: Quaternion) -> np.ndarray:
    """Independent left-multiplication model of H on R^4."""
    w, x, y, z = q.to_array()
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])


def test_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE


def test_product_matches_matrix_model(rng):
    for _ in range(50):
        a = Quaternion.from_array(rng.standard_normal(4))
        b = Quaternion.from_array(rng.standard_normal(4))
        expect = _as_matrix(a) @ b.to_array()
        assert np.allclose((a * b).to_array(), expect)


def test_conjugate_and_norm(rng):
    q = Quaternion.from_array(rng.standard_normal(4))
    assert np.isclose((q * q.conjugate()).real, q.norm_sq())
    assert (q * q.conjugate()).imag_norm() < 1e-14
    assert np.isclose(abs(q) ** 2, q.norm_sq())


def test_inverse(rng):
    q = Quaternion.from_array(rng.standard_normal(4))
    assert (q * q.inverse()).isclose(ONE, tol=1e-12)
    assert (q.inverse() * q).isclose(ONE, tol=1e-12)


def test_complex_pair_round_trip(rng):
    q = Quaternion.from_array(rng.standard_normal(4))
    a, b = q.complex_pair()
    assert Quaternion.from_complex_pair(a, b) == q


def test_to_complex_rejects_j_part():
    with pytest.raises(ValueError):
        Quaternion(1, 0, 0.5, 0).to_complex()


def test_similarity_representative_upper_half_plane(rng):
    for _ in range(20):
        q = Quaternion.from_array(rng.standard_normal(4))
        c = similarity_representative(q)
        assert c.imag >= 0
        assert np.isclose(abs(c), abs(q))
        assert np.isclose(c.real, q.real)


def test_similar_under_unit_conjugation(rng):
    q = Quaternion.from_array(rng.standard_normal(4))
    u = Quaternion.from_array(rng.standard_normal(4)).normalized()
    assert similar(q, u * q * u.conjugate())


def test_conjugator_within_class(rng):
    q = Quaternion.from_array(rng.standard_normal(4))
    u = Quaternion.from_array(rng.standard_normal(4)).normalized()
    target = u * q * u.conjugate()
    mu = conjugator_within_class(q, target)
    assert (mu.inverse() * q * mu).isclose(target, tol=1e-10)


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.3, -0.5, 0.8)])
def test_conjugator_within_class_antipodal(axis):
    q = Quaternion(0.7, *axis)
    target = Quaternion(0.7, *(-np.array(axis)))
    mu = conjugator_within_class(q, target)
    assert abs(abs(mu) - 1.0) <= 1e-12
    assert (mu.inverse() * q * mu).isclose(target, tol=1e-10)


def test_conjugator_within_class_rejects_other_class():
    with pytest.raises(NotSimilar):
        conjugator_within_class(Quaternion(0.7, 1.0, 0, 0),
                                Quaternion(0.7, 0, 1.1, 0))
    with pytest.raises(NotSimilar):
        conjugator_within_class(Quaternion(0.7, 1.0, 0, 0),
                                Quaternion(-0.7, 0, 1.0, 0))


def test_align_sp1_recovers_global_unit(rng):
    mu = Quaternion.from_array(rng.standard_normal(4)).normalized()
    qs = [Quaternion.from_array(rng.standard_normal(4)) for _ in range(6)]
    pairs = [(q, mu * q * mu.conjugate()) for q in qs]
    got = align_sp1(pairs, tol=1e-9)
    assert got is not None
    for q, qp in pairs:
        assert (got * q * got.conjugate()).isclose(qp, tol=1e-9)


def test_align_sp1_rejects_mismatched_entries(rng):
    mu = Quaternion.from_array(rng.standard_normal(4)).normalized()
    qs = [Quaternion.from_array(rng.standard_normal(4)) for _ in range(4)]
    pairs = [(q, mu * q * mu.conjugate()) for q in qs]
    bad = Quaternion.from_array(rng.standard_normal(4))
    pairs.append((bad, bad + Quaternion(0, 0.3, 0, 0)))
    assert align_sp1(pairs, tol=1e-8) is None


def test_align_sp1_real_entries_need_equality():
    pairs = [(Quaternion(2.0, 0, 0, 0), Quaternion(2.0, 0, 0, 0))]
    assert align_sp1(pairs, tol=1e-10) is not None
    pairs = [(Quaternion(2.0, 0, 0, 0), Quaternion(2.1, 0, 0, 0))]
    assert align_sp1(pairs, tol=1e-10) is None
