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


def _align_reference(pairs, tol):
    """align_sp1 entry by entry on Quaternion objects."""
    scale = max([1.0] + [abs(q) for q, _ in pairs])
    if not all(similar(q, qp, tol * scale) for q, qp in pairs):
        return None
    kept = [(q, qp) for q, qp in pairs if q.imag_norm() > tol * scale]
    if not kept:
        return Quaternion(1.0)
    B = sum(np.outer(qp.to_array()[1:], q.to_array()[1:]) for q, qp in kept)
    sigma = np.trace(B)
    z = np.array([B[1, 2] - B[2, 1], B[2, 0] - B[0, 2], B[0, 1] - B[1, 0]])
    K = np.block([[np.array([[sigma]]), z[None, :]],
                  [z[:, None], B + B.T - sigma * np.eye(3)]])
    cand = Quaternion.from_array(np.linalg.eigh(K)[1][:, -1]).normalized()
    for mu in (cand, cand.conjugate()):
        if max(abs(mu * q * mu.conjugate() - qp)
               for q, qp in pairs) <= tol * scale:
            return mu
    return None


def test_align_sp1_matches_entrywise_reference(rng):
    for trial in range(200):
        mu = Quaternion.from_array(rng.standard_normal(4)).normalized()
        qs = [Quaternion.from_array(rng.standard_normal(4) * 3)
              for _ in range(trial % 7)]
        if trial % 5 == 0:
            qs = [Quaternion(q.w, q.x) for q in qs]        # complex entries
        pairs = [(q, mu * q * mu.conjugate()) for q in qs]
        if trial % 3 == 0 and pairs:
            q, qp = pairs[-1]
            pairs[-1] = (q, qp + Quaternion(0, 0, 1e-9 * (trial % 2), 1e-6))
        got, ref = align_sp1(pairs, tol=1e-8), _align_reference(pairs, 1e-8)
        assert (got is None) == (ref is None)
        if ref is None:
            continue
        scale = max([1.0] + [abs(q) for q, _ in pairs])
        assert max([abs(got * q * got.conjugate() - qp) for q, qp in pairs],
                   default=0.0) <= 1e-8 * scale
        axes = np.array([q.to_array()[1:] for q, _ in pairs]).reshape(-1, 3)
        if np.linalg.matrix_rank(axes, tol=1e-6) >= 2:   # mu is unique
            assert min(abs(got - ref), abs(got + ref)) <= 1e-12
