import numpy as np
import pytest

from conftest import as_matrix, hconj, hmul, hunit
from loxpairs.qmatrix import QArray
from loxpairs.quat import align_sp1

Q = QArray.from_components
ONE, I, J, K = (Q(e) for e in np.eye(4))


def _same(p: QArray, q: QArray) -> bool:
    return np.array_equal(p.components(), q.components())


def test_multiplication_table():
    assert _same(I * J, K)
    assert _same(J * K, I)
    assert _same(K * I, J)
    minus_one = Q([-1.0, 0.0, 0.0, 0.0])
    assert _same(I * I, minus_one) and _same(J * J, minus_one) \
        and _same(K * K, minus_one)


def test_product_matches_matrix_model(rng):
    for _ in range(50):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert (Q(a) * Q(b)).shape == ()
        assert np.allclose((Q(a) * Q(b)).components(), as_matrix(a) @ b)


def test_conjugate_and_norm(rng):
    q = Q(rng.standard_normal(4))
    w, x, y, z = (q * q.conj()).components()
    assert np.isclose(w, np.dot(q.components(), q.components()))
    assert np.linalg.norm([x, y, z]) < 1e-14
    assert np.isclose(q.moduli() ** 2, w)
    assert np.array_equal(q.conj().components(), hconj(q.components()))


def test_inverse(rng):
    q = Q(rng.standard_normal(4))
    assert (q * q.reciprocal() - ONE).max_abs() <= 1e-12
    assert (q.reciprocal() * q - ONE).max_abs() <= 1e-12


def test_complex_pair_round_trip(rng):
    # q = a + j b with a = w + i x, b = y - i z
    w, x, y, z = v = rng.standard_normal(4)
    q = Q(v)
    assert q.a == complex(w, x) and q.b == complex(y, -z)
    assert np.array_equal(q.components(), v)
    assert _same(Q(q.components()), q)


def _qarrays(pairs):
    """The q and the q' of (q, q') pairs of real 4-vectors, as two
    QArrays."""
    z = np.array(pairs, dtype=float).reshape(-1, 2, 4)
    return Q(z[:, 0]), Q(z[:, 1])


def _moved(mu, q):
    """mu q conj(mu) in the matrix model."""
    return hmul(mu, q, hconj(mu))


def test_align_sp1_recovers_global_unit(rng):
    mu = hunit(rng)
    qs = [rng.standard_normal(4) for _ in range(6)]
    pairs = [(q, _moved(mu, q)) for q in qs]
    got = align_sp1(*_qarrays(pairs), tol=1e-9)
    assert got is not None and got.shape == ()
    for q, qp in pairs:
        assert np.linalg.norm(_moved(got.components(), q) - qp) <= 1e-9


def test_align_sp1_rejects_mismatched_entries(rng):
    mu = hunit(rng)
    qs = [rng.standard_normal(4) for _ in range(4)]
    pairs = [(q, _moved(mu, q)) for q in qs]
    bad = rng.standard_normal(4)
    pairs.append((bad, bad + [0, 0.3, 0, 0]))
    assert align_sp1(*_qarrays(pairs), tol=1e-8) is None


def test_align_sp1_real_entries_need_equality():
    pairs = [([2.0, 0, 0, 0], [2.0, 0, 0, 0])]
    assert align_sp1(*_qarrays(pairs), tol=1e-10) is not None
    pairs = [([2.0, 0, 0, 0], [2.1, 0, 0, 0])]
    assert align_sp1(*_qarrays(pairs), tol=1e-10) is None


# the conjugator within one similarity class is align_sp1 on one entry

def test_conjugator_within_class(rng):
    q = rng.standard_normal(4)
    target = _moved(hunit(rng), q)
    mu = align_sp1(*_qarrays([(q, target)]), tol=1e-9)
    assert np.linalg.norm(_moved(mu.components(), q) - target) <= 1e-10


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.3, -0.5, 0.8)])
def test_conjugator_within_class_antipodal(axis):
    q = np.array([0.7, *axis])
    target = np.array([0.7, *(-np.array(axis))])
    mu = align_sp1(*_qarrays([(q, target)]), tol=1e-9)
    assert abs(float(mu.moduli()) - 1.0) <= 1e-12
    assert np.linalg.norm(_moved(mu.components(), q) - target) <= 1e-10


def test_conjugator_within_class_rejects_other_class():
    for target in ([0.7, 0, 1.1, 0], [-0.7, 0, 1.0, 0]):
        pairs = [([0.7, 1.0, 0, 0], target)]
        assert align_sp1(*_qarrays(pairs), tol=1e-9) is None


def _align_reference(pairs, tol):
    """align_sp1 entry by entry in the matrix model, on real 4-vectors."""
    norm = np.linalg.norm
    scale = max([1.0] + [norm(q) for q, _ in pairs])
    if not all(abs(q[0] - qp[0]) <= tol * scale
               and abs(norm(q) - norm(qp)) <= tol * scale for q, qp in pairs):
        return None
    kept = [(q, qp) for q, qp in pairs if norm(q[1:]) > tol * scale]
    if not kept:
        return np.array([1.0, 0.0, 0.0, 0.0])
    B = sum(np.outer(qp[1:], q[1:]) for q, qp in kept)
    sigma = np.trace(B)
    z = np.array([B[1, 2] - B[2, 1], B[2, 0] - B[0, 2], B[0, 1] - B[1, 0]])
    K = np.block([[np.array([[sigma]]), z[None, :]],
                  [z[:, None], B + B.T - sigma * np.eye(3)]])
    cand = np.linalg.eigh(K)[1][:, -1]
    cand = cand / norm(cand)
    for mu in (cand, hconj(cand)):
        if max(norm(_moved(mu, q) - qp) for q, qp in pairs) <= tol * scale:
            return mu
    return None


def test_align_sp1_matches_entrywise_reference(rng):
    norm = np.linalg.norm
    for trial in range(200):
        mu = hunit(rng)
        qs = [rng.standard_normal(4) * 3 for _ in range(trial % 7)]
        if trial % 5 == 0:
            qs = [q * [1, 1, 0, 0] for q in qs]            # complex entries
        pairs = [(q, _moved(mu, q)) for q in qs]
        if trial % 3 == 0 and pairs:
            q, qp = pairs[-1]
            pairs[-1] = (q, qp + [0, 0, 1e-9 * (trial % 2), 1e-6])
        got = align_sp1(*_qarrays(pairs), tol=1e-8)
        ref = _align_reference(pairs, 1e-8)
        assert (got is None) == (ref is None)
        if ref is None:
            continue
        got = got.components()
        scale = max([1.0] + [norm(q) for q, _ in pairs])
        assert max([norm(_moved(got, q) - qp) for q, qp in pairs],
                   default=0.0) <= 1e-8 * scale
        axes = np.array([q[1:] for q, _ in pairs]).reshape(-1, 3)
        if np.linalg.matrix_rank(axes, tol=1e-6) >= 2:   # mu is unique
            assert min(norm(got - ref), norm(got + ref)) <= 1e-12
