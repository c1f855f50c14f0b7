import numpy as np
import pytest

from loxpairs.errors import (NotIsometry, NotLoxodromic, PalindromeViolation,
                             RealEigenvalueClass)
from loxpairs.generate import random_loxodromic
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.quat import Quaternion
from loxpairs.spectral import (apply_j, classify_element, eigen_frame,
                               element_conjugator, projective_point,
                               projective_points_equal, real_char_poly,
                               real_trace, real_trace_from_frame)


def _diag_loxodromic(space, r=0.5, theta=np.pi / 3,
                     phis=(np.pi / 4, np.pi / 5)):
    lams = [r * np.exp(1j * theta)]
    lams += [np.exp(1j * p) for p in phis]
    lams += [np.exp(1j * theta) / r]
    return QArray.diag(lams)


def test_real_char_poly_palindromic(qspace, rng):
    for _ in range(20):
        U = qspace.random_isometry(rng)
        chi = real_char_poly(qspace, U)
        assert np.allclose(chi, chi[::-1], rtol=1e-7, atol=1e-7)


def test_real_char_poly_matches_embedding(qspace, rng):
    U = qspace.random_isometry(rng)
    chi = real_char_poly(qspace, U)
    expect = np.real(np.poly(U.embed()))
    assert np.allclose(chi, expect, rtol=1e-8, atol=1e-8)


def test_real_char_poly_rejects_non_isometry(qspace, rng):
    M = qspace._random_qarray(rng, (4, 4))
    with pytest.raises(NotIsometry):
        real_char_poly(qspace, M)


def test_classify_diagonal_loxodromic(qspace):
    E = _diag_loxodromic(qspace)
    cls = classify_element(qspace, E)
    assert cls.is_loxodromic
    assert cls.delta > 0


def test_classify_complex_takes_one_char_poly(cspace, rng, monkeypatch):
    import loxpairs.spectral as spectral
    calls = []
    fl = spectral.faddeev_leverrier

    def counted(M):
        calls.append(M.shape)
        return fl(M)

    monkeypatch.setattr(spectral, "faddeev_leverrier", counted)
    assert classify_element(cspace, random_loxodromic(cspace, rng)).is_loxodromic
    assert calls == [(4, 4)]


def test_classify_elliptic_diagonal(qspace):
    # the null-pair angles must agree for a diagonal form isometry
    E = QArray.diag(np.exp(1j * np.array([0.3, 0.9, 1.7, 0.3])))
    cls = classify_element(qspace, E)
    assert not cls.is_loxodromic


def test_real_trace_conjugation_invariant(qspace, rng):
    A = random_loxodromic(qspace, rng)
    C = qspace.random_isometry(rng)
    t0 = real_trace(qspace, A)
    t1 = real_trace(qspace, conjugate_by(C, A))
    assert np.allclose(t0, t1, rtol=1e-6, atol=1e-6)


def test_eigen_frame_diagonal(qspace):
    r, theta = 0.5, np.pi / 3
    E = _diag_loxodromic(qspace, r, theta)
    f = eigen_frame(qspace, E)
    assert np.isclose(f.radius, r, atol=1e-9)
    assert np.isclose(f.theta, theta, atol=1e-9)
    assert np.allclose(np.sort(f.phis), [np.pi / 5, np.pi / 4], atol=1e-9)
    # eigenvectors of the diagonal model are coordinate lines
    assert np.argmax(np.abs(f.attracting.a)) == 0
    assert np.argmax(np.abs(f.repelling.a)) == 3


def test_eigen_frame_rebuild(qspace, rng):
    A = random_loxodromic(qspace, rng)
    f = eigen_frame(qspace, A)
    assert (f.rebuild() - A).max_abs() < 1e-8 * (1 + A.max_abs())


def test_frame_normalization(qspace, rng):
    A = random_loxodromic(qspace, rng)
    f = eigen_frame(qspace, A)
    assert qspace.inner(f.attracting, f.repelling).isclose(
        Quaternion(1, 0, 0, 0), tol=1e-9)
    for x in f.positives:
        assert np.isclose(qspace.norm_sq(x), 1.0, atol=1e-9)
    assert qspace.is_isometry(f.frame_matrix(), tol=1e-7)


def test_frame_real_trace(qspace, rng):
    A = random_loxodromic(qspace, rng)
    f = eigen_frame(qspace, A)
    assert np.allclose(real_trace_from_frame(f), real_trace(qspace, A),
                       rtol=1e-7, atol=1e-7)


def test_eigen_frame_rejects_real_class(qspace):
    E = QArray.diag([0.5, np.exp(1j * 0.7), np.exp(1j * 1.9), 2.0])
    with pytest.raises((RealEigenvalueClass, NotLoxodromic)):
        eigen_frame(qspace, E)


def test_conjugated_frame(qspace, rng):
    A = random_loxodromic(qspace, rng)
    C = qspace.random_isometry(rng)
    f = eigen_frame(qspace, A).conjugated(C)
    Ac = conjugate_by(C, A)
    assert (f.rebuild() - Ac).max_abs() < 1e-7 * (1 + Ac.max_abs())


def test_projective_point_complex_rescale_invariant(qspace, rng):
    v = qspace._random_qarray(rng, 4)
    c = 0.7 - 1.3j
    p = projective_point(v)
    q = projective_point(QArray(v.a * c, v.b * c))
    assert projective_points_equal(p, q, tol=1e-10)
    assert np.isclose(np.linalg.norm(p), 1.0)


def test_apply_j_is_projective_involution(rng):
    p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    p = p / np.linalg.norm(p)
    p = p / (p[np.argmax(np.abs(p))] / np.abs(p[np.argmax(np.abs(p))]))
    q = apply_j(apply_j(p))
    assert np.linalg.norm(q - p) < 1e-12


def test_element_conjugator(qspace, rng):
    A = random_loxodromic(qspace, rng)
    C = qspace.random_isometry(rng)
    Ac = conjugate_by(C, A)
    S = element_conjugator(qspace, A, Ac)
    assert (conjugate_by(S, A) - Ac).max_abs() < 1e-6 * (1 + Ac.max_abs())
    assert qspace.is_isometry(S, tol=1e-6)


def test_complex_mode_frame(cspace, rng):
    A = random_loxodromic(cspace, rng)
    f = eigen_frame(cspace, A)
    assert (f.rebuild() - A).max_abs() < 1e-8 * (1 + A.max_abs())
    assert np.max(np.abs(f.attracting.b)) == 0


def test_eigenpairs_pick_upper_representatives(qspace, rng):
    from loxpairs.spectral import _eigenpairs
    A = random_loxodromic(qspace, rng)
    lams = np.array([lam for _, lam in _eigenpairs(qspace, A)])
    assert np.all(lams.imag >= 0)
    ev = np.linalg.eigvals(A.embed())
    for c in ev[ev.imag > 0]:
        assert np.min(np.abs(lams - c)) < 1e-9


def test_eigen_frame_large_conjugator_n5(rng):
    # a boost of norm 1e3 spreads the entries of Q A Q^-1 over 1e6
    from loxpairs.spectral import RESIDUAL_TOL
    space = HermitianSpace(5, "quaternion")
    A = random_loxodromic(space, rng)
    Q = QArray.diag([1e3, 1, 1, 1, 1, 1e-3])
    A2 = conjugate_by(Q, A)
    f = eigen_frame(space, A2)
    gate = RESIDUAL_TOL * (1 + A2.max_abs())
    for v, lam in zip([f.attracting, *f.positives, f.repelling],
                      f.eigenvalues):
        resid = (A2 @ v - v.rmul(Quaternion.from_complex(lam))).norm()
        assert resid <= gate * v.norm()
    assert (f.rebuild() - A2).max_abs() <= gate


def test_eigen_frame_non_complex_pairing_is_typed(qspace, rng, monkeypatch):
    import loxpairs.spectral as spectral
    from loxpairs.errors import DegenerateSpectrum
    A = random_loxodromic(qspace, rng)
    original = spectral._eigenpairs

    def skewed(space, A):
        # right-multiplying the repelling eigenvector by j keeps it an
        # eigenvector of the class, but <a, rv> is no longer complex
        pairs = original(space, A)
        k = int(np.argmax([abs(lam) for _, lam in pairs]))
        v, lam = pairs[k]
        pairs[k] = (v.rmul(Quaternion(0, 0, 1, 0)), lam)
        return pairs

    monkeypatch.setattr(spectral, "_eigenpairs", skewed)
    with pytest.raises(DegenerateSpectrum):
        eigen_frame(qspace, A)


def test_solve_xp_stack_matches_per_system_solve(rng):
    from loxpairs.spectral import _solve_xp
    J = rng.standard_normal((4, 7, 7)) + 1j * rng.standard_normal((4, 7, 7))
    rhs = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    x = _solve_xp(J.astype(np.clongdouble), rhs.astype(np.clongdouble))
    assert x.dtype == np.clongdouble
    for Ji, ri, xi in zip(J, rhs, x):
        assert np.allclose(np.asarray(xi, dtype=complex),
                           np.linalg.solve(Ji, ri), rtol=1e-10, atol=1e-12)


def test_frame_points_order(qframes):
    f = qframes[0]
    expect = [f.attracting, *f.positives]
    pts = f.points()
    assert len(pts) == len(expect) == 3
    for p, v in zip(pts, expect):
        assert np.array_equal(p, projective_point(v))
