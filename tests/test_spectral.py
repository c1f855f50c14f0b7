import warnings

import numpy as np
import pytest

from loxpairs.classify import conjugacy_test
from loxpairs.errors import (LoxpairsError, NoConvergence, NotIsometry,
                             NotLoxodromic, PalindromeViolation,
                             RealEigenvalueClass, WrongDimension)
from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.spectral import (classify_element, eigen_frame,
                               element_conjugator, projective_points,
                               real_char_poly)
from loxpairs.twistbend import pants_groups


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_a_tol_that_is_not_positive_is_rejected(tol):
    # unchecked, this valid loxodromic fails the palindrome gate
    space = HermitianSpace(3, "quaternion")
    A, _ = generate_pair(space, seed=1)
    assert classify_element(space, A).is_loxodromic
    for call in (real_char_poly, classify_element):
        with pytest.raises(LoxpairsError, match="tol must be positive"):
            call(space, A, tol=tol)


def test_classify_diagonal_loxodromic(qspace):
    E = _diag_loxodromic(qspace)
    cls = classify_element(qspace, E)
    assert cls.is_loxodromic
    assert cls.delta > 0


def test_nan_fails_the_palindrome_and_delta_gates(qspace, monkeypatch):
    import loxpairs.spectral as spectral
    E = _diag_loxodromic(qspace)
    with pytest.raises(PalindromeViolation):
        real_char_poly(qspace, E, chi=np.full(9, np.nan, dtype=complex))
    monkeypatch.setattr(spectral, "discriminant",
                        lambda g: np.full(len(g), np.nan))
    cls = classify_element(qspace, E)
    assert not cls.is_loxodromic and cls.reason == "delta <= 0"


def test_classify_complex_takes_one_char_poly(cspace, rng, monkeypatch):
    import loxpairs.spectral as spectral
    calls = []
    fl = spectral.faddeev_leverrier

    def counted(M):
        calls.append(M.shape)
        return fl(M)

    monkeypatch.setattr(spectral, "faddeev_leverrier", counted)
    A, _ = random_loxodromic(cspace, rng)
    assert classify_element(cspace, A).is_loxodromic
    assert calls == [(4, 4)]


def test_classify_elliptic_diagonal(qspace):
    # the null-pair angles must agree for a diagonal form isometry
    E = QArray.diag(np.exp(1j * np.array([0.3, 0.9, 1.7, 0.3])))
    cls = classify_element(qspace, E)
    assert not cls.is_loxodromic


def test_real_trace_conjugation_invariant(qspace, rng):
    A = random_loxodromic(qspace, rng)[0]
    C = qspace.random_isometry(rng)
    t0 = real_char_poly(qspace, A)[1:qspace.n + 2]
    t1 = real_char_poly(qspace, conjugate_by(C, A))[1:qspace.n + 2]
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
    A = random_loxodromic(qspace, rng)[0]
    f = eigen_frame(qspace, A)
    assert (f.rebuild() - A).max_abs() < 1e-8 * (1 + A.max_abs())


def test_frame_normalization(qspace, rng):
    A = random_loxodromic(qspace, rng)[0]
    f = eigen_frame(qspace, A)
    assert (qspace.inner(f.attracting, f.repelling)
            - QArray(1.0)).moduli() <= 1e-9
    for j in range(1, qspace.n):
        assert np.isclose(qspace.norm_sq(f.F.column(j)), 1.0, atol=1e-9)
    assert qspace.is_isometry(f.F, tol=1e-7)


def test_frame_real_trace(qspace, rng):
    A = random_loxodromic(qspace, rng)[0]
    f = eigen_frame(qspace, A)
    expect = real_char_poly(qspace, A)[1:qspace.n + 2]
    assert np.allclose(f.real_trace, expect, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_eigen_frame_of_another_size_raises_wrong_dimension(field):
    # a loxodromic of H^3 framed in H^4: its size, not its spectrum, is
    # what is wrong
    A, _ = generate_pair(HermitianSpace(3, field), seed=1)
    with pytest.raises(WrongDimension, match="need 5 x 5"):
        eigen_frame(HermitianSpace(4, field), A)


@pytest.mark.parametrize("entry", ["classify_element", "real_char_poly",
                                   "PantsGroup"])
@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_other_entry_points_share_the_size_check(field, entry):
    # eigen_frame's check, before any product of A with the form
    A, B = generate_pair(HermitianSpace(3, field), seed=1)
    space = HermitianSpace(4, field)
    call = {"classify_element": lambda: classify_element(space, A),
            "real_char_poly": lambda: real_char_poly(space, A),
            "PantsGroup": lambda: pants_groups(space, [(A, B)])}[entry]
    with pytest.raises(WrongDimension, match="need 5 x 5"):
        call()


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_pants_group_checks_each_generator_before_the_product(field):
    # A @ B of a 5 x 5 A and a 4 x 4 B is a numpy error, not a pants
    space = HermitianSpace(4, field)
    A, _ = generate_pair(space, seed=1)
    _, B = generate_pair(HermitianSpace(3, field), seed=1)
    with pytest.raises(WrongDimension, match=r"got \(4, 4\)"):
        pants_groups(space, [(A, B)])


def test_classify_element_rejects_a_non_square_matrix(qspace):
    with pytest.raises(WrongDimension, match=r"got \(4, 3\)"):
        classify_element(qspace, QArray(np.ones((4, 3), dtype=complex)))


def test_eigen_frame_rejects_real_class(qspace):
    E = QArray.diag([0.5, np.exp(1j * 0.7), np.exp(1j * 1.9), 2.0])
    with pytest.raises((RealEigenvalueClass, NotLoxodromic)):
        eigen_frame(qspace, E)


def test_conjugated_frame(qspace, rng):
    A = random_loxodromic(qspace, rng)[0]
    C = qspace.random_isometry(rng)
    f = eigen_frame(qspace, A).conjugated(C)
    Ac = conjugate_by(C, A)
    assert (f.rebuild() - Ac).max_abs() < 1e-7 * (1 + Ac.max_abs())


def test_projective_point_complex_rescale_invariant(qspace, rng):
    v = qspace._random_qarray(rng, 4)
    c = 0.7 - 1.3j
    p, q = projective_points(QArray.from_columns(
        [v, QArray(v.a * c, v.b * c)]))
    assert np.linalg.norm(p - q) <= 1e-10
    assert np.isclose(np.linalg.norm(p), 1.0)


def test_projective_points_match_per_vector_rule(qspace, rng):
    def one(v):
        mags = np.abs(v.a) ** 2 + np.abs(v.b) ** 2
        i = int(np.argmax(mags))
        p = np.array([v.a[i], v.b[i]])
        p = p / np.linalg.norm(p)
        j = int(np.argmax(np.abs(p)))
        return p / (p[j] / abs(p[j]))

    vs = [qspace._random_qarray(rng, 4) for _ in range(6)]
    got = projective_points(QArray.from_columns(vs))
    for p, v in zip(got, vs):
        assert np.max(np.abs(p - one(v))) <= 1e-15


def test_element_conjugator(qspace, rng):
    A = random_loxodromic(qspace, rng)[0]
    C = qspace.random_isometry(rng)
    Ac = conjugate_by(C, A)
    S = element_conjugator(qspace, A, Ac)
    assert (conjugate_by(S, A) - Ac).max_abs() < 1e-6 * (1 + Ac.max_abs())
    assert qspace.is_isometry(S, tol=1e-6)


def _conjugate_pairs(space, rng, k):
    """k pairs (X, C X C^-1) of loxodromics X and random isometries C."""
    pairs = []
    for _ in range(k):
        X, _ = random_loxodromic(space, rng)
        pairs.append((X, conjugate_by(space.random_isometry(rng), X)))
    return pairs


def _conjugator(space, X, Y):
    try:
        return element_conjugator(space, X, Y)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_stacked_conjugators_equal_single_conjugators(n, field):
    space = HermitianSpace(n, field)
    pairs = _conjugate_pairs(space, np.random.default_rng(n), 3)
    S = element_conjugator(space, *map(QArray.stack, zip(*pairs)))
    assert S.shape == (3, space.dim, space.dim)
    for i, (X, Y) in enumerate(pairs):
        alone = element_conjugator(space, X, Y)
        assert alone.shape == (space.dim, space.dim)
        assert np.array_equal(S.a[i], alone.a)
        assert np.array_equal(S.b[i], alone.b)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("bad", [{1: ("Y", "differ")},
                                 {0: ("X", "no-attracting"),
                                  2: ("Y", "classes")},
                                 {1: ("Y", "non-unit"), 2: ("X", "classes")},
                                 {0: ("Y", "differ"),
                                  3: ("X", "no-attracting")},
                                 {1: ("X", "differ"), 2: ("Y", "differ")},
                                 {2: ("X", "overflow"), 3: ("Y", "differ")}])
def test_stacked_conjugators_raise_what_the_pair_raises(field, bad):
    # eigen_frame frames X_0, Y_0, X_1, ... as one stack, then the class
    # data of every pair is compared: the stack raises at the earliest
    # gate that any pair fails, with the error of the first pair that
    # fails it alone
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(6)
    pairs = _conjugate_pairs(space, rng, 4)
    for i, (side, name) in bad.items():
        M = random_loxodromic(space, rng)[0] if name == "differ" \
            else _failing(space)[name]
        pairs[i] = (M, pairs[i][1]) if side == "X" else (pairs[i][0], M)
    expect = _earliest([_conjugator(space, X, Y) for X, Y in pairs],
                       _GATES + ("eigenvalue data of the two elements "
                                 "differ",))
    assert _conjugator(space, *map(QArray.stack, zip(*pairs))) == expect


def test_complex_mode_frame(cspace, rng):
    A = random_loxodromic(cspace, rng)[0]
    f = eigen_frame(cspace, A)
    assert (f.rebuild() - A).max_abs() < 1e-8 * (1 + A.max_abs())
    assert np.max(np.abs(f.attracting.b)) == 0


def test_eigenpairs_pick_upper_representatives(qspace, rng):
    from loxpairs.spectral import _eigenpairs
    As = QArray.stack([random_loxodromic(qspace, rng)[0] for _ in range(3)])
    _, lams, _ = _eigenpairs(qspace, qspace.as_complex(As))
    assert lams.shape == (3, qspace.dim)
    assert np.all(lams.imag >= 0)
    for e in range(3):
        ev = np.linalg.eigvals(As.pick(e).embed())
        for c in ev[ev.imag > 0]:
            assert np.min(np.abs(lams[e] - c)) < 1e-9


def _assert_within_gates(space, f, A, kappa=1.0):
    """Every column of the frame f is an eigenvector of A within the
    eigenvector residual gate, and F D F^-1 rebuilds A within that gate,
    widened to 20 eps kappa (1 + max|A|) when that is larger."""
    from loxpairs.spectral import RESIDUAL_TOL
    gate = RESIDUAL_TOL * (1 + A.max_abs())
    for v, lam in zip([f.F.column(j) for j in range(space.dim)],
                      f.eigenvalues):
        resid = (A @ v - v * QArray(lam)).norm()
        assert resid <= gate * v.norm()
    widen = max(1.0, 20 * np.finfo(float).eps * kappa / RESIDUAL_TOL)
    assert (f.rebuild() - A).max_abs() <= gate * widen


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 5])
def test_eigen_frame_large_conjugator(n, field):
    # a boost of norm 1e3 spreads the entries of Q A Q^-1 over 1e6
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(1234)
    Q = QArray.diag([1e3] + [1.0] * (n - 1) + [1e-3])
    for _ in range(20):
        A2 = conjugate_by(Q, random_loxodromic(space, rng)[0])
        _assert_within_gates(space, eigen_frame(space, A2), A2)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("k", [1e1, 1e2, 1e3, 1e4])
def test_eigen_frame_boosted_conjugates_frame_or_raise_typed(k, n, field):
    # S = U diag(k, 1, ..., 1, 1/k) V is an isometry of norm about k for
    # isometries U, V, so the entries of S A S^-1 grow like k^2; a frame
    # meets the reconstruction gate of eigen_frame, which widens with
    # cond(F)
    from loxpairs.errors import DegenerateInputError
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(n)
    Q = QArray.diag([k] + [1.0] * (n - 1) + [1 / k])
    for _ in range(5):
        S = space.random_isometry(rng) @ Q @ space.random_isometry(rng)
        A2 = conjugate_by(S, random_loxodromic(space, rng)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                f = eigen_frame(space, A2)
            except DegenerateInputError:
                continue
        _assert_within_gates(space, f, A2, np.linalg.cond(f.F.embed()))


def _turn_repelling(space, eigenpairs, unit):
    """eigenpairs with the repelling eigenvector of every element
    right-multiplied by unit."""
    def turned(*args):
        W, lams, resid = eigenpairs(*args)
        for e, k in enumerate(np.argmax(np.abs(lams), axis=-1)):
            W[e, k] = space.as_complex(space.from_complex(W[e, k]) * unit)
        return W, lams, resid
    return turned


def test_eigen_frame_non_complex_pairing_is_typed(qspace, rng, monkeypatch):
    import loxpairs.spectral as spectral
    from loxpairs.errors import DegenerateSpectrum
    A = random_loxodromic(qspace, rng)[0]
    # right-multiplying the repelling eigenvector by j keeps it an
    # eigenvector of the class, but <a, rv> is no longer complex
    monkeypatch.setattr(spectral, "_eigenpairs", _turn_repelling(
        qspace, spectral._eigenpairs, QArray(0.0, 1.0)))
    with pytest.raises(DegenerateSpectrum):
        eigen_frame(qspace, A)


def _nan_vectors(W, lams, resid):
    W[-1] = np.nan
    resid[-1] = np.nan


def _nan_residual(W, lams, resid):
    resid[-1] = np.nan


def _zero_repelling(W, lams, resid):
    # <a, 0> = 0, so the normalized repelling lift is not finite
    W[-1, np.argmax(np.abs(lams[-1]))] = 0.0


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("change, match", [
    (_nan_vectors, "eigenvector residual nan"),
    (_nan_residual, "eigenvector residual nan"),
    (_zero_repelling, "frame matrix condition inf")],
    ids=["nan-vectors", "nan-residual", "zero-repelling"])
def test_eigen_frame_non_finite_eigenpairs_are_typed(monkeypatch, field, k,
                                                     change, match):
    # the last element of the stack gets the change; NaN fails the gate
    # it reaches, and a frame matrix that is not finite is never inverted
    import loxpairs.spectral as spectral
    from loxpairs.errors import DegenerateSpectrum
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(7)
    As = QArray.stack([random_loxodromic(space, rng)[0] for _ in range(k)])
    eigenpairs = spectral._eigenpairs

    def changed(*args):
        W, lams, resid = eigenpairs(*args)
        change(W, lams, resid)
        return W, lams, resid

    monkeypatch.setattr(spectral, "_eigenpairs", changed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSpectrum, match=match):
            eigen_frame(space, As)


@pytest.mark.parametrize("tilt, raises", [(1e-9, False), (1e-5, True)])
def test_eigen_frame_pairing_gate(qspace, rng, monkeypatch, tilt, raises):
    # the repelling eigenvector turned by the unit cos t + j sin t gives
    # <a, rv> a j part |<a, rv>| sin t; the gate is 1e-7 (1 + |<a, rv>|)
    import loxpairs.spectral as spectral
    from loxpairs.errors import DegenerateSpectrum
    A = random_loxodromic(qspace, rng)[0]
    unit = QArray(np.cos(tilt), np.sin(tilt))
    monkeypatch.setattr(spectral, "_eigenpairs", _turn_repelling(
        qspace, spectral._eigenpairs, unit))
    if raises:
        with pytest.raises(DegenerateSpectrum, match="j part"):
            eigen_frame(qspace, A)
    else:
        f = eigen_frame(qspace, A)
        assert (f.rebuild() - A).max_abs() < 1e-8 * (1 + A.max_abs())


def _xp_residual(M, V, lams):
    """Largest ||V M^T - lam V|| / ||V|| over the rows, in extended
    precision."""
    Vl = V.astype(np.clongdouble)
    R = Vl @ M.astype(np.clongdouble).T \
        - lams.astype(np.clongdouble)[:, None] * Vl
    return np.max(np.sqrt(np.sum(np.abs(R) ** 2, axis=1)
                          / np.sum(np.abs(Vl) ** 2, axis=1)))


@pytest.mark.parametrize("n,fld", [(3, "quaternion"), (5, "complex")])
def test_polish_eigenpairs_halves_residual_on_boosted_conjugates(n, fld):
    from loxpairs.spectral import _polish_eigenpairs
    space = HermitianSpace(n, fld)
    rng = np.random.default_rng(2024)
    Q = QArray.diag([1e3] + [1.0] * (n - 1) + [1e-3])
    for _ in range(10):
        M = space.as_complex(conjugate_by(Q, random_loxodromic(space, rng)[0]))
        evals, evecs = np.linalg.eig(M)
        idx = np.argsort(-evals.imag)[:space.dim]
        V, lams = evecs[:, idx].T, evals[idx]
        V2, lams2 = _polish_eigenpairs(M, V, lams)
        assert V2.dtype == lams2.dtype == complex
        assert _xp_residual(M, V2, lams2) <= 0.5 * _xp_residual(M, V, lams)


def test_polish_eigenpairs_singular_border_keeps_pairs(rng):
    from loxpairs.spectral import _polish_eigenpairs
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lams, W = np.linalg.eig(M)
    V = W.T.copy()
    V[1] = 0.0
    V2, lams2 = _polish_eigenpairs(M, V, lams)
    assert V2 is V and lams2 is lams


def test_frame_points_order(qframes):
    f = qframes[0]
    expect = [f.F.column(j) for j in range(f.space.n)]
    pts = f.points
    assert pts is f.points and len(pts) == len(expect) == 3
    for p, v in zip(pts, expect):
        assert np.array_equal(p, projective_points(
            QArray.from_columns([v]))[0])


# -- stacks: a single element is a stack of one ------------------------------

def _same_frame(f, g):
    """Bit-for-bit equality of two frames."""
    return (f.radius == g.radius and f.theta == g.theta
            and np.array_equal(f.phis, g.phis)
            and np.array_equal(f.F.a, g.F.a) and np.array_equal(f.F.b, g.F.b))


def _alone(space, A):
    """The frame of one element called alone, or the exception it
    raises, as (class, message)."""
    try:
        return eigen_frame(space, A)
    except Exception as exc:
        return type(exc), str(exc)


def _stacked(space, As):
    try:
        return eigen_frame(space, As)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_stacked_frames_equal_single_frames(n, field):
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(n)
    As = QArray.stack([random_loxodromic(space, rng)[0] for _ in range(4)])
    frames = eigen_frame(space, As)
    assert isinstance(frames, list) and len(frames) == 4
    for i, f in enumerate(frames):
        assert _same_frame(f, eigen_frame(space, As.pick(i)))


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_stack_frames_its_large_element_as_alone(field):
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(11)
    Q = QArray.diag([30.0, 1.0, 1.0, 1 / 30.0])
    As = [random_loxodromic(space, rng)[0] for _ in range(3)]
    As[1] = conjugate_by(Q, As[1])
    assert As[1].max_abs() > 10 * max(As[0].max_abs(), As[2].max_abs())
    for f, A in zip(eigen_frame(space, QArray.stack(As)), As):
        assert _same_frame(f, eigen_frame(space, A))


def _failing(space):
    """Elements that fail eigen_frame at six gates: characteristic
    coefficients that overflow and repeated classes (before the
    eigensolver), no attracting class, an attracting class on the real
    axis, attracting and repelling angles that disagree and a non-unit
    intermediate eigenvalue (after it).  The real axis and the angles
    are gates of the quaternion field only: over the complex numbers
    the first of these elements has a frame, and the second fails the
    reconstruction gate."""
    twice = np.exp(1j * 0.7)
    unit = np.exp(1j * np.array([0.3, 0.9, 1.7, 2.5]))
    huge = random_loxodromic(space, np.random.default_rng(0))[0].scale(1e200)
    return {"overflow": huge,
            "classes": QArray.diag([0.5, twice, twice, 2.0]),
            "no-attracting": QArray.diag(unit),
            "real-axis": QArray.diag(np.array([0.5, 1.0, 1.0, 2.0]) * np.exp(
                1j * np.array([1e-8, 0.3, 0.9, 1e-8]))),
            "angles": QArray.diag(np.array([0.5, 1.0, 1.0, 2.0]) * np.exp(
                1j * np.array([0.5, 0.3, 0.9, 0.6]))),
            "non-unit": QArray.diag(np.array([0.5, 1.5, 1.0, 2.0]) * unit[
                [0, 1, 2, 0]])}


# the gates that the elements of _failing meet, in eigen_frame's order
_GATES = ("polynomial coefficients are not finite",
          "eigenvalue classes are not simple",
          "no attracting/repelling eigenvalue pair",
          "attracting class meets the real axis",
          "attracting/repelling angles disagree",
          "non-unit intermediate eigenvalue",
          "frame reconstruction residual")


def _earliest(alone, gates=_GATES):
    """Of the results of a stack's elements called alone, in stack
    order, the error at the earliest of gates, and of the first element
    on a tie."""
    errors = [r for r in alone if isinstance(r, tuple)]
    return min(errors, key=lambda r: next(
        k for k, gate in enumerate(gates) if r[1].startswith(gate)))


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("bad", [{0: "no-attracting"}, {2: "classes"},
                                 {0: "no-attracting", 2: "classes"},
                                 {2: "non-unit", 3: "classes"},
                                 {1: "non-unit", 2: "no-attracting"},
                                 {1: "classes", 3: "non-unit"},
                                 {1: "real-axis", 3: "no-attracting"},
                                 {2: "angles", 3: "classes"},
                                 {0: "angles", 1: "real-axis",
                                  2: "no-attracting"},
                                 {1: "no-attracting", 2: "real-axis",
                                  3: "angles"},
                                 {0: "overflow", 2: "classes"},
                                 {1: "classes", 3: "overflow"},
                                 {0: "overflow", 2: "non-unit"},
                                 {1: "non-unit", 2: "overflow"}])
def test_stack_raises_what_the_serial_loop_raises(field, bad):
    # the serial loop runs over the gates in pipeline order, and within
    # a gate over the elements: the stack raises at the earliest gate
    # that any element fails and names the first element that fails it,
    # with the error that element raises alone
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(5)
    As = [random_loxodromic(space, rng)[0] for _ in range(4)]
    for i, name in bad.items():
        As[i] = _failing(space)[name]
    As = QArray.stack(As)
    expect = _earliest([_alone(space, As.pick(i)) for i in range(4)])
    assert _stacked(space, As) == expect


def _same_class(c, d):
    return (c.is_loxodromic is d.is_loxodromic and c.delta == d.delta
            and c.reason == d.reason
            and np.array_equal(c.real_trace, d.real_trace))


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_stacked_classes_equal_single_classes(n, field):
    # loxodromic, elliptic and random isometries side by side: each
    # element of the stack gets, bit for bit, what it gets alone
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(n)
    angles = np.r_[0.3, np.linspace(0.9, 2.5, n - 1), 0.3]
    elliptic = conjugate_by(space.random_isometry(rng),
                            QArray.diag(np.exp(1j * angles)))
    As = QArray.stack([random_loxodromic(space, rng)[0] for _ in range(3)]
                      + [elliptic, space.random_isometry(rng)])
    classes = classify_element(space, As)
    coeffs = real_char_poly(space, As)
    assert isinstance(classes, list) and isinstance(coeffs, list)
    assert {c.is_loxodromic for c in classes} == {True, False}
    for i, (c, chi) in enumerate(zip(classes, coeffs)):
        assert _same_class(c, classify_element(space, As.pick(i)))
        assert np.array_equal(chi, real_char_poly(space, As.pick(i)))


def _failing_class(space, name):
    """An element that fails real_char_poly's form gate or its
    coefficient symmetry gate."""
    if name == "not-isometry":
        return space._random_qarray(np.random.default_rng(2), (4, 4))
    return _diag_loxodromic(space, r=1e-4)      # the FL symmetry gate


@pytest.mark.parametrize("entry", [classify_element, real_char_poly])
@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("bad", [{2: "symmetry"}, {0: "not-isometry"},
                                 {1: "symmetry", 3: "not-isometry"}])
def test_stacked_classes_raise_what_the_element_raises(entry, field, bad):
    # the stack raises at the earliest gate that any element fails (the
    # form before the symmetry), with the error of the first element
    # that fails it alone
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(4)
    As = [random_loxodromic(space, rng)[0] for _ in range(4)]
    for i, name in bad.items():
        As[i] = _failing_class(space, name)
    first = min(bad, key=lambda i: (bad[i] == "symmetry", i))
    with pytest.raises(LoxpairsError) as alone:
        entry(space, As[first])
    assert type(alone.value) is (
        NotIsometry if bad[first] == "not-isometry" else PalindromeViolation)
    with pytest.raises(type(alone.value)) as stacked:
        entry(space, QArray.stack(As))
    assert str(stacked.value) == str(alone.value)


def test_stack_with_an_overflowing_element_leaks_no_warning(qspace, cspace,
                                                            rng):
    # the huge second element overflows its characteristic polynomial,
    # the earliest gate, so the stack raises its error, which the first
    # element's later gate does not shadow; no overflow warning gets out
    bad = _failing(qspace)["no-attracting"]
    huge = random_loxodromic(qspace, rng)[0].scale(1e200)
    As = QArray.stack([bad, huge])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [_alone(qspace, A) for A in (bad, huge)]
        assert alone[0][0] is NotLoxodromic and alone[1][0] is NoConvergence
        assert _stacked(qspace, As) == _earliest(alone) == alone[1]
    # nor does a conjugacy test with a huge element warn, in either field
    for space in (qspace, cspace):
        A, B = generate_pair(space, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LoxpairsError):
                conjugacy_test(space, A, B, A.scale(1e200), B)


def test_stack_runs_the_root_stack_once(monkeypatch):
    # the class count of a stack of four is one companion-root and one
    # clustering pass
    import loxpairs.spectral as spectral
    space = HermitianSpace(3, "quaternion")
    rng = np.random.default_rng(3)
    As = QArray.stack([random_loxodromic(space, rng)[0] for _ in range(4)])
    calls = []
    for name in ("aberth_roots", "cluster_roots"):
        def counting(*args, _f=getattr(spectral, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(spectral, name, counting)
    assert len(eigen_frame(space, As)) == 4
    assert sorted(calls) == ["aberth_roots", "cluster_roots"]


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("k", [1, 4])
def test_companion_eig_failure_is_typed(monkeypatch, field, k):
    # LAPACK does not say which companion matrix failed, so the stack
    # raises a typed error for it, and no warning gets out
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(4)
    As = QArray.stack([random_loxodromic(space, rng)[0] for _ in range(k)])

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LoxpairsError):
            eigen_frame(space, As)


def test_frames_carry_their_real_traces(qspace, rng):
    # the stacked traces are those of each frame's own class eigenvalues,
    # and a conjugated frame keeps them
    from loxpairs.spectral import _real_traces
    A = random_loxodromic(qspace, rng)[0]
    f = eigen_frame(qspace, QArray.stack([A, A @ A]))[1]
    assert np.array_equal(f.real_trace, _real_traces(f.eigenvalues))
    assert f.conjugated(qspace.random_isometry(rng)).real_trace \
        is f.real_trace


def test_polish_stack_leaves_only_the_singular_element_unpolished(rng):
    from loxpairs.spectral import _polish_eigenpairs
    M = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    lams, W = np.linalg.eig(M)
    V = np.swapaxes(W, -1, -2).copy()
    V[1, 2] = 0.0
    V2, lams2 = _polish_eigenpairs(M, V, lams)
    assert np.array_equal(V2[1], V[1]) and np.array_equal(lams2[1], lams[1])
    for e in (0, 2):
        v, lam = _polish_eigenpairs(M[e], V[e], lams[e])
        assert np.array_equal(V2[e], v) and np.array_equal(lams2[e], lam)
        assert not np.array_equal(v, V[e])
