import numpy as np
import pytest

from loxpairs.errors import (DegenerateConfiguration, GraphInvalid,
                             InconsistentProjectivePoints, WrongDimension)
from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.spectral import eigen_frame
from loxpairs.twistbend import (PantsGroup, SurfaceRepresentation,
                                TwistBendParams, _stable_letter,
                                assemble_surface_representation,
                                identity_params, parameter_count,
                                tilde_invariants, twist_bend_element)


def _pants(space, seed):
    for s in range(seed, seed + 50):
        A, B = generate_pair(space, seed=s, mode="strong")
        try:
            return PantsGroup(space, A, B)
        except Exception:
            continue
    raise RuntimeError("no pants seed found")


def _twisted(kappa0, t=1.3, psi=0.4, xi1=0.2, xi2=-0.7):
    return TwistBendParams(t, psi, xi1, xi2,
                           kappa0.k1, kappa0.k2, kappa0.k3)


@pytest.fixture(scope="module")
def qpants():
    return _pants(HermitianSpace(3, "quaternion"), 0)


def test_identity_params_give_identity(qframes):
    fa, _ = qframes
    K = twist_bend_element(identity_params(fa), fa)
    assert (K - QArray.eye(4)).max_abs() < 1e-10


def test_twist_bend_commutes(qframes):
    fa, _ = qframes
    kap = _twisted(identity_params(fa))
    K = twist_bend_element(kap, fa)
    A = fa.rebuild()
    assert (K @ A - A @ K).max_abs() <= 1e-9 * (1 + A.max_abs()) * (1 + K.max_abs())
    assert fa.space.is_isometry(K, tol=1e-8)


def test_twist_bend_spectrum(qframes):
    fa, _ = qframes
    kap = _twisted(identity_params(fa))
    K = twist_bend_element(kap, fa)
    f = eigen_frame(fa.space, K)
    assert np.isclose(f.radius, 1 / 1.3, atol=1e-8)


def test_inconsistent_points_rejected(qframes):
    fa, _ = qframes
    kap = identity_params(fa)
    bad = TwistBendParams(kap.t, kap.psi, kap.xi1, kap.xi2,
                          np.array([1.0, 0.0]), kap.k2, kap.k3)
    if np.linalg.norm(bad.k1 - kap.k1) < 1e-3:
        pytest.skip("frame point happens to sit at the pole")
    with pytest.raises(InconsistentProjectivePoints):
        twist_bend_element(bad, fa)


def test_wrong_dimension_rejected(rng):
    space = HermitianSpace(2, "quaternion")
    from loxpairs.generate import random_loxodromic
    f = eigen_frame(space, random_loxodromic(space, rng))
    p = np.array([1.0, 0.0])
    with pytest.raises(WrongDimension):
        twist_bend_element(TwistBendParams(1.0, 0.0, 0.0, 0.0, p, p, p), f)


def test_tilde_invariants_conjugation_invariant(qpants, rng):
    space = qpants.space
    fa, fb, fc = qpants.frames
    kap = _twisted(identity_params(fa))
    base = tilde_invariants(space, twist_bend_element(kap, fa), fa, fb, fc)
    C = space.random_isometry(rng)
    moved = qpants.conjugated(C)
    kap2 = _twisted(identity_params(moved.frames[0]))
    got = tilde_invariants(space, twist_bend_element(kap2, moved.frames[0]),
                           *moved.frames)
    for x, y in zip(base[:3], got[:3]):
        tol = 1e-7 * (1 + x.moduli())
        assert abs(x.a.real - y.a.real) < tol
        assert abs(x.moduli() - y.moduli()) < tol
    assert np.allclose(base[3:], got[3:], atol=1e-7)


def test_tilde_invariants_reject_a_degenerate_configuration(qpants):
    # fb the frame of A^2, so a_B = a_A lies on the line of A
    space = qpants.space
    fa, _, fc = qpants.frames
    fb = eigen_frame(space, qpants.A @ qpants.A)
    with pytest.raises(DegenerateConfiguration, match="totally geodesic"):
        tilde_invariants(space, QArray.eye(4), fa, fb, fc)


def test_tilde_invariants_separate_twists(qpants):
    space = qpants.space
    fa, fb, fc = qpants.frames
    k0 = identity_params(fa)
    K1, K2 = (twist_bend_element(_twisted(k0, t=t), fa) for t in (1.2, 1.3))
    v1 = tilde_invariants(space, K1, fa, fb, fc)
    v2 = tilde_invariants(space, K2, fa, fb, fc)
    diff = max([float((a - b).moduli()) for a, b in zip(v1[:3], v2[:3])]
               + [abs(a - b) for a, b in zip(v1[3:], v2[3:])])
    assert diff > 1e-6


def test_tilde_invariants_match_public_formulas(qpants):
    from loxpairs.gram import _normalize_quadruple
    from loxpairs.invariants import angular_invariant, cross_ratio
    space = qpants.space
    fa, fb, fc = qpants.frames
    kap = _twisted(identity_params(fa))
    K = twist_bend_element(kap, fa)
    got = tilde_invariants(space, K, fa, fb, fc)
    Z, _, _ = _normalize_quadruple(space, QArray.stack([QArray.from_columns(
        [fa.attracting, fa.repelling, fb.attracting, K @ fc.repelling])]))
    aA, rA, aB, KrC = (Z.pick(0, slice(None), j) for j in range(4))
    expect = (cross_ratio(space, aA, rA, aB, KrC),
              cross_ratio(space, aA, KrC, aB, rA),
              cross_ratio(space, rA, KrC, aB, aA),
              angular_invariant(space, aA, rA, KrC),
              angular_invariant(space, rA, KrC, aB))
    for x, y in zip(got[:3], expect[:3]):
        assert (x - y).moduli() <= 1e-12 * y.moduli()
    for x, y in zip(got[3:], expect[3:]):
        assert abs(x - y) <= 1e-12 * abs(y)


@pytest.mark.parametrize("seed", [1, 7, 27])
def test_glue_closes_handle_with_stable_letter(seed):
    # B = S A^-1 S^-1 makes slots 0 and 1 of one pants a handle; with a
    # twist the letter t must still carry P = A to B^-1
    space = HermitianSpace(3, "quaternion")
    rng = np.random.default_rng(seed)
    A = random_loxodromic(space, rng)
    B = conjugate_by(space.random_isometry(rng), A.inverse())
    g = PantsGroup(space, A, B)
    kap = _twisted(identity_params(g.frames[0]))
    P = g.peripherals()[0]
    t = _stable_letter(space, P, g.peripherals()[1], kap, g.frames[0])
    Binv = B.inverse()
    assert (conjugate_by(t, P) - Binv).max_abs() <= 1e-9 * Binv.max_abs()


def test_parameter_count_values():
    q = HermitianSpace(3, "quaternion")
    c = HermitianSpace(3, "complex")
    assert parameter_count(q, 2) == 72
    assert parameter_count(c, 2) == 30
    assert parameter_count(q, 5) == 288
    assert parameter_count(c, 5) == 120


def _two_pants_graph(space, g1):
    g2 = PantsGroup(space, g1.B.inverse(), g1.A.inverse())
    edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
    return [g1, g2], edges


def test_assemble_identity_twists(qpants):
    space = qpants.space
    pants, edges = _two_pants_graph(space, qpants)
    kappas = [identity_params(pants[e[0]].frames[e[1]]) for e in edges]
    rep = assemble_surface_representation(space, pants, edges, kappas)
    assert rep.genus == 2
    assert rep.parameter_count == 72
    assert sorted(rep.generators) == ["a1", "a2", "b1", "b2"]
    assert rep.relation_residual < 1e-6


def test_assemble_twisted(qpants):
    space = qpants.space
    pants, edges = _two_pants_graph(space, qpants)
    kappas = []
    for i, e in enumerate(edges):
        k0 = identity_params(pants[e[0]].frames[e[1]])
        kappas.append(_twisted(k0, t=1.0 + 0.1 * i, psi=0.2 * i,
                               xi1=0.1, xi2=-0.2))
    rep = assemble_surface_representation(space, pants, edges, kappas)
    assert rep.genus == 2
    assert rep.relation_residual < 1e-6
    for g in rep.generators.values():
        assert space.is_isometry(g, tol=1e-6)


def test_assemble_rejects_bad_graph(qpants):
    space = qpants.space
    pants, edges = _two_pants_graph(space, qpants)
    kappas = [identity_params(pants[e[0]].frames[e[1]]) for e in edges]
    with pytest.raises(GraphInvalid):
        assemble_surface_representation(space, pants, edges[:2], kappas[:2])
    bad_edges = [(0, 0, 1, 1), (0, 0, 1, 0), (0, 2, 1, 2)]
    with pytest.raises(GraphInvalid):
        assemble_surface_representation(space, pants, bad_edges, kappas)


@pytest.mark.parametrize("frame_fails, class_fails",
                         [(0, 1), (1, 0), (None, 1), (2, None), (1, 2),
                          (2, 1), (None, None)])
def test_pants_errors_keep_the_serial_order(monkeypatch, frame_fails,
                                            class_fails):
    # the serial order of the gates: classify P_0, P_1, P_2, then frame
    # them as one stack, so a classification failure comes first, and a
    # frame failure is the error of the first failing peripheral alone
    import loxpairs.twistbend as tb
    from loxpairs.errors import DegenerateSpectrum, NotLoxodromic
    from loxpairs.spectral import ElementClass
    space = HermitianSpace(3, "quaternion")
    A, B = generate_pair(space, seed=7, mode="strong")
    Ps = [A, B, (A @ B).inverse()]
    frame = tb.eigen_frame

    def index(P):
        return next(i for i, Q in enumerate(Ps)
                    if np.array_equal(P.a, Q.a) and np.array_equal(P.b, Q.b))

    def classify(space, P):
        return ElementClass(index(P) != class_fails, None, np.zeros(4))

    def framed(space, P):
        for i in range(P.shape[0]) if P.ndim == 3 else [None]:
            if index(P if i is None else P.pick(i)) == frame_fails:
                raise DegenerateSpectrum(f"frame of P{frame_fails}")
        return frame(space, P)

    def outcome(build):
        try:
            build()
        except Exception as exc:
            return type(exc), str(exc)

    def gates():
        for P in Ps:
            if not classify(space, P).is_loxodromic:
                raise NotLoxodromic("peripheral element is not loxodromic")
        for P in Ps:
            framed(space, P)

    monkeypatch.setattr(tb, "classify_element", classify)
    monkeypatch.setattr(tb, "eigen_frame", framed)
    expect = outcome(gates)
    assert (expect is None) == (frame_fails is None and class_fails is None)
    assert expect is None or expect[0] is (
        NotLoxodromic if class_fails is not None else DegenerateSpectrum)
    assert outcome(lambda: PantsGroup(space, A, B)) == expect
