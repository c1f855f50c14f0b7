import numpy as np
import pytest

from loxpairs.errors import (DegenerateConfiguration, DegenerateInputError,
                             GraphInvalid, InconsistentProjectivePoints,
                             NotIsometry, NotLoxodromic, PalindromeViolation,
                             VerificationFailed, WrongDimension)
from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.spectral import eigen_frame
from loxpairs.twistbend import (SurfaceRepresentation, TwistBendParams,
                                _peripheral_stack, _stable_letters,
                                assemble_surface_representation,
                                identity_params, pants_groups,
                                parameter_count, tilde_invariants,
                                twist_bend_element)


def _pants(space, seed):
    for s in range(seed, seed + 50):
        A, B = generate_pair(space, seed=s, mode="strong")
        try:
            return pants_groups(space, [(A, B)])[0]
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


@pytest.mark.parametrize("k1", [np.array([1.0]), np.array([1.0, 0.0, 0.0]),
                                np.array([[1.0, 0.0]])])
def test_points_of_another_shape_rejected(qframes, k1):
    fa, _ = qframes
    kap = identity_params(fa)
    bad = TwistBendParams(kap.t, kap.psi, kap.xi1, kap.xi2, k1, kap.k2,
                          kap.k3)
    with pytest.raises(InconsistentProjectivePoints,
                       match="three points of two coordinates"):
        twist_bend_element(bad, fa)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_nonpositive_t_rejected(qframes, t):
    fa, _ = qframes
    with pytest.raises(DegenerateConfiguration, match="needs t > 0"):
        twist_bend_element(_twisted(identity_params(fa), t=t), fa)


def test_wrong_dimension_rejected(rng):
    space = HermitianSpace(2, "quaternion")
    from loxpairs.generate import random_loxodromic
    f = eigen_frame(space, random_loxodromic(space, rng)[0])
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
    A = random_loxodromic(space, rng)[0]
    B = conjugate_by(space.random_isometry(rng), A.inverse())
    g, = pants_groups(space, [(A, B)])
    kap = _twisted(identity_params(g.frames[0]))
    P = g.P.pick(0)
    t, = _stable_letters(space, g.P.pick(slice(0, 1)),
                         g.P.pick(slice(1, 2)), [kap], [g.frames[0]])
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
    g2, = pants_groups(space, [(g1.B.inverse(), g1.A.inverse())])
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


def test_assemble_gates_the_relation_residual():
    # edges written from pants 1 close the handles against the other
    # orientation of the commutator word: the relation misses by about 1
    # or more, far above RELATION_TOL, and VerificationFailed says so
    space = HermitianSpace(3, "complex")
    pants, _ = _two_pants_graph(space, _pants(space, 0))
    edges = [(1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 0, 2)]
    kappas = [_twisted(identity_params(pants[i].frames[si]), t=1.2,
                       psi=0.3, xi1=0.1, xi2=-0.2) for i, si, _, _ in edges]
    with pytest.raises(VerificationFailed,
                       match="surface relation residual .* exceeds 1e-04"):
        assemble_surface_representation(space, pants, edges, kappas)


def test_assemble_rejects_a_disconnected_graph(qpants):
    # two genus-2 graphs side by side: every slot glued once, 4 pants
    # and 6 edges, but no edge joins the two halves
    space = qpants.space
    pants, edges = _two_pants_graph(space, qpants)
    pants = pants + pants
    edges = edges + [(a + 2, sa, b + 2, sb) for a, sa, b, sb in edges]
    kappas = [identity_params(pants[e[0]].frames[e[1]]) for e in edges]
    with pytest.raises(GraphInvalid, match="gluing graph is not connected"):
        assemble_surface_representation(space, pants, edges, kappas)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("edge", [(-1, 0, 1, 1), (0, 0, -2, 1),
                                  (2, 0, 1, 1), (0, 0, 1, -1)])
def test_assemble_rejects_a_pants_index_or_slot_out_of_range(field, edge):
    space = HermitianSpace(3, field)
    pants, edges = _two_pants_graph(space, _pants(space, 0))
    kappas = [identity_params(pants[e[0]].frames[e[1]]) for e in edges]
    with pytest.raises(GraphInvalid, match="bad or reused slot"):
        assemble_surface_representation(space, pants, [edge] + edges[1:],
                                        kappas)


@pytest.mark.parametrize("frame_fails, class_fails",
                         [(0, 1), (1, 0), (None, 1), (2, None), (1, 2),
                          (2, 1), (None, None)])
def test_pants_errors_keep_the_serial_order(monkeypatch, frame_fails,
                                            class_fails):
    # the order of the gates: classify P_0, P_1, P_2 as one stack, then
    # frame them as one stack, so a classification failure comes first,
    # and a frame failure is the error of the first failing peripheral
    # alone
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
        return [ElementClass(index(P.pick(i)) != class_fails, None,
                             np.zeros(4)) for i in range(P.shape[0])]

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
        if not all(c.is_loxodromic for c in classify(space,
                                                     QArray.stack(Ps))):
            raise NotLoxodromic("peripheral element is not loxodromic")
        for P in Ps:
            framed(space, P)

    monkeypatch.setattr(tb, "classify_element", classify)
    monkeypatch.setattr(tb, "eigen_frame", framed)
    expect = outcome(gates)
    assert (expect is None) == (frame_fails is None and class_fails is None)
    assert expect is None or expect[0] is (
        NotLoxodromic if class_fails is not None else DegenerateSpectrum)
    assert outcome(lambda: pants_groups(space, [(A, B)])) == expect


# -- stacks: every pants and every handle framed in one call --------------

def _same(X, Y):
    return np.array_equal(X.a, Y.a) and np.array_equal(X.b, Y.b)


def _same_frames(fs, gs):
    return len(fs) == len(gs) and all(
        f.radius == g.radius and f.theta == g.theta
        and np.array_equal(f.phis, g.phis) and np.array_equal(f.F.a, g.F.a)
        and np.array_equal(f.F.b, g.F.b) for f, g in zip(fs, gs))


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_pants_groups_equal_single_pants(field):
    space = HermitianSpace(3, field)
    singles = [_pants(space, seed) for seed in (0, 10, 20)]
    stacked = pants_groups(space, [(g.A, g.B) for g in singles])
    assert pants_groups(space, []) == []
    for g, h in zip(stacked, singles):
        assert _same(g.P, h.P)
        assert _same_frames(g.frames, h.frames)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_pants_group_is_its_peripheral_stack(field, rng):
    # P is [A, B, (AB)^-1] bit for bit, and a conjugated pants forms its
    # third peripheral from S A S^-1 and S B S^-1
    space = HermitianSpace(3, field)
    pairs = [(g.A, g.B) for g in (_pants(space, seed) for seed in (0, 10))]
    for g, (A, B) in zip(pants_groups(space, pairs), pairs):
        assert g.P.shape == (3, 4, 4)
        assert _same(g.P, QArray.stack([A, B, (A @ B).inverse()]))
        assert _same(g.A, A) and _same(g.B, B)
        S = space.random_isometry(rng)
        h = g.conjugated(S)
        assert _same(h.P, _peripheral_stack(conjugate_by(S, A),
                                            conjugate_by(S, B)))
        assert all(_same(f.F, S @ e.F) for f, e in zip(h.frames, g.frames))


def _pants_outcome(build):
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("bad", [{1: "elliptic"}, {0: "elliptic", 2: "size"},
                                 {1: "not-isometry", 2: "elliptic"},
                                 {0: "elliptic", 1: "not-isometry"},
                                 {0: "small", 2: "size"}])
def test_stacked_pants_raise_what_the_pants_raises(field, bad):
    # every matrix is checked, then all peripherals are classified, then
    # framed: the stack raises at the earliest gate that any pants
    # fails, with the error of the first pants that fails it alone
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(3)
    pairs = [(g.A, g.B) for g in (_pants(space, seed) for seed in
                                  (0, 10, 20))]
    angles = np.r_[0.3, 0.9, 2.5, 0.3]
    bad_A = {"elliptic": conjugate_by(space.random_isometry(rng),
                                      QArray.diag(np.exp(1j * angles))),
             "not-isometry": space._random_qarray(rng, (4, 4)),
             "size": generate_pair(HermitianSpace(4, field), seed=1)[0],
             "small": generate_pair(HermitianSpace(2, field), seed=1)[0]}
    for i, name in bad.items():
        pairs[i] = (bad_A[name], pairs[i][1])
    gates = (WrongDimension, NotIsometry, PalindromeViolation,
             NotLoxodromic)
    alone = [_pants_outcome(lambda: pants_groups(space, [(A, B)]))
             for A, B in pairs]
    expect = min((r for r in alone if r is not None),
                 key=lambda r: gates.index(r[0]))
    assert _pants_outcome(lambda: pants_groups(space, pairs)) == expect


def test_assemble_frames_each_element_once(monkeypatch):
    # one classification and one framing of all six peripherals, one
    # conjugator for the tree edge and one stack for both handles, in
    # both fields; no peripheral is formed twice and each twist-bend
    # frame is inverted once, 19 inverses in all
    import loxpairs.twistbend as tb
    cases = []
    for field in ("complex", "quaternion"):
        space = HermitianSpace(3, field)
        single, edges = _two_pants_graph(space, _pants(space, 0))
        kappas = [_twisted(identity_params(single[e[0]].frames[e[1]]))
                  for e in edges]
        cases.append((space, single, edges, kappas,
                      assemble_surface_representation(space, single, edges,
                                                      kappas)))
    calls = []
    for name in ("classify_element", "eigen_frame", "element_conjugator"):
        def counting(*args, _f=getattr(tb, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(tb, name, counting)
    inverse = QArray.inverse

    def counting_inverse(self):
        calls.append("inverse")
        return inverse(self)
    monkeypatch.setattr(QArray, "inverse", counting_inverse)
    for space, single, edges, kappas, expect in cases:
        calls.clear()
        pants = pants_groups(space, [(g.A, g.B) for g in single])
        assert [c for c in calls if c != "inverse"] == [
            "classify_element", "eigen_frame"]
        calls.clear()
        rep = assemble_surface_representation(space, pants, edges, kappas)
        assert calls.count("inverse") <= 19
        assert [c for c in calls if c != "inverse"] == [
            "element_conjugator", "element_conjugator"]
        assert rep.generators.keys() == expect.generators.keys()
        for name, g in rep.generators.items():
            assert _same(g, expect.generators[name])


def test_stacked_letters_equal_single_letters(qpants):
    space = qpants.space
    pants, edges = _two_pants_graph(space, qpants)
    handles = [(pants[i].P.pick(si), pants[j].P.pick(sj),
                _twisted(identity_params(pants[i].frames[si])),
                pants[i].frames[si]) for i, si, j, sj in edges[1:]]
    Xs, Ys, ks, fs = zip(*handles)
    letters = _stable_letters(space, QArray.stack(Xs), QArray.stack(Ys),
                              ks, fs)
    for t, (X, Y, k, f) in zip(letters, handles):
        alone, = _stable_letters(space, QArray.stack([X]),
                                 QArray.stack([Y]), [k], [f])
        assert np.array_equal(t.a, alone.a) and np.array_equal(t.b, alone.b)


_WORDS = {"a1a2": "a1 a2", "b1b2": "b1 b2", "a1b2": "a1 b2",
          "a2b1": "a2 b1", "a1b1a2": "a1 b1 a2", "b1a2b2": "b1 a2 b2"}


def _word_traces(space, pants, edges):
    """Traces of the complex embedding of the _WORDS of the genus-2
    assembly of pants, twisted by (1.2, 0.3, 0.1, -0.2) on every edge
    with the kappa points pinned to the frames of the first-named
    pants."""
    kappas = [TwistBendParams(1.2, 0.3, 0.1, -0.2,
                              *pants[i].frames[si].points)
              for i, si, _, _ in edges]
    gens = assemble_surface_representation(space, pants, edges,
                                           kappas).generators
    traces = []
    for word in _WORDS.values():
        W = QArray.eye(space.dim)
        for letter in word.split():
            W = W @ gens[letter]
        traces.append(np.trace(space.as_complex(W)))
    return np.array(traces)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the assembly depends on each pants' torus gauge "
                          "(LAPACK's eigenvector phases): conjugating both "
                          "pants by one isometry moves the word traces by "
                          "up to 1.9 (complex)")
def test_assembly_is_invariant_under_a_global_conjugation():
    # both pants conjugated by one isometry G, kappa points pinned to the
    # new frames, is the same pants datum, so the surface group is G
    # times the old one and its word traces stay put.  A case whose pants
    # or assembly raise a typed error is counted, not compared.  One
    # aggregate assertion keeps the failure deterministic.
    worst, compared, raised = 0.0, 0, 0
    for field in ("complex", "quaternion"):
        space = HermitianSpace(3, field)
        for seed in range(0, 80, 10):
            A, B = generate_pair(space, seed=seed)
            G = space.random_isometry(np.random.default_rng(seed + 1))
            Gi = G.inverse()
            pairs = [(A, B), (B.inverse(), A.inverse())]
            moved = [(G @ X @ Gi, G @ Y @ Gi) for X, Y in pairs]
            edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
            try:
                t0, t1 = (_word_traces(space, pants_groups(space, p), edges)
                          for p in (pairs, moved))
            except (DegenerateInputError, VerificationFailed):
                raised += 1
                continue
            compared += 1
            dev = np.abs(t1 - t0) / (1.0 + np.maximum(abs(t0), abs(t1)))
            worst = max(worst, float(dev.max()))
    assert worst <= 1e-8, (f"word traces move by {worst:.3e} over "
                           f"{compared} cases ({raised} raised)")
