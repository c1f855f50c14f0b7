"""The pair stage over a stack of pairs.

genericity_report, normalize_lifts, pair_invariants and gram_matrix take
one pair or a stack of pairs; conjugacy_test runs them once over its two
pairs.  A stack must return, bit for bit, what one call per pair
returns, and raise at the earliest gate that any of its pairs fails,
with the error of the first pair that fails it alone.
"""

import dataclasses

import numpy as np
import pytest

from loxpairs.classify import conjugacy_test
from loxpairs.errors import NormalizationImpossible, NotWeaklyNonsingular
from loxpairs.generate import generate_pair
from loxpairs.genericity import genericity_report
from loxpairs.gram import gram_matrix, normalize_lifts
from loxpairs.hermitian import HermitianSpace
from loxpairs.invariants import pair_invariants
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.spectral import eigen_frame


def _same(x, y) -> bool:
    if isinstance(x, QArray):
        return np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
    return np.array_equal(x, y)


def _pairs(space, seed, kind):
    """(A, B) and a second pair: its conjugate, or A conjugated and B
    moved by another isometry, which conjugacy_test rejects at tuple."""
    A, B = generate_pair(space, seed=seed)
    rng = np.random.default_rng(seed)
    C, Q = space.random_isometry(rng), space.random_isometry(rng)
    return A, B, conjugate_by(C, A), conjugate_by(C if kind == "conjugate"
                                                  else Q, B)


@pytest.mark.parametrize("kind", ["conjugate", "tuple"])
@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_pair_stack_equals_two_stacks_of_one(n, field, kind):
    space = HermitianSpace(n, field)
    mats = _pairs(space, n, kind)
    stage = conjugacy_test(space, *mats).stage
    assert stage == ("verified" if kind == "conjugate" else "tuple")
    fa, fb, fa2, fb2 = eigen_frame(space, QArray.stack(mats))
    fas, fbs = [fa, fa2], [fb, fb2]
    reps = genericity_report(space, fas, fbs)
    tuples = normalize_lifts(space, reps)
    invs = pair_invariants(space, fas, fbs, report=reps, tuple_=tuples)
    G = gram_matrix(tuples)
    assert G.shape == (2, 2 * n, 2 * n)
    for e, (f, g) in enumerate(zip(fas, fbs)):
        rep = genericity_report(space, f, g)
        t = normalize_lifts(space, rep)
        inv = pair_invariants(space, f, g, report=rep, tuple_=t)
        for name in ("weakly_nonsingular", "nonsingular", "matching_A",
                     "matching_B", "omitted_A", "omitted_B",
                     "multiple_matchings", "failing_conditions"):
            assert getattr(reps[e], name) == getattr(rep, name), name
        assert _same(reps[e].flag_pair_matrix, rep.flag_pair_matrix)
        assert all(_same(x, y) for x, y in zip(reps[e].frame_gram,
                                               rep.frame_gram))
        assert _same(tuples[e].P, t.P) and _same(tuples[e].gram, t.gram)
        assert _same(G.pick(e), gram_matrix(t))
        assert _same(invs[e].entries, inv.entries)
        assert _same(invs[e].angular, inv.angular)
        assert _same(invs[e].projective_A, inv.projective_A)
        assert _same(invs[e].projective_B, inv.projective_B)
        # and the points are those of each frame on its own
        assert _same(inv.projective_A, f.points)
        assert _same(inv.projective_B, g.points)
        if field == "complex":
            # every complex eigenvector has b = 0, so every point is (1, 0)
            for pts in (inv.projective_A, inv.projective_B):
                assert np.all(pts[:, 1] == 0)
                assert np.allclose(pts[:, 0], 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_stack_raises_at_the_earliest_gate_a_pair_fails(field):
    # "late" fails a later gate of the lift normalization (a vanishing
    # <r_A, a_B>), "early" an earlier one (it is not weakly
    # non-singular): a stack raises early's error wherever early stands
    space = HermitianSpace(3, field)
    n = space.n
    A, B = generate_pair(space, seed=3)
    fa, fb, faa = eigen_frame(space, QArray.stack([A, B, A @ A]))
    good = genericity_report(space, fa, fb)
    K, V, norms = good.frame_gram
    K = K.copy()
    K.a[1, n + 1] = K.b[1, n + 1] = 0.0
    late = dataclasses.replace(good, frame_gram=(K, V, norms))
    early = genericity_report(space, fa, faa)

    def outcome(*reports):
        try:
            normalize_lifts(space, list(reports))
        except Exception as exc:
            return type(exc), str(exc)

    gates = (NotWeaklyNonsingular, NormalizationImpossible)
    assert outcome(good) is None
    assert outcome(late)[0] is NormalizationImpossible
    assert outcome(early)[0] is NotWeaklyNonsingular
    for reports in ([late, early], [early, late], [good, late]):
        expect = min(filter(None, map(outcome, reports)),
                     key=lambda r: gates.index(r[0]))
        assert outcome(*reports) == expect
    assert outcome(late, early) == outcome(early)
    # a failing second pair still raises when the first passes
    assert outcome(good, late) == outcome(late)
