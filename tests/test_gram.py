import numpy as np
import pytest

from loxpairs.generate import generate_pair
from loxpairs.genericity import genericity_report
from loxpairs.gram import (AssociatedTuple, gram_matrix,
                           gram_offdiagonal_entries, normalize_lifts)
from loxpairs.quat import Quaternion, align_sp1
from loxpairs.spectral import LoxodromicFrame, eigen_frame


def _tuple_for(space, seed, anchor="standard"):
    A, B = generate_pair(space, seed=seed, mode="strong")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    rep = genericity_report(space, fa, fb)
    return fa, fb, rep, normalize_lifts(space, fa, fb, rep, anchor=anchor)


def test_normalization_constraints(space):
    _, _, _, t = _tuple_for(space, 3)
    p1 = t.lifts[0]
    one = Quaternion(1, 0, 0, 0)
    for p in t.lifts[1:4]:
        assert space.inner(p1, p).isclose(one, tol=1e-9)
    g23 = space.inner(t.lifts[2], t.lifts[1])
    assert np.isclose(abs(g23), 1.0, atol=1e-9)


def test_gram_matrix_pattern(space):
    _, _, _, t = _tuple_for(space, 5)
    G = gram_matrix(t)
    m = 2 * space.n
    assert G.shape == (m, m)
    for i in range(4):
        assert G.moduli()[i, i] < 1e-8
    entries = gram_offdiagonal_entries(G).to_quaternions()
    # trailing entries are the positive-vector norms, all real positive
    for q in entries[-(m - 4):]:
        assert q.imag_norm() < 1e-8
        assert q.real > 0


def test_gram_hermitian(space):
    _, _, _, t = _tuple_for(space, 9)
    G = gram_matrix(t)
    m = 2 * space.n
    for i in range(m):
        for j in range(m):
            assert G.entry(i, j).isclose(G.entry(j, i).conjugate(),
                                         tol=1e-10)


def test_unit_rescaling_is_global_gauge(qspace, rng):
    """Per-lift unit rescalings of the frame reappear as one global
    unit factor on the normalized Gram matrix."""
    fa, fb, rep, t = _tuple_for(qspace, 13, anchor="none")

    def unit():
        return Quaternion.from_array(rng.standard_normal(4)).normalized()

    fa2 = LoxodromicFrame(fa.radius, fa.theta, fa.phis,
                          fa.attracting.rmul(unit()),
                          fa.repelling.rmul(unit()),
                          [x.rmul(unit()) for x in fa.positives], qspace)
    fb2 = LoxodromicFrame(fb.radius, fb.theta, fb.phis,
                          fb.attracting.rmul(unit()),
                          fb.repelling.rmul(unit()),
                          [x.rmul(unit()) for x in fb.positives], qspace)
    t2 = normalize_lifts(qspace, fa2, fb2, rep, anchor="none")
    e1 = gram_offdiagonal_entries(gram_matrix(t))
    e2 = gram_offdiagonal_entries(gram_matrix(t2))
    mu = align_sp1(e1, e2, tol=1e-8)
    assert mu is not None
    for a, b in zip(e1.to_quaternions(), e2.to_quaternions()):
        assert (mu * a * mu.conjugate()).isclose(b, tol=1e-9)


def test_standard_anchor_makes_gram_canonical(space):
    # with the standard-lift anchor there is no residual freedom at all
    _, _, _, t = _tuple_for(space, 17)
    _, _, _, t2 = _tuple_for(space, 17)
    for p, q in zip(t.lifts, t2.lifts):
        assert (p - q).max_abs() < 1e-12
