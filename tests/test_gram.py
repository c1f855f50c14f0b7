import dataclasses

import numpy as np
import pytest

from conftest import hconj, hmul, hunit
from loxpairs.errors import PatternViolation
from loxpairs.generate import generate_pair
from loxpairs.genericity import genericity_report
from loxpairs.gram import gram_matrix, normalize_lifts
from loxpairs.qmatrix import QArray
from loxpairs.quat import align_sp1
from loxpairs.spectral import eigen_frame
from test_acceptance import gram_offdiagonal_entries, rescaled_frame


def _tuple_for(space, seed, anchor="standard"):
    A, B = generate_pair(space, seed=seed, mode="strong")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    rep, = genericity_report(space, [fa], [fb])
    return fa, fb, rep, normalize_lifts(space, [rep], anchor=anchor)[0]


def test_normalization_constraints(space):
    _, _, _, t = _tuple_for(space, 3)
    p1 = t.P.column(0)
    for j in range(1, 4):
        assert (space.inner(p1, t.P.column(j)) - QArray(1.0)).moduli() <= 1e-9
    g23 = space.inner(t.P.column(2), t.P.column(1))
    assert np.isclose(g23.moduli(), 1.0, atol=1e-9)
    # the standard anchor: p1 is a positive multiple of the lift of a_A
    # with last coordinate 1, so its own last coordinate is real positive
    w, x, y, z = p1.pick(space.n).components()
    assert w > 0 and np.linalg.norm([x, y, z]) <= 1e-12 * w


def test_gram_matrix_pattern(space):
    _, _, _, t = _tuple_for(space, 5)
    G = gram_matrix([t]).pick(0)
    m = 2 * space.n
    assert G.shape == (m, m)
    for i in range(4):
        assert G.moduli()[i, i] < 1e-8
    entries = gram_offdiagonal_entries(G).components()
    # trailing entries are the positive-vector norms, all real positive
    for q in entries[-(m - 4):]:
        assert np.linalg.norm(q[1:]) < 1e-8
        assert q[0] > 0


def test_gram_hermitian(space):
    _, _, _, t = _tuple_for(space, 9)
    G = gram_matrix([t]).pick(0)
    m = 2 * space.n
    g = G.components()
    for i in range(m):
        for j in range(m):
            assert np.linalg.norm(g[i, j] - hconj(g[j, i])) <= 1e-10


def test_unit_rescaling_is_global_gauge(qspace, rng):
    """Per-lift unit rescalings of the frame reappear as one global
    unit factor on the normalized Gram matrix."""
    fa, fb, rep, t = _tuple_for(qspace, 13, anchor="none")

    def unit():
        return QArray.from_components(hunit(rng))

    fa2, fb2 = rescaled_frame(fa, unit), rescaled_frame(fb, unit)
    # the report of the rescaled frames: a unit rescaling moves no flag,
    # so the matching is the one of rep
    rep2, = genericity_report(qspace, [fa2], [fb2])
    assert (rep2.matching_A, rep2.matching_B) \
        == (rep.matching_A, rep.matching_B)
    t2, = normalize_lifts(qspace, [rep2], anchor="none")
    e1 = gram_offdiagonal_entries(gram_matrix([t]).pick(0))
    e2 = gram_offdiagonal_entries(gram_matrix([t2]).pick(0))
    mu = align_sp1(e1, e2, tol=1e-8)
    assert mu is not None
    mu = mu.components()
    for a, b in zip(e1.components(), e2.components()):
        assert np.linalg.norm(hmul(mu, a, hconj(mu)) - b) <= 1e-9


def test_standard_anchor_makes_gram_canonical(space):
    # with the standard-lift anchor there is no residual freedom at all
    _, _, _, t = _tuple_for(space, 17)
    _, _, _, t2 = _tuple_for(space, 17)
    for j in range(2 * space.n):
        assert (t.P.column(j) - t2.P.column(j)).max_abs() < 1e-12


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_normalize_quadruple_returns_gram_of_lifts(n, field):
    # the Gram product conj(s_i) K_ij s_j it returns is the one of its
    # lifts, with the pinned pairings <p1,p2> = <p1,p3> = <p1,p4> = 1
    from loxpairs.gram import _normalize_quadruple
    from loxpairs.hermitian import HermitianSpace
    space = HermitianSpace(n, field)
    fa, fb, _, _ = _tuple_for(space, n)
    zs = [fa.attracting, fa.repelling, fb.attracting, fb.repelling]
    ps, s, G = (x.pick(0) for x in _normalize_quadruple(
        space, QArray.stack([QArray.from_columns(zs)])))
    assert s.shape == (4,) and G.shape == (4, 4)
    ref = space.gram(ps)
    assert (G - ref).max_abs() <= 1e-13 * (1 + ref.max_abs())
    assert (G.pick(range(1, 4), 0) - QArray(np.ones(3))).max_abs() <= 1e-12


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_tuple_takes_the_quadruple_normalization_bit_for_bit(n, field):
    # normalize_lifts takes only the scalars, from the report's frame
    # product and norms; its first four lifts and their Gram block are
    # those of the full quadruple normalization, to the last bit.  The
    # lift matrix P ends with the frames' omitted positives, unscaled,
    # and its tuple Gram product is that of its first 2n columns
    from loxpairs.gram import _normalize_quadruple
    from loxpairs.hermitian import HermitianSpace
    space = HermitianSpace(n, field)
    fa, fb, rep, t = _tuple_for(space, n)
    assert t.P.shape == (n + 1, 2 * n + 2)
    ps, _, G = (x.pick(0) for x in _normalize_quadruple(space, QArray.stack(
        [QArray.from_columns([fa.attracting, fa.repelling, fb.attracting,
                              fb.repelling])])))
    assert np.array_equal(t.P.a[:, :4], ps.a)
    assert np.array_equal(t.P.b[:, :4], ps.b)
    block = t.gram.pick(slice(4), slice(4))
    assert np.array_equal(block.a, G.a) and np.array_equal(block.b, G.b)
    for j, (f, k) in enumerate(((fa, rep.omitted_A), (fb, rep.omitted_B))):
        p, x = t.P.column(2 * n + j), f.F.column(1 + k)
        assert np.array_equal(p.a, x.a) and np.array_equal(p.b, x.b)
    ref = space.gram(t.P.pick(slice(None), slice(2 * n)))
    assert (t.gram - ref).max_abs() <= 1e-12


def _perturbed(t, gate):
    """t with one Gram entry moved so that gram_matrix fails gate."""
    n, gram = t.space.n, t.gram.copy()
    if gate == "entry":             # <p1, p2> = 1 moves to 1.5
        gram.a[1, 0] += 0.5
    elif gate == "g23":             # |<p2, p3>| = 1 moves to 1.5
        gram.a[2, 1] *= 1.5
        gram.b[2, 1] *= 1.5
    elif gate == "p4":              # <p4, x_j> of the first A-positive
        gram.a[4, 3] = gram.b[4, 3] = 0.0
    else:                           # <p2, x_k> of the first B-positive
        gram.a[n + 2, 1] = gram.b[n + 2, 1] = 0.0
    return dataclasses.replace(t, gram=gram)


@pytest.mark.parametrize("gate", ["entry", "g23", "p4", "p2"])
def test_gram_matrix_raises_each_pattern_violation(space, gate):
    n = space.n
    _, _, _, t = _tuple_for(space, 5)
    gram_matrix([t])
    expect = {"entry": r"^entry g\[1,2\] = \[1\.(5|49+)\d*, \S+, \S+, \S+\], "
                       r"expected \[1\.0, 0\.0, 0\.0, 0\.0\]$",
              "g23": r"^\|g23\| = 1\.(5|49+)\d*, expected 1$",
              "p4": r"^g\[4,5\] vanishes$",
              "p2": rf"^g\[2,{n + 3}\] vanishes$"}[gate]
    with pytest.raises(PatternViolation, match=expect):
        gram_matrix([_perturbed(t, gate)])


def test_gram_matrix_of_a_stack_raises_at_its_earliest_failing_gate(space):
    # the first tuple fails the last gate and the second the first: the
    # stack raises at the earliest gate that a tuple fails, with the
    # error of the first tuple that fails it alone
    _, _, _, t = _tuple_for(space, 5)
    late, early = _perturbed(t, "p4"), _perturbed(t, "entry")
    G = gram_matrix([t, t])
    assert G.shape == (2, 2 * space.n, 2 * space.n)

    def outcome(ts):
        try:
            gram_matrix(ts)
        except PatternViolation as exc:
            return str(exc)

    gates = ("entry", "|g23|", "g[")                # in gram_matrix's order
    for ts in ([late, early], [early, late], [t, late]):
        alone = [m for m in (outcome([x]) for x in ts) if m is not None]
        expect = min(alone, key=lambda m: next(
            k for k, gate in enumerate(gates) if m.startswith(gate)))
        assert outcome(ts) == expect
    assert outcome([late, early]) == outcome([early])
    assert outcome([t, late]) == outcome([late])
