import dataclasses
import functools
import itertools
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import hconj, hinv, hmul
from loxpairs.generate import generate_pair, random_loxodromic
from loxpairs.genericity import (MEMBERSHIP_TOL, _flag_matching,
                                 _frame_gram, _misses_polars,
                                 genericity_report)
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, quaternionic_rank
from loxpairs.spectral import eigen_frame


def on_line_boundary(space, p, line, tol=MEMBERSHIP_TOL):
    """Per-pair reference: projective membership of a null point in the
    boundary circle of an F-line, a rank condition on the three lifts."""
    c1, c2 = line
    return quaternionic_rank(QArray.from_columns([p, c1, c2]), tol=tol) <= 2


def canonical_flags(frame):
    """Flags (a_A, L_A, W_j) of a frame, as (point, line, polar)."""
    a, r = frame.attracting, frame.repelling
    return [SimpleNamespace(point=a, line=(a, r), polar=frame.F.column(j))
            for j in range(1, frame.space.n)]


def _line_meets_polar_boundary(space, line, x, tol):
    """Per-pair reference: does the boundary circle of span(c1, c2) meet
    the boundary of the hyperplane polar to x?  Null vectors of the line
    are c1*alpha + c2*beta; with s = <c1, x>, u = <c2, x>, one lies in
    x-perp iff Re(conj(s) u) = 0 (or s, u degenerate)."""
    c1, c2 = line
    s = space.inner(c1, x).components()
    u = space.inner(c2, x).components()
    scale1 = c1.norm() * x.norm()
    scale2 = c2.norm() * x.norm()
    norm = np.linalg.norm
    if norm(s) <= tol * scale1 or norm(u) <= tol * scale2:
        return True
    return abs(hmul(hconj(s), u)[0]) <= tol * scale1 * scale2


def _brute_flag_pairs(space, fa, fb, tol=MEMBERSHIP_TOL):
    """The four generic-pair conditions evaluated on every flag pair."""
    fl_a, fl_b = canonical_flags(fa), canonical_flags(fb)
    M = np.zeros((len(fl_a), len(fl_b)), dtype=bool)
    for i, f in enumerate(fl_a):
        for j, g in enumerate(fl_b):
            M[i, j] = not (
                on_line_boundary(space, f.point, g.line, tol)
                or on_line_boundary(space, g.point, f.line, tol)
                or _line_meets_polar_boundary(space, f.line, g.polar, tol)
                or _line_meets_polar_boundary(space, g.line, f.polar, tol))
    return M


def _polar_off(space, frame, other, k, rng):
    """frame with positive k replaced by a vector H-orthogonal to
    other's attracting lift, so that other's line meets its polar's
    boundary."""
    a, r = other.attracting, other.repelling
    v = space._random_qarray(rng, space.dim)
    lam = hconj(hmul(space.inner(a, v).components(),
                     hinv(space.inner(a, r).components())))
    x = v - r * QArray.from_components(lam)
    x = x.scale(1.0 / x.norm())
    F = frame.F.copy()
    F.a[:, k + 1], F.b[:, k + 1] = x.a, x.b     # column 0 is attracting
    return dataclasses.replace(frame, F=F)


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_pair_matrix_matches_brute_force(n, field, rng):
    space = HermitianSpace(n, field)
    A, B = generate_pair(space, seed=n, mode="weak")
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    cases = [(fa, fb), (fa, eigen_frame(space, A @ A)),
             (fa, _polar_off(space, fb, fa, 0, rng)),
             (_polar_off(space, fa, fb, n - 2, rng), fb)]
    Ms = [genericity_report(space, [f], [g])[0].flag_pair_matrix
          for f, g in cases]
    for M, (f, g) in zip(Ms, cases):
        assert np.array_equal(M, _brute_flag_pairs(space, f, g))
    _, power, col_off, row_off = Ms
    assert not power.any()
    assert not col_off[:, 0].any() and col_off[:, 1:].any()
    assert not row_off[-1].any() and row_off[:-1].any()


def _misses_polars_three_margins(K, norms, line, xs):
    """Reference for _misses_polars: the polar test with the margins on
    |s| and |u| beside the margin on |Re(conj(s) u)|."""
    c1, c2 = line
    tol = MEMBERSHIP_TOL
    s, u = K.pick(Ellipsis, xs, c1), K.pick(Ellipsis, xs, c2)
    scale1 = norms[..., c1, None] * norms[..., xs]
    scale2 = norms[..., c2, None] * norms[..., xs]
    cross = (np.conj(s.a) * u.a + np.conj(s.b) * u.b).real
    return ~((s.moduli() <= tol * scale1) | (u.moduli() <= tol * scale2)
             | (np.abs(cross) <= tol * scale1 * scale2))


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_polar_margin_decides_as_three(n, field, rng):
    # |<c, x>| <= |c| |x|, so a small s or u puts Re(conj(s) u) within
    # the one margin left.  Pair e of the stack has <c, x> of its first
    # x set to sizes[e // 2] |c| |x|, c = c1 for even e and c2 for odd
    space = HermitianSpace(n, field)
    sizes = [0.0, 1e-13, MEMBERSHIP_TOL * (1 - 1e-13),
             MEMBERSHIP_TOL * (1 + 1e-13)]
    frames = [random_loxodromic(space, rng)[1]
              for _ in range(4 * len(sizes))]
    half = len(frames) // 2
    K, _, norms = _frame_gram(space, frames[:half], frames[half:])
    for line, xs in (((n + 1, n + 2), np.arange(2, n + 1)),
                     ((0, 1), np.arange(n + 3, 2 * n + 2))):
        Kc = QArray(K.a.copy(), K.b.copy())
        for e in range(2 * len(sizes)):
            c, x = line[e % 2], xs[0]
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            Kc.a[e, x, c] = sizes[e // 2] * norms[e, c] * norms[e, x] * phase
            Kc.b[e, x, c] = 0.0
        got = _misses_polars(Kc, norms, line, xs)
        ref = _misses_polars_three_margins(Kc, norms, line, xs)
        assert np.array_equal(got, ref)
        # every constructed entry, even the one just past the |s| or
        # |u| margin, puts the line in the polar; the others miss it
        assert not got[:, 0].any() and got[:, 1:].all()


def test_generated_weak_pair_report(space):
    A, B = generate_pair(space, seed=11, mode="weak")
    rep, = genericity_report(space, [eigen_frame(space, A)],
                             [eigen_frame(space, B)])
    assert rep.weakly_nonsingular
    assert len(rep.matching_A) == space.n - 2
    assert len(rep.matching_B) == space.n - 2
    assert rep.omitted_A is not None and rep.omitted_B is not None


def test_generated_strong_pair_report(space):
    A, B = generate_pair(space, seed=11, mode="strong")
    rep, = genericity_report(space, [eigen_frame(space, A)],
                             [eigen_frame(space, B)])
    assert rep.nonsingular
    assert not rep.failing_conditions


@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_report_at_n2(field):
    # one flag per frame: the only (n - 2)-matching is the empty one
    space = HermitianSpace(2, field)
    A, B = generate_pair(space, seed=1, mode="weak")
    rep, = genericity_report(space, [eigen_frame(space, A)],
                             [eigen_frame(space, B)])
    assert rep.flag_pair_matrix.tolist() == [[True]]
    assert rep.matching_A == rep.matching_B == []
    assert rep.omitted_A == rep.omitted_B == 0
    assert not rep.multiple_matchings


def test_power_pair_shares_fixed_points(qspace, rng):
    # (A, A^2) has common fixed points, hence fails genericity outright
    A = random_loxodromic(qspace, rng)[0]
    fa = eigen_frame(qspace, A)
    fb = eigen_frame(qspace, A @ A)
    rep, = genericity_report(qspace, [fa], [fb])
    assert not rep.weakly_nonsingular
    assert rep.failing_conditions


def test_canonical_flags(qframes):
    fa, _ = qframes
    flags = canonical_flags(fa)
    assert len(flags) == fa.F.shape[1] - 2
    for fl in flags:
        assert (fl.point - fa.attracting).max_abs() == 0
        assert on_line_boundary(fa.space, fa.repelling, fl.line)


def test_flag_pair_matrix_shape(qspace, qframes):
    fa, fb = qframes
    rep, = genericity_report(qspace, [fa], [fb])
    m = qspace.n - 1
    assert rep.flag_pair_matrix.shape == (m, m)


@functools.lru_cache(maxsize=None)
def _permutations(m):
    return np.array(list(itertools.permutations(range(m))))


def _multiple_by_enumeration(M):
    """Reference: count the matchings of size order - 1 over all
    permutations; m of them come from each permutation M holds entirely
    and one from each that misses exactly one pair."""
    m = M.shape[0]
    perms = _permutations(m)
    missing = np.count_nonzero(~M[np.arange(m), perms], axis=1)
    return m * np.count_nonzero(missing == 0) \
        + np.count_nonzero(missing == 1) > 1


def _mask_patterns(m):
    """Every flag-pair matrix points_ok & outer(rows, cols) of order m,
    one per row mask, column mask and points_ok."""
    for bits in itertools.product((False, True), repeat=2 * m + 1):
        yield bits[-1] & np.outer(bits[:m], bits[m:2 * m])


def _scipy_matching(M, k):
    """Reference matching of a general bipartite graph: scipy's maximum
    bipartite matching, its first k pairs, and whether it reaches k."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching
    if not M.any():
        return [], k == 0
    match = maximum_bipartite_matching(csr_matrix(M), perm_type="column")
    pairs = [(i, int(match[i])) for i in range(M.shape[0]) if match[i] >= 0]
    return pairs[:k], len(pairs) >= k


def test_flag_matching_pairs_match_scipy():
    for n in range(2, 8):
        for M in _mask_patterns(n - 1):
            pairs, found, _ = _flag_matching(M, n - 2)
            assert (pairs, found) == _scipy_matching(M, n - 2), M


def test_multiple_matchings_match_enumeration():
    for n in range(2, 8):
        for M in _mask_patterns(n - 1):
            assert _flag_matching(M, n - 2)[2] \
                == _multiple_by_enumeration(M), M


def test_multiple_matchings_at_large_order():
    # the closed form costs the same at any order; k = m - 1 = 39
    m = 40
    for bad_rows, bad_cols in itertools.product(range(3), repeat=2):
        rows, cols = np.arange(m) >= bad_rows, np.arange(m) >= bad_cols
        M = np.outer(rows, cols)
        pairs, found, multiple = _flag_matching(M, m - 1)
        assert (pairs, found) == _scipy_matching(M, m - 1)
        assert found == multiple == (max(bad_rows, bad_cols) <= 1)


_NO_SCIPY_PATHS = """
import importlib, os, pkgutil, sys, tempfile
sys.path.insert(0, %r)
import loxpairs
for m in pkgutil.iter_modules(loxpairs.__path__):
    importlib.import_module("loxpairs." + m.name)
import numpy as np
from loxpairs import cli
from loxpairs.classify import (boundary_quadruple_congruence, conjugacy_test,
                               invariant_map_rank)
from loxpairs.generate import generate_pair
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray, conjugate_by
from loxpairs.spectral import eigen_frame

space = HermitianSpace(3, "quaternion")
U = space.random_isometry(np.random.default_rng(0))
A, B = generate_pair(space, seed=1)
A2, B2 = generate_pair(space, seed=2)
zs = [f.F.column(i) for f in eigen_frame(space, QArray.stack([A, B]))
      for i in (0, space.dim - 1)]
assert boundary_quadruple_congruence(space, zs, [U @ z for z in zs]) \
    is not None
assert not conjugacy_test(space, A, B, A2, B2).conjugate
assert invariant_map_rank(space, A, B)[0] > 0
with tempfile.TemporaryDirectory() as tmp:
    pair = os.path.join(tmp, "pair.json")
    assert cli.main(["generate", "--seed", "1", "--out", pair]) == 0
    assert cli.main(["classify", "--in", pair,
                     "--out", os.path.join(tmp, "class.json")]) == 0
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
print(conjugacy_test(space, A, B, conjugate_by(U, A),
                     conjugate_by(U, B)).stage)
"""


def test_no_path_but_the_polish_loads_scipy():
    # importing every module, a quadruple congruence, a rejection, the
    # rank of the invariant map and the generate and classify commands
    # load no scipy, which costs about 0.26 s per process; only the
    # conjugator polish imports it.  Checked in a fresh interpreter
    import loxpairs
    root = str(pathlib.Path(loxpairs.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PATHS % root],
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out == ["[]", "verified"]
