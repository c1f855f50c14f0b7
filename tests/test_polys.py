import warnings

import numpy as np
import pytest

from loxpairs.errors import NoConvergence
from loxpairs.polys import (aberth_roots, cluster_roots, discriminant,
                            faddeev_leverrier, polyval_with_derivatives,
                            resultant)


def test_faddeev_leverrier_matches_numpy(rng):
    for _ in range(20):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = faddeev_leverrier(M)
        expect = np.poly(M)
        assert np.allclose(got, expect, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_faddeev_leverrier_stack_matches_each_matrix(rng, m):
    # a stack is the same recursion on every matrix, bit for bit
    M = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
    M[2] *= 1e3
    got = faddeev_leverrier(M)
    assert got.shape == (5, m + 1)
    for row, Mi in zip(got, M):
        assert np.array_equal(row, faddeev_leverrier(Mi.copy()))


def test_polyval_with_derivatives(rng):
    coeffs = rng.standard_normal(7)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p, dp, ddp = polyval_with_derivatives(coeffs, x)
    assert np.allclose(p, np.polyval(coeffs, x))
    assert np.allclose(dp, np.polyval(np.polyder(coeffs), x))
    assert np.allclose(ddp, np.polyval(np.polyder(coeffs, 2), x))


def test_aberth_recovers_prescribed_roots(rng):
    roots = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    coeffs = np.poly(roots)
    got = np.sort_complex(aberth_roots(coeffs[None])[0])
    assert np.allclose(got, np.sort_complex(roots), atol=1e-9)


def test_aberth_wide_modulus_range():
    # moduli spanning four orders: the residual criterion is relative
    roots = np.array([1e-2, 1e2, 1 + 1j, 1 - 1j, -3.0, 0.5j])
    coeffs = np.poly(roots)
    got = np.sort_complex(aberth_roots(coeffs[None])[0])
    assert np.allclose(got, np.sort_complex(roots), rtol=1e-8, atol=1e-10)


def _equal_to_np_roots(C, Z):
    # np.roots is handed the complex row: for a real row it runs the real
    # eigensolver, whose roots come in another order
    for c, z in zip(C, Z):
        r = np.roots(c.astype(complex))
        assert np.all(np.abs(z - r) <= 1e-12 * np.abs(r))


@pytest.mark.parametrize("d", range(2, 13))
def test_roots_are_the_companion_roots(rng, d):
    # the contract: a stack of random monic polynomials gives, row by
    # row, what np.roots gives for each
    C = np.ones((6, d + 1), dtype=complex)
    C[:, 1:] = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    _equal_to_np_roots(C, aberth_roots(C))


def test_double_root_family_keeps_the_companion_roots(rng):
    # np.poly([2, 2] + 6 normals): the double root stays split as the
    # companion eigenvalues split it, with no polish on top
    C = np.array([np.poly([2.0, 2.0] + list(rng.standard_normal(6)))
                  for _ in range(40)])
    _equal_to_np_roots(C, aberth_roots(C))


def _moved_companion_roots(monkeypatch):
    # the first finite row's first root moves by 1e-3, far outside the
    # residual gate
    import loxpairs.polys as polys
    companion = polys._companion_roots

    def moved(c):
        z = companion(c)
        z[0, 0] += 1e-3
        return z
    monkeypatch.setattr(polys, "_companion_roots", moved)


def test_residual_gate_fails_a_moved_root(monkeypatch, rng):
    # the failed row comes back NaN; spectral._roots is the one place
    # that raises for it
    from loxpairs.spectral import _roots
    C = np.array([np.poly(rng.standard_normal(8) + 1j * rng.standard_normal(8))
                  for _ in range(3)])
    Z = aberth_roots(C)
    _moved_companion_roots(monkeypatch)
    moved = aberth_roots(C)
    assert np.all(np.isnan(moved[0]))
    assert np.array_equal(moved[1:], Z[1:])
    with pytest.raises(NoConvergence, match="fail the residual gate"):
        _roots(C[1:2])


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_eigen_frame_raises_on_a_moved_root(monkeypatch, field):
    from loxpairs.generate import random_loxodromic
    from loxpairs.hermitian import HermitianSpace
    from loxpairs.qmatrix import QArray
    from loxpairs.spectral import eigen_frame
    space = HermitianSpace(3, field)
    rng = np.random.default_rng(5)
    As = QArray.stack([random_loxodromic(space, rng)[0] for _ in range(2)])
    assert len(eigen_frame(space, As)) == 2
    _moved_companion_roots(monkeypatch)
    with pytest.raises(NoConvergence,
                       match="companion roots fail the residual gate"):
        eigen_frame(space, As)


def test_cluster_roots_flags_a_double_root():
    # one bool per row: the double root at 2 is split, the simple row
    # is not
    C = np.array([np.poly([2.0, 2.0, -1.0, 1j]), np.poly([2.0, 3.0, -1.0, 1j])])
    assert cluster_roots(C, aberth_roots(C)).tolist() == [True, False]


@pytest.mark.parametrize("r", [10.0, 130.0, 1000.0])
def test_palindromic_roots_stay_simple(r):
    # the spectrum of a loxodromic in H^3_H: at |z| = r the absolute
    # residual |p| is large even for a root correct to eps, so a cluster
    # radius read from |p| would merge simple classes
    th, p1, p2 = 0.7, 0.4, 2.1
    roots = np.array([r * np.exp(1j * th), np.exp(1j * th) / r,
                      np.exp(1j * p1), np.exp(1j * p2)])
    coeffs = np.real(np.poly(np.concatenate([roots, np.conj(roots)])))[None]
    assert not cluster_roots(coeffs, aberth_roots(coeffs))[0]


@pytest.mark.parametrize("coeffs", [[1.0, np.inf, 2.0], [1.0, np.nan, 2.0],
                                    [np.inf, 1.0, 1.0], [0.0, 1.0, 1.0]])
def test_aberth_rejects_nonfinite_coefficients(coeffs):
    # the row comes back NaN before np.roots can raise LinAlgError, it
    # is split from nothing, spectral._roots raises the typed error, and
    # no RuntimeWarning escapes
    from loxpairs.spectral import _roots
    C = np.array([coeffs], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = aberth_roots(C)
        assert np.all(np.isnan(Z)) and not cluster_roots(C, Z)[0]
        with pytest.raises(NoConvergence):
            _roots(C)


def _palindromic(r):
    th, p1, p2 = 0.7, 0.4, 2.1
    roots = np.array([r * np.exp(1j * th), np.exp(1j * th) / r,
                      np.exp(1j * p1), np.exp(1j * p2)])
    return np.real(np.poly(np.concatenate([roots, np.conj(roots)])))


@pytest.mark.parametrize("bad", [np.nan, "lead"])
@pytest.mark.parametrize("at", [0, 1, -1])
@pytest.mark.parametrize("source", ["random", "palindromic"])
def test_stacked_roots_and_clusters_equal_each_row(rng, source, bad, at):
    # a stack runs every row as a stack of one would: roots bit for
    # bit, the same split test; a row with a non-finite or a zero
    # leading coefficient comes back as NaN roots and not split.  The
    # last row has a double root; one random row has a double root at
    # zero, whose companion matrix is smaller.
    if source == "random":
        rows = [np.poly(rng.standard_normal(8) + 1j * rng.standard_normal(8))
                for _ in range(6)]
        rows.append(np.poly(np.r_[0.0, 0.0, rng.standard_normal(6)]))
    else:
        rows = [_palindromic(r) for r in (10.0, 130.0, 1000.0)]
    rows.append(np.poly([2.0, 2.0] + list(rng.standard_normal(6))))
    C = np.array(rows, dtype=complex)
    C[at] = np.nan if bad != "lead" else np.r_[0.0, C[at, 1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = aberth_roots(C)
        split = cluster_roots(C, Z)
    assert Z.shape == (len(C), 8) and split.shape == (len(C),)
    for i, c in enumerate(C[:, None]):
        z = aberth_roots(c)
        assert np.array_equal(Z[i], z[0], equal_nan=True)
        assert split[i] == cluster_roots(c, z)[0]
        if i == at % len(C):
            assert np.all(np.isnan(Z[i])) and not split[i]


def test_resultant_vanishes_on_shared_root():
    p = np.poly([1.0, 2.0])
    q = np.poly([2.0, 5.0])
    r = np.poly([3.0, 5.0])
    res = resultant(np.array([p, p]), np.array([q, r]))
    assert abs(res[0]) < 1e-10 and abs(res[1]) > 1e-6


def test_discriminant_sign():
    # distinct real roots vs a genuinely repeated root
    assert abs(discriminant(np.poly([1.0, 1.0])[None])[0]) < 1e-12
    disc = discriminant(np.array([np.poly([1.0, 2.0, 3.0]),
                                  np.poly([1.0, 1.0, 3.0])]))
    assert abs(disc[0]) > 1e-9 and abs(disc[1]) < 1e-12
