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
    got = np.sort_complex(aberth_roots(coeffs))
    assert np.allclose(got, np.sort_complex(roots), atol=1e-9)


def test_aberth_wide_modulus_range():
    # moduli spanning four orders: the residual criterion is relative
    roots = np.array([1e-2, 1e2, 1 + 1j, 1 - 1j, -3.0, 0.5j])
    coeffs = np.poly(roots)
    got = np.sort_complex(aberth_roots(coeffs))
    assert np.allclose(got, np.sort_complex(roots), rtol=1e-8, atol=1e-10)


def test_cluster_roots_merges_double_root():
    roots = np.array([2.0, 2.0, -1.0, 1j])
    coeffs = np.poly(roots)
    centers, mults = cluster_roots(coeffs, aberth_roots(coeffs))
    pairs = sorted(zip(mults, centers), key=lambda t: -t[0])
    assert pairs[0][0] == 2
    assert abs(pairs[0][1] - 2.0) < 1e-6
    assert sorted(mults) == [1, 1, 2]


@pytest.mark.parametrize("r", [10.0, 130.0, 1000.0])
def test_palindromic_roots_stay_simple(r):
    # the spectrum of a loxodromic in H^3_H: at |z| = r the absolute
    # residual |p| is large even for a root correct to eps, so a cluster
    # radius read from |p| would merge simple classes
    th, p1, p2 = 0.7, 0.4, 2.1
    roots = np.array([r * np.exp(1j * th), np.exp(1j * th) / r,
                      np.exp(1j * p1), np.exp(1j * p2)])
    coeffs = np.real(np.poly(np.concatenate([roots, np.conj(roots)])))
    _, mults = cluster_roots(coeffs, aberth_roots(coeffs))
    assert list(mults) == [1] * 8


@pytest.mark.parametrize("coeffs", [[1.0, np.inf, 2.0], [1.0, np.nan, 2.0],
                                    [np.inf, 1.0, 1.0], [0.0, 1.0, 1.0]])
def test_aberth_rejects_nonfinite_coefficients(coeffs):
    # the typed error comes before np.roots can raise LinAlgError, and no
    # RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            aberth_roots(np.array(coeffs))
        with pytest.raises(NoConvergence):
            cluster_roots(np.array(coeffs), aberth_roots(np.array(coeffs)))


def _palindromic(r):
    th, p1, p2 = 0.7, 0.4, 2.1
    roots = np.array([r * np.exp(1j * th), np.exp(1j * th) / r,
                      np.exp(1j * p1), np.exp(1j * p2)])
    return np.real(np.poly(np.concatenate([roots, np.conj(roots)])))


@pytest.mark.parametrize("bad", [np.nan, "lead"])
@pytest.mark.parametrize("at", [0, 1, -1])
@pytest.mark.parametrize("source", ["random", "palindromic"])
def test_stacked_roots_and_clusters_equal_each_row(rng, source, bad, at):
    # a stack runs every row on the path of a single polynomial: roots
    # bit for bit, the same clusters; a row with a non-finite or a zero
    # leading coefficient comes back as NaN roots and no cluster, where
    # a single call raises.  The last row has a double root; one random
    # row has a double root at zero, whose companion matrix is smaller.
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
        centers, mults = cluster_roots(C, Z)
    assert Z.shape == mults.shape == centers.shape == (len(C), 8)
    for i, c in enumerate(C):
        if i == at % len(C):
            with pytest.raises(NoConvergence):
                aberth_roots(c)
            assert np.all(np.isnan(Z[i])) and not np.any(mults[i])
            continue
        z = aberth_roots(c)
        assert np.array_equal(Z[i], z)
        cen, mu = cluster_roots(c, z)
        keep = mults[i] > 0
        assert np.array_equal(mults[i, keep], mu)
        assert np.array_equal(centers[i, keep], cen)
        assert np.all(np.isnan(centers[i, ~keep]))


def test_resultant_vanishes_on_shared_root():
    p = np.poly([1.0, 2.0])
    q = np.poly([2.0, 5.0])
    r = np.poly([3.0, 5.0])
    assert abs(resultant(p, q)) < 1e-10
    assert abs(resultant(p, r)) > 1e-6


def test_discriminant_sign():
    # distinct real roots vs a genuinely repeated root
    assert abs(discriminant(np.poly([1.0, 1.0]))) < 1e-12
    assert abs(discriminant(np.poly([1.0, 2.0, 3.0]))) > 1e-9
