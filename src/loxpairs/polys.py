"""Polynomial utilities: characteristic coefficients, roots, a split
test for multiple roots, and discriminants.

Every function takes a stack of polynomials, one coefficient row each,
and runs it as one array pass; faddeev_leverrier gives one row per
matrix of a stack.  Roots are the eigenvalues of the companion matrix,
built as np.roots builds it, which are backward stable (Edelman and
Murakami, Math. Comp. 64, 1995); one relative residual gate checks
them.  A row that fails comes back NaN and nothing here raises for a
row: spectral._roots turns a bad row into NoConvergence.  Only a LAPACK
failure of the stacked companion eigvals raises here, since it names
no row.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

ROOT_RESIDUAL = 1e-9


def faddeev_leverrier(M: np.ndarray) -> np.ndarray:
    """Coefficients [1, c1, ..., cm] of det(xI - M) via trace recursion;
    for a stack of matrices, one row of coefficients per matrix."""
    m = M.shape[-1]
    coeffs = np.empty(M.shape[:-2] + (m + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    eye = np.eye(m, dtype=complex)
    N = eye
    for k in range(1, m + 1):
        N = M @ N
        c = -np.trace(N, axis1=-2, axis2=-1) / k
        coeffs[..., k] = c
        N = N + c[..., None, None] * eye
    return coeffs


def polyval_with_derivatives(coeffs: np.ndarray, x):
    """p(x), p'(x), p''(x) by Horner on the monic coefficient list; for
    a stack of coefficient rows, each row at its own row of x."""
    cols = np.moveaxis(np.asarray(coeffs), -1, 0)[..., None]
    p = cols[0] * np.ones_like(x)
    dp = np.zeros_like(x)
    ddp = np.zeros_like(x)
    for c in cols[1:]:
        ddp = ddp * x + 2.0 * dp
        dp = dp * x + p
        p = p * x + c
    return p, dp, ddp


def _residual_bound(acoeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_k |c_k| |z|^k for each row of coefficient moduli at its row
    of root moduli, in the order np.polyval evaluates it."""
    y = np.zeros_like(r)
    for a in np.moveaxis(acoeffs, -1, 0)[..., None]:
        y = y * r + a
    return y


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """np.roots of every monic row of c: one stacked eigvals of the
    companion matrices of each size, the zero roots of trailing zero
    coefficients appended."""
    k, m = c.shape[0], c.shape[1] - 1
    z = np.zeros((k, m), dtype=complex)
    zeros = np.argmax(c[:, ::-1] != 0, axis=-1)
    for t in np.unique(zeros[zeros < m]):
        rows, d = zeros == t, m - t
        A = np.zeros((np.count_nonzero(rows), d, d), dtype=complex)
        A[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        A[:, 0, :] = -c[rows, 1:d + 1] / c[rows, :1]
        try:
            z[rows, :d] = np.linalg.eigvals(A)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                "companion matrix eigenvalues did not converge") from exc
    return z


def aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """The roots of every row of a stack (k, d+1) of coefficient rows,
    one row of d roots each: the companion-matrix eigenvalues, as
    np.roots gives them, each held to |p(z)| <= ROOT_RESIDUAL sum_k |c_k|
    |z|^k on the monic row.

    A row whose coefficients are not finite, or one of whose roots fails
    the residual gate, comes back NaN; no row raises.  The roots are not
    polished: on every element the benchmark frames they already pass a
    1e-13 residual test.  The name, from the Aberth-Ehrlich polish this
    function once ran, stays because the benchmark's layer table times
    the function under it.
    """
    with np.errstate(all="ignore"):
        c = coeffs / coeffs[:, :1]
    finite = np.all(np.isfinite(c), axis=-1)
    z = np.full((c.shape[0], c.shape[1] - 1), np.nan, dtype=complex)
    cf = c[finite]
    zf = _companion_roots(cf)
    # residuals are judged against sum_k |c_k| |z|^k, so large-modulus
    # roots are not held to the absolute scale of the small ones
    p, _, _ = polyval_with_derivatives(cf, zf)
    ok = np.all(np.abs(p) <= ROOT_RESIDUAL * _residual_bound(
        np.abs(cf), np.abs(zf)), axis=-1)
    z[finite] = np.where(ok[:, None], zf, np.nan)
    return z


def cluster_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Whether each row of roots holds a numerically split multiple root
    of its row of coeffs, for stacks (k, d+1) and (k, d): one bool per
    row.

    Each root gets a local multiplicity estimate k = Re(p'^2 / (p'^2 -
    p p'')) and a radius r = k |p / p'|, the Newton distance to a k-fold
    root; a row is split when two of its roots lie within 3 (r_i + r_j)
    of each other.  The radius has the units of z, so it does not depend
    on how small |p| happens to be at the computed root.  A NaN root
    fails every comparison, so it is split from nothing.  The name stays
    because the benchmark's layer table times the function under it.
    """
    with np.errstate(invalid="ignore"):     # the NaN rows
        p, dp, ddp = polyval_with_derivatives(coeffs, roots)
        denom = dp * dp - p * ddp
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        mult_est = np.clip(np.real(dp * dp / denom), 1.0,
                           coeffs.shape[-1] - 1.0)
        dp = np.where(dp == 0, 1e-300, dp)
        radii = np.maximum(np.round(mult_est) * np.abs(p / dp), 1e-12)
    near = (np.abs(roots[:, :, None] - roots[:, None, :])
            <= 3.0 * (radii[:, :, None] + radii[:, None, :]))
    return np.any(near & ~np.eye(roots.shape[-1], dtype=bool), axis=(-2, -1))


def sylvester_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Sylvester matrix of p and q for each row of two stacks of
    coefficient rows."""
    m, k = p.shape[-1] - 1, q.shape[-1] - 1
    S = np.zeros(p.shape[:-1] + (m + k, m + k))
    for i in range(k):
        S[..., i, i:i + m + 1] = p
    for i in range(m):
        S[..., k + i, i:i + k + 1] = q
    return S


def resultant(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """res(p, q) for each row of two stacks of coefficient rows."""
    return np.linalg.det(sylvester_matrix(p, q))


def discriminant(p: np.ndarray) -> np.ndarray:
    """disc(p) = (-1)^{m(m-1)/2} res(p, p') / lc(p) for each row of a
    stack of real coefficient rows of degree m >= 2, whose leading
    coefficients are taken as they are."""
    m = p.shape[-1] - 1
    dp = p[..., :-1] * np.arange(m, 0, -1)
    sign = -1.0 if (m * (m - 1) // 2) % 2 else 1.0
    return sign * resultant(p, dp) / p[..., 0]


def dickson_reduction(coeffs: np.ndarray) -> np.ndarray:
    """Reduce a real palindromic chi(x) = x^{n+1} g(x + 1/x) to g, or
    each row of a stack of coefficient rows.

    coeffs = [1, a1, ..., a_{n+1}, ..., a1, 1] of degree 2n+2; returns
    the monic real coefficients of g (degree n+1 in t = x + 1/x), using
    the Chebyshev-like basis P_0 = 2, P_1 = t, P_{m+1} = t P_m - P_{m-1}
    with x^m + x^{-m} = P_m(t).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    deg = coeffs.shape[-1] - 1
    n = deg // 2 - 1
    # P_m(t) as monomial coefficient rows (degree m)
    P = [np.array([2.0]), np.array([1.0, 0.0])]
    for _ in range(2, n + 2):
        t_pm = np.append(P[-1], 0.0)
        pm1 = np.concatenate([np.zeros(t_pm.size - P[-2].size), P[-2]])
        P.append(t_pm - pm1)
    g = np.zeros(coeffs.shape[:-1] + (n + 2,))
    # chi / x^{n+1} = sum_{j=0}^{n} a_j (x^{n+1-j} + x^{-(n+1-j)}) + a_{n+1}
    for j in range(n + 1):
        pm = P[n + 1 - j]
        g[..., -pm.size:] += coeffs[..., j, None] * pm
    g[..., -1] += coeffs[..., n + 1]
    return g
