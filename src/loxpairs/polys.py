"""Polynomial utilities: characteristic coefficients, root finding,
root clustering, and resultants.

Roots start from the eigenvalues of the companion matrix, built as
np.roots builds it, which are backward stable.  A simultaneous
Aberth--Ehrlich iteration then polishes and checks them against a
relative residual, so close clusters can be merged with a multiplicity
estimate afterwards.

faddeev_leverrier, aberth_roots and cluster_roots take one polynomial
or a stack of them, one row each, and run a stack as one array pass: a
single polynomial is a stack of one on the same path.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

ABERTH_MAXITER = 400
ABERTH_TOL = 1e-13


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
    """All roots of the polynomial with the given monic coefficient list.

    A stack (k, d+1) of coefficient rows gives one row of d roots per
    polynomial, NaN where the coefficients are not finite or the
    iteration does not converge; a single polynomial, a stack of one on
    the same path, raises NoConvergence there instead.  Each row stops
    on its own residual test.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    c = np.atleast_2d(coeffs)
    with np.errstate(all="ignore"):
        c = c / c[:, :1]
    finite = np.all(np.isfinite(c), axis=-1)
    if coeffs.ndim == 1 and not finite[0]:
        raise NoConvergence("polynomial coefficients are not finite")
    z = np.full((c.shape[0], c.shape[1] - 1), np.nan, dtype=complex)
    z[finite] = _companion_roots(c[finite])
    # residuals are judged against sum_k |c_k| |z|^k, so large-modulus
    # roots are not held to the absolute scale of the small ones
    acoeffs = np.abs(c)
    live = np.flatnonzero(finite)
    for _ in range(ABERTH_MAXITER):
        zl = z[live]
        p, dp, _ = polyval_with_derivatives(c[live], zl)
        going = ~np.all(np.abs(p) <= ABERTH_TOL * _residual_bound(
            acoeffs[live], np.abs(zl)), axis=-1)
        live, zl, p, dp = live[going], zl[going], p[going], dp[going]
        if not live.size:
            break
        w = p / np.where(dp == 0, 1e-300, dp)
        diff = zl[:, :, None] - zl[:, None, :]
        # the starts of an exactly repeated root coincide; they exert no
        # pull on each other, as the diagonal exerts none
        diff[diff == 0] = np.inf
        s = np.sum(1.0 / diff, axis=-1)
        z[live] = zl - w / (1.0 - w * s)
    else:
        p, _, _ = polyval_with_derivatives(c[live], z[live])
        bad = np.any(np.abs(p) > 1e-9 * _residual_bound(
            acoeffs[live], np.abs(z[live])), axis=-1)
        z[live[bad]] = np.nan
    if coeffs.ndim == 2:
        return z
    if np.isnan(z).any():
        raise NoConvergence("root iteration did not converge")
    return z[0]


def cluster_roots(coeffs: np.ndarray, roots: np.ndarray):
    """Merge numerically split multiple roots.

    Returns (centers, multiplicities).  Each root gets a local
    multiplicity estimate k = Re(p'^2 / (p'^2 - p p'')) and a cluster
    radius k |p / p'|, the Newton distance to a k-fold root; roots whose
    radii overlap, directly or through a chain, form one cluster, which
    their mean represents.  The radius has the units of z, so it does not
    depend on how small |p| happens to be where the root iteration
    stopped.  Clusters come in the order of their first root by
    Re z + 1e-6 Im z.

    A stack (k, d+1) of coefficient rows with one row of roots each
    gives one row of centers and one of multiplicities per polynomial,
    in that order, with multiplicity 0 (and center NaN) at the roots
    that join an earlier cluster.  A NaN root fails every comparison, so
    it joins no cluster, not even its own.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.atleast_2d(roots)
    with np.errstate(invalid="ignore"):     # the NaN rows of a stack
        p, dp, ddp = polyval_with_derivatives(np.atleast_2d(coeffs), z)
        denom = dp * dp - p * ddp
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        mult_est = np.clip(np.real(dp * dp / denom), 1.0,
                           coeffs.shape[-1] - 1.0)
        dp = np.where(dp == 0, 1e-300, dp)
        radii = np.maximum(np.round(mult_est) * np.abs(p / dp), 1e-12)
    near = (np.abs(z[:, :, None] - z[:, None, :])
            <= 3.0 * (radii[:, :, None] + radii[:, None, :])) \
        | (np.eye(z.shape[-1], dtype=bool) & ~np.isnan(z)[:, :, None])
    # the closure of the overlap relation: chains of up to 2^k links
    for _ in range(z.shape[-1].bit_length()):
        near = near | (near @ near)
    order = np.argsort(z.real + 1e-6 * z.imag, axis=-1)
    rank = np.argsort(order, axis=-1)
    first = ~np.any(near & (rank[:, None, :] < rank[:, :, None]), axis=-1)
    mults = np.where(first, np.sum(near, axis=-1), 0)
    centers = np.where(mults > 0, np.sum(np.where(near, z[:, None, :], 0),
                                         axis=-1) / np.maximum(mults, 1),
                       np.nan)
    centers = np.take_along_axis(centers, order, -1)
    mults = np.take_along_axis(mults, order, -1)
    if np.ndim(roots) == 2:
        return centers, mults
    keep = mults[0] > 0
    return centers[0, keep], mults[0, keep]


def sylvester_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Sylvester matrix of p and q, or one per row of two stacks of
    coefficient rows; a single polynomial loses its leading zeros."""
    p, q = (np.asarray(x, dtype=float) for x in (p, q))
    if p.ndim == 1:
        p, q = np.trim_zeros(p, "f"), np.trim_zeros(q, "f")
    m, k = p.shape[-1] - 1, q.shape[-1] - 1
    S = np.zeros(p.shape[:-1] + (m + k, m + k))
    for i in range(k):
        S[..., i, i:i + m + 1] = p
    for i in range(m):
        S[..., k + i, i:i + k + 1] = q
    return S


def resultant(p: np.ndarray, q: np.ndarray):
    """res(p, q), or one per row of two stacks of coefficient rows."""
    r = np.linalg.det(sylvester_matrix(p, q))
    return float(r) if r.ndim == 0 else r


def discriminant(p: np.ndarray):
    """disc(p) = (-1)^{m(m-1)/2} res(p, p') / lc(p); or one per row of a
    stack of coefficient rows, whose leading coefficients are taken as
    they are."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = np.trim_zeros(p, "f")
    m = p.shape[-1] - 1
    if m < 2:
        return 1.0 if p.ndim == 1 else np.ones(p.shape[:-1])
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
