"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line; criterion 9 (the dimension probe) downgrades failure to a warning.
"""

import warnings

import numpy as np
import pytest

from conftest import hconj, hinv, hmul, hunit, pair_stage
from loxpairs.classify import (boundary_quadruple_congruence, conjugacy_test,
                               invariant_map_rank)
from loxpairs.generate import generate_pair
from loxpairs.genericity import genericity_report
from loxpairs.gram import gram_matrix, normalize_lifts
from loxpairs.hermitian import HermitianSpace
from loxpairs.invariants import sp1_orbit_equal
from loxpairs.qmatrix import QArray, conjugate_by, quaternionic_rank
from loxpairs.quat import align_sp1
from loxpairs.spectral import (LoxodromicFrame, _class_values,
                               classify_element, eigen_frame, real_char_poly)
from loxpairs.twistbend import (TwistBendParams, identity_params,
                                parameter_count, tilde_invariants,
                                twist_bend_element)

QSPACE = HermitianSpace(3, "quaternion")
CSPACE = HermitianSpace(3, "complex")


def gram_offdiagonal_entries(G: QArray) -> QArray:
    """The non-trivially-fixed entries, in a deterministic order, for
    Sp(1)-orbit comparison of two normalized Gram matrices."""
    m = G.shape[0]
    apos, bpos = range(4, m // 2 + 2), range(m // 2 + 2, m)
    ij = [(1, 2), (1, 3), (2, 3)] + [(3, j) for j in apos]
    ij += [(1, k) for k in bpos] + [(j, k) for j in apos for k in bpos]
    ij += [(j, j) for j in range(4, m)]
    return G.pick(*np.array(ij).T)


def _report(num: int, ok: bool, desc: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _invariants(space, A, B):
    fa, fb = eigen_frame(space, A), eigen_frame(space, B)
    return pair_stage(space, fa, fb)[2]


def _conj_xp(Q: QArray, X: QArray) -> QArray:
    """Q X Q^-1 rounded to double from extended precision, so invariant
    deviations measure the invariants rather than the product error."""
    Qe = Q.embed().astype(np.clongdouble)
    M = Qe @ X.embed().astype(np.clongdouble)
    A_, B_ = Qe.T.copy(), M.T.copy()
    m = A_.shape[0]
    for c in range(m):
        p = c + int(np.argmax(np.abs(A_[c:, c])))
        if p != c:
            A_[[c, p]], B_[[c, p]] = A_[[p, c]].copy(), B_[[p, c]].copy()
        f = A_[c + 1:, c:c + 1] / A_[c, c]
        A_[c + 1:] -= f * A_[c:c + 1]
        B_[c + 1:] -= f * B_[c:c + 1]
    Y = np.zeros_like(B_)
    for c in range(m - 1, -1, -1):
        Y[c] = (B_[c] - A_[c, c + 1:] @ Y[c + 1:]) / A_[c, c]
    Ye = np.asarray(Y.T, dtype=complex)
    n = X.a.shape[0]
    return QArray(Ye[:n, :n], Ye[n:, :n])


def _null_lift(space, rng):
    z = space._random_qarray(rng, space.dim)
    z.a[-1], z.b[-1] = 1.0, 0.0
    mid = float(np.sum(np.abs(z.a[1:-1]) ** 2 + np.abs(z.b[1:-1]) ** 2))
    z.a[0] = -mid / 2.0 + 1j * z.a[0].imag
    if space.field == "complex":
        z.b[:] = 0.0
    return z


def test_criterion_1_conjugation_invariance():
    bad = 0
    for i in range(500):
        A, B = generate_pair(QSPACE, seed=i, mode="strong")
        rng = np.random.default_rng(10_000 + i)
        Q = QSPACE.random_isometry(rng)
        t1 = _invariants(QSPACE, A, B)
        t2 = _invariants(QSPACE, _conj_xp(Q, A), _conj_xp(Q, B))
        if sp1_orbit_equal(t1, t2, tol=1e-8) is None \
                or np.max(np.abs(t1.angular - t2.angular)) > 1e-8:
            bad += 1
    cbad = 0
    for i in range(500):
        A, B = generate_pair(CSPACE, seed=i, mode="strong")
        rng = np.random.default_rng(20_000 + i)
        Q = CSPACE.random_isometry(rng)
        t1 = _invariants(CSPACE, A, B)
        t2 = _invariants(CSPACE, _conj_xp(Q, A), _conj_xp(Q, B))
        if sp1_orbit_equal(t1, t2, tol=1e-9) is None \
                or np.max(np.abs(t1.angular - t2.angular)) > 1e-9:
            cbad += 1
    _report(1, bad == 0 and cbad == 0,
            f"invariant tuples match under conjugation "
            f"(quaternionic 500, {bad} failures at 1e-8; "
            f"complex 500, {cbad} failures at 1e-9)")


def test_criterion_2_classification_round_trip():
    bad_conj = 0
    worst = 0.0
    for i in range(500):
        A, B = generate_pair(QSPACE, seed=i, mode="strong")
        rng = np.random.default_rng(10_000 + i)
        Q = QSPACE.random_isometry(rng)
        A2, B2 = _conj_xp(Q, A), _conj_xp(Q, B)
        res = conjugacy_test(QSPACE, A, B, A2, B2)
        if not res.conjugate:
            bad_conj += 1
            continue
        C = res.conjugator
        resid = max((conjugate_by(C, A) - A2).max_abs(),
                    (conjugate_by(C, B) - B2).max_abs())
        worst = max(worst, resid)
        if resid > 1e-7:
            bad_conj += 1
    bad_rej = 0
    for i in range(500):
        A, B = generate_pair(QSPACE, seed=i, mode="strong")
        fa = eigen_frame(QSPACE, A)
        # spectral perturbation: nudge the radius, keep the frame
        E = _class_values(fa.radius * (1 + 1e-3), fa.theta, fa.phis)
        A2 = fa.F @ QArray.diag(E) @ fa.F.inverse()
        res = conjugacy_test(QSPACE, A, B, A2, B)
        if res.conjugate or res.stage not in ("real-trace", "tuple") \
                or res.conjugator is not None:
            bad_rej += 1
    _report(2, bad_conj == 0 and bad_rej == 0,
            f"500 conjugate pairs round-trip at 1e-7 ({bad_conj} failures, "
            f"worst residual {worst:.2e}); "
            f"500 perturbed pairs rejected at real-trace/tuple "
            f"({bad_rej} failures)")


def test_criterion_3_gram_dictionary():
    worst = 0.0
    for nn, count in ((3, 40), (4, 10)):
        space = HermitianSpace(nn, "quaternion")
        n = nn
        for i in range(count):
            A, B = generate_pair(space, seed=i, mode="strong")
            fa, fb = eigen_frame(space, A), eigen_frame(space, B)
            _, t, inv = pair_stage(space, fa, fb)
            G = gram_matrix([t]).pick(0)
            # the identities in the matrix model on real 4-vectors
            gc, x, layout = G.components(), inv.entries.components(), \
                inv.layout()

            def g(i, j):
                return gc[i, j]

            def dev(*word, entry):
                return float(np.linalg.norm(hmul(*word) - entry))

            devs = [abs(np.linalg.norm(g(1, 2)) - 1.0),
                    abs(-g(1, 2)[0] - np.cos(inv.angular[0])),
                    dev(hinv(hconj(g(1, 2))), hconj(g(1, 3)),
                        entry=x[layout["X1"]]),
                    dev(hinv(g(1, 2)), hconj(g(2, 3)),
                        entry=x[layout["X2"]])]
            for i, k in zip(layout["alpha"], range(n + 2, 2 * n)):
                devs.append(dev(hinv(hconj(g(1, 2))), hconj(g(1, k)),
                                entry=x[i]))
            for i, j in zip(layout["beta"], range(4, n + 2)):
                devs.append(float(np.linalg.norm(hconj(g(3, j)) - x[i])))
            for row, j in zip(layout["mixed"], range(4, n + 2)):
                for i, k in zip(row, range(n + 2, 2 * n)):
                    devs.append(dev(g(1, 2), hinv(g(1, k)), g(j, k),
                                    entry=x[i]))
            for i, j in zip(layout["eta_A"], range(4, n + 2)):
                devs.append(dev(hinv(g(2, 3)), hconj(g(3, j)),
                                hinv(g(j, j)), entry=x[i]))
            for i, k in zip(layout["eta_B"], range(n + 2, 2 * n)):
                devs.append(dev(hconj(g(1, k)), hinv(g(k, k)), entry=x[i]))
            worst = max(worst, max(devs))
    _report(3, worst <= 1e-9,
            f"all eight Gram-entry identities hold on normalized lifts "
            f"(worst deviation {worst:.2e} vs 1e-9)")


def rescaled_frame(f, unit):
    """The frame f with every lift right-multiplied by its own unit(),
    drawn in the order attracting, repelling, positives."""
    dim = f.space.dim
    units = QArray.stack([unit() for _ in range(dim)])
    # the columns of F are (attracting, positives..., repelling)
    return LoxodromicFrame(f.radius, f.theta, f.phis,
                           f.F * units.pick(np.r_[0, 2:dim, 1]), f.space,
                           f.real_trace)


def test_criterion_4_gauge_recovery():
    worst = 0.0
    ok = True
    for i in range(50):
        A, B = generate_pair(QSPACE, seed=100 + i, mode="strong")
        fa, fb = eigen_frame(QSPACE, A), eigen_frame(QSPACE, B)
        rep, t, _ = pair_stage(QSPACE, fa, fb, anchor="none")
        rng = np.random.default_rng(30_000 + i)

        def unit():
            return QArray.from_components(hunit(rng))

        fa2, fb2 = rescaled_frame(fa, unit), rescaled_frame(fb, unit)
        # the report of the rescaled frames, whose matching is rep's
        rep2, = genericity_report(QSPACE, [fa2], [fb2])
        if (rep2.matching_A, rep2.matching_B) \
                != (rep.matching_A, rep.matching_B):
            ok = False
            continue
        t2, = normalize_lifts(QSPACE, [rep2], anchor="none")
        e1 = gram_offdiagonal_entries(gram_matrix([t]).pick(0))
        e2 = gram_offdiagonal_entries(gram_matrix([t2]).pick(0))
        mu = align_sp1(e1, e2, tol=1e-8)
        if mu is None:
            ok = False
            continue
        mu = mu.components()
        worst = max(worst,
                    max(float(np.linalg.norm(hmul(mu, a, hconj(mu)) - b))
                        for a, b in zip(e1.components(),
                                        e2.components())))
    _report(4, ok and worst <= 1e-10,
            f"per-lift unit rescalings recovered as one global unit factor "
            f"(worst residual {worst:.2e} vs 1e-10)")


def test_criterion_5_real_trace_structure():
    rng = np.random.default_rng(40_000)
    bad_palin = bad_delta = bad_oracle = n_lox = 0
    for _ in range(1000):
        U = QSPACE.random_isometry(rng)
        chi = real_char_poly(QSPACE, U)
        if np.max(np.abs(chi - chi[::-1])) > 1e-8 * np.max(np.abs(chi)):
            bad_palin += 1
        cls = classify_element(QSPACE, U)
        if cls.is_loxodromic:
            n_lox += 1
        if cls.is_loxodromic != (cls.delta > 0):
            bad_delta += 1
        # direct root-moduli inspection of the embedding
        moduli = np.abs(np.linalg.eigvals(U.embed()))
        if cls.is_loxodromic != bool(np.max(moduli) > 1 + 1e-7):
            bad_oracle += 1
    _report(5, bad_palin == 0 and bad_delta == 0 and bad_oracle == 0,
            f"1000 isometries: palindromicity ({bad_palin} failures at "
            f"1e-8), delta > 0 iff loxodromic ({bad_delta} failures), "
            f"root-moduli cross-check ({bad_oracle} failures, "
            f"{n_lox} loxodromic)")


def test_criterion_6_spectral_oracle():
    r, th, p1, p2 = 0.5, np.pi / 3, np.pi / 4, np.pi / 5
    E = QArray.diag([r * np.exp(1j * th), np.exp(1j * p1),
                     np.exp(1j * p2), np.exp(1j * th) / r])
    chi = real_char_poly(QSPACE, E)
    prescribed = np.array([0.5 * np.exp(1j * th), 0.5 * np.exp(-1j * th),
                           2.0 * np.exp(1j * th), 2.0 * np.exp(-1j * th),
                           np.exp(1j * p1), np.exp(-1j * p1),
                           np.exp(1j * p2), np.exp(-1j * p2)])
    from scipy.optimize import linear_sum_assignment

    from loxpairs.polys import aberth_roots
    got = np.asarray(aberth_roots(chi))
    dist = np.abs(got[:, None] - prescribed[None, :])
    rows, cols = linear_sum_assignment(dist)
    root_dev = float(dist[rows, cols].max())
    # a1 from expanding the product over the prescribed roots
    a1_expanded = float(np.real(np.poly(prescribed))[1])
    a1 = chi[1]
    ok = root_dev <= 1e-8 and abs(a1 - a1_expanded) <= 1e-8 \
        and abs(a1 - (-5.53224)) <= 1e-5
    _report(6, ok,
            f"diagonal model roots recovered (max dev {root_dev:.2e} vs "
            f"1e-8), a1 = {a1:.5f} vs -5.53224")


def test_criterion_7_quadruple_congruence():
    bad = bad_rej = 0
    for i in range(200):
        rng = np.random.default_rng(50_000 + i)
        zs = [_null_lift(QSPACE, rng) for _ in range(4)]
        if quaternionic_rank(QArray.from_columns(zs)) < 4:
            zs = [_null_lift(QSPACE, rng) for _ in range(4)]
        U = QSPACE.random_isometry(rng)
        ws = []
        for z in zs:
            ws.append((U @ z) * QArray.from_components(hunit(rng)))
        h = boundary_quadruple_congruence(QSPACE, zs, ws)
        if h is None:
            bad += 1
            continue
        for z, w in zip(zs, ws):
            if quaternionic_rank(QArray.from_columns([h @ z, w]),
                                 tol=1e-7) != 1:
                bad += 1
                break
        # a perturbed fourth point must be rejected
        zp = zs[3].copy()
        zp.a[1] += 0.05
        zp.a[0] -= 0.05 * np.real(np.conj(zp.a[1])) + 0.00125
        wp = ws[:3] + [U @ zp]
        if boundary_quadruple_congruence(QSPACE, zs, wp) is not None:
            bad_rej += 1
    _report(7, bad == 0 and bad_rej == 0,
            f"200 congruent quadruples mapped projectively at 1e-7 "
            f"({bad} failures); perturbed quadruples rejected "
            f"({bad_rej} accepted)")


def test_criterion_8_twist_bend():
    worst_commute = 0.0
    sep_fail = det_fail = 0
    for i in range(30):
        A, B = generate_pair(QSPACE, seed=200 + i, mode="strong")
        fa = eigen_frame(QSPACE, A)
        fb = eigen_frame(QSPACE, B)
        try:
            fc = eigen_frame(QSPACE, (A @ B).inverse())
        except Exception:
            continue
        rng = np.random.default_rng(60_000 + i)
        k0 = identity_params(fa)
        kap = TwistBendParams(float(np.exp(rng.uniform(-0.5, 0.5))),
                              rng.uniform(-1, 1), rng.uniform(-1, 1),
                              rng.uniform(-1, 1), k0.k1, k0.k2, k0.k3)
        K = twist_bend_element(kap, fa)
        Amat = fa.rebuild()
        worst_commute = max(
            worst_commute,
            (K @ Amat - Amat @ K).max_abs()
            / ((1 + Amat.max_abs()) * (1 + K.max_abs())))
        # determination: identical parameters give the same element
        K2 = twist_bend_element(kap, fa)
        if (K - K2).max_abs() > 1e-8:
            det_fail += 1
        # separation: a visibly different twist produces visibly
        # different tilde invariants, so matching invariants force K = K'
        kap2 = TwistBendParams(kap.t * 1.01, kap.psi + 0.01, kap.xi1,
                               kap.xi2, k0.k1, k0.k2, k0.k3)
        v1 = tilde_invariants(QSPACE, K, fa, fb, fc)
        v2 = tilde_invariants(QSPACE, twist_bend_element(kap2, fa),
                              fa, fb, fc)
        diff = max([float((a - b).moduli()) for a, b in zip(v1[:3], v2[:3])]
                   + [abs(a - b) for a, b in zip(v1[3:], v2[3:])])
        if diff <= 1e-8:
            sep_fail += 1
    counts_ok = all(
        parameter_count(QSPACE, g) == 72 * g - 72
        and parameter_count(CSPACE, g) == 30 * g - 30
        for g in range(2, 7))
    _report(8, worst_commute <= 1e-9 and sep_fail == 0 and det_fail == 0
            and counts_ok,
            f"commutation residual {worst_commute:.2e} vs 1e-9; tilde "
            f"invariants determine the twist ({det_fail}+{sep_fail} "
            f"failures); parameter counts 72g-72 and 30g-30 exact: "
            f"{counts_ok}")


def test_criterion_9_dimension_probe():
    A, B = generate_pair(CSPACE, seed=2, mode="strong")
    crank, cgap = invariant_map_rank(CSPACE, A, B)
    A, B = generate_pair(QSPACE, seed=2, mode="strong")
    qrank, qgap = invariant_map_rank(QSPACE, A, B)
    ok = crank == 15 and qrank == 36 and cgap >= 1e3 and qgap >= 1e3
    desc = (f"quotient Jacobian rank {crank} (want 15, gap {cgap:.1e}) and "
            f"{qrank} (want 36, gap {qgap:.1e})")
    if ok:
        print(f"\n[criterion 9] PASS: {desc}")
    else:
        print(f"\n[criterion 9] WARN: {desc}")
        warnings.warn(f"criterion 9 failed (non-blocking): {desc}")
