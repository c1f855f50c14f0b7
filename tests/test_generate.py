import numpy as np
import pytest

from loxpairs import generate
from loxpairs.errors import LoxpairsError
from loxpairs.generate import (ANGLE_FLOOR, CLASS_SEPARATION, MAX_TRIES,
                               RADIUS_RANGE, generate_pair,
                               random_loxodromic, random_spectrum)
from loxpairs.genericity import PairGenericityReport, genericity_report
from loxpairs.hermitian import HermitianSpace
from loxpairs.qmatrix import QArray
from loxpairs.spectral import classify_element, eigen_frame


def test_determinism(space):
    A1, B1 = generate_pair(space, seed=42)
    A2, B2 = generate_pair(space, seed=42)
    assert np.array_equal(A1.a, A2.a) and np.array_equal(A1.b, A2.b)
    assert np.array_equal(B1.a, B2.a) and np.array_equal(B1.b, B2.b)


def test_negative_seed_is_typed(qspace):
    with pytest.raises(LoxpairsError, match="bad seed -1"):
        generate_pair(qspace, seed=-1)


def test_distinct_seeds_differ(qspace):
    A1, _ = generate_pair(qspace, seed=1)
    A2, _ = generate_pair(qspace, seed=2)
    assert (A1 - A2).max_abs() > 1e-3


def test_generated_elements_are_loxodromic(space):
    A, B = generate_pair(space, seed=4)
    assert classify_element(space, A).is_loxodromic
    assert classify_element(space, B).is_loxodromic


def test_spectrum_separation(space, rng):
    for _ in range(20):
        r, th, phis = random_spectrum(space, rng)
        lams = np.concatenate([[r * np.exp(1j * th)], np.exp(1j * phis),
                               [np.exp(1j * th) / r]])
        radii = np.abs(lams)
        assert RADIUS_RANGE[0] - 1e-12 <= radii.min()
        assert radii.max() <= 1.0 / RADIUS_RANGE[0] + 1e-12
        if space.field == "quaternion":
            assert np.all(np.angle(lams) > ANGLE_FLOOR - 1e-12)
        # pairwise class separation in the (Re, | |) plane
        pts = np.stack([lams.real, radii], axis=1)
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                assert np.linalg.norm(pts[i] - pts[j]) >= CLASS_SEPARATION


def test_classes_separated_matches_the_pairwise_loop(rng):
    # the broadcast comparison decides as the loop over pairs did,
    # on separated, barely separated and colliding classes
    from loxpairs.generate import _classes_separated

    def loop(lams):
        pts = np.stack([lams.real, np.abs(lams)], axis=1)
        return all(np.max(np.abs(pts[i] - pts[j])) >= CLASS_SEPARATION
                   for i in range(len(pts)) for j in range(i + 1, len(pts)))

    for k in range(300):
        lams = np.exp(1j * rng.uniform(-np.pi, np.pi, 5)) \
            * rng.uniform(0.2, 5.0, 5)
        if k % 3:
            lams[k % 5] = lams[(k + 1) % 5] + (k % 7 - 3) * 4e-4
        assert _classes_separated(lams) == loop(lams)


def test_random_loxodromic_frame(space, rng):
    A, f = random_loxodromic(space, rng)
    assert f.radius < 1.0
    assert space.is_isometry(f.F)
    assert (f.rebuild() - A).max_abs() <= 1e-12 * (1.0 + A.max_abs())


@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_construction_frames_match_eigen_frame(n, field):
    # the frame built with A carries the class data, real traces and
    # projective points that eigen_frame finds for A
    space = HermitianSpace(n, field)
    rng = np.random.default_rng(n)
    for _ in range(20):
        A, f = random_loxodromic(space, rng)
        g = eigen_frame(space, A)
        assert abs(f.radius - g.radius) <= 1e-10
        assert abs(f.theta - g.theta) <= 1e-10
        assert np.max(np.abs(f.phis - g.phis)) <= 1e-10
        assert np.max(np.abs(f.real_trace - g.real_trace)) \
            <= 1e-10 * (1.0 + np.max(np.abs(g.real_trace)))
        assert np.max(np.abs(f.points - g.points)) <= 1e-10


def _reference_pair(space, seed, mode):
    """generate_pair with every try accepted or refused on the frames
    that eigen_frame finds for A and B, from the same draws."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        A, _ = random_loxodromic(space, rng)
        B, _ = random_loxodromic(space, rng)
        fa, fb = eigen_frame(space, QArray.stack([A, B]))
        rep, = genericity_report(space, [fa], [fb])
        if rep.weakly_nonsingular and (mode == "weak" or rep.nonsingular):
            return A, B
    return None


@pytest.mark.parametrize("mode", ["weak", "strong"])
@pytest.mark.parametrize("field", ["complex", "quaternion"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_generate_pair_equals_the_eigen_frame_loop(n, field, mode):
    space = HermitianSpace(n, field)
    for seed in range(30):
        A, B = generate_pair(space, seed=seed, mode=mode)
        A2, B2 = _reference_pair(space, seed, mode)
        for M, M2 in ((A, A2), (B, B2)):
            assert np.array_equal(M.a, M2.a) and np.array_equal(M.b, M2.b)


def test_modes(space):
    A, B = generate_pair(space, seed=15, mode="strong")
    rep, = genericity_report(space, [eigen_frame(space, A)],
                             [eigen_frame(space, B)])
    assert rep.nonsingular
    A, B = generate_pair(space, seed=15, mode="weak")
    rep, = genericity_report(space, [eigen_frame(space, A)],
                             [eigen_frame(space, B)])
    assert rep.weakly_nonsingular


def test_generate_pair_gives_up(cspace, monkeypatch):
    never = PairGenericityReport(False, False, np.zeros((2, 2), dtype=bool),
                                 failing_conditions=["flag-matching"])
    monkeypatch.setattr(generate, "genericity_report",
                        lambda *args: [never])
    with pytest.raises(LoxpairsError, match="in 100 attempts"):
        generate_pair(cspace, seed=0)


def test_generate_pair_rejects_an_unknown_mode(cspace):
    for mode in ("Strong", "", None):
        with pytest.raises(LoxpairsError, match="unknown mode"):
            generate_pair(cspace, seed=0, mode=mode)


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_strong_mode_below_n3_raises_at_once(monkeypatch, field):
    # four fixed-point lifts have rank at most n + 1 = 3 < 4, so no pair
    # is non-singular and no pair is drawn
    space = HermitianSpace(2, field)
    drawn = []

    def drawing(*args):
        drawn.append(1)
        return random_loxodromic(*args)

    monkeypatch.setattr(generate, "random_loxodromic", drawing)
    with pytest.raises(LoxpairsError, match="strong mode needs n >= 3"):
        generate_pair(space, seed=0, mode="strong")
    assert not drawn
    A, B = generate_pair(space, seed=0, mode="weak")
    assert A.shape == B.shape == (3, 3) and len(drawn) >= 2


@pytest.mark.parametrize("field", ["complex", "quaternion"])
def test_an_n_too_large_to_allocate_raises_a_typed_error(field):
    # the 8 EiB sample fails at allocation, before any memory is touched
    with pytest.raises(LoxpairsError, match="too large"):
        generate_pair(HermitianSpace(2 ** 60, field), seed=0)
