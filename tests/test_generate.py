import numpy as np
import pytest

from loxpairs import generate
from loxpairs.errors import LoxpairsError
from loxpairs.generate import (ANGLE_FLOOR, CLASS_SEPARATION, RADIUS_RANGE,
                               generate_pair, random_loxodromic,
                               random_spectrum)
from loxpairs.genericity import PairGenericityReport, genericity_report
from loxpairs.spectral import classify_element, eigen_frame


def test_determinism(space):
    A1, B1 = generate_pair(space, seed=42)
    A2, B2 = generate_pair(space, seed=42)
    assert np.array_equal(A1.a, A2.a) and np.array_equal(A1.b, A2.b)
    assert np.array_equal(B1.a, B2.a) and np.array_equal(B1.b, B2.b)


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


def test_random_loxodromic_frame(space, rng):
    A = random_loxodromic(space, rng)
    f = eigen_frame(space, A)
    assert f.radius < 1.0


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
