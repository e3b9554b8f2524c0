"""Metric tests: feature extraction statistics, Gaussian Frechet distance
against closed forms and an independent eigendecomposition oracle,
diversity geometry, beat alignment closed forms, report file round-trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegen import motion as MO
from dancegen.errors import FormatError, InputError, ShapeError
from dancegen.metrics import (
    ANGLE_TRIPLES,
    DISTANCE_PAIRS,
    GEOMETRIC_WIDTH,
    KINETIC_WIDTH,
    GaussianStats,
    beat_align_score,
    diversity,
    extract_features,
    frechet_distance,
    position_features,
    read_report_file,
    write_report_file,
)
from dancegen.music import SyntheticPairConfig, beat_extract, synthesize_pair


def rest_pose_frames(t_len):
    ident = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    frame = np.concatenate([np.zeros(3), np.tile(ident, 24)])
    return np.tile(frame, (t_len, 1))


def dance_clip(seed=3, genre=0, frames=240):
    return synthesize_pair(SyntheticPairConfig(seed=seed, clip_frames=frames), genre)[1].frames


# ---------------------------------------------------------------------------
# Feature extraction


def test_kinetic_width_and_static_zeros():
    feats = extract_features(rest_pose_frames(10), "kinetic")
    assert feats.shape == (KINETIC_WIDTH,)
    assert np.all(feats == 0.0)


def test_kinetic_speed_scales_with_playback_rate():
    clip = dance_clip()
    full = extract_features(clip, "kinetic")[:24]
    halved = extract_features(clip[::2], "kinetic")[:24]
    ratio = halved / full
    assert np.all(ratio > 1.5) and np.all(ratio < 2.05), ratio


def test_features_are_deterministic():
    clip = dance_clip(seed=5, genre=2)
    a = extract_features(clip, "kinetic")
    b = extract_features(clip, "kinetic")
    assert np.array_equal(a, b)
    assert np.array_equal(
        extract_features(clip, "geometric"), extract_features(clip, "geometric")
    )


def test_feature_length_checks():
    with pytest.raises(ShapeError):
        extract_features(rest_pose_frames(3), "kinetic")
    with pytest.raises(ShapeError):
        extract_features(rest_pose_frames(1), "geometric")
    with pytest.raises(InputError):
        extract_features(rest_pose_frames(10), "spectral")


def test_geometric_matches_bruteforce_statistics():
    clip = dance_clip(seed=7, genre=1, frames=48)
    feats = extract_features(clip, "geometric")
    assert feats.shape == (GEOMETRIC_WIDTH,)
    pos = MO.forward_kinematics(clip)
    # independent per-frame loop over the documented tables
    expected = []
    for a, b in DISTANCE_PAIRS:
        track = np.array([np.linalg.norm(pos[t, a] - pos[t, b]) for t in range(len(pos))])
        expected.extend([track.mean(), track.std()])
    for a, b, c in ANGLE_TRIPLES:
        vals = []
        for t in range(len(pos)):
            u = pos[t, a] - pos[t, b]
            v = pos[t, c] - pos[t, b]
            cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            vals.append(np.arccos(np.clip(cos, -1, 1)))
        track = np.array(vals)
        expected.extend([track.mean(), track.std()])
    # arccos is ill-conditioned where joints are nearly collinear, so the
    # vectorized and looped routes disagree by ~1e-9 on straight-limb angles
    np.testing.assert_allclose(feats, expected, atol=1e-8)


@pytest.mark.parametrize("kind", ["kinetic", "geometric"])
def test_extract_features_is_position_features_of_fk(kind):
    clip = dance_clip(seed=5, genre=2)
    want = position_features(MO.forward_kinematics(clip), kind)
    assert extract_features(clip, kind).tobytes() == want.tobytes()


def per_track_features(pos, kind):
    """The feature oracle: ``position_features`` as it was computed one
    track at a time, with ``np.linalg.norm`` and a last-axis dot product."""
    if kind == "kinetic":
        out = []
        d = pos
        for _ in range(3):
            d = np.diff(d, axis=0)
            out.append(np.linalg.norm(d, axis=-1).mean(axis=0))
        return np.concatenate(out)
    tracks = [np.linalg.norm(pos[:, a] - pos[:, b], axis=-1) for a, b in DISTANCE_PAIRS]
    for a, b, c in ANGLE_TRIPLES:
        u = pos[:, a] - pos[:, b]
        v = pos[:, c] - pos[:, b]
        nu = np.linalg.norm(u, axis=-1)
        nv = np.linalg.norm(v, axis=-1)
        cos = (u * v).sum(axis=-1) / np.maximum(nu * nv, 1e-12)
        tracks.append(np.arccos(np.clip(cos, -1.0, 1.0)))
    return np.array([s for t in tracks for s in (t.mean(), t.std())])


def degenerate_limbs(t_len=30):
    """Random positions with the right elbow on the right shoulder (a zero
    arm, so nu * nv is 0) and the left knee between hip and ankle on their
    line (cos -1, which rounds below -1 in some frames)."""
    pos = np.random.default_rng(3).standard_normal((t_len, 24, 3))
    pos[:, 19] = pos[:, 17]
    pos[:, 4] = pos[:, 1] + 0.25 * (pos[:, 7] - pos[:, 1])
    return pos


@pytest.mark.parametrize("kind", ["kinetic", "geometric"])
def test_features_bitwise_equal_per_track_oracle(kind):
    for seed, frames in ((1, 240), (2, 48), (3, 7), (4, 4)):
        pos = MO.forward_kinematics(dance_clip(seed=seed, genre=seed % 4, frames=240)[:frames])
        assert position_features(pos, kind).tobytes() == per_track_features(pos, kind).tobytes()


@pytest.mark.parametrize("kind", ["kinetic", "geometric"])
def test_features_bitwise_on_coincident_and_collinear_joints(kind):
    pos = degenerate_limbs()
    u, v = pos[:, 17] - pos[:, 19], pos[:, 21] - pos[:, 19]
    assert (np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1) < 1e-12).all()
    u, v = pos[:, 1] - pos[:, 4], pos[:, 7] - pos[:, 4]
    cos = (u * v).sum(-1) / (np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
    assert (cos < -1.0 + 1e-9).all() and (cos < -1.0).any()  # the clip is exercised
    assert position_features(pos, kind).tobytes() == per_track_features(pos, kind).tobytes()


def test_beat_extract_speed_is_the_linalg_norm():
    pos = MO.forward_kinematics(dance_clip(seed=6, genre=3))
    speed = np.linalg.norm(np.diff(pos, axis=0), axis=2)
    assert MO.vector_norm(np.diff(pos, axis=0)).tobytes() == speed.tobytes()


def test_geometric_rest_pose_has_zero_spread():
    feats = extract_features(rest_pose_frames(6), "geometric")
    assert np.all(feats[1::2] < 1e-12)  # std entries collapse on a held pose
    assert np.all(feats[0:16:2] > 0.0)  # rest-pose limb distances are nonzero


# ---------------------------------------------------------------------------
# Gaussian stats


def test_gaussian_stats_match_numpy_estimators():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    stats = GaussianStats.from_samples(x)
    np.testing.assert_allclose(stats.mean, x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats.cov, np.cov(x, rowvar=False, ddof=1), atol=1e-12)


def test_gaussian_stats_validation():
    with pytest.raises(InputError):
        GaussianStats.from_samples(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        GaussianStats(np.zeros(3), np.zeros((2, 2)))
    lopsided = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        GaussianStats(np.zeros(2), lopsided)


# ---------------------------------------------------------------------------
# Frechet distance


def g1(mean, var):
    return GaussianStats(np.array([mean]), np.array([[var]]))


def test_frechet_one_dimensional_closed_forms():
    # (mu difference)^2 + (sigma_a - sigma_b)^2
    assert abs(frechet_distance(g1(0, 1), g1(1, 1)) - 1.0) < 1e-9
    assert abs(frechet_distance(g1(0, 1), g1(0, 4)) - 1.0) < 1e-9
    assert abs(frechet_distance(g1(2, 9), g1(0, 1)) - (4 + 4)) < 1e-9


def test_frechet_identical_stats_is_zero():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    stats = GaussianStats(rng.normal(size=6), a @ a.T + 0.1 * np.eye(6))
    assert abs(frechet_distance(stats, stats)) < 1e-8


def test_frechet_commuting_diagonal_case():
    # diag(1,4) vs diag(4,1): Tr(5+5 - 2*sqrt(diag(4,4))) = 10 - 8 = 2
    a = GaussianStats(np.zeros(2), np.diag([1.0, 4.0]))
    b = GaussianStats(np.zeros(2), np.diag([4.0, 1.0]))
    assert abs(frechet_distance(a, b) - 2.0) < 1e-12


def test_frechet_matches_general_eigen_oracle():
    # independent route: eigenvalues of the plain (nonsymmetric) product
    rng = np.random.default_rng(2)
    for _ in range(5):
        qa = rng.normal(size=(4, 4))
        qb = rng.normal(size=(4, 4))
        a = GaussianStats(rng.normal(size=4), qa @ qa.T + 0.2 * np.eye(4))
        b = GaussianStats(rng.normal(size=4), qb @ qb.T + 0.2 * np.eye(4))
        eigs = np.linalg.eigvals(a.cov @ b.cov)
        cross = np.sqrt(np.clip(eigs.real, 0, None)).sum()
        diff = a.mean - b.mean
        want = diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2 * cross
        got = frechet_distance(a, b)
        assert abs(got - want) < 1e-8, (got, want)


def test_frechet_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(3)
    qa = rng.normal(size=(5, 5))
    qb = rng.normal(size=(5, 5))
    a = GaussianStats(rng.normal(size=5), qa @ qa.T + 0.1 * np.eye(5))
    b = GaussianStats(rng.normal(size=5), qb @ qb.T + 0.1 * np.eye(5))
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-9
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    ra = GaussianStats(q @ a.mean, q @ a.cov @ q.T)
    rb = GaussianStats(q @ b.mean, q @ b.cov @ q.T)
    assert abs(frechet_distance(a, b) - frechet_distance(ra, rb)) < 1e-6


def test_frechet_same_gaussian_monte_carlo():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(4, 4))
    cov = q @ q.T + 0.5 * np.eye(4)
    mean = rng.normal(size=4)
    x = rng.multivariate_normal(mean, cov, size=20000)
    y = rng.multivariate_normal(mean, cov, size=20000)
    fid = frechet_distance(GaussianStats.from_samples(x), GaussianStats.from_samples(y))
    assert 0.0 <= fid <= 0.05, fid


def test_frechet_dimension_mismatch():
    with pytest.raises(ShapeError):
        frechet_distance(g1(0, 1), GaussianStats(np.zeros(2), np.eye(2)))


# ---------------------------------------------------------------------------
# Diversity


def test_diversity_closed_forms():
    assert diversity(np.zeros((4, 3))) == 0.0
    two = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert abs(diversity(two) - 5.0) < 1e-12
    s = 2.0
    triangle = np.array([[0, 0], [s, 0], [s / 2, s * np.sqrt(3) / 2]])
    assert abs(diversity(triangle) - s) < 1e-12


def test_diversity_needs_two_vectors():
    with pytest.raises(InputError):
        diversity(np.zeros((1, 3)))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_diversity_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    assert abs(diversity(feats) - diversity(feats[perm])) < 1e-9


# ---------------------------------------------------------------------------
# Beat alignment


def test_bas_closed_forms():
    beats = np.array([10, 40, 70])
    assert beat_align_score(beats, beats) == 1.0
    shifted = beats + 3  # every music beat exactly sigma frames away
    got = beat_align_score(beats, shifted, sigma=3.0)
    assert abs(got - np.exp(-0.5)) < 1e-9


def test_bas_degenerate_sets():
    assert beat_align_score(np.array([5.0]), np.array([])) == 0.0
    with pytest.raises(InputError):
        beat_align_score(np.array([]), np.array([5.0]))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=-50, max_value=50))
@settings(max_examples=20, deadline=None)
def test_bas_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    music = np.sort(rng.choice(200, size=6, replace=False))
    kin = np.sort(rng.choice(200, size=9, replace=False))
    a = beat_align_score(music, kin)
    b = beat_align_score(music + shift, kin + shift)
    assert abs(a - b) < 1e-12


def test_bas_on_synthetic_pair_is_high():
    # the synthetic generator locks kinematic beats to the beat channel
    music, clip = synthesize_pair(SyntheticPairConfig(seed=11, clip_frames=240), 1)
    music_beats = np.where(music.frames[:, 33] == 1)[0]
    kin = beat_extract(MO.forward_kinematics(clip.frames))
    assert beat_align_score(music_beats, kin) > 0.9


# ---------------------------------------------------------------------------
# Report file


def full_report():
    return {
        "fid_k": 1.25, "fid_g": 0.5, "div_k": 3.0, "div_g": 2.5,
        "bas": 0.875, "n_sequences": 8, "config_hash": "ab12cd34ef56ab78",
    }


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.txt"
    write_report_file(path, full_report())
    back = read_report_file(path)
    assert back == full_report()


def test_report_rejects_missing_field():
    bad = full_report()
    del bad["bas"]
    with pytest.raises(FormatError):
        write_report_file("/tmp/never-written.txt", bad)


def test_report_rejects_malformed_files(tmp_path):
    p1 = tmp_path / "a.txt"
    p1.write_text("#format wrong v1\nfid_k 1\n")
    with pytest.raises(FormatError):
        read_report_file(p1)
    p2 = tmp_path / "b.txt"
    p2.write_text("#format dancegen-report v1\nfid_k 1\nmystery 2\n")
    with pytest.raises(FormatError):
        read_report_file(p2)
    p3 = tmp_path / "c.txt"
    p3.write_text("#format dancegen-report v1\nfid_k 1\n")
    with pytest.raises(FormatError):
        read_report_file(p3)
