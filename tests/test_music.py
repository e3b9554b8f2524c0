import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegen import music as MU
from dancegen.errors import FormatError, ShapeError
from dancegen.motion import forward_kinematics


def test_music_width_constant():
    assert MU.MUSIC_WIDTH == MU.MFCC_DIM + MU.CHROMA_DIM + 3 == 35


def test_music_validation_binary_channels():
    frames = np.zeros((4, MU.MUSIC_WIDTH))
    frames[0, MU.BEAT_COL] = 0.5
    with pytest.raises(FormatError, match="beat"):
        MU.MusicFeatureSequence(frames, 0)
    frames = np.zeros((4, MU.MUSIC_WIDTH))
    frames[1, MU.PEAK_COL] = 2.0
    with pytest.raises(FormatError, match="peak"):
        MU.MusicFeatureSequence(frames, 0)


def test_music_validation_envelope_range():
    frames = np.zeros((4, MU.MUSIC_WIDTH))
    frames[2, MU.ENVELOPE_COL] = 1.5
    with pytest.raises(FormatError, match="envelope"):
        MU.MusicFeatureSequence(frames, 0)


def test_music_validation_width():
    with pytest.raises(ShapeError):
        MU.MusicFeatureSequence(np.zeros((4, 34)), 0)


def test_music_file_roundtrip(tmp_path):
    cfg = MU.SyntheticPairConfig(seed=5)
    music, _ = MU.synthesize_pair(cfg, genre_id=2)
    path = tmp_path / "track.music.txt"
    MU.write_music_file(path, music)
    loaded = MU.read_music_file(path)
    np.testing.assert_array_equal(loaded.frames, music.frames)
    assert loaded.genre_id == 2


def test_music_file_bad_field_diagnostics(tmp_path):
    cfg = MU.SyntheticPairConfig(seed=1, clip_frames=16)
    music, _ = MU.synthesize_pair(cfg, genre_id=0)
    path = tmp_path / "track.music.txt"
    MU.write_music_file(path, music)
    lines = path.read_text().splitlines()
    lines[7] = lines[7] + " 1.0"  # extra field on a body line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 8"):
        MU.read_music_file(path)


def test_music_file_version_rejected(tmp_path):
    cfg = MU.SyntheticPairConfig(seed=1, clip_frames=16)
    music, _ = MU.synthesize_pair(cfg, genre_id=0)
    path = tmp_path / "track.music.txt"
    MU.write_music_file(path, music)
    path.write_text(path.read_text().replace("v1", "v2"))
    with pytest.raises(FormatError, match="version"):
        MU.read_music_file(path)


# ---------------------------------------------------------------------------
# synthetic pairs


def test_synthesize_pair_deterministic():
    cfg = MU.SyntheticPairConfig(seed=42)
    m1, d1 = MU.synthesize_pair(cfg, genre_id=1)
    m2, d2 = MU.synthesize_pair(cfg, genre_id=1)
    assert np.array_equal(m1.frames, m2.frames)
    assert np.array_equal(d1.frames, d2.frames)


def test_synthesize_pair_seed_changes_output():
    a = MU.synthesize_pair(MU.SyntheticPairConfig(seed=1), 0)[0].frames
    b = MU.synthesize_pair(MU.SyntheticPairConfig(seed=2), 0)[0].frames
    assert not np.array_equal(a, b)


def test_genres_differ_on_rotation_channels():
    cfg = MU.SyntheticPairConfig(seed=7)
    _, d0 = MU.synthesize_pair(cfg, genre_id=0)
    _, d1 = MU.synthesize_pair(cfg, genre_id=1)
    gap = np.abs(d0.frames[:, 3:] - d1.frames[:, 3:]).max()
    assert gap > 0.1


@pytest.mark.parametrize("g1,g2", [(0, 2), (1, 3), (2, 3), (0, 15)])
def test_all_genre_pairs_distinct(g1, g2):
    cfg = MU.SyntheticPairConfig(seed=3)
    _, a = MU.synthesize_pair(cfg, g1)
    _, b = MU.synthesize_pair(cfg, g2)
    assert np.abs(a.frames[:, 3:] - b.frames[:, 3:]).max() > 0.1


@pytest.mark.parametrize("seed", range(8))
def test_beats_form_a_whole_frame_grid(seed):
    music, _ = MU.synthesize_pair(MU.SyntheticPairConfig(seed=seed), genre_id=seed % 4)
    beats = music.beat_frames()
    period = beats[1] - beats[0]
    assert beats[0] == 0
    np.testing.assert_array_equal(np.diff(beats), period)
    assert 60 * MU.FPS / period in MU.TEMPO_CHOICES


def test_synthetic_motion_is_valid_for_fk():
    cfg = MU.SyntheticPairConfig(seed=9)
    _, dance = MU.synthesize_pair(cfg, genre_id=3)
    positions = forward_kinematics(dance.frames)
    assert positions.shape == (240, 24, 3)
    assert np.isfinite(positions).all()


@pytest.mark.parametrize("genre", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", [0, 11])
def test_beats_align_within_one_frame(genre, seed):
    cfg = MU.SyntheticPairConfig(seed=seed)
    music, dance = MU.synthesize_pair(cfg, genre)
    positions = forward_kinematics(dance.frames)
    kin = MU.beat_extract(positions)
    assert kin.size > 0
    # interior music beats (detector cannot fire on clip boundaries)
    for b in music.beat_frames():
        if b < 2 or b > len(dance) - 3:
            continue
        assert np.abs(kin - b).min() <= 1, f"music beat {b} unmatched (kinematic {kin})"


def test_random_motion_clip_valid():
    rng = np.random.default_rng(0)
    clip = MU.random_motion_clip(rng, 64)
    assert clip.frames.shape == (64, 147)
    positions = forward_kinematics(clip.frames)
    assert np.isfinite(positions).all()


# ---------------------------------------------------------------------------
# beat extraction


def test_beat_extract_constant_velocity_has_no_beats():
    t = np.arange(30.0)
    positions = np.zeros((30, 2, 3))
    positions[:, 0, 0] = t * 0.1
    positions[:, 1, 1] = t * 0.1
    assert MU.beat_extract(positions).size == 0


def test_beat_extract_sinusoid_spacing():
    period = 20
    t = np.arange(200)
    positions = np.zeros((200, 1, 3))
    positions[:, 0, 0] = np.cos(2 * np.pi * t / period)
    beats = MU.beat_extract(positions)
    gaps = np.diff(beats)
    assert np.all(np.abs(gaps - period / 2) <= 1)


def test_beat_extract_too_short():
    with pytest.raises(ShapeError):
        MU.beat_extract(np.zeros((2, 4, 3)))
    with pytest.raises(ShapeError):
        MU.beat_extract(np.zeros((10, 4, 2)))


@given(st.integers(0, 2 ** 16), st.sampled_from([0, 1, 2, 3]))
@settings(max_examples=15, deadline=None)
def test_synthetic_pair_always_valid(seed, genre):
    cfg = MU.SyntheticPairConfig(seed=seed, clip_frames=80)
    music, dance = MU.synthesize_pair(cfg, genre)
    assert len(music) == len(dance) == 80
    assert np.isin(music.frames[:, MU.BEAT_COL], (0.0, 1.0)).all()
