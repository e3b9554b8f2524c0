"""Music features and the synthetic music/dance pair generator.

A music frame is 35 numbers at 30 fps: 20 mel-cepstrum-like channels,
12 chroma-like channels, then Peak, Beat, Envelope. Peak and Beat are
binary onset/beat indicators; Envelope lives in [0, 1].

The synthetic generator exists so the pipeline can be trained and
evaluated without any real audio: it emits a feature track with exact
periodic beats and a motion clip whose joint oscillations are phase
locked to those beats, with a genre-keyed motif. Beat alignment between
the two holds within one frame by construction: every oscillating channel
has zero velocity exactly on beat frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError
from . import textfile as TF
from .motion import FPS, FRAME_WIDTH, JOINT_COLS, JOINT_COUNT, REST_FRAME, MotionSequence

MUSIC_WIDTH = 35
MFCC_DIM = 20
CHROMA_DIM = 12
PEAK_COL = 32
BEAT_COL = 33
ENVELOPE_COL = 34

MUSIC_FORMAT = "dancegen-music"
MUSIC_VERSION = 1

# Tempos whose beat period is a whole number of frames at 30 fps, so the
# synthetic beat grid is exactly periodic.
TEMPO_CHOICES = (60, 72, 75, 90, 100, 120, 150, 180)


class MusicFeatureSequence:
    """A validated [T, 35] music feature track with its genre id."""

    def __init__(self, frames: np.ndarray, genre_id: int):
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != MUSIC_WIDTH:
            raise ShapeError(f"music frames must be [T, {MUSIC_WIDTH}], got {frames.shape}")
        if frames.shape[0] < 1:
            raise ShapeError("music must contain at least one frame")
        if not np.isfinite(frames).all():
            raise FormatError("music frames contain non-finite values")
        for name, col in (("peak", PEAK_COL), ("beat", BEAT_COL)):
            vals = frames[:, col]
            if not np.isin(vals, (0.0, 1.0)).all():
                raise FormatError(f"{name} channel must be binary 0/1")
        env = frames[:, ENVELOPE_COL]
        if env.min() < 0.0 or env.max() > 1.0:
            raise FormatError("envelope channel must lie in [0, 1]")
        if genre_id < 0:
            raise FormatError(f"genre id must be non-negative, got {genre_id}")
        self.frames = frames
        self.genre_id = int(genre_id)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def beat_frames(self) -> np.ndarray:
        return np.flatnonzero(self.frames[:, BEAT_COL] == 1.0)


def write_music_file(path, music: MusicFeatureSequence) -> None:
    header = {"fps": FPS, "width": MUSIC_WIDTH,
              "frame_count": music.frames.shape[0], "genre_id": music.genre_id}
    TF.write_text_file(path, MUSIC_FORMAT, MUSIC_VERSION, header,
                       (TF.float_row(row) for row in music.frames))


def read_music_file(path) -> MusicFeatureSequence:
    (count, genre), rows, body_start = TF.read_text_file(
        path, MUSIC_FORMAT, MUSIC_VERSION, ("frame_count", "genre_id"),
        fixed={"fps": FPS, "width": MUSIC_WIDTH},
    )
    frames = TF.parse_float_rows(path, rows, body_start, MUSIC_WIDTH, count)
    return MusicFeatureSequence(frames, genre)


# ---------------------------------------------------------------------------
# Synthetic pairs

MIN_CLIP_FRAMES = 16


@dataclass
class SyntheticPairConfig:
    """Controls one synthetic music/motion pair.

    ``seed`` is the only entropy source; the same config and genre always
    produce bit-identical output. ``clip_frames`` must be at least
    ``MIN_CLIP_FRAMES`` and, for the pipeline, a multiple of 8 so clips
    pass straight into the temporal-downsampling codec.
    """

    seed: int = 0
    clip_frames: int = 240

    def __post_init__(self):
        if self.clip_frames < MIN_CLIP_FRAMES:
            raise ShapeError(f"clip_frames too small: {self.clip_frames}")


def _genre_motif(genre_id: int):
    """Deterministic per-genre motion signature.

    Joints, oscillation axes, harmonic multipliers, and amplitudes are all
    derived arithmetically from the genre id so any two genres move
    different joints by construction (no RNG collisions possible).
    """
    joints = [
        (1 + 2 * genre_id) % JOINT_COUNT,
        (7 + 3 * genre_id) % JOINT_COUNT,
        (16 + 5 * genre_id) % JOINT_COUNT,
        (19 + 7 * genre_id) % JOINT_COUNT,
    ]
    axes = [(genre_id + i) % 3 for i in range(4)]
    harmonics = [1 + (genre_id % 3), 1, 2, 1 + ((genre_id + 1) % 2)]
    amplitudes = [0.6 + 0.1 * ((genre_id * 13 + i * 7) % 5) / 4.0 for i in range(4)]
    return list(zip(joints, axes, harmonics, amplitudes))


def _axis_angle_to_6d(axis_idx: int, angles: np.ndarray) -> np.ndarray:
    """First two columns of a rotation about a coordinate axis, per frame."""
    c, s = np.cos(angles), np.sin(angles)
    t_len = angles.shape[0]
    mats = np.zeros((t_len, 3, 3))
    i, j, k = axis_idx, (axis_idx + 1) % 3, (axis_idx + 2) % 3
    mats[:, i, i] = 1.0
    mats[:, j, j] = c
    mats[:, k, k] = c
    mats[:, j, k] = -s
    mats[:, k, j] = s
    return np.concatenate([mats[:, :, 0], mats[:, :, 1]], axis=1)


def synthesize_pair(cfg: SyntheticPairConfig, genre_id: int):
    """One (music, motion) pair for a genre.

    Beats land every ``period`` frames starting at frame 0. Joint angles
    follow amp * cos(h * pi * t / period), whose derivative vanishes on
    every beat frame, so kinematic beats coincide with musical beats.
    """
    if genre_id < 0:
        raise FormatError(f"genre id must be non-negative, got {genre_id}")
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, genre_id, 0xDA7CE])
    )
    t_len = cfg.clip_frames
    t = np.arange(t_len)

    tempo = int(rng.choice(TEMPO_CHOICES))
    period = (60 * FPS) // tempo  # frames per beat, exact for TEMPO_CHOICES

    music = np.zeros((t_len, MUSIC_WIDTH))
    beat = (t % period == 0).astype(float)
    music[:, BEAT_COL] = beat
    peak = beat.copy()
    if genre_id % 2 == 1:  # syncopated genres also hit the off-beat
        peak[t % period == period // 2] = 1.0
    music[:, PEAK_COL] = peak
    music[:, ENVELOPE_COL] = 1.0 - (t % period) / period

    # Genre-keyed smooth texture in the timbre/harmony channels: a few slow
    # sinusoids per channel with per-seed phases.
    genre_gain = 0.5 + 0.5 * ((genre_id * 31) % 7) / 6.0
    for c in range(MFCC_DIM + CHROMA_DIM):
        freqs = rng.uniform(0.2, 2.0, size=3)
        phases = rng.uniform(0, 2 * np.pi, size=3)
        amps = rng.uniform(0.2, 1.0, size=3) * genre_gain
        chan = sum(a * np.sin(2 * np.pi * f * t / FPS + p) for f, p, a in zip(freqs, phases, amps))
        music[:, c] = chan

    frames = np.tile(REST_FRAME, (t_len, 1))

    # Root sway: beat-locked so it never shifts speed minima off the beat.
    sway = rng.uniform(0.03, 0.08, size=3)
    frames[:, 0] = sway[0] * np.cos(np.pi * t / period)
    frames[:, 1] = 0.9 + sway[1] * np.cos(np.pi * t / period)
    frames[:, 2] = sway[2] * np.cos(2 * np.pi * t / period)

    for joint, axis, harmonic, amp in _genre_motif(genre_id):
        wobble = rng.uniform(0.9, 1.1)  # per-seed texture, keeps pairs distinct
        angles = amp * wobble * np.cos(harmonic * np.pi * t / period)
        frames[:, JOINT_COLS[joint]] = _axis_angle_to_6d(axis, angles)

    return MusicFeatureSequence(music, genre_id), MotionSequence(frames)


def random_motion_clip(rng: np.random.Generator, frames: int) -> MotionSequence:
    """A clip of unstructured motion: generic random 6D blocks, random root.

    Used to widen the codec's training distribution and to probe codebook
    coverage; Gaussian 6D blocks are valid rotations almost surely.
    """
    data = rng.standard_normal((frames, FRAME_WIDTH))
    data[:, :3] = rng.standard_normal(3)[None, :] + 0.1 * np.cumsum(
        rng.standard_normal((frames, 3)), axis=0
    )
    return MotionSequence(data)


def beat_extract(positions: np.ndarray) -> np.ndarray:
    """Kinematic beat frames: local minima of mean joint speed.

    Speed s_t is the mean joint displacement between frames t and t+1.
    A minimum requires a strict drop followed by a non-increase
    (s_{t-1} > s_t <= s_{t+1}); the beat is assigned to frame t+1. The
    strictness test uses a relative tolerance so constant-speed motion,
    which differs only by float rounding, yields no interior beats.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ShapeError(f"positions must be [T, joints, 3], got {positions.shape}")
    if positions.shape[0] < 3:
        raise ShapeError(f"need at least 3 frames to find beats, got {positions.shape[0]}")
    disp = np.linalg.norm(np.diff(positions, axis=0), axis=2).mean(axis=1)
    tol = 1e-9 * max(disp.max(), 1e-30)
    beats = []
    for i in range(1, disp.shape[0] - 1):
        if disp[i - 1] - disp[i] > tol and disp[i] <= disp[i + 1] + tol:
            beats.append(i + 1)
    return np.array(beats, dtype=int)
