"""Evaluation metrics: Frechet distance over kinetic/geometric motion
features, diversity, and beat alignment.

Feature definitions are desk-scale stand-ins with documented member
statistics; they are internally reproducible but not comparable to any
external extractor. Kinetic features summarize per-joint derivative
magnitudes; geometric features summarize a fixed table of joint-pair
distances and joint-triple angles.

``position_features(pos, kind)`` computes either kind from FK joint
positions; ``extract_features(motion, kind)`` runs FK on the motion's
frames and calls it. ``evaluate`` runs FK once per clip and takes both
kinds and the kinematic beats from those positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import motion as MO
from . import textfile as TF
from .errors import FormatError, InputError, ShapeError

KINETIC_WIDTH = 72  # 24 joints x mean |speed|, |accel|, |jerk|
GEOMETRIC_WIDTH = 32  # (8 distance pairs + 8 angle triples) x (mean, std)
BAS_SIGMA = 3.0  # beat-alignment kernel width in frames

# wrists/ankles against each other, the head, and the root: limb spread
DISTANCE_PAIRS = (
    (20, 21), (7, 8), (15, 20), (15, 21),
    (0, 20), (0, 21), (0, 7), (0, 8),
)
# elbow/knee flexion and shoulder/hip openness, both sides
ANGLE_TRIPLES = (
    (16, 18, 20), (17, 19, 21), (1, 4, 7), (2, 5, 8),
    (9, 16, 18), (9, 17, 19), (0, 1, 4), (0, 2, 5),
)


# One gather builds every geometric vector: the 8 pair distances, then the
# 8 angles' first arms (a - b), then their second arms (c - b).
_ARM_HEADS = np.array([a for a, _ in DISTANCE_PAIRS] + [a for a, _, _ in ANGLE_TRIPLES]
                      + [c for _, _, c in ANGLE_TRIPLES])
_ARM_TAILS = np.array([b for _, b in DISTANCE_PAIRS] + [b for _, b, _ in ANGLE_TRIPLES] * 2)


def position_features(pos: np.ndarray, kind: str) -> np.ndarray:
    """Fixed-width feature vector summarizing FK joint positions [T, 24, 3].

    ``kind`` selects "kinetic" (72 wide) or "geometric" (32 wide). Kinetic
    needs four frames for the third derivative; geometric needs two for
    the spread statistics. Each kind is a few array ops over all joints,
    pairs and triples; norms and dot products sum their three terms left to
    right and each track's mean and std come from one contiguous row, so
    the features equal a per-track loop's bitwise.
    """
    if kind == "kinetic":
        if pos.shape[0] < 4:
            raise ShapeError(f"kinetic features need >= 4 frames, got {pos.shape[0]}")
        out = []
        d = pos
        for _ in range(3):
            d = np.diff(d, axis=0)
            out.append(MO.vector_norm(d).mean(axis=0))
        return np.concatenate(out)
    if kind == "geometric":
        if pos.shape[0] < 2:
            raise ShapeError(f"geometric features need >= 2 frames, got {pos.shape[0]}")
        n = len(DISTANCE_PAIRS)
        arms = pos[:, _ARM_HEADS] - pos[:, _ARM_TAILS]  # [T, 24, 3]
        lengths = MO.vector_norm(arms)
        uv = arms[:, n:2 * n] * arms[:, 2 * n:]
        cos = (uv[..., 0] + uv[..., 1] + uv[..., 2]) / np.maximum(
            lengths[:, n:2 * n] * lengths[:, 2 * n:], 1e-12)
        tracks = np.concatenate([lengths[:, :n], np.arccos(np.clip(cos, -1.0, 1.0))], axis=1)
        tracks = np.ascontiguousarray(tracks.T)  # [16, T], one track per row
        return np.stack([tracks.mean(axis=1), tracks.std(axis=1)], axis=1).reshape(-1)
    raise InputError(f"unknown feature kind {kind!r}; expected 'kinetic' or 'geometric'")


def extract_features(motion, kind: str) -> np.ndarray:
    """``position_features`` of the motion's FK joint positions. Motion may
    be a MotionSequence or a raw [T, 147] frame array."""
    frames = np.asarray(getattr(motion, "frames", motion), dtype=np.float64)
    return position_features(MO.forward_kinematics(frames), kind)


# ---------------------------------------------------------------------------
# Gaussian fits and the Frechet distance


@dataclass
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise ShapeError(f"covariance must be {d}x{d}, got {self.cov.shape}")
        if np.abs(self.cov - self.cov.T).max() > 1e-10:
            raise ShapeError("covariance not symmetric within 1e-10")
        self.cov = 0.5 * (self.cov + self.cov.T)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "GaussianStats":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 2:
            raise InputError(
                f"need a [n >= 2, d] sample matrix, got shape {samples.shape}"
            )
        mean = samples.mean(axis=0)
        centered = samples - mean
        cov = centered.T @ centered / (samples.shape[0] - 1)
        return cls(mean, cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^(1/2)).

    The cross term uses Tr sqrt(S_a S_b) = sum sqrt(eig(R S_a R)) with
    R = S_b^(1/2), a symmetric PSD reformulation of the product, so only
    symmetric eigendecompositions are involved; negative eigenvalues from
    roundoff are clamped to zero.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    root_b = _psd_sqrt(b.cov)
    inner = root_b @ a.cov @ root_b
    inner = 0.5 * (inner + inner.T)
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum()
    diff = a.mean - b.mean
    return float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * cross)


def diversity(features: np.ndarray) -> float:
    """Mean pairwise Euclidean distance over all unordered pairs."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise InputError("diversity needs at least two feature vectors")
    n = features.shape[0]
    deltas = features[:, None, :] - features[None, :, :]
    dist = np.linalg.norm(deltas, axis=-1)
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].mean())


def beat_align_score(music_beats, kinematic_beats, sigma: float = BAS_SIGMA) -> float:
    """Mean Gaussian-kernel proximity of each music beat to its nearest
    kinematic beat: (1/|B_m|) sum exp(-min_k (t_m - t_k)^2 / (2 sigma^2)).

    An empty kinematic set scores 0.0 (no dance hits at all); empty music
    beats (undefined mean) and a sigma not finite and > 0 are errors.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise InputError(f"beat alignment sigma must be finite and > 0, got {sigma}")
    music_beats = np.asarray(music_beats, dtype=np.float64).reshape(-1)
    kinematic_beats = np.asarray(kinematic_beats, dtype=np.float64).reshape(-1)
    if music_beats.size == 0:
        raise InputError("beat alignment needs at least one music beat")
    if kinematic_beats.size == 0:
        return 0.0
    gaps = np.abs(music_beats[:, None] - kinematic_beats[None, :]).min(axis=1)
    return float(np.exp(-(gaps ** 2) / (2.0 * sigma * sigma)).mean())


# ---------------------------------------------------------------------------
# Evaluation report file

REPORT_FORMAT = "dancegen-report"
REPORT_VERSION = 1
REPORT_FIELDS = ("fid_k", "fid_g", "div_k", "div_g", "bas", "n_sequences", "config_hash")


def write_report_file(path, report: dict) -> None:
    missing = [f for f in REPORT_FIELDS if f not in report]
    if missing:
        raise FormatError(f"report missing fields: {', '.join(missing)}")
    rows = (f"{field} {report[field]}" for field in REPORT_FIELDS)
    TF.write_text_file(path, REPORT_FORMAT, REPORT_VERSION, {}, rows)


def read_report_file(path) -> dict:
    try:
        _, rows, body_start = TF.read_text_file(path, REPORT_FORMAT, REPORT_VERSION)
    except OSError as e:
        raise FormatError(f"cannot read report {path}: {e}") from None
    report = {}
    for line_no, key, value in TF.keyed_rows(path, rows, body_start):
        if key not in REPORT_FIELDS:
            raise FormatError(f"{path}: line {line_no}: unknown report field {key!r}")
        kind = {"n_sequences": int, "config_hash": str}.get(key, float)
        report[key] = TF.parse_value(path, line_no, kind, value)
    missing = [f for f in REPORT_FIELDS if f not in report]
    if missing:
        raise FormatError(f"{path}: report missing fields: {', '.join(missing)}")
    return report
