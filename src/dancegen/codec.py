"""Stage 1: the two-branch motion codec with finite scalar quantization.

Upper and lower body streams are encoded separately. Each branch is a
three-layer strided 1D CNN (temporal downsample 8x) plus a two-layer MLP
down to a 5-channel latent; quantization snaps each channel onto a fixed
per-channel grid (levels [7, 5, 5, 5, 5], 4375 cells) with a
straight-through gradient; the decoder mirrors the encoder with a
two-layer MLP and three transposed convolutions.

There is no learned codebook: a code is just the mixed-radix packing of
the per-channel levels, so encode/decode of indices is a pure bijection.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import motion as MO
from . import tensor as T
from . import textfile as TF
from .checkpoint import load_model, save_checkpoint
from .errors import ConfigError, FormatError, InputError, OutOfRangeError, ShapeError
from .music import random_motion_clip
from .nn import Linear, Module, Rng, check_training_ranges, fan_in_uniform, fit
from .tensor import Parameter, Tensor

KERNEL_SIZE = 4
REFINE_KERNEL = 5
DOWNSAMPLE = 8
CODEC_BETAS = (0.5, 0.99)


@dataclass
class FsqConfig:
    """Quantizer grid and codec width.

    Defaults are desk scale; the paper's codec is 512 features wide on the
    same grid.
    """

    levels: tuple = (7, 5, 5, 5, 5)
    feature_dim: int = 64

    def __post_init__(self):
        self.levels = tuple(self.levels)
        if not self.levels or any(v < 2 for v in self.levels):
            raise ConfigError(f"levels must be a nonempty list of integers >= 2, got {list(self.levels)}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be a positive integer, got {self.feature_dim!r}")

    @property
    def latent_dim(self) -> int:
        return len(self.levels)

    @property
    def codebook_size(self) -> int:
        return int(np.prod(self.levels))


@dataclass
class LossConfig:
    """Weights for the value/velocity/acceleration reconstruction terms."""

    velocity_weight: float = 0.5
    accel_weight: float = 0.25

    def __post_init__(self):
        for name in ("velocity_weight", "accel_weight"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class CodecTrainConfig:
    steps: int = 2000
    batch_size: int = 8
    lr: float = 1e-3
    seed: int = 0
    # Extra unstructured clips mixed into training to widen the code
    # distribution; drawn deterministically from the seed.
    noise_clips: int = 0

    def __post_init__(self):
        check_training_ranges(self)
        if self.noise_clips < 0:
            raise ConfigError(f"noise_clips must be >= 0, got {self.noise_clips}")


# ---------------------------------------------------------------------------
# Quantizer


def fsq_quantize(z: Tensor, levels: tuple):
    """Snap each latent channel onto its grid.

    Channel i is bounded to (0, L_i - 1) by a scaled sigmoid and rounded to
    the nearest integer level. The forward value is the level; the backward
    gradient is that of the bounded (pre-rounding) path, i.e. the rounding
    step is a straight-through identity. Returns (quantized Tensor,
    integer levels ndarray).
    """
    levels = np.asarray(levels, dtype=np.float64)
    if z.shape[-1] != levels.shape[0]:
        raise ShapeError(f"latent width {z.shape[-1]} != level count {levels.shape[0]}")
    span = Tensor(levels - 1.0)
    bounded = T.sigmoid(z) * span
    ints = np.round(bounded.data)
    quant = bounded + Tensor(ints - bounded.data)
    return quant, ints.astype(np.int64)


def normalize_levels(quant: Tensor, levels: tuple) -> Tensor:
    """Map level values from [0, L-1] onto [-1, 1] for the decoder."""
    span = np.asarray(levels, dtype=np.float64) - 1.0
    return quant * Tensor(2.0 / span) - 1.0


def levels_to_index(level_rows: np.ndarray, levels: tuple) -> np.ndarray:
    """Mixed-radix packing: index = sum_i level_i * prod_{j>i} L_j."""
    levels = tuple(int(v) for v in levels)
    rows = np.asarray(level_rows, dtype=np.int64)
    if rows.shape[-1] != len(levels):
        raise ShapeError(f"level rows end in {rows.shape[-1]}, expected {len(levels)}")
    if (rows < 0).any() or (rows >= levels).any():
        raise OutOfRangeError(f"levels outside their ranges {levels}")
    return np.ravel_multi_index(np.moveaxis(rows, -1, 0), levels)


def index_to_levels(indices: np.ndarray, levels: tuple) -> np.ndarray:
    """Inverse mixed-radix unpacking."""
    levels = tuple(int(v) for v in levels)
    idx = np.asarray(indices, dtype=np.int64)
    k = int(np.prod(levels))
    if (idx < 0).any() or (idx >= k).any():
        raise OutOfRangeError(f"code index outside [0, {k})")
    return np.stack(np.unravel_index(idx, levels), axis=-1)


def codebook_utilization(code_arrays, codebook_size: int) -> float:
    """Fraction of the code grid observed across the given index arrays."""
    seen = set()
    for arr in code_arrays:
        seen.update(np.unique(np.asarray(arr)).tolist())
    return len(seen) / float(codebook_size)


# ---------------------------------------------------------------------------
# Networks


NS_ITERS = 16  # Newton-Schulz sweeps for the whitening inverse sqrt


def _inverse_sqrt_psd(cov: Tensor, dim: int) -> Tensor:
    """Differentiable inverse matrix square root of a small PSD matrix.

    Coupled Newton-Schulz iteration on the trace-normalized matrix; only
    matmuls, so gradients flow without a dedicated eigendecomposition op.
    Trace normalization puts every eigenvalue in (0, 1], inside the
    iteration's convergence region.
    """
    eye = Tensor(np.eye(dim))
    trace = T.reduce_sum(cov * eye, axis=(-2, -1), keepdims=True)
    y = cov / trace
    z = eye
    for _ in range(NS_ITERS):
        mid = (eye * 3.0 - T.matmul(z, y)) * 0.5
        y = T.matmul(y, mid)
        z = T.matmul(mid, z)
    return z / T.sqrt(trace)


class ConvEncoder(Module):
    """Three stride-2 convolutions then a two-channel-mixing MLP to the latent.

    The latent is whitened per clip over its latent steps (zero mean,
    identity covariance) and rescaled by a learned gain (init 2.0). The
    scale part is load-bearing: the raw network output is far too small to
    leave the central quantizer cell, every chunk collapses onto one code,
    and training stalls in a consensus trap; with it the pre-sigmoid spread
    covers all levels from step zero and can never saturate. The rotation
    part decorrelates the channels, which is what keeps the product grid
    filled: correlated channels would concentrate mass near a diagonal and
    leave most level combinations unreachable no matter how much data is
    encoded. A one-step clip degenerates to the middle code.
    """

    def __init__(self, width: int, cfg: FsqConfig, rng: Rng):
        super().__init__()
        f = cfg.feature_dim
        self.convs = [
            _conv_params(rng.child(f"conv{i}"), KERNEL_SIZE, cin, cout)
            for i, (cin, cout) in enumerate([(width, f), (f, f), (f, f)])
        ]
        self.mlp_hidden = Linear(f, f, rng.child("mlp_hidden"))
        self.mlp_out = Linear(f, cfg.latent_dim, rng.child("mlp_out"))
        self.prequant_gain = Parameter(np.full(cfg.latent_dim, 2.0))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-2] % DOWNSAMPLE != 0:
            raise ShapeError(
                f"encoder input length {x.shape[-2]} not divisible by {DOWNSAMPLE}; caller must pad"
            )
        for w, b in self.convs:
            x = T.relu(T.conv1d(x, w, stride=2) + b)
        x = T.relu(self.mlp_hidden(x))
        z = self.mlp_out(x)
        mean = T.reduce_mean(z, axis=-2, keepdims=True)
        zc = z - mean
        dim = zc.shape[-1]
        perm = tuple(range(zc.ndim - 2)) + (zc.ndim - 1, zc.ndim - 2)
        cov = T.matmul(T.transpose(zc, perm), zc) * (1.0 / zc.shape[-2])
        diag_mean = T.reduce_sum(cov * Tensor(np.eye(dim)), axis=(-2, -1), keepdims=True) * (1.0 / dim)
        cov = cov + Tensor(np.eye(dim)) * (diag_mean * 1e-3 + 1e-8)
        return T.matmul(zc, _inverse_sqrt_psd(cov, dim)) * self.prequant_gain


class ConvDecoder(Module):
    """Two-layer MLP, three stride-2 transposed convolutions, then a
    residual refinement pair at full frame rate, rendering the frame
    columns ``cols`` of one body part.

    The transposed convolutions only give each output frame two taps per
    layer, which is too coarse to render smooth within-chunk trajectories;
    the stride-1 refinement convs add that detail. Their last layer is
    zero-initialised so the decoder starts exactly at the rest frame on
    ``cols``: decoded frames must be valid rotation data from step zero,
    since the training loss runs kinematics on them and degenerate 6D
    columns are a hard error rather than something the chain repairs.
    """

    def __init__(self, cols: np.ndarray, cfg: FsqConfig, rng: Rng):
        super().__init__()
        f = cfg.feature_dim
        width = len(cols)
        self.mlp_in = Linear(cfg.latent_dim, f, rng.child("mlp_in"))
        self.mlp_hidden = Linear(f, f, rng.child("mlp_hidden"))
        self.tconvs = [
            _conv_params(
                rng.child(f"tconv{i}"), KERNEL_SIZE, cin, cout,
                gain=0.5 if i == 2 else 1.0,
            )
            for i, (cin, cout) in enumerate([(f, f), (f, f), (f, width)])
        ]
        self.tconvs[-1][1].data = MO.REST_FRAME[cols]
        self.refine = [
            _conv_params(rng.child("refine0"), REFINE_KERNEL, width, f),
            _conv_params(rng.child("refine1"), REFINE_KERNEL, f, width, gain=0.0),
        ]

    def __call__(self, z: Tensor) -> Tensor:
        x = T.relu(self.mlp_in(z))
        x = T.relu(self.mlp_hidden(x))
        for i, (w, b) in enumerate(self.tconvs):
            x = T.conv1d_transpose(x, w, stride=2) + b
            if i < len(self.tconvs) - 1:
                x = T.relu(x)
        (w0, b0), (w1, b1) = self.refine
        r = T.relu(T.conv1d(x, w0) + b0)
        return x + (T.conv1d(r, w1) + b1)


def _conv_params(rng: Rng, kernel: int, cin: int, cout: int, gain: float = 1.0):
    w = Parameter(fan_in_uniform(rng.child("weight"), (kernel, cin, cout), kernel * cin, gain))
    b = Parameter(np.zeros(cout))
    return w, b


class CodecModel(Module):
    """Both body-part branches plus the shared quantizer grid."""

    def __init__(self, cfg: FsqConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = Rng(seed).child("codec")
        self.upper_encoder = ConvEncoder(MO.UPPER_COLS.size, cfg, rng.child("upper_encoder"))
        self.upper_decoder = ConvDecoder(MO.UPPER_COLS, cfg, rng.child("upper_decoder"))
        self.lower_encoder = ConvEncoder(MO.LOWER_COLS.size, cfg, rng.child("lower_encoder"))
        self.lower_decoder = ConvDecoder(MO.LOWER_COLS, cfg, rng.child("lower_decoder"))

    def _quantize(self, frames: Tensor):
        """Frames -> ((upper, lower) quantized levels, (upper, lower) integer levels)."""
        upper, lower = MO.split_body(frames)
        qu, cu = fsq_quantize(self.upper_encoder(upper), self.cfg.levels)
        ql, cl = fsq_quantize(self.lower_encoder(lower), self.cfg.levels)
        return (qu, ql), (cu, cl)

    def _render(self, qu: Tensor, ql: Tensor) -> Tensor:
        """Quantized levels of both branches -> merged frames."""
        upper_hat = self.upper_decoder(normalize_levels(qu, self.cfg.levels))
        lower_hat = self.lower_decoder(normalize_levels(ql, self.cfg.levels))
        return MO.merge_body(upper_hat, lower_hat)

    def reconstruct(self, frames: Tensor):
        """Full differentiable pass; returns (frames_hat, upper codes, lower codes)."""
        (qu, ql), (cu, cl) = self._quantize(frames)
        return self._render(qu, ql), cu, cl

    def encode(self, frames: np.ndarray) -> "LatentCodeSequence":
        with T.no_grad():
            _, (cu, cl) = self._quantize(Tensor(frames))
        return LatentCodeSequence(
            upper=levels_to_index(cu, self.cfg.levels),
            lower=levels_to_index(cl, self.cfg.levels),
            codebook_size=self.cfg.codebook_size,
        )

    def decode(self, codes: "LatentCodeSequence") -> np.ndarray:
        if codes.codebook_size != self.cfg.codebook_size:
            raise ConfigError(
                f"codes use a {codes.codebook_size}-cell grid, codec has {self.cfg.codebook_size}"
            )
        qu, ql = (Tensor(index_to_levels(c, self.cfg.levels).astype(np.float64))
                  for c in (codes.upper, codes.lower))
        with T.no_grad():
            return self._render(qu, ql).data


# ---------------------------------------------------------------------------
# Latent code sequences and their file format


@dataclass
class LatentCodeSequence:
    upper: np.ndarray
    lower: np.ndarray
    codebook_size: int

    def __post_init__(self):
        self.upper = np.asarray(self.upper, dtype=np.int64)
        self.lower = np.asarray(self.lower, dtype=np.int64)
        if self.upper.shape != self.lower.shape or self.upper.ndim != 1:
            raise ShapeError(
                f"code streams must be 1-d and equal length, got {self.upper.shape} / {self.lower.shape}"
            )
        for name, arr in (("upper", self.upper), ("lower", self.lower)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.codebook_size):
                raise OutOfRangeError(
                    f"{name} codes outside [0, {self.codebook_size})"
                )

    @property
    def latent_len(self) -> int:
        return self.upper.shape[0]


CODES_FORMAT = "dancegen-codes"
CODES_VERSION = 1


def write_codes_file(path, codes: LatentCodeSequence) -> None:
    header = {"latent_len": codes.latent_len, "codebook_size": codes.codebook_size}
    rows = [name + " " + " ".join(str(int(c)) for c in stream)
            for name, stream in (("upper", codes.upper), ("lower", codes.lower))]
    TF.write_text_file(path, CODES_FORMAT, CODES_VERSION, header, rows)


def read_codes_file(path) -> LatentCodeSequence:
    (latent_len, k), rows, body_start = TF.read_text_file(
        path, CODES_FORMAT, CODES_VERSION, ("latent_len", "codebook_size")
    )
    if latent_len < 1:
        raise FormatError(f"{path}: latent_len must be >= 1, got {latent_len}")
    streams = {}
    for line_no, label, rest in TF.keyed_rows(path, rows, body_start):
        values = rest.split()
        if label not in ("upper", "lower"):
            raise FormatError(f"{path}: line {line_no}: unknown stream {label!r}")
        if len(values) != latent_len:
            raise FormatError(f"{path}: line {line_no}: expected {latent_len} codes, got {len(values)}")
        streams[label] = np.array(
            [TF.parse_value(path, line_no, int, v) for v in values], dtype=np.int64
        )
    if set(streams) != {"upper", "lower"}:
        raise FormatError(f"{path}: needs exactly one 'upper' and one 'lower' stream")
    try:
        return LatentCodeSequence(streams["upper"], streams["lower"], k)
    except OutOfRangeError as e:
        raise FormatError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Loss and training


def reconstruction_loss(
    frames_hat: Tensor,
    frames: Tensor,
    joints_hat: Tensor,
    joints: Tensor,
    cfg: LossConfig,
) -> Tensor:
    """L1 on values, velocities, and accelerations, on both the rotation
    representation and the joint positions; all terms mean-reduced."""

    def track(a, b):
        loss = T.l1_distance(a, b)
        loss = loss + cfg.velocity_weight * T.l1_distance(
            MO.finite_difference(a, 1), MO.finite_difference(b, 1)
        )
        loss = loss + cfg.accel_weight * T.l1_distance(
            MO.finite_difference(a, 2), MO.finite_difference(b, 2)
        )
        return loss

    return track(frames_hat, frames) + track(joints_hat, joints)


def _flatten_joints(positions):  # a Tensor or an array, [..., 24, 3] -> [..., 72]
    shape = positions.shape
    return positions.reshape(shape[:-2] + (shape[-2] * shape[-1],))


def train_codec(
    clips,
    cfg: FsqConfig | None = None,
    loss_cfg: LossConfig | None = None,
    train_cfg: CodecTrainConfig | None = None,
):
    """Train the codec on a list of [T, 147] clips; returns (model, loss log).

    Ground-truth joint positions are precomputed once per clip. The loss
    of each step of ``nn.fit`` is one part: the differentiable reconstruct
    pass on the whole batch and its forward kinematics into the
    reconstruction loss.
    """
    cfg = cfg or FsqConfig()
    loss_cfg = loss_cfg or LossConfig()
    train_cfg = train_cfg or CodecTrainConfig()

    clips = [np.asarray(c.frames if isinstance(c, MO.MotionSequence) else c) for c in clips]
    if not clips:
        raise InputError("codec training needs at least one clip")
    lengths = {c.shape[0] for c in clips}
    if len(lengths) != 1:
        raise ShapeError(f"all training clips must share one length, got {sorted(lengths)}")

    rng = np.random.default_rng(train_cfg.seed)
    t_len = clips[0].shape[0]
    clips += [random_motion_clip(rng, t_len).frames for _ in range(train_cfg.noise_clips)]
    stack = np.stack(clips)  # [N, T, 147]
    joints_flat = _flatten_joints(MO.forward_kinematics(stack))
    model = CodecModel(cfg, seed=train_cfg.seed)

    def batch_loss(idx):
        def loss():
            frames = Tensor(stack[idx])
            frames_hat, _, _ = model.reconstruct(frames)
            joints_hat = _flatten_joints(MO.forward_kinematics(frames_hat))
            return reconstruction_loss(frames_hat, frames, joints_hat, Tensor(joints_flat[idx]), loss_cfg)

        return [loss]

    return model, fit(model, train_cfg, CODEC_BETAS, stack.shape[0], batch_loss, rng, CODEC_STAGE)


# ---------------------------------------------------------------------------
# Checkpoint plumbing

CODEC_STAGE = "codec"


def save_codec(path, model: CodecModel) -> None:
    save_checkpoint(path, CODEC_STAGE, asdict(model.cfg), model.named_parameters())


def load_codec(path) -> CodecModel:
    return load_model(path, CODEC_STAGE, FsqConfig, CodecModel)
