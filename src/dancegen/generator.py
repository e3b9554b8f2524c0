"""Stage 2: the genre-routed mixture-of-experts sequence model over codes.

Three token streams (pooled music, upper codes, lower codes) run through a
stack of MoE layers. Each layer holds one expert per genre plus one
always-on shared expert; a hard router picks the genre expert, so every
other genre's weights see exactly zero gradient. An expert applies a
selective-state-space block per stream, then concatenates the streams
along time and runs masked multi-head attention and a feed-forward, all
residual.

The attention mask is the same sliding-window pattern in all nine stream
blocks: row i sees [w(i), i], where the window start w(i) stays 0 for the
first ``autoregressive_step`` rows and afterwards advances in multiples
of ``window_step``.

Every call of ``GadgModel.forward`` runs on a ``GenerationState``: it
takes the rows after the state's position and carries, per Mamba block of
the routed experts, the causal conv's last ``conv_kernel - 1`` input rows
and the scan state h, and per attention module the K/V rows of all three
streams from the window start on. Teacher forcing is the forward from a
fresh state, which ``forward`` makes when given none; generation is a
loop of one-row calls on one state. This is exact, not an approximation:
every stage is causal per row, the window start w(i) depends only on i,
and the scan seeded with the carried h runs the same loop as the full
sequence, so each emitted row equals the matching row of the
teacher-forced forward over the whole prefix.

The selective scan is one tape node that, as in Mamba, stores none of its
[T', d_inner, N] states for training's backward pass: it keeps its inputs
and the seeded state, and its VJP recomputes the rest per block of
channels, with the forward's float ops in the forward's order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .checkpoint import load_model, save_checkpoint
from .codec import DOWNSAMPLE, LatentCodeSequence
from .errors import (
    ConfigError,
    ContractError,
    InputError,
    RoutingError,
    ShapeError,
)
from .music import MUSIC_WIDTH
from .nn import Dropout, Linear, Module, Rng, check_training_ranges, fit
from .tensor import Parameter, Tensor

GENERATOR_BETAS = (0.9, 0.99)


@dataclass
class GadgConfig:
    """Desk-scale defaults. The paper's stack is 512 wide with 16 genres,
    6 layers and a 2048-wide feed-forward; ``music_dim`` and
    ``frames_per_code`` follow the music format and the codec."""

    model_dim: int = 128
    num_genres: int = 4
    num_layers: int = 2
    num_heads: int = 8
    ff_dim: int = 512
    dropout: float = 0.25
    state_dim: int = 16
    conv_kernel: int = 4
    expand: int = 2
    autoregressive_step: int = 22
    window_step: int = 8
    codebook_size: int = 4375
    music_dim: int = MUSIC_WIDTH
    frames_per_code: int = DOWNSAMPLE
    max_positions: int = 256
    head_gain: float = 0.02

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.type == "int"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (np.isfinite(self.head_gain) and self.head_gain > 0):
            raise ConfigError(f"head_gain must be finite and > 0, got {self.head_gain}")
        if self.autoregressive_step < self.window_step:
            raise ConfigError(
                f"autoregressive_step {self.autoregressive_step} must be >= "
                f"window_step {self.window_step}"
            )

    @property
    def dt_rank(self) -> int:
        return max(1, self.model_dim // 16)


@dataclass
class GeneratorTrainConfig:
    steps: int = 3000
    batch_size: int = 4
    lr: float = 3e-4
    seed: int = 0

    def __post_init__(self):
        check_training_ranges(self)


# ---------------------------------------------------------------------------
# Sliding-window attention mask


def row_window(i, a_step: int, s: int):
    """First visible column for row i (an int or an array of rows): 0 until
    a_step, then the window start jumps forward s columns every s rows."""
    return np.where(i < a_step, 0, ((i - a_step) // s + 1) * s)


def build_sliding_mask(t_latent: int, a_step: int, s: int, first: int = 0) -> np.ndarray:
    """Additive mask of {0, -inf} for rows [first, first + T) against
    columns [w(first), first + T): the sliding-window block tiled over all
    nine stream-pair blocks, [3T, 3T] for ``first = 0``. Columns before
    w(first) are left out, as no row from ``first`` on sees them."""
    if t_latent < 1 or a_step < 1 or s < 1 or first < 0:
        raise ContractError(
            f"mask arguments must be >= 1 (first >= 0), got T'={t_latent}, "
            f"a_step={a_step}, s={s}, first={first}"
        )
    i = np.arange(first, first + t_latent)[:, None]
    j = np.arange(row_window(first, a_step, s), first + t_latent)[None, :]
    block = np.where((j <= i) & (j >= row_window(i, a_step, s)), 0.0, -np.inf)
    return np.tile(block, (3, 3))


# ---------------------------------------------------------------------------
# Selective state-space pieces


# Elements of one channel block of the scan's [T', D, N] passes: the
# forward and the VJP each run block by block, so that their temporaries
# stay small. Of 8192 to 49152 elements, 32768 gave the fastest forward
# plus VJP at [30, 256, 16] (68-channel blocks; 49152 was 23 % slower),
# and a call of at most 32768 / N channels, as generation's T' = 1 at
# d_inner 256, runs as one block.
_SCAN_BLOCK_ELEMENTS = 32768


def _scan_block(xr, ar, br, dtr, h0):
    """One channel block of the scan forward: u = dt * a, abar = exp(u),
    phi1(u), dt * b, bbar = dt * b * phi1(u), and the states h of the
    recurrence from ``h0``. The forward and the VJP both call it, so the
    VJP recomputes the forward's arrays bitwise."""
    u = dtr * ar
    abar = np.exp(u)
    phi = T.phi1(u)
    dtb = dtr * br
    bbar = dtb * phi
    return u, abar, phi, dtb, bbar, T._recurrence_loop(abar, bbar * xr, h0)


def selective_scan(x, a_diag, b_seq, c_seq, dt, cache=None):
    """y_t = c_t . h_t with h_t = abar_t h_{t-1} + bbar_t x_t, h_{-1} = 0.

    Shapes: x [T, D], a_diag [D, N], b_seq [T, N], c_seq [T, N], dt [T, D].
    The zero-order-hold discretization of h' = a h + b x with a diagonal
    state matrix gives abar = exp(u) and bbar = dt * b * phi1(u), where
    u = dt * a and phi1(u) = (e^u - 1)/u; dt must be strictly positive.
    The ``cache`` dict carries the scan between calls: its ``"h"`` entry,
    the last state [D, N] of an earlier call, replaces h_{-1} = 0, and this
    call's last state is stored back into it.

    The scan is one tape node, and training, teacher forcing and
    generation all run it; under ``no_grad`` it keeps nothing. Like the
    Mamba scan, it stores no [T, D, N] array for the backward pass: the
    node keeps its five inputs and h_{-1}, and its VJP recomputes u, abar,
    phi1(u), bbar and h. Forward and VJP run per block of channels
    (``_SCAN_BLOCK_ELEMENTS``). The adjoint of the recurrence is the same
    loop backwards in time, lam_t = g_t + abar_{t+1} lam_{t+1}, with
    gdrive = lam and gabar = lam * h_{t-1}. The b and c gradients sum over
    all channels; their [T, D, N] products are filled block by block and
    each reduced once, so every gradient equals the unblocked one bitwise.
    """
    cache = {} if cache is None else cache
    x, a_diag, b_seq, c_seq, dt = (T.wrap(v)[0] for v in (x, a_diag, b_seq, c_seq, dt))
    t_len, d_inner = x.shape
    n = a_diag.shape[-1]
    if t_len < 1:
        raise ShapeError("selective scan needs a nonempty time axis")
    if (dt.data <= 0).any():
        raise ContractError("discretization step dt must be strictly positive")
    h0 = cache.get("h")
    h0 = np.zeros((d_inner, n)) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h0.shape != (d_inner, n):
        raise ShapeError(f"initial state must be {(d_inner, n)}, got {h0.shape}")
    xr = x.data.reshape((t_len, d_inner, 1))
    ar = a_diag.data.reshape((1, d_inner, n))
    br = b_seq.data.reshape((t_len, 1, n))
    cr = c_seq.data.reshape((t_len, 1, n))
    dtr = dt.data.reshape((t_len, d_inner, 1))
    width = max(1, _SCAN_BLOCK_ELEMENTS // (t_len * n))
    blocks = [slice(lo, lo + width) for lo in range(0, d_inner, width)]
    y = np.empty((t_len, d_inner))
    h_last = np.empty((d_inner, n))
    for blk in blocks:
        h = _scan_block(xr[:, blk], ar[:, blk], br, dtr[:, blk], h0[blk])[-1]
        y[:, blk] = (h * cr).sum(axis=-1)
        h_last[blk] = h[-1]
    cache["h"] = h_last

    def vjp(g):
        gx, ga, gdt = np.empty(x.shape), np.empty(a_diag.shape), np.empty(dt.shape)
        gb_full, gc_full = np.empty((t_len, d_inner, n)), np.empty((t_len, d_inner, n))
        for blk in blocks:
            xb, ab, dtrb, h0b = xr[:, blk], ar[:, blk], dtr[:, blk], h0[blk]
            u, abar, phi, dtb, bbar, h = _scan_block(xb, ab, br, dtrb, h0b)
            zero = np.zeros(h0b.shape)
            lam = T._recurrence_loop(np.concatenate([abar[1:], zero[None]])[::-1],
                                     (g[:, blk, None] * cr)[::-1], zero)[::-1]
            g_bbar = lam * xb
            g_dtb = g_bbar * phi
            g_u = g_bbar * dtb * T.phi1(u, abar) + lam * np.concatenate([h0b[None], h[:-1]]) * abar
            gdt[:, blk] = (T._unbroadcast(g_u * ab, dtrb.shape)
                           + T._unbroadcast(g_dtb * br, dtrb.shape))[..., 0]
            gx[:, blk] = T._unbroadcast(lam * bbar, xb.shape)[..., 0]
            ga[blk] = T._unbroadcast(g_u * dtrb, ab.shape)[0]
            np.multiply(g_dtb, dtrb, out=gb_full[:, blk])
            np.multiply(g[:, blk, None], h, out=gc_full[:, blk])
        return (
            gx,
            ga,
            T._unbroadcast(gb_full, br.shape).reshape(b_seq.shape),
            T._unbroadcast(gc_full, cr.shape).reshape(c_seq.shape),
            gdt,
        )

    return T._node(y, (x, a_diag, b_seq, c_seq, dt), vjp)


def _causal_depthwise_conv(x: Tensor, weight: Tensor, bias: Tensor, cache: dict) -> Tensor:
    """Per-channel causal conv along time: out_t = sum_k w_k x_{t-K+1+k}.

    The K-1 rows before x are the ``cache``'s ``"tail"`` of an earlier
    call's input, or zeros in an empty cache; this call's tail is stored
    back.
    """
    t_len, channels = x.shape
    kernel = weight.shape[0]
    padded = T.concat([Tensor(cache.get("tail", np.zeros((kernel - 1, channels)))), x], axis=0)
    cache["tail"] = padded.data[t_len:]
    out = None
    for k in range(kernel):
        term = padded[k:k + t_len] * weight[k]
        out = term if out is None else out + term
    return out + bias


class MambaBlock(Module):
    """Gated selective-SSM block: in-projection, causal depthwise conv,
    input-dependent (dt, B, C), diagonal-A scan, silu gate, out-projection."""

    def __init__(self, cfg: GadgConfig, rng: Rng):
        super().__init__()
        dim = cfg.model_dim
        d_inner = cfg.expand * dim
        n = cfg.state_dim
        self.cfg = cfg
        self.in_proj = Linear(dim, 2 * d_inner, rng.child("in_proj"))
        self.conv_weight = Parameter(
            rng.child("conv_weight").uniform((cfg.conv_kernel, d_inner), -0.5, 0.5)
            / np.sqrt(cfg.conv_kernel)
        )
        self.conv_bias = Parameter(np.zeros(d_inner))
        self.x_proj = Linear(d_inner, cfg.dt_rank + 2 * n, rng.child("x_proj"), bias=False)
        self.dt_proj = Linear(cfg.dt_rank, d_inner, rng.child("dt_proj"))
        # start each channel's step in [1e-3, 1e-1] so exp(dt*a) is neither
        # frozen at 1 nor collapsed to 0
        dt_init = np.exp(rng.child("dt_init").uniform((d_inner,), np.log(1e-3), np.log(1e-1)))
        self.dt_proj.bias.data = np.log(np.expm1(dt_init))
        # a = -exp(a_log) keeps the state matrix strictly negative however
        # a_log moves during training
        self.a_log = Parameter(np.log(np.tile(np.arange(1.0, n + 1.0), (d_inner, 1))))
        self.skip = Parameter(np.ones(d_inner))
        self.out_proj = Linear(d_inner, dim, rng.child("out_proj"))

    def __call__(self, x: Tensor, state: GenerationState) -> Tensor:
        d_inner = self.cfg.expand * self.cfg.model_dim
        n = self.cfg.state_dim
        cache = state.slot(self)
        xz = self.in_proj(x)
        xi, gate = xz[:, :d_inner], xz[:, d_inner:]
        xi = T.silu(_causal_depthwise_conv(xi, self.conv_weight, self.conv_bias, cache))
        proj = self.x_proj(xi)
        r = self.cfg.dt_rank
        dt_in, b_seq, c_seq = proj[:, :r], proj[:, r:r + n], proj[:, r + n:]
        dt = T.softplus(self.dt_proj(dt_in)) + 1e-9
        y = selective_scan(xi, -T.exp(self.a_log), b_seq, c_seq, dt, cache=cache) + self.skip * xi
        return self.out_proj(y * T.silu(gate))


# ---------------------------------------------------------------------------
# Expert blocks and hard routing


class MultiheadAttention(Module):
    def __init__(self, cfg: GadgConfig, rng: Rng):
        super().__init__()
        self.heads = cfg.num_heads
        self.head_dim = cfg.model_dim // cfg.num_heads
        self.qkv = Linear(cfg.model_dim, 3 * cfg.model_dim, rng.child("qkv"))
        self.out = Linear(cfg.model_dim, cfg.model_dim, rng.child("out"))

    def __call__(self, x: Tensor, mask: Tensor, state: GenerationState) -> Tensor:
        length, dim = x.shape
        qkv = self.qkv(x)

        def head_view(start):
            part = qkv[:, start:start + dim]
            return T.transpose(part.reshape((length, self.heads, self.head_dim)), (1, 0, 2))

        q = head_view(0)
        cache = state.slot(self)
        k, v = (self._windowed(cache, name, head_view(start), mask.shape[1] // 3)
                for name, start in (("k", dim), ("v", 2 * dim)))
        # (QK^T + M) / sqrt(C) distributed over the sum: the mask entries are
        # 0 or -inf, both fixed points of the scaling, and keeping the infs
        # out of the product spares the tape from 0 * inf in the backward pass
        scores = q @ T.transpose(k, (0, 2, 1)) * (1.0 / np.sqrt(self.head_dim)) + mask
        weights = T.softmax_lastdim(scores)
        mixed = T.transpose(weights @ v, (1, 0, 2)).reshape((length, dim))
        return self.out(mixed)

    def _windowed(self, cache: dict, name: str, new: Tensor, cols: int) -> Tensor:
        """Per stream, the cached rows the mask's ``cols`` columns still
        show, then this call's rows; the result is stored as the cache."""
        t_len = new.shape[1] // 3
        kept = cache.get(name, [np.zeros((self.heads, 0, self.head_dim))] * 3)
        parts = []
        for s, old in enumerate(kept):
            parts += [Tensor(old[:, old.shape[1] - (cols - t_len):]), new[:, s * t_len:(s + 1) * t_len]]
        out = T.concat(parts, axis=1)
        cache[name] = np.split(out.data, 3, axis=1)
        return out


class Expert(Module):
    """One expert: per-stream SSM blocks, then joint masked attention and a
    feed-forward over the concatenated streams, every stage residual."""

    def __init__(self, cfg: GadgConfig, rng: Rng):
        super().__init__()
        self.music_mamba = MambaBlock(cfg, rng.child("music_mamba"))
        self.upper_mamba = MambaBlock(cfg, rng.child("upper_mamba"))
        self.lower_mamba = MambaBlock(cfg, rng.child("lower_mamba"))
        self.attn = MultiheadAttention(cfg, rng.child("attn"))
        self.ff_in = Linear(cfg.model_dim, cfg.ff_dim, rng.child("ff_in"))
        self.ff_out = Linear(cfg.ff_dim, cfg.model_dim, rng.child("ff_out"))
        self.drop_mid = Dropout(cfg.dropout, rng.child("drop_mid"))
        self.drop_out = Dropout(cfg.dropout, rng.child("drop_out"))

    def __call__(self, streams, mask: Tensor, state: GenerationState):
        music, upper, lower = streams
        t_len = music.shape[0]
        music = music + self.music_mamba(music, state)
        upper = upper + self.upper_mamba(upper, state)
        lower = lower + self.lower_mamba(lower, state)
        x = T.concat([music, upper, lower], axis=0)
        x = x + self.attn(x, mask, state)
        x = x + self.drop_out(self.ff_out(self.drop_mid(T.relu(self.ff_in(x)))))
        return x[:t_len], x[t_len:2 * t_len], x[2 * t_len:]


class MoeLayer(Module):
    """Hard routing: genre expert + shared expert, each contributing its
    residual delta once. Output = spec(x) + shared(x) - x."""

    def __init__(self, cfg: GadgConfig, rng: Rng):
        super().__init__()
        self.specialized = [Expert(cfg, rng.child(f"specialized{g}")) for g in range(cfg.num_genres)]
        self.universal = Expert(cfg, rng.child("universal"))

    def __call__(self, streams, genre_id: int, mask: Tensor, state: GenerationState):
        spec = self.specialized[genre_id](streams, mask, state)
        shared = self.universal(streams, mask, state)
        return tuple(s + u - x for s, u, x in zip(spec, shared, streams))


# ---------------------------------------------------------------------------
# Full model


class GenerationState:
    """What ``GadgModel.forward`` carries from one call to the next: the
    absolute position of the next row, the genre it was started with, and
    one cache dict per Mamba block and attention module that ran (the
    routed experts only). A forward given no state runs on a fresh one, so
    teacher forcing is the same code as generation. The caches hold values,
    not tape, so no gradient flows into a state.
    """

    def __init__(self):
        self.position = 0
        self.genre_id = None
        self.slots: dict = {}

    def slot(self, module: Module) -> dict:
        return self.slots.setdefault(module, {})


class GadgModel(Module):
    """Code/genre/position/stream embeddings, MoE stack, two output heads.

    Code tables carry one extra row (index = codebook_size) used as the
    start token when no previous code exists.
    """

    def __init__(self, cfg: GadgConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = Rng(seed).child("gadg")
        k, dim = cfg.codebook_size, cfg.model_dim
        self.upper_table = Parameter(rng.child("upper_table").normal((k + 1, dim), 0.02))
        self.lower_table = Parameter(rng.child("lower_table").normal((k + 1, dim), 0.02))
        self.genre_table = Parameter(rng.child("genre_table").normal((cfg.num_genres, dim), 0.02))
        self.pos_table = Parameter(rng.child("pos_table").normal((cfg.max_positions, dim), 0.02))
        self.stream_table = Parameter(rng.child("stream_table").normal((3, dim), 0.02))
        self.music_in = Linear(cfg.music_dim, dim, rng.child("music_in"))
        self.music_out = Linear(dim, dim, rng.child("music_out"))
        self.layers = [MoeLayer(cfg, rng.child(f"layer{i}")) for i in range(cfg.num_layers)]
        # near-zero heads put the initial logits close to uniform
        self.upper_head = Linear(dim, k, rng.child("upper_head"), gain=cfg.head_gain)
        self.lower_head = Linear(dim, k, rng.child("lower_head"), gain=cfg.head_gain)

    @property
    def start_token(self) -> int:
        return self.cfg.codebook_size

    def forward(self, music_pooled, genre_id: int, upper_in: np.ndarray, lower_in: np.ndarray,
                state: GenerationState | None = None):
        """Logits ([T', k], [T', k]) for the next upper/lower codes.

        music_pooled is [T', music_dim] (one row per code step); upper_in
        and lower_in are the shifted input codes, start token first.

        Without a ``state`` this is the teacher-forced forward over rows
        [0, T'), run on a fresh state. With one (eval mode only) the inputs
        are the rows at positions [p, p + T') after the p rows of earlier
        calls on that state, and the logits equal those rows of the forward
        over all p + T' rows; the state advances by T'.
        """
        cfg = self.cfg
        if not 0 <= genre_id < cfg.num_genres:
            raise RoutingError(f"genre id {genre_id} outside [0, {cfg.num_genres})")
        if state is None:
            state = GenerationState()
        elif self.training:
            raise ContractError("a generation state needs eval mode; training runs whole sequences")
        if state.genre_id not in (None, genre_id):
            raise ContractError(f"state was started with genre {state.genre_id}, not {genre_id}")
        state.genre_id = genre_id
        first = state.position
        music, _ = T.wrap(music_pooled)
        upper_in = np.asarray(upper_in, dtype=np.int64)
        lower_in = np.asarray(lower_in, dtype=np.int64)
        t_len = upper_in.shape[0]
        if music.shape != (t_len, cfg.music_dim):
            raise ShapeError(
                f"music stream must be [{t_len}, {cfg.music_dim}], got {music.shape}"
            )
        if lower_in.shape != (t_len,):
            raise ShapeError("upper/lower input code lengths differ")
        if first + t_len > cfg.max_positions:
            raise ShapeError(
                f"sequence length {first + t_len} exceeds positional table {cfg.max_positions}"
            )
        pos = T.embedding(self.pos_table, np.arange(first, first + t_len))
        music = (self.music_out(T.relu(self.music_in(music))) + self.genre_table[genre_id]
                 + pos + self.stream_table[0])
        upper = T.embedding(self.upper_table, upper_in) + pos + self.stream_table[1]
        lower = T.embedding(self.lower_table, lower_in) + pos + self.stream_table[2]

        # a state keeps no K/V row before the first row's window start
        mask = Tensor(build_sliding_mask(t_len, cfg.autoregressive_step, cfg.window_step, first))
        streams = (music, upper, lower)
        for layer in self.layers:
            streams = layer(streams, genre_id, mask, state)
        state.position += t_len
        return self.upper_head(streams[1]), self.lower_head(streams[2])


# ---------------------------------------------------------------------------
# Losses and training


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level CE; the max-shift is detached so it only stabilizes."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:1]:
        raise ShapeError(f"{targets.shape} targets for {logits.shape[0]} logit rows")
    k = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise ShapeError(f"targets outside [0, {k})")
    shifted = logits - Tensor(logits.data.max(axis=-1, keepdims=True))
    lse = T.log(T.reduce_sum(T.exp(shifted), axis=-1))
    picked = shifted[np.arange(targets.size), targets]
    return T.reduce_mean(lse - picked)


def pool_music(frames: np.ndarray, window: int) -> np.ndarray:
    """Average music features over each window of frames: [T, F] -> [T/w, F]."""
    frames = np.asarray(frames, dtype=np.float64)
    t_len = frames.shape[0]
    if t_len % window != 0:
        raise ShapeError(f"music length {t_len} not divisible by pool window {window}")
    return frames.reshape(t_len // window, window, frames.shape[1]).mean(axis=1)


def shifted_inputs(codes: LatentCodeSequence, start_token: int):
    upper = np.concatenate([[start_token], codes.upper[:-1]])
    lower = np.concatenate([[start_token], codes.lower[:-1]])
    return upper, lower


def teacher_forced_loss(model: GadgModel, music_pooled, genre_id: int,
                        codes: LatentCodeSequence) -> Tensor:
    """CE of each position's logits against the next code, both body parts."""
    upper_in, lower_in = shifted_inputs(codes, model.start_token)
    logits_u, logits_l = model.forward(music_pooled, genre_id, upper_in, lower_in)
    return cross_entropy(logits_u, codes.upper) + cross_entropy(logits_l, codes.lower)


def train_generator(dataset, cfg: GadgConfig | None = None,
                    train_cfg: GeneratorTrainConfig | None = None):
    """Teacher-forced training on (music, genre_id, codes) triples.

    Music may be a MusicFeatureSequence or a raw [T, 35] array; it is
    average-pooled to one row per code step. Each sequence of a batch is
    one part of ``nn.fit``'s step loss, in batch order. Returns (model,
    loss log).
    """
    cfg = cfg or GadgConfig()
    train_cfg = train_cfg or GeneratorTrainConfig()
    if not dataset:
        raise InputError("generator training needs at least one sequence")

    prepared = []
    for i, (music, genre_id, codes) in enumerate(dataset):
        if not 0 <= genre_id < cfg.num_genres:
            raise RoutingError(f"sequence {i}: genre id {genre_id} outside [0, {cfg.num_genres})")
        pooled = pool_music(getattr(music, "frames", music), cfg.frames_per_code)
        if pooled.shape != (codes.latent_len, cfg.music_dim):
            raise ShapeError(f"sequence {i}: music pools to {list(pooled.shape)}, but its codes "
                             f"and the model need [{codes.latent_len}, {cfg.music_dim}]")
        if codes.latent_len > cfg.max_positions:
            raise ShapeError(f"sequence {i}: {codes.latent_len} code steps exceed "
                             f"the positional table {cfg.max_positions}")
        if codes.codebook_size != cfg.codebook_size:
            raise ConfigError(
                f"codes use a {codes.codebook_size}-way codebook, model expects {cfg.codebook_size}"
            )
        prepared.append((pooled, int(genre_id), codes))

    model = GadgModel(cfg, seed=train_cfg.seed)

    def batch_loss(idx):
        return [lambda i=i: teacher_forced_loss(model, *prepared[i]) for i in idx]

    return model, fit(model, train_cfg, GENERATOR_BETAS, len(prepared), batch_loss,
                      np.random.default_rng(train_cfg.seed), GENERATOR_STAGE)


# ---------------------------------------------------------------------------
# Generation


def _sample_code(logits: np.ndarray, rng, top_k, temperature: float) -> int:
    if top_k is None:
        return int(np.argmax(logits))
    kept = np.argsort(logits)[::-1][:top_k]
    scaled = logits[kept] / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(kept, p=probs))


def generate(model: GadgModel, music_frames: np.ndarray, genre_id: int,
             duration_frames: int, top_k: int | None = None,
             temperature: float = 1.0, seed: int = 0) -> LatentCodeSequence:
    """Emit codes for ``duration_frames`` of motion.

    Each step feeds one row (the pooled music of that step and the codes
    just emitted, start token first) to a recurrent ``forward`` on one
    ``GenerationState`` and samples the next upper and lower code from its
    logits. The state holds, per routed Mamba block, the conv tail and the
    scan state h, and per attention module the K/V rows inside the sliding
    window, so a step costs one row however long the clip. Every stage is
    causal per row and the window start depends only on the row, so the
    logits are those of the teacher-forced forward over the whole prefix
    under the training mask: the first ``autoregressive_step`` codes see
    everything before them, later ones a window that slides in
    ``window_step`` chunks. Argmax by default; ``top_k`` switches to
    seeded categorical sampling at ``temperature``, which must be finite
    and positive, from a ``seed`` that must be >= 0.
    """
    cfg = model.cfg
    if duration_frames <= 0:
        raise InputError("duration must be positive; nothing to generate")
    if duration_frames % cfg.frames_per_code != 0:
        raise InputError(
            f"duration {duration_frames} is not a multiple of {cfg.frames_per_code} frames per code"
        )
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if top_k is not None and top_k < 1:
        raise InputError(f"top_k must be >= 1, got {top_k}")
    if not (np.isfinite(temperature) and temperature > 0):
        raise InputError(f"temperature must be finite and > 0, got {temperature}")
    t_target = duration_frames // cfg.frames_per_code
    if t_target > cfg.max_positions:
        raise InputError(
            f"{t_target} code steps exceed the model's positional range {cfg.max_positions}"
        )
    frames = np.asarray(getattr(music_frames, "frames", music_frames), dtype=np.float64)
    if frames.shape[0] < duration_frames:
        raise ShapeError(
            f"music covers {frames.shape[0]} frames, need {duration_frames}"
        )
    pooled = pool_music(frames[:duration_frames], cfg.frames_per_code)

    was_training = model.training
    model.eval()
    rng = np.random.default_rng(seed)
    state = GenerationState()
    upper = [model.start_token]
    lower = [model.start_token]
    try:
        with T.no_grad():
            for n in range(t_target):
                logits_u, logits_l = model.forward(pooled[n:n + 1], genre_id, upper[-1:],
                                                   lower[-1:], state)
                upper.append(_sample_code(logits_u.data[0], rng, top_k, temperature))
                lower.append(_sample_code(logits_l.data[0], rng, top_k, temperature))
    finally:
        model.train(was_training)
    return LatentCodeSequence(np.array(upper[1:]), np.array(lower[1:]), cfg.codebook_size)


# ---------------------------------------------------------------------------
# Checkpoint plumbing

GENERATOR_STAGE = "generator"


def save_generator(path, model: GadgModel) -> None:
    save_checkpoint(path, GENERATOR_STAGE, asdict(model.cfg), model.named_parameters())


def load_generator(path) -> GadgModel:
    return load_model(path, GENERATOR_STAGE, GadgConfig, GadgModel)
