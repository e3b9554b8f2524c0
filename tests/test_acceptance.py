"""Acceptance gate: one test per shipping criterion, each at its stated
tolerance and runtime budget.

Every test runs inside a ``criterion`` block that records a PASS/FAIL line
(printed in the terminal summary). Trained-model fixtures are module
scoped so each expensive training run happens exactly once per session.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import dancegen.motion as MO
import dancegen.tensor as T
from dancegen.cli import main as cli_main
from dancegen.codec import (
    CodecTrainConfig,
    FsqConfig,
    LatentCodeSequence,
    LossConfig,
    codebook_utilization,
    fsq_quantize,
    index_to_levels,
    levels_to_index,
    train_codec,
)
from dancegen.generator import (
    GadgConfig,
    GadgModel,
    GeneratorTrainConfig,
    build_sliding_mask,
    pool_music,
    row_window,
    selective_scan,
    teacher_forced_loss,
    train_generator,
)
from dancegen.metrics import GaussianStats, beat_align_score, frechet_distance
from dancegen.motion import forward_kinematics, read_motion_file, rot6d_to_matrix
from dancegen.music import SyntheticPairConfig, random_motion_clip, synthesize_pair
from dancegen.tensor import Tensor, backward
from gradcheck import check_gradients
from scan_oracle import mamba_discretize

LEVELS = (7, 5, 5, 5, 5)
CODEBOOK = 4375


@contextmanager
def criterion(log, num: int, desc: str):
    info = {"detail": ""}
    try:
        yield info
    except BaseException as e:
        detail = info["detail"] or str(e).splitlines()[0][:120]
        log.append((num, desc, "FAIL", detail))
        raise
    log.append((num, desc, "PASS", info["detail"]))


# ---------------------------------------------------------------------------
# Trained fixtures


@pytest.fixture(scope="module")
def diverse_codec():
    """Codec trained on four synthetic dances plus four noise clips."""
    t0 = time.monotonic()
    clips = []
    for g in range(4):
        _, clip = synthesize_pair(SyntheticPairConfig(seed=10 + g, clip_frames=240), g)
        clips.append(clip)
    model, losses = train_codec(
        clips,
        FsqConfig(feature_dim=64),
        LossConfig(),
        CodecTrainConfig(steps=400, batch_size=4, lr=1e-3, seed=0, noise_clips=4),
    )
    return {"model": model, "losses": losses, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def overfit_codec():
    """Codec overfit to a single 240-frame clip."""
    t0 = time.monotonic()
    _, clip = synthesize_pair(SyntheticPairConfig(seed=3, clip_frames=240), genre_id=2)
    model, losses = train_codec(
        [clip],
        FsqConfig(feature_dim=64),
        LossConfig(),
        CodecTrainConfig(steps=1200, batch_size=1, lr=1e-3, seed=0),
    )
    rec = model.decode(model.encode(clip.frames))
    mse = float(np.mean((forward_kinematics(rec) - forward_kinematics(clip.frames)) ** 2))
    return {
        "model": model, "losses": losses, "clip": clip, "mse": mse,
        "steps": 1200, "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def overfit_generator():
    """Full-size generator overfit to one random 30-step code sequence."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    music = rng.standard_normal((240, 35))
    codes = LatentCodeSequence(
        upper=rng.integers(0, CODEBOOK, size=30),
        lower=rng.integers(0, CODEBOOK, size=30),
        codebook_size=CODEBOOK,
    )
    cfg = GadgConfig()
    pooled = pool_music(music, cfg.frames_per_code)
    init_ce = teacher_forced_loss(GadgModel(cfg, seed=0).eval(), pooled, 1, codes).item() / 2
    model, losses = train_generator(
        [(music, 1, codes)], cfg,
        GeneratorTrainConfig(steps=300, batch_size=1, lr=1e-3, seed=0),
    )
    model.eval()
    final_ce = teacher_forced_loss(model, pooled, 1, codes).item() / 2
    return {
        "init_ce": init_ce, "final_ce": final_ce, "steps": 300,
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end pipeline built through the CLI: data + both stages."""
    root = tmp_path_factory.mktemp("pipeline")
    t0 = time.monotonic()
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "hfdq": {"steps": 120, "batch_size": 2, "feature_dim": 32},
        "gadg": {"model_dim": 32, "num_heads": 4, "num_layers": 1, "ff_dim": 64,
                 "state_dim": 4, "num_genres": 2, "steps": 120, "batch_size": 2,
                 "lr": 1e-3},
        "data": {"clip_frames": 1024},
    }))
    data = root / "data"
    assert cli_main(["synth-data", "--config", str(cfg), "--out", str(data),
                     "--clips", "4"]) == 0
    codec = root / "codec.ckpt.json"
    assert cli_main(["train-hfdq", "--config", str(cfg), "--data", str(data),
                     "--out-ckpt", str(codec)]) == 0
    gen = root / "gen.ckpt.json"
    assert cli_main(["train-gadg", "--config", str(cfg), "--data", str(data),
                     "--hfdq-ckpt", str(codec), "--out-ckpt", str(gen)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "codec": codec, "gen": gen,
            "build_seconds": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# 1. Codebook utilization


def test_criterion_01_codebook_utilization(acceptance_log, diverse_codec):
    with criterion(acceptance_log, 1,
                   "trained codec uses >= 99% of the 4375 codes on 200 random clips") as info:
        model = diverse_codec["model"]
        t0 = time.monotonic()
        rng = np.random.default_rng(123)
        arrays = []
        for _ in range(200):
            clip = random_motion_clip(rng, 2000)
            codes = model.encode(clip.frames)
            arrays.extend([codes.upper, codes.lower])
        used = codebook_utilization(arrays, CODEBOOK)
        total = diverse_codec["seconds"] + (time.monotonic() - t0)
        info["detail"] = f"{round(used * CODEBOOK)}/{CODEBOOK} codes, {total:.0f}s"
        assert used >= 0.99
        assert total <= 600.0


# ---------------------------------------------------------------------------
# 2. FSQ contracts


def test_criterion_02_fsq_contracts(acceptance_log):
    with criterion(acceptance_log, 2,
                   "FSQ grid forward, straight-through gradient, index bijection") as info:
        rng = np.random.default_rng(0)
        z = rng.normal(0.0, 2.5, size=(1000, 5))
        quant, ints = fsq_quantize(Tensor(z), LEVELS)
        # forward lands exactly on the integer grid
        assert np.array_equal(quant.data, ints.astype(np.float64))
        assert ints.min() >= 0
        assert all(ints[:, i].max() <= l - 1 for i, l in enumerate(LEVELS))

        # straight-through gradient == bounded-path gradient
        probe = rng.standard_normal((1000, 5))
        leaf_st = Tensor(z.copy(), requires_grad=True)
        q, _ = fsq_quantize(leaf_st, LEVELS)
        backward((q * Tensor(probe)).sum())
        leaf_sm = Tensor(z.copy(), requires_grad=True)
        span = Tensor(np.asarray(LEVELS, dtype=np.float64) - 1.0)
        bounded = T.sigmoid(leaf_sm) * span
        backward((bounded * Tensor(probe)).sum())
        grad_gap = np.abs(leaf_st.grad - leaf_sm.grad).max()
        assert grad_gap < 1e-6

        # levels <-> index bijection over the whole codebook
        all_idx = np.arange(CODEBOOK)
        rows = index_to_levels(all_idx, LEVELS)
        assert np.array_equal(levels_to_index(rows, LEVELS), all_idx)
        assert len({tuple(r) for r in rows}) == CODEBOOK
        info["detail"] = f"grad gap {grad_gap:.1e}"


# ---------------------------------------------------------------------------
# 3. Autodiff vs central differences, every differentiable op


def _grad_cases(rng):
    r = rng.standard_normal
    away = lambda x, d=0.25: x + d * np.sign(x)  # keep clear of kinks
    a, b = r((2, 3, 4)), r((2, 3, 4))
    pos = np.abs(r((3, 4))) + 0.5
    return [
        ("add", lambda xs: xs[0] + xs[1], [a, b]),
        ("sub", lambda xs: xs[0] - xs[1], [a, b]),
        ("mul", lambda xs: xs[0] * xs[1], [a, b]),
        ("div", lambda xs: xs[0] / xs[1], [a, away(b, 0.5)]),
        ("neg", lambda xs: -xs[0], [a]),
        ("exp", lambda xs: T.exp(xs[0]), [r((3, 4))]),
        ("log", lambda xs: T.log(xs[0]), [pos]),
        ("sqrt", lambda xs: T.sqrt(xs[0]), [pos]),
        ("sigmoid", lambda xs: T.sigmoid(xs[0]), [r((3, 4))]),
        ("softplus", lambda xs: T.softplus(xs[0]), [r((3, 4))]),
        ("relu", lambda xs: T.relu(xs[0]), [away(r((3, 4)))]),
        ("abs", lambda xs: T.abs_(xs[0]), [away(r((3, 4)))]),
        ("silu", lambda xs: T.silu(xs[0]), [r((3, 4))]),
        ("expm1_over", lambda xs: T.expm1_over(xs[0]), [away(r((3, 4)), 0.3)]),
        ("matmul", lambda xs: T.matmul(xs[0], xs[1]), [r((3, 4)), r((4, 2))]),
        ("matmul_batched", lambda xs: T.matmul(xs[0], xs[1]), [r((2, 3, 4)), r((2, 4, 2))]),
        ("reduce_sum", lambda xs: T.reduce_sum(xs[0], axis=1), [a]),
        ("reduce_mean", lambda xs: T.reduce_mean(xs[0], axis=-1, keepdims=True), [a]),
        ("reshape", lambda xs: T.reshape(xs[0], (4, 6)), [a]),
        ("transpose", lambda xs: T.transpose(xs[0], (2, 0, 1)), [a]),
        ("index_slice", lambda xs: xs[0][:, 1:3], [a]),
        ("concat", lambda xs: T.concat([xs[0], xs[1]], axis=-1), [a, b]),
        ("softmax", lambda xs: T.softmax_lastdim(xs[0]), [r((3, 5))]),
        ("embedding", lambda xs: T.embedding(xs[0], np.array([0, 2, 5, 1])), [r((6, 4))]),
        ("index_arrays",
         lambda xs, ids=rng.integers(0, 7, size=4): xs[0][np.arange(4), ids],
         [r((4, 7))]),
        ("conv1d", lambda xs: T.conv1d(xs[0], xs[1], stride=1) + xs[2],
         [r((8, 3)), r((3, 3, 4)), r(4)]),
        ("conv1d_strided", lambda xs: T.conv1d(xs[0], xs[1], stride=2) + xs[2],
         [r((2, 8, 3)), r((4, 3, 4)), r(4)]),
        ("conv1d_transpose", lambda xs: T.conv1d_transpose(xs[0], xs[1], stride=2) + xs[2],
         [r((4, 3)), r((4, 3, 2)), r(2)]),
        ("linear_recurrence", lambda xs: T.linear_recurrence(xs[0], xs[1]),
         [rng.uniform(0.1, 0.95, size=(7, 3)), r((7, 3))]),
        ("l1_distance", lambda xs: T.l1_distance(xs[0], xs[1]), [a, a + away(b, 0.5)]),
    ]


def test_criterion_03_autodiff_suite(acceptance_log):
    with criterion(acceptance_log, 3,
                   "all differentiable ops match central differences, 10 seeds") as info:
        t0 = time.monotonic()
        worst, n_ops = 0.0, 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            cases = _grad_cases(rng)
            n_ops = len(cases)
            for name, build, arrays in cases:
                err = check_gradients(build, arrays, tol=1e-4)
                worst = max(worst, err)
        elapsed = time.monotonic() - t0
        info["detail"] = f"{n_ops} ops, worst rel err {worst:.1e}, {elapsed:.0f}s"
        assert worst < 1e-4
        assert elapsed <= 120.0


# ---------------------------------------------------------------------------
# 4. State-space discretization and scan


def _random_scan_case(rng):
    t_len = int(rng.integers(2, 33))
    d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = rng.standard_normal((t_len, d))
    a = -np.abs(rng.standard_normal((d, n))) - 0.05
    b = rng.standard_normal((t_len, n))
    c = rng.standard_normal((t_len, n))
    dt = rng.uniform(0.05, 1.5, size=(t_len, d))
    return x, a, b, c, dt


def test_criterion_04_mamba_suite(acceptance_log):
    with criterion(acceptance_log, 4,
                   "ZOH closed forms to 1e-12; scan == doubling oracle to 1e-10") as info:
        abar, bbar = mamba_discretize(np.array([-1.0]), np.array([1.0]), np.array([np.log(2.0)]))
        assert abs(abar[0] - 0.5) < 1e-12
        assert abs(bbar[0] - 0.5) < 1e-12
        # a -> 0 limit: abar -> 1, bbar -> dt * b
        abar0, bbar0 = mamba_discretize(np.array([-1e-13]), np.array([2.0]), np.array([0.75]))
        assert abs(abar0[0] - 1.0) < 1e-12
        assert abs(bbar0[0] - 1.5) < 1e-12

        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x, a, b, c, dt = _random_scan_case(rng)
            y = selective_scan(x, a, b, c, dt).data
            # the oracle: discretize, run the doubling recurrence, contract with c
            abar, bbar = mamba_discretize(a[None], b[:, None, :], dt[:, :, None])
            h = T.parallel_linear_recurrence(abar, bbar * x[:, :, None])
            oracle = (h * c[:, None, :]).sum(axis=-1)
            worst = max(worst, float(np.abs(y - oracle).max()))
        info["detail"] = f"scan gap {worst:.1e}"
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# 5. Sliding-window mask and causality


def test_criterion_05_mask_and_causality(acceptance_log):
    with criterion(acceptance_log, 5,
                   "mask matches row-window formula (T' <= 64); 100 causality probes") as info:
        a_step, w_step = 22, 8
        for t_len in range(1, 65):
            mask = build_sliding_mask(t_len, a_step, w_step)
            block = np.empty((t_len, t_len))
            for i in range(t_len):
                lo = row_window(i, a_step, w_step)
                for j in range(t_len):
                    block[i, j] = 0.0 if lo <= j <= i else -np.inf
            # one window block tiled over all nine stream-pair blocks
            assert np.array_equal(mask, np.tile(block, (3, 3)))

        cfg = GadgConfig(model_dim=16, num_genres=2, num_layers=1, num_heads=2,
                         ff_dim=32, dropout=0.0, state_dim=4, conv_kernel=3,
                         autoregressive_step=6, window_step=2, codebook_size=11,
                         music_dim=5, frames_per_code=2, max_positions=64)
        model = GadgModel(cfg, seed=0).eval()
        rng = np.random.default_rng(7)
        probes = 0
        with T.no_grad():
            while probes < 100:
                t_len = int(rng.integers(2, 33))
                music = rng.standard_normal((t_len, cfg.music_dim))
                up = rng.integers(0, 12, size=t_len)  # start token == 11 allowed
                lo_in = rng.integers(0, 12, size=t_len)
                base_u, base_l = model.forward(music, 0, up, lo_in)
                t = int(rng.integers(0, t_len - 1))
                p = int(rng.integers(t + 1, t_len))
                music2, up2, lo2 = music.copy(), up.copy(), lo_in.copy()
                music2[p] += rng.standard_normal(cfg.music_dim)
                up2[p] = (up2[p] + 1) % 12
                lo2[p] = (lo2[p] + 3) % 12
                pert_u, pert_l = model.forward(music2, 0, up2, lo2)
                assert np.array_equal(base_u.data[: t + 1], pert_u.data[: t + 1])
                assert np.array_equal(base_l.data[: t + 1], pert_l.data[: t + 1])
                probes += 1
        info["detail"] = f"{probes} probes, bitwise"


# ---------------------------------------------------------------------------
# 6. Hard-routing gradient sparsity


def _expert_grad_sum(expert) -> float:
    total = 0.0
    for _, p in expert.named_parameters():
        if p.grad is not None:
            total += float(np.abs(p.grad).sum())
    return total


def test_criterion_06_routing_sparsity(acceptance_log):
    with criterion(acceptance_log, 6,
                   "one specialized + universal expert get gradients; rest exactly zero") as info:
        cfg = GadgConfig(model_dim=16, num_genres=4, num_layers=2, num_heads=2,
                         ff_dim=32, dropout=0.0, state_dim=4, conv_kernel=3,
                         autoregressive_step=6, window_step=2, codebook_size=11,
                         music_dim=5, frames_per_code=2, max_positions=32)
        rng = np.random.default_rng(5)
        for genre in range(cfg.num_genres):
            model = GadgModel(cfg, seed=genre)
            t_len = 8
            music = rng.standard_normal((t_len * cfg.frames_per_code, cfg.music_dim))
            codes = LatentCodeSequence(
                upper=rng.integers(0, 11, size=t_len),
                lower=rng.integers(0, 11, size=t_len),
                codebook_size=11,
            )
            loss = teacher_forced_loss(model, pool_music(music, cfg.frames_per_code),
                                       genre, codes)
            loss.backward()
            for layer in model.layers:
                assert _expert_grad_sum(layer.universal) > 0.0
                for g, expert in enumerate(layer.specialized):
                    got = _expert_grad_sum(expert)
                    if g == genre:
                        assert got > 0.0
                    else:
                        assert got == 0.0
        info["detail"] = "all 4 genres x 2 layers"


# ---------------------------------------------------------------------------
# 7. Overfit smoke tests


def test_criterion_07_overfit_smoke(acceptance_log, overfit_codec, overfit_generator):
    with criterion(acceptance_log, 7,
                   "codec MSE < 1e-3 and generator CE < 0.1 on single-sample overfit") as info:
        mse = overfit_codec["mse"]
        init_ce = overfit_generator["init_ce"]
        final_ce = overfit_generator["final_ce"]
        combined = overfit_codec["seconds"] + overfit_generator["seconds"]
        info["detail"] = (
            f"MSE {mse:.1e} @{overfit_codec['steps']} steps; "
            f"CE {init_ce:.3f} -> {final_ce:.3f} @{overfit_generator['steps']} steps; "
            f"{combined:.0f}s"
        )
        assert overfit_codec["steps"] <= 2000 and mse < 1e-3
        assert overfit_generator["steps"] <= 3000 and final_ce < 0.1
        assert abs(init_ce - 8.384) < 0.1
        assert combined <= 600.0


# ---------------------------------------------------------------------------
# 8. Kinematics


def _fk_oracle(frames: np.ndarray) -> np.ndarray:
    """Brute-force FK: explicit global matrix composition per joint."""
    def gram_schmidt(six):
        c1, c2 = six[:3], six[3:]
        b1 = c1 / np.linalg.norm(c1)
        c2 = c2 - (b1 @ c2) * b1
        b2 = c2 / np.linalg.norm(c2)
        return np.stack([b1, b2, np.cross(b1, b2)], axis=1)

    t_len, j = frames.shape[0], MO.JOINT_COUNT
    pos = np.zeros((t_len, j, 3))
    for t in range(t_len):
        glob_r = [None] * j
        for joint in range(j):
            local = gram_schmidt(frames[t, 3 + 6 * joint: 9 + 6 * joint])
            parent = MO.PARENTS[joint]
            if parent < 0:
                glob_r[joint] = local
                pos[t, joint] = frames[t, :3]
            else:
                glob_r[joint] = glob_r[parent] @ local
                pos[t, joint] = pos[t, parent] + glob_r[parent] @ MO.DEFAULT_OFFSETS[joint]
    return pos


def _random_frames(rng, t_len: int) -> np.ndarray:
    frames = rng.standard_normal((t_len, MO.FRAME_WIDTH))
    return frames


def test_criterion_08_kinematics_suite(acceptance_log):
    with criterion(acceptance_log, 8,
                   "rot6d orthonormality 1e-10; FK == brute force 1e-10; translation exact") as info:
        rng = np.random.default_rng(11)
        six = rng.standard_normal((10_000, 6))
        mats = rot6d_to_matrix(Tensor(six)).data
        ortho = np.abs(np.swapaxes(mats, -1, -2) @ mats - np.eye(3)).max()
        assert ortho < 1e-10

        worst_fk = 0.0
        for seed in range(5):
            frames = _random_frames(np.random.default_rng(100 + seed), 4)
            gap = np.abs(forward_kinematics(frames) - _fk_oracle(frames)).max()
            worst_fk = max(worst_fk, float(gap))
        assert worst_fk < 1e-10

        frames = _random_frames(rng, 3)
        frames[:, :3] = 0.0
        base = forward_kinematics(frames)
        delta = np.array([1.25, -0.5, 3.75])
        shifted = frames.copy()
        shifted[:, :3] = delta
        np.testing.assert_array_equal(forward_kinematics(shifted), base + delta)
        info["detail"] = f"ortho {ortho:.1e}, fk gap {worst_fk:.1e}"


# ---------------------------------------------------------------------------
# 9. Metrics


def test_criterion_09_metrics_suite(acceptance_log):
    with criterion(acceptance_log, 9,
                   "FID closed forms 1e-9, FID(X,X)=0, Monte-Carlo <= 0.05, BAS forms 1e-9") as info:
        s_a = GaussianStats(mean=np.array([2.0]), cov=np.array([[9.0]]))
        s_b = GaussianStats(mean=np.array([0.0]), cov=np.array([[1.0]]))
        assert abs(frechet_distance(s_a, s_b) - 8.0) < 1e-9
        s_c = GaussianStats(mean=np.array([0.0]), cov=np.array([[4.0]]))
        assert abs(frechet_distance(s_c, s_b) - 1.0) < 1e-9

        rng = np.random.default_rng(21)
        x = rng.standard_normal((120, 6)) @ rng.standard_normal((6, 6)) + rng.standard_normal(6)
        s_x = GaussianStats.from_samples(x)
        assert abs(frechet_distance(s_x, s_x)) < 1e-9

        mean = rng.standard_normal(4)
        m = rng.standard_normal((4, 4))
        cov_root = m @ m.T + 0.5 * np.eye(4)
        draws = lambda: rng.standard_normal((20_000, 4)) @ np.linalg.cholesky(cov_root).T + mean
        mc = frechet_distance(GaussianStats.from_samples(draws()),
                              GaussianStats.from_samples(draws()))
        assert mc <= 0.05

        beats = np.array([10.0, 20.0, 30.0])
        assert abs(beat_align_score(beats, beats, sigma=3.0) - 1.0) < 1e-9
        shifted = beats + 3.0
        assert abs(beat_align_score(beats, shifted, sigma=3.0) - np.exp(-0.5)) < 1e-9
        info["detail"] = f"MC FID {mc:.3f}"


# ---------------------------------------------------------------------------
# 10. End-to-end generation


def test_criterion_10_end_to_end(acceptance_log, pipeline):
    with criterion(acceptance_log, 10,
                   "1024-frame generation: valid, seed-deterministic, genre-dependent") as info:
        root = pipeline["root"]
        base = ["generate", "--gadg-ckpt", str(pipeline["gen"]),
                "--hfdq-ckpt", str(pipeline["codec"]),
                "--music", str(pipeline["data"] / "clip_0000.music.txt"),
                "--frames", "1024", "--seed", "0"]
        t0 = time.monotonic()
        out_a = root / "a.motion.txt"
        out_b = root / "b.motion.txt"
        out_c = root / "c.motion.txt"
        assert cli_main(base + ["--genre", "0", "--out", str(out_a)]) == 0
        assert cli_main(base + ["--genre", "0", "--out", str(out_b)]) == 0
        assert cli_main(base + ["--genre", "1", "--out", str(out_c)]) == 0
        inference = time.monotonic() - t0

        motion_a = read_motion_file(out_a)  # constructor validates the file
        assert motion_a.frames.shape == (1024, MO.FRAME_WIDTH)
        assert out_a.read_bytes() == out_b.read_bytes()
        linf = float(np.abs(motion_a.frames[:, 3:] - read_motion_file(out_c).frames[:, 3:]).max())
        info["detail"] = f"genre rot L_inf {linf:.3f}, inference {inference:.1f}s"
        assert linf > 0.01
        assert inference <= 60.0
