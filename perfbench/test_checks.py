"""Each correctness check of the benchmark passes on a good output and fails
on a deliberately corrupted one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import dancegen as dg  # noqa: E402
from checks import CheckError  # noqa: E402
from dancegen.tensor import no_grad  # noqa: E402

K = 4375


def test_training_logs():
    good_gen = [2 * math.log(K), 2 * math.log(K) - 0.01]
    checks.check_training([0.4, 0.2], good_gen, K)
    with pytest.raises(CheckError, match="not finite"):
        checks.check_training([0.4, float("nan"), 0.2], good_gen, K)
    with pytest.raises(CheckError, match="did not fall"):
        checks.check_training([0.4, 0.5], good_gen, K)
    with pytest.raises(CheckError, match="did not fall"):
        checks.check_training([0.4, 0.2], good_gen[::-1], K)
    with pytest.raises(CheckError, match="2 ln"):
        checks.check_training([0.4, 0.2], [g + 0.1 for g in good_gen], K)


def test_codes_and_motion_shapes():
    checks.check_codes(np.array([0, K - 1]), np.array([3, 4]), 2, K)
    with pytest.raises(CheckError, match="outside"):
        checks.check_codes(np.array([0, K]), np.array([3, 4]), 2, K)
    with pytest.raises(CheckError, match="shape"):
        checks.check_codes(np.array([0]), np.array([3]), 2, K)
    frames = np.zeros((8, 147))
    checks.check_motion(frames, 8)
    frames[3, 5] = np.inf
    with pytest.raises(CheckError, match="finite"):
        checks.check_motion(frames, 8)
    with pytest.raises(CheckError, match="shape"):
        checks.check_motion(np.zeros((8, 146)), 8)


@pytest.fixture(scope="module")
def tiny_generator():
    cfg = dg.GadgConfig(model_dim=16, num_heads=2, num_layers=1, ff_dim=32, state_dim=4,
                        autoregressive_step=4, window_step=2, codebook_size=25,
                        max_positions=32)
    music, _ = dg.synthesize_pair(dg.SyntheticPairConfig(seed=3, clip_frames=96), 1)
    return dg.GadgModel(cfg, seed=5), music.frames


@pytest.mark.parametrize("top_k", [None, 4])
def test_replay_of_generated_codes(tiny_generator, top_k):
    model, music = tiny_generator
    codes = dg.generate(model, music, 1, 96, top_k=top_k, temperature=0.7, seed=11)
    steps = codes.latent_len
    pooled = music.reshape(steps, 8, -1).mean(axis=1)
    start = model.start_token
    model.eval()
    with no_grad():
        lu, ll = model.forward(pooled, 1, [start, *codes.upper[:-1]], [start, *codes.lower[:-1]])
    checks.check_replay(codes.upper, codes.lower, lu.data, ll.data, top_k, 0.7, 11)
    corrupted = codes.upper.copy()
    corrupted[5] = (corrupted[5] + 1) % 25
    with pytest.raises(CheckError, match="differs from the replay"):
        checks.check_replay(corrupted, codes.lower, lu.data, ll.data, top_k, 0.7, 11)


def test_params_bitwise():
    saved = {"w": np.array([1.0, -0.0, 2.5]), "b": np.zeros(2)}
    checks.check_params(saved, {k: v.copy() for k, v in saved.items()})
    flipped = saved["w"].copy()
    flipped.view(np.uint64)[0] ^= 1  # one ulp
    with pytest.raises(CheckError, match="w differs"):
        checks.check_params(saved, {"w": flipped, "b": saved["b"]})
    signed = saved["w"].copy()
    signed[1] = 0.0  # -0.0 == 0.0, but not bitwise
    with pytest.raises(CheckError, match="w differs"):
        checks.check_params(saved, {"w": signed, "b": saved["b"]})
    with pytest.raises(CheckError, match="names"):
        checks.check_params(saved, {"w": saved["w"]})


def _corrupt(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_motion_file_reads_back(tmp_path):
    _, clip = dg.synthesize_pair(dg.SyntheticPairConfig(seed=1, clip_frames=16), 0)
    path = tmp_path / "a.motion.txt"
    dg.write_motion_file(path, clip)
    checks.check_file_rows(path, clip.frames)
    first_value = path.read_text().splitlines()[4].split()[0]
    _corrupt(path, first_value, repr(float(first_value) + 1e-12))
    with pytest.raises(CheckError, match="bitwise"):
        checks.check_file_rows(path, clip.frames)


def test_codes_file(tmp_path):
    codes = dg.LatentCodeSequence(np.array([1, 2, 3]), np.array([4, 5, 6]), K)
    path = tmp_path / "a.codes.txt"
    dg.codec.write_codes_file(path, codes)
    checks.check_codes_file(path, codes.upper, codes.lower)
    _corrupt(path, "lower 4 5 6", "lower 4 5 7")
    with pytest.raises(CheckError, match="codes"):
        checks.check_codes_file(path, codes.upper, codes.lower)


@pytest.fixture(scope="module")
def feature_sets():
    def clips(first):
        return [dg.synthesize_pair(dg.SyntheticPairConfig(seed=first + i, clip_frames=64), i % 4)[1]
                for i in range(6)]

    return [{kind: np.stack([dg.extract_features(c.frames, kind) for c in clips(first)])
             for kind in ("kinetic", "geometric")} for first in (0, 100)]


def _report(gen, ref):
    out = {"n_sequences": str(len(gen["kinetic"])), "bas": "0.5"}
    for kind, fid, div in (("kinetic", "fid_k", "div_k"), ("geometric", "fid_g", "div_g")):
        stats = [dg.GaussianStats.from_samples(f[kind]) for f in (gen, ref)]
        out[fid] = repr(dg.frechet_distance(*stats))
        out[div] = repr(dg.diversity(gen[kind]))
    return out


@pytest.mark.parametrize("key, value, match", [
    ("fid_k", lambda v: v * (1 + 1e-4), "eigenvalues"),
    ("fid_g", lambda v: v + 1e-3, "eigenvalues"),
    ("div_k", lambda v: v * (1 + 1e-6), "pair loop"),
    ("div_g", lambda v: v * 0.5, "pair loop"),
    ("bas", lambda v: 1.5, r"outside \[0, 1\]"),
    ("bas", lambda v: -0.1, r"outside \[0, 1\]"),
    ("n_sequences", lambda v: 7, "wrong sequences"),
])
def test_report(feature_sets, key, value, match):
    gen, ref = feature_sets
    report = _report(gen, ref)
    checks.check_report(report, gen, ref, 6)
    report[key] = repr(value(float(report[key])))
    with pytest.raises(CheckError, match=match):
        checks.check_report(report, gen, ref, 6)


def test_self_fid(feature_sets):
    feats = feature_sets[0]["kinetic"]
    stats = dg.GaussianStats.from_samples(feats)
    checks.check_self_fid(dg.frechet_distance(stats, stats), feats)
    with pytest.raises(CheckError, match="against itself"):
        checks.check_self_fid(1e-3, feats)


def test_fid_by_eigs_closed_form():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 3))
    b = 2.0 * rng.standard_normal((40, 3)) + 1.0
    # one dimension: (mu_a - mu_b)^2 + (sigma_a - sigma_b)^2
    fid = checks.fid_by_eigs(a[:, :1], b[:, :1])
    sa, sb = a[:, 0].std(ddof=1), b[:, 0].std(ddof=1)
    assert fid == pytest.approx((a[:, 0].mean() - b[:, 0].mean()) ** 2 + (sa - sb) ** 2, rel=1e-12)
    assert checks.diversity_by_pairs(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])) == pytest.approx(10 / 3)
