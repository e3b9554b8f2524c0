"""Codec tests: quantizer contract, code packing bijection, shapes, losses,
file format, training smoke, checkpoint round-trip.

The mixed-radix packing is checked against an independent Horner-form
oracle over the full enumeration of the grid; the straight-through
gradient is checked against the bounded (pre-rounding) path.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegen import checkpoint
from dancegen import codec as C
from dancegen import motion as MO
from dancegen import tensor as T
from dancegen.codec import (
    CodecModel,
    CodecTrainConfig,
    FsqConfig,
    LatentCodeSequence,
    LossConfig,
    codebook_utilization,
    fsq_quantize,
    index_to_levels,
    levels_to_index,
    normalize_levels,
    read_codes_file,
    reconstruction_loss,
    train_codec,
    write_codes_file,
)
from dancegen.errors import (
    ConfigError,
    DependencyError,
    FormatError,
    OutOfRangeError,
    ShapeError,
)
from dancegen.tensor import Tensor

from gradcheck import check_gradients

LEVELS = (7, 5, 5, 5, 5)


def pack_oracle(row, levels):
    """Independent packing: Horner evaluation in the mixed radix."""
    idx = 0
    for level, base in zip(row, levels):
        idx = idx * base + level
    return idx


# ---------------------------------------------------------------------------
# Mixed-radix packing


def test_pack_frozen_values():
    assert levels_to_index(np.array([0, 0, 0, 0, 0]), LEVELS) == 0
    assert levels_to_index(np.array([6, 4, 4, 4, 4]), LEVELS) == 4374
    assert levels_to_index(np.array([1, 0, 0, 0, 0]), LEVELS) == 625
    assert levels_to_index(np.array([0, 1, 0, 0, 0]), LEVELS) == 125
    assert levels_to_index(np.array([0, 0, 0, 0, 1]), LEVELS) == 1


def test_pack_exhaustive_bijection():
    rows = np.array(list(itertools.product(*[range(b) for b in LEVELS])), dtype=np.int64)
    assert rows.shape == (4375, 5)
    idx = levels_to_index(rows, LEVELS)
    oracle = np.array([pack_oracle(r, LEVELS) for r in rows])
    np.testing.assert_array_equal(idx, oracle)
    # bijective onto [0, 4375)
    assert sorted(idx.tolist()) == list(range(4375))
    np.testing.assert_array_equal(index_to_levels(idx, LEVELS), rows)


@given(st.lists(st.tuples(*[st.integers(0, b - 1) for b in LEVELS]), min_size=1, max_size=64))
def test_pack_roundtrip_property(rows):
    arr = np.array(rows, dtype=np.int64)
    back = index_to_levels(levels_to_index(arr, LEVELS), LEVELS)
    np.testing.assert_array_equal(back, arr)


def test_pack_range_errors():
    with pytest.raises(OutOfRangeError):
        levels_to_index(np.array([7, 0, 0, 0, 0]), LEVELS)
    with pytest.raises(OutOfRangeError):
        levels_to_index(np.array([0, 0, 0, 0, -1]), LEVELS)
    with pytest.raises(OutOfRangeError):
        index_to_levels(np.array([4375]), LEVELS)
    with pytest.raises(OutOfRangeError):
        index_to_levels(np.array([-1]), LEVELS)
    with pytest.raises(ShapeError):
        levels_to_index(np.array([0, 0, 0]), LEVELS)


# ---------------------------------------------------------------------------
# Quantizer


def test_fsq_frozen_values():
    # sigmoid(0) = 1/2 puts every channel exactly on its middle level
    q, ints = fsq_quantize(Tensor(np.zeros((1, 5))), LEVELS)
    np.testing.assert_array_equal(ints, [[3, 2, 2, 2, 2]])
    np.testing.assert_array_equal(q.data, [[3.0, 2.0, 2.0, 2.0, 2.0]])
    # saturation at both ends
    q, ints = fsq_quantize(Tensor(np.full((1, 5), 50.0)), LEVELS)
    np.testing.assert_array_equal(ints, [[6, 4, 4, 4, 4]])
    q, ints = fsq_quantize(Tensor(np.full((1, 5), -50.0)), LEVELS)
    np.testing.assert_array_equal(ints, [[0, 0, 0, 0, 0]])
    # logit(1/4): bounded = (L-1)/4 -> [1.5, 1, 1, 1, 1]; the .5 channel
    # rounds to the even side under numpy's banker rounding
    z = np.full((1, 5), np.log(1.0 / 3.0))
    _, ints = fsq_quantize(Tensor(z), LEVELS)
    np.testing.assert_array_equal(ints[0][1:], [1, 1, 1, 1])


def test_fsq_idempotent_on_grid_preimages():
    rng = np.random.default_rng(7)
    levels = np.array(LEVELS)
    # interior levels only: the extremes have infinite preimage
    rows = np.stack([rng.integers(1, b - 1, size=200) for b in LEVELS], axis=-1)
    frac = rows / (levels - 1.0)
    z = np.log(frac / (1.0 - frac))
    _, ints = fsq_quantize(Tensor(z), LEVELS)
    np.testing.assert_array_equal(ints, rows)


def test_fsq_straight_through_gradient():
    rng = np.random.default_rng(11)
    z = rng.normal(0.0, 2.5, size=(1000, 5))
    weights = rng.normal(size=(1000, 5))

    zq = Tensor(z.copy(), requires_grad=True)
    q, _ = fsq_quantize(zq, LEVELS)
    T.backward(T.reduce_sum(q * Tensor(weights)))

    zb = Tensor(z.copy(), requires_grad=True)
    bounded = T.sigmoid(zb) * Tensor(np.array(LEVELS, dtype=np.float64) - 1.0)
    T.backward(T.reduce_sum(bounded * Tensor(weights)))

    assert zq.grad is not None and zb.grad is not None
    assert np.max(np.abs(zq.grad - zb.grad)) < 1e-6


def test_fsq_shape_check():
    with pytest.raises(ShapeError):
        fsq_quantize(Tensor(np.zeros((3, 4))), LEVELS)


def test_fsq_wide_input_covers_every_code():
    # N(0, 2) inputs reach every cell of the grid: the rarest level/channel
    # combination still has probability ~8e-5, so a million draws miss
    # nothing (expected misses ~ 4375 * exp(-85)).
    rng = np.random.default_rng(0)
    z = rng.normal(0.0, 2.0, size=(1_000_000, 5))
    _, ints = fsq_quantize(Tensor(z), LEVELS)
    idx = levels_to_index(ints, LEVELS)
    assert codebook_utilization([idx], 4375) == 1.0


def test_normalize_levels_frozen():
    q = Tensor(np.array([[0.0, 0.0, 2.0, 4.0, 4.0], [3.0, 2.0, 2.0, 2.0, 2.0]]))
    out = normalize_levels(q, LEVELS).data
    np.testing.assert_allclose(out[0], [-1.0, -1.0, 0.0, 1.0, 1.0], atol=0)
    np.testing.assert_allclose(out[1], [0.0, 0.0, 0.0, 0.0, 0.0], atol=0)


def test_fsq_config_validation():
    with pytest.raises(ConfigError):
        FsqConfig(levels=(7, 1, 5))
    with pytest.raises(ConfigError):
        FsqConfig(feature_dim=0)
    assert FsqConfig().codebook_size == 4375


# ---------------------------------------------------------------------------
# Networks and the end-to-end shape pipeline


def small_cfg():
    return FsqConfig(feature_dim=16)


def test_codec_shapes_and_downsample():
    model = CodecModel(small_cfg(), seed=3)
    frames = Tensor(np.random.default_rng(0).normal(size=(240, 147)) * 0.1)
    frames_hat, cu, cl = model.reconstruct(frames)
    assert frames_hat.shape == (240, 147)
    assert cu.shape == (30, 5) and cl.shape == (30, 5)


def test_codec_batched_matches_loop():
    model = CodecModel(small_cfg(), seed=3)
    clips = np.random.default_rng(1).normal(size=(3, 48, 147)) * 0.1
    batched, cu, _ = model.reconstruct(Tensor(clips))
    assert batched.shape == (3, 48, 147)
    assert cu.shape == (3, 6, 5)
    for i in range(3):
        single, _, _ = model.reconstruct(Tensor(clips[i]))
        np.testing.assert_allclose(single.data, batched.data[i], atol=1e-12)


def test_encoder_rejects_unpadded_length():
    model = CodecModel(small_cfg())
    with pytest.raises(ShapeError):
        model.reconstruct(Tensor(np.zeros((41, 147))))


def test_encode_decode_roundtrip_matches_training_path():
    model = CodecModel(small_cfg(), seed=5)
    frames = np.random.default_rng(2).normal(size=(48, 147)) * 0.2
    frames_hat, cu, cl = model.reconstruct(Tensor(frames))
    codes = model.encode(frames)
    assert isinstance(codes, LatentCodeSequence)
    assert codes.latent_len == 6
    np.testing.assert_array_equal(codes.upper, levels_to_index(cu, LEVELS))
    np.testing.assert_array_equal(codes.lower, levels_to_index(cl, LEVELS))
    # decoding the integer codes reproduces the training-path reconstruction
    # bitwise: the quantized values are exactly the integer levels
    np.testing.assert_array_equal(model.decode(codes), frames_hat.data)


def test_decode_rejects_foreign_codebook():
    model = CodecModel(small_cfg())
    codes = LatentCodeSequence(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 99)
    with pytest.raises(ConfigError):
        model.decode(codes)


def test_decoder_gradients():
    model = CodecModel(small_cfg(), seed=9)
    z = np.random.default_rng(3).normal(size=(8, 5))
    check_gradients(lambda arrs: model.upper_decoder(arrs[0]), [z], tol=1e-4)


def test_encoder_gradients_prequantization():
    model = CodecModel(small_cfg(), seed=9)
    x = np.random.default_rng(4).normal(size=(16, MO.UPPER_COLS.size)) * 0.3
    check_gradients(lambda arrs: model.upper_encoder(arrs[0]), [x], tol=1e-4)


# ---------------------------------------------------------------------------
# Loss


def test_reconstruction_loss_closed_form():
    t = np.arange(4.0).reshape(4, 1) * np.ones((4, 2))  # per-entry ramp 0,1,2,3
    zeros = np.zeros((4, 2))
    cfg = LossConfig()  # 0.5 / 0.25
    # |ramp| mean = 1.5; velocity diff is 1 everywhere; acceleration 0
    loss = reconstruction_loss(Tensor(t), Tensor(zeros), Tensor(t), Tensor(zeros), cfg)
    assert loss.item() == pytest.approx(2.0 * (1.5 + 0.5 * 1.0), abs=1e-12)


def test_reconstruction_loss_zero_on_match():
    x = np.random.default_rng(0).normal(size=(6, 3))
    loss = reconstruction_loss(Tensor(x), Tensor(x), Tensor(x), Tensor(x), LossConfig())
    assert loss.item() == 0.0


def test_loss_weights_respected():
    a = np.zeros((3, 1))
    b = np.array([[0.0], [1.0], [0.0]])  # value mean 1/3, |vel| = 1, |accel| = 2
    got = reconstruction_loss(
        Tensor(b), Tensor(a), Tensor(a), Tensor(a), LossConfig(velocity_weight=0.5, accel_weight=0.25)
    ).item()
    assert got == pytest.approx(1.0 / 3.0 + 0.5 * 1.0 + 0.25 * 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Codes file format


def test_codes_file_roundtrip(tmp_path):
    codes = LatentCodeSequence(
        np.array([0, 17, 4374, 625]), np.array([1, 2, 3, 4]), 4375
    )
    path = tmp_path / "seq.codes.txt"
    write_codes_file(path, codes)
    back = read_codes_file(path)
    np.testing.assert_array_equal(back.upper, codes.upper)
    np.testing.assert_array_equal(back.lower, codes.lower)
    assert back.codebook_size == 4375


def test_codes_file_rejections(tmp_path):
    path = tmp_path / "bad.codes.txt"
    for text in [
        "#format dancegen-codes v2\n#latent_len 1\n#codebook_size 10\nupper 1\nlower 1\n",
        "#format dancegen-codes v1\n#latent_len 2\n#codebook_size 10\nupper 1\nlower 1 2\n",
        "#format dancegen-codes v1\n#latent_len 1\n#codebook_size 10\nupper 1\nmiddle 1\n",
        "#format dancegen-codes v1\n#latent_len 1\n#codebook_size 10\nupper 11\nlower 1\n",
        "#format dancegen-codes v1\n#latent_len 0\n#codebook_size 10\nupper\nlower\n",
    ]:
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            read_codes_file(path)
        assert str(path) in str(err.value)


def test_code_sequence_validation():
    with pytest.raises(OutOfRangeError):
        LatentCodeSequence(np.array([5000]), np.array([0]), 4375)
    with pytest.raises(ShapeError):
        LatentCodeSequence(np.array([1, 2]), np.array([1]), 4375)


# ---------------------------------------------------------------------------
# Training and checkpointing


def tiny_clips(n=3, frames=48, seed=0):
    rng = np.random.default_rng(seed)
    from dancegen.music import random_motion_clip

    return [random_motion_clip(rng, frames).frames for _ in range(n)]


def test_train_codec_reduces_loss():
    clips = tiny_clips()
    model, losses = train_codec(
        clips,
        cfg=small_cfg(),
        train_cfg=CodecTrainConfig(steps=40, batch_size=2, lr=2e-3, seed=1),
    )
    assert len(losses) == 40
    assert np.mean(losses[-5:]) < np.mean(losses[:5])
    assert all(np.isfinite(losses))


def test_train_codec_step_matches_one_batched_backward_bitwise():
    # the codec's step loss is one part: the whole batch in one graph
    clips = tiny_clips(n=4)
    train_cfg = CodecTrainConfig(steps=1, batch_size=3, lr=2e-3, seed=1)
    trained, losses = train_codec(clips, cfg=small_cfg(), train_cfg=train_cfg)
    model = CodecModel(small_cfg(), seed=train_cfg.seed)
    stack = np.stack(clips)
    joints = C._flatten_joints(MO.forward_kinematics(stack))
    idx = np.random.default_rng(train_cfg.seed).choice(4, size=3, replace=False)
    frames = Tensor(stack[idx])
    frames_hat, _, _ = model.reconstruct(frames)
    loss = reconstruction_loss(frames_hat, frames, C._flatten_joints(MO.forward_kinematics(frames_hat)),
                               Tensor(joints[idx]), LossConfig())
    loss.backward()
    assert losses == [loss.item()]
    for (name, p), (_, q) in zip(trained.named_parameters(), model.named_parameters()):
        assert np.array_equal(p.grad, q.grad), name


def test_train_codec_input_validation():
    with pytest.raises(Exception):
        train_codec([], cfg=small_cfg(), train_cfg=CodecTrainConfig(steps=1))
    clips = [np.zeros((48, 147)), np.zeros((56, 147))]
    with pytest.raises(ShapeError):
        train_codec(clips, cfg=small_cfg(), train_cfg=CodecTrainConfig(steps=1))


def test_codec_checkpoint_roundtrip(tmp_path):
    model = CodecModel(small_cfg(), seed=12)
    frames = np.random.default_rng(5).normal(size=(48, 147)) * 0.1
    codes_before = model.encode(frames)
    path = tmp_path / "codec.json"
    C.save_codec(path, model)
    loaded = C.load_codec(path)
    for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    codes_after = loaded.encode(frames)
    np.testing.assert_array_equal(codes_before.upper, codes_after.upper)
    np.testing.assert_array_equal(
        model.decode(codes_before), loaded.decode(codes_after)
    )


def test_codec_checkpoint_stage_guard(tmp_path):
    model = CodecModel(small_cfg())
    path = tmp_path / "codec.json"
    C.save_codec(path, model)
    from dancegen.checkpoint import load_checkpoint

    with pytest.raises(FormatError):
        load_checkpoint(path, expected_stage="generator")
    with pytest.raises(DependencyError):
        C.load_codec(tmp_path / "missing.json")


def test_checkpoint_loads_bitwise_equal(tmp_path):
    model = CodecModel(small_cfg(), seed=3)
    arrays = {name: p.data for name, p in model.named_parameters()}
    C.save_codec(tmp_path / "codec.ckpt", model)
    loaded = dict(C.load_codec(tmp_path / "codec.ckpt").named_parameters())
    assert list(loaded) == list(arrays)
    for name, value in arrays.items():
        assert loaded[name].data.dtype == np.float64 and loaded[name].data.shape == value.shape
        assert loaded[name].data.tobytes() == value.tobytes()


def test_codec_checkpoint_bytes_are_deterministic(tmp_path):
    C.save_codec(tmp_path / "a.ckpt", CodecModel(small_cfg(), seed=5))
    C.save_codec(tmp_path / "b.ckpt", CodecModel(small_cfg(), seed=5))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_failed_save_keeps_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "codec.ckpt"
    C.save_codec(path, CodecModel(small_cfg(), seed=1))
    old = path.read_bytes()
    write_npy = checkpoint._write_npy
    members = []

    def dies_in_second_member(out, array):
        members.append(array)
        if len(members) == 2:
            out.write(b"\x93NUMPY partial")
            raise OSError("disk full")
        write_npy(out, array)

    monkeypatch.setattr(checkpoint, "_write_npy", dies_in_second_member)
    with pytest.raises(OSError, match="disk full"):
        C.save_codec(path, CodecModel(small_cfg(), seed=2))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["codec.ckpt"]


def test_utilization_counts_unique_codes():
    assert codebook_utilization([np.array([0, 1, 1, 2])], 10) == pytest.approx(0.3)
    assert codebook_utilization([np.array([0]), np.array([9])], 10) == pytest.approx(0.2)
    assert codebook_utilization([], 10) == 0.0
