import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegen import motion as M
from dancegen import tensor as T
from dancegen.errors import (
    ContractError,
    DegenerateInputError,
    FormatError,
    ShapeError,
)
from dancegen.tensor import Tensor, backward

import fk_oracle as taped
from gradcheck import check_gradients


def gram_schmidt_np(r6):
    """Independent reference Gram-Schmidt for a single 6D rotation."""
    a, b = r6[:3], r6[3:]
    c1 = a / np.linalg.norm(a)
    b2 = b - (b @ c1) * c1
    c2 = b2 / np.linalg.norm(b2)
    c3 = np.cross(c1, c2)
    return np.stack([c1, c2, c3], axis=1)


def fk_oracle(frames):
    """Brute-force FK: full homogeneous chain product per joint per frame."""
    t_len = frames.shape[0]
    n = M.JOINT_COUNT
    out = np.zeros((t_len, n, 3))
    for t in range(t_len):
        tau = frames[t, :3]
        rots = frames[t, 3:].reshape(n, 6)
        for j in range(n):
            chain = []
            k = j
            while k != -1:
                chain.append(k)
                k = M.PARENTS[k]
            chain.reverse()
            mat = np.eye(4)
            for k in chain:
                step = np.eye(4)
                step[:3, :3] = gram_schmidt_np(rots[k])
                step[:3, 3] = tau if k == 0 else M.DEFAULT_OFFSETS[k]
                mat = mat @ step
            out[t, j] = mat[:3, 3]
    return out


def random_valid_frames(rng, t_len):
    """Frames whose 6D blocks are generic (non-degenerate) rotations."""
    frames = rng.standard_normal((t_len, M.FRAME_WIDTH))
    return frames


IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def identity_frames(t_len, tau=(0.0, 0.0, 0.0)):
    frames = np.zeros((t_len, M.FRAME_WIDTH))
    frames[:, :3] = tau
    frames[:, 3:] = np.tile(IDENTITY_6D, M.JOINT_COUNT)
    return frames


# ---------------------------------------------------------------------------
# rot6d


def test_rot6d_identity():
    mat = M.rot6d_to_matrix(IDENTITY_6D)
    np.testing.assert_allclose(mat, np.eye(3), atol=1e-15)


def test_rot6d_recovers_rotation_from_scaled_columns():
    # 90-degree rotation about z, columns scaled and sheared before input
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    raw = np.array([0.0, 2.0, 0.0, -3.0, 1.0, 0.0])
    np.testing.assert_allclose(M.rot6d_to_matrix(raw), expected, atol=1e-12)


def test_rot6d_orthonormality_on_random_inputs():
    rng = np.random.default_rng(7)
    r = rng.standard_normal((10_000, 6))
    mats = M.rot6d_to_matrix(r)
    ident = mats @ np.swapaxes(mats, -1, -2)
    assert np.abs(ident - np.eye(3)).max() < 1e-10
    assert np.abs(np.linalg.det(mats) - 1.0).max() < 1e-10


def test_rot6d_matches_reference_gram_schmidt():
    rng = np.random.default_rng(11)
    r = rng.standard_normal((50, 6))
    mats = M.rot6d_to_matrix(r)
    for i in range(50):
        np.testing.assert_allclose(mats[i], gram_schmidt_np(r[i]), atol=1e-12)


def test_rot6d_degenerate_first_column():
    bad = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(DegenerateInputError):
        M.rot6d_to_matrix(bad)


def test_rot6d_degenerate_parallel_columns():
    bad = np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        M.rot6d_to_matrix(bad)


def test_rot6d_shape_error():
    with pytest.raises(ShapeError):
        M.rot6d_to_matrix(np.zeros(5))


@pytest.mark.parametrize("seed", range(10))
def test_rot6d_gradients(seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((4, 6)) + np.array([1.5, 0, 0, 0, 1.5, 0])
    check_gradients(lambda xs: M.rot6d_to_matrix(xs[0]), [r])


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_rest_pose_hand_values():
    # identity rotations: positions are summed offsets down each chain
    tau = np.array([0.3, 0.9, -0.2])
    pos = M.forward_kinematics(identity_frames(2, tau))
    np.testing.assert_allclose(pos[:, 0], np.tile(tau, (2, 1)), atol=0)
    # l_wrist chain offsets sum to (0.70, 0.42, 0.0)
    np.testing.assert_allclose(pos[0, 20], tau + [0.70, 0.42, 0.0], atol=1e-12)
    # l_foot chain offsets sum to (0.13, -0.90, 0.10)
    np.testing.assert_allclose(pos[0, 10], tau + [0.13, -0.90, 0.10], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_fk_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    frames = random_valid_frames(rng, 4)
    got = M.forward_kinematics(frames)
    ref = fk_oracle(frames)
    assert np.abs(got - ref).max() < 1e-10


def test_fk_root_position_equals_translation():
    rng = np.random.default_rng(3)
    frames = random_valid_frames(rng, 6)
    pos = M.forward_kinematics(frames)
    np.testing.assert_array_equal(pos[:, 0, :], frames[:, :3])


def test_fk_translation_equivariance_exact():
    rng = np.random.default_rng(5)
    frames = random_valid_frames(rng, 3)
    frames[:, :3] = 0.0
    base = M.forward_kinematics(frames)
    delta = np.array([1.25, -0.5, 3.75])
    shifted = frames.copy()
    shifted[:, :3] = delta
    moved = M.forward_kinematics(shifted)
    np.testing.assert_array_equal(moved, base + delta)


def test_fk_root_rotation_equivariance():
    rng = np.random.default_rng(9)
    frames = random_valid_frames(rng, 3)
    tau = frames[:, :3].copy()
    base = M.forward_kinematics(frames)

    theta = 0.7
    q = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0], [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]]
    )
    rotated = frames.copy()
    for t in range(frames.shape[0]):
        r0 = gram_schmidt_np(frames[t, 3:9])
        new_r0 = q @ r0
        rotated[t, 3:9] = np.concatenate([new_r0[:, 0], new_r0[:, 1]])
    rot_pos = M.forward_kinematics(rotated)
    expected = (base - tau[:, None, :]) @ q.T + tau[:, None, :]
    assert np.abs(rot_pos - expected).max() < 1e-12


def test_fk_batched_matches_loop():
    rng = np.random.default_rng(13)
    clips = np.stack([random_valid_frames(rng, 3) for _ in range(2)])
    batched = M.forward_kinematics(clips)
    for i in range(2):
        single = M.forward_kinematics(clips[i])
        np.testing.assert_allclose(batched[i], single, atol=1e-14)


@pytest.mark.parametrize("seed", range(3))
def test_fk_gradients(seed):
    rng = np.random.default_rng(seed)
    frames = random_valid_frames(rng, 2)
    check_gradients(lambda xs: M.forward_kinematics(xs[0]), [frames])


# ---------------------------------------------------------------------------
# the one-node FK and rot6d against the taped-op oracle (tests/fk_oracle.py)


def perturbed_rest(rng, shape):
    """Frames [..., 147] near the rest pose, as the codec sees them."""
    return np.tile(M.REST_FRAME, shape + (1,)) + 0.3 * rng.standard_normal(shape + (M.FRAME_WIDTH,))


def input_grad(fn, x, probe):
    leaf = Tensor(x, requires_grad=True)
    backward((fn(leaf) * Tensor(probe)).sum())
    return leaf.grad


FK_SHAPES = [(1,), (240,), (8, 240)]  # the last spans several FK blocks and a partial one


@pytest.mark.parametrize("lead", FK_SHAPES, ids=str)
def test_fk_forward_bitwise_equals_taped_oracle(lead):
    x = perturbed_rest(np.random.default_rng(len(lead) + lead[-1]), lead)
    got = M.forward_kinematics(x)
    assert got.tobytes() == taped.forward_kinematics(x).tobytes()
    # the taped path gives the same positions as the plain one
    assert M.forward_kinematics(Tensor(x, requires_grad=True)).data.tobytes() == got.tobytes()


@pytest.mark.parametrize("lead", FK_SHAPES, ids=str)
def test_fk_input_gradient_matches_taped_oracle(lead):
    rng = np.random.default_rng(40 + lead[-1])
    x = perturbed_rest(rng, lead)
    probe = rng.standard_normal(lead + (M.JOINT_COUNT, 3))
    got = input_grad(M.forward_kinematics, x, probe)
    want = input_grad(taped.forward_kinematics, x, probe)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rot6d_bitwise_and_gradient_match_taped_oracle():
    rng = np.random.default_rng(7)
    r = rng.standard_normal((10_000, 6))
    assert M.rot6d_to_matrix(r).tobytes() == taped.rot6d_to_matrix(r).tobytes()
    probe = rng.standard_normal((10_000, 3, 3))
    got = input_grad(M.rot6d_to_matrix, r, probe)
    want = input_grad(taped.rot6d_to_matrix, r, probe)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fk_gradients_at_a_small_batch():
    frames = random_valid_frames(np.random.default_rng(17), 6).reshape(2, 3, M.FRAME_WIDTH)
    check_gradients(lambda xs: M.forward_kinematics(xs[0]), [frames])


@pytest.mark.parametrize("bad, message", [
    ([0.0, 0.0, 0.0, 0.0, 1.0, 0.0], "near-zero first column"),
    ([1.0, 0.0, 0.0, 2.0, 0.0, 0.0], "nearly parallel"),
], ids=["zero_first_column", "parallel_columns"])
def test_degenerate_rotation_raises_before_numpy_warns(bad, message):
    frames = identity_frames(3)
    frames[1, 3 + 6 * 5: 9 + 6 * 5] = bad
    for fn in (M.forward_kinematics, lambda x: M.rot6d_to_matrix(x[..., 3:].reshape(3, 24, 6))):
        for arg in (frames, Tensor(frames, requires_grad=True)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateInputError, match=message) as raised:
                    fn(arg)
            with pytest.raises(DegenerateInputError) as oracle:
                taped.forward_kinematics(frames)
            assert str(raised.value) == str(oracle.value)


def test_fk_width_error():
    with pytest.raises(ShapeError):
        M.forward_kinematics(np.zeros((4, 100)))


def test_body_layout_constants():
    assert M.PARENTS.shape == (M.JOINT_COUNT,) and M.PARENTS[0] == -1
    assert all(0 <= M.PARENTS[j] < j for j in range(1, M.JOINT_COUNT))
    assert M.DEFAULT_OFFSETS.shape == (M.JOINT_COUNT, 3)
    assert not set(M.LOWER_JOINTS) & set(M.UPPER_JOINTS)
    assert sorted(M.LOWER_JOINTS + M.UPPER_JOINTS) == list(range(M.JOINT_COUNT))
    for const in (M.PARENTS, M.DEFAULT_OFFSETS, M.UPPER_COLS, M.LOWER_COLS, M.MERGE_ORDER):
        assert not const.flags.writeable
        with pytest.raises(ValueError):
            const[0] = 0


# ---------------------------------------------------------------------------
# body split / merge


def test_split_widths():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((5, M.FRAME_WIDTH))
    upper, lower = M.split_body(frames)
    assert upper.shape == (5, 90)
    assert lower.shape == (5, 57)


def test_split_carries_translation_in_lower():
    frames = np.zeros((2, M.FRAME_WIDTH))
    frames[:, :3] = [1.0, 2.0, 3.0]
    _, lower = M.split_body(frames)
    np.testing.assert_array_equal(lower[:, :3], frames[:, :3])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_split_merge_roundtrip_bit_exact(seed, t_len):
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((t_len, M.FRAME_WIDTH))
    upper, lower = M.split_body(frames)
    merged = M.merge_body(upper, lower)
    assert np.array_equal(merged, frames)


def _explicit_cols(joints):
    return [c for j in joints for c in range(3 + 6 * j, 9 + 6 * j)]


def test_split_columns_are_joint_slices():
    frames = np.random.default_rng(2).standard_normal((4, M.FRAME_WIDTH))
    upper, lower = M.split_body(frames)
    np.testing.assert_array_equal(upper, frames[:, _explicit_cols(M.UPPER_JOINTS)])
    np.testing.assert_array_equal(lower, frames[:, [0, 1, 2] + _explicit_cols(M.LOWER_JOINTS)])
    assert (M.UPPER_COLS.size, M.LOWER_COLS.size) == (upper.shape[1], lower.shape[1])


def test_merge_width_check():
    with pytest.raises(ShapeError):
        M.merge_body(np.zeros((3, 89)), np.zeros((3, 57)))


def test_split_merge_differentiable():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((3, M.FRAME_WIDTH))
    check_gradients(lambda xs: M.merge_body(*M.split_body(xs[0])), [frames])


# ---------------------------------------------------------------------------
# finite differences


def test_finite_difference_linear_ramp():
    ramp = np.arange(10.0)[:, None] * np.array([1.0, 2.0])
    d1 = M.finite_difference(ramp, 1)
    assert d1.shape == (9, 2)
    np.testing.assert_allclose(d1, np.tile([1.0, 2.0], (9, 1)), atol=1e-15)
    d2 = M.finite_difference(ramp, 2)
    assert d2.shape == (8, 2)
    np.testing.assert_allclose(d2, 0.0, atol=1e-15)


def test_finite_difference_quadratic():
    t = np.arange(6.0)[:, None]
    x = t * t
    np.testing.assert_allclose(M.finite_difference(x, 2), 2.0, atol=1e-12)


def test_finite_difference_order_validation():
    with pytest.raises(ContractError):
        M.finite_difference(np.zeros((5, 2)), 3)
    with pytest.raises(ShapeError):
        M.finite_difference(np.zeros((2, 2)), 2)


def test_finite_difference_gradients():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 3))
    check_gradients(lambda xs: M.finite_difference(xs[0], 1), [x])
    check_gradients(lambda xs: M.finite_difference(xs[0], 2), [x])


# ---------------------------------------------------------------------------
# file format


def test_motion_file_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    motion = M.MotionSequence(rng.standard_normal((7, M.FRAME_WIDTH)))
    path = tmp_path / "clip.motion.txt"
    M.write_motion_file(path, motion)
    loaded = M.read_motion_file(path)
    np.testing.assert_array_equal(loaded.frames, motion.frames)


def test_motion_file_rejects_wrong_version(tmp_path):
    path = tmp_path / "clip.motion.txt"
    motion = M.MotionSequence(np.zeros((1, M.FRAME_WIDTH)))
    M.write_motion_file(path, motion)
    text = path.read_text().replace("v1", "v9")
    path.write_text(text)
    with pytest.raises(FormatError, match="version"):
        M.read_motion_file(path)


def test_motion_file_rejects_wrong_fps(tmp_path):
    path = tmp_path / "clip.motion.txt"
    motion = M.MotionSequence(np.zeros((1, M.FRAME_WIDTH)))
    M.write_motion_file(path, motion)
    path.write_text(path.read_text().replace("#fps 30", "#fps 60"))
    with pytest.raises(FormatError, match="fps"):
        M.read_motion_file(path)


def test_motion_file_reports_bad_line(tmp_path):
    path = tmp_path / "clip.motion.txt"
    motion = M.MotionSequence(np.zeros((2, M.FRAME_WIDTH)))
    M.write_motion_file(path, motion)
    lines = path.read_text().splitlines()
    lines[5] = "0.0 not_a_number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 6"):
        M.read_motion_file(path)


def test_motion_sequence_validation():
    with pytest.raises(ShapeError):
        M.MotionSequence(np.zeros((3, 140)))
    bad = np.zeros((2, M.FRAME_WIDTH))
    bad[0, 0] = np.nan
    with pytest.raises(FormatError):
        M.MotionSequence(bad)
