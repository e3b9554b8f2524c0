"""Motion representation: 147-wide frames, 6D rotations, forward kinematics.

A frame is [root translation (3); 24 joint rotations in 6D (144)], sampled
at 30 fps. Rotations are parent-relative: each 6D block is the rotation of
a joint in its parent's frame, and forward kinematics composes them down
the tree (see ``forward_kinematics``). All rotation/FK math runs through
the autodiff tensor ops so reconstruction losses can differentiate through
joint positions; plain ndarray inputs take the same code path and return
ndarrays.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from . import textfile as TF
from .errors import ContractError, DegenerateInputError, FormatError, ShapeError
from .tensor import Tensor

FPS = 30
JOINT_COUNT = 24
FRAME_WIDTH = 3 + 6 * JOINT_COUNT  # 147

# Kinematic tree, root first, every parent index smaller than its child.
PARENTS = np.array(
    [-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21]
)

# Rest-pose bone offsets in meters, y-up. Synthetic but humanoid-proportioned.
DEFAULT_OFFSETS = np.array([
    [0.00, 0.00, 0.00],    # pelvis (root; offset unused)
    [0.09, -0.06, 0.00],   # l_hip
    [-0.09, -0.06, 0.00],  # r_hip
    [0.00, 0.11, 0.00],    # spine1
    [0.04, -0.38, 0.00],   # l_knee
    [-0.04, -0.38, 0.00],  # r_knee
    [0.00, 0.12, 0.00],    # spine2
    [0.00, -0.40, -0.02],  # l_ankle
    [0.00, -0.40, -0.02],  # r_ankle
    [0.00, 0.06, 0.00],    # spine3
    [0.00, -0.06, 0.12],   # l_foot
    [0.00, -0.06, 0.12],   # r_foot
    [0.00, 0.21, -0.01],   # neck
    [0.08, 0.11, 0.00],    # l_collar
    [-0.08, 0.11, 0.00],   # r_collar
    [0.00, 0.07, 0.02],    # head
    [0.11, 0.02, 0.00],    # l_shoulder
    [-0.11, 0.02, 0.00],   # r_shoulder
    [0.26, 0.00, 0.00],    # l_elbow
    [-0.26, 0.00, 0.00],   # r_elbow
    [0.25, 0.00, 0.00],    # l_wrist
    [-0.25, 0.00, 0.00],   # r_wrist
    [0.08, 0.00, 0.00],    # l_hand
    [-0.08, 0.00, 0.00],   # r_hand
])

# Frame layout: columns 0-2 hold the root translation, JOINT_COLS[j] the six
# 6D columns of joint j. The rest frame has zero translation and the identity
# rotation (1,0,0,0,1,0) at every joint.
JOINT_COLS = 3 + 6 * np.arange(JOINT_COUNT)[:, None] + np.arange(6)
JOINT_COLS.flags.writeable = False
REST_FRAME = np.concatenate([np.zeros(3), np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], JOINT_COUNT)])
REST_FRAME.flags.writeable = False

# Body-part routing for the two-branch codec. UPPER_COLS/LOWER_COLS are
# each part's frame columns, joint by joint in set order; the lower part
# carries the root translation first, so widths are 15*6 = 90 and
# 3 + 9*6 = 57. MERGE_ORDER gathers [upper | lower] back into frame order.
LOWER_JOINTS = (0, 1, 2, 4, 5, 7, 8, 10, 11)
UPPER_JOINTS = tuple(j for j in range(JOINT_COUNT) if j not in LOWER_JOINTS)
UPPER_COLS = JOINT_COLS[list(UPPER_JOINTS)].reshape(-1)
LOWER_COLS = np.concatenate([np.arange(3), JOINT_COLS[list(LOWER_JOINTS)].reshape(-1)])
MERGE_ORDER = np.argsort(np.concatenate([UPPER_COLS, LOWER_COLS]))
for _const in (PARENTS, DEFAULT_OFFSETS, UPPER_COLS, LOWER_COLS, MERGE_ORDER):
    _const.flags.writeable = False

_DEGENERACY_EPS = 1e-8


class MotionSequence:
    """A validated [T, 147] motion clip at 30 fps."""

    def __init__(self, frames: np.ndarray):
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != FRAME_WIDTH:
            raise ShapeError(f"motion frames must be [T, {FRAME_WIDTH}], got {frames.shape}")
        if frames.shape[0] < 1:
            raise ShapeError("motion must contain at least one frame")
        if not np.isfinite(frames).all():
            raise FormatError("motion frames contain non-finite values")
        self.frames = frames

    def __len__(self) -> int:
        return self.frames.shape[0]


def rot6d_to_matrix(r):
    """Gram-Schmidt a [..., 6] 6D rotation into [..., 3, 3].

    The six numbers are the first two matrix columns; the first is
    normalized, the second orthogonalized against it, the third is their
    cross product. Near-degenerate inputs (tiny first column, second
    column nearly parallel to the first) raise instead of being repaired:
    silent repair would hide upstream training bugs.
    """
    r, plain = T.wrap(r)
    if r.shape[-1] != 6:
        raise ShapeError(f"6D rotations need a trailing axis of 6, got {r.shape}")

    a, b = r[..., :3], r[..., 3:]

    a_norm = np.sqrt((a.data ** 2).sum(axis=-1))
    if (a_norm <= _DEGENERACY_EPS).any():
        raise DegenerateInputError("6D rotation with near-zero first column")

    col1 = a / T.sqrt((a * a).sum(axis=-1, keepdims=True))
    proj = (b * col1).sum(axis=-1, keepdims=True)
    ortho = b - proj * col1
    ortho_norm = np.sqrt((ortho.data ** 2).sum(axis=-1))
    if (ortho_norm <= _DEGENERACY_EPS).any():
        raise DegenerateInputError("6D rotation with columns nearly parallel")
    col2 = ortho / T.sqrt((ortho * ortho).sum(axis=-1, keepdims=True))
    col3 = _cross(col1, col2)

    last = col1.ndim
    cols = [c.reshape(c.shape + (1,)) for c in (col1, col2, col3)]
    mat = T.concat(cols, axis=last)
    return mat.data if plain else mat


def _cross(u: Tensor, v: Tensor) -> Tensor:
    """u x v over the last axis, as u_yzx * v_zxy - u_zxy * v_yzx."""
    yzx, zxy = [1, 2, 0], [2, 0, 1]
    return u[..., yzx] * v[..., zxy] - u[..., zxy] * v[..., yzx]


def forward_kinematics(frames):
    """Joint positions [..., T, 24, 3] from frames [..., T, 147].

    Composition: the root's global rotation is its own rotation and its
    position is the translation channel; every other joint multiplies its
    parent's global rotation and adds the parent-rotated bone offset.
    Positions are built root-relative and the translation is added once at
    the end, so shifting the translation shifts every joint exactly.
    """
    x, plain = T.wrap(frames)
    if x.shape[-1] != FRAME_WIDTH:
        raise ShapeError(f"frames must end in width {FRAME_WIDTH}, got {x.shape}")
    if x.ndim < 2:
        raise ShapeError("frames need at least a [T, width] shape")

    trans = x[..., :3]
    rots = x[..., 3:].reshape(x.shape[:-1] + (JOINT_COUNT, 6))
    rmats = rot6d_to_matrix(rots)  # [..., T, 24, 3, 3]

    globals_ = [rmats[..., 0, :, :]]
    local = [Tensor(np.zeros(x.shape[:-1] + (3,)))]  # root-relative positions [..., T, 3]
    for j in range(1, JOINT_COUNT):
        parent = PARENTS[j]
        offset = Tensor(DEFAULT_OFFSETS[j].reshape(3, 1))
        step = (globals_[parent] @ offset).reshape(x.shape[:-1] + (3,))
        local.append(local[parent] + step)
        globals_.append(globals_[parent] @ rmats[..., j, :, :])

    stacked = T.concat([p.reshape(p.shape[:-1] + (1, 3)) for p in local], axis=x.ndim - 1)
    positions = stacked + trans.reshape(trans.shape[:-1] + (1, 3))
    return positions.data if plain else positions


def split_body(frames):
    """Split [..., 147] frames into (upper [..., 90], lower [..., 57]).

    Each part is a column gather (``UPPER_COLS`` / ``LOWER_COLS``), so it
    is exact and differentiates cleanly; the lower part carries the root
    translation.
    """
    x, plain = T.wrap(frames)
    if x.shape[-1] != FRAME_WIDTH:
        raise ShapeError(f"split_body expects trailing width {FRAME_WIDTH}, got {x.shape}")
    upper, lower = x[..., UPPER_COLS], x[..., LOWER_COLS]
    return (upper.data, lower.data) if plain else (upper, lower)


def merge_body(upper, lower):
    """Inverse of split_body; bit-exact because columns merely move back."""
    u, plain_u = T.wrap(upper)
    l, plain_l = T.wrap(lower)
    if u.shape[-1] != UPPER_COLS.size or l.shape[-1] != LOWER_COLS.size:
        raise ShapeError(
            f"merge_body widths must be ({UPPER_COLS.size}, {LOWER_COLS.size}), "
            f"got ({u.shape[-1]}, {l.shape[-1]})"
        )
    merged = T.concat([u, l], axis=-1)[..., MERGE_ORDER]
    return merged.data if (plain_u and plain_l) else merged


def finite_difference(x, order: int):
    """Forward differences along the time axis (second-to-last axis).

    Order 1 returns x_{t+1} - x_t (length T-1); order 2 returns
    x_{t+2} - 2 x_{t+1} + x_t (length T-2).
    """
    if order not in (1, 2):
        raise ContractError(f"difference order must be 1 or 2, got {order}")
    xt, plain = T.wrap(x)
    if xt.shape[-2] < order + 1:
        raise ShapeError(f"need at least {order + 1} frames for order {order}, got {xt.shape[-2]}")
    if order == 1:
        out = xt[..., 1:, :] - xt[..., :-1, :]
    else:
        out = xt[..., 2:, :] - xt[..., 1:-1, :] * 2.0 + xt[..., :-2, :]
    return out.data if plain else out


# ---------------------------------------------------------------------------
# Motion file format: plain text, '#'-prefixed header, one frame per line.

MOTION_FORMAT = "dancegen-motion"
MOTION_VERSION = 1


def write_motion_file(path, motion: MotionSequence) -> None:
    header = {"fps": FPS, "joint_count": JOINT_COUNT, "frame_count": motion.frames.shape[0]}
    TF.write_text_file(path, MOTION_FORMAT, MOTION_VERSION, header,
                       (TF.float_row(row) for row in motion.frames))


def read_motion_file(path) -> MotionSequence:
    (count,), rows, body_start = TF.read_text_file(
        path, MOTION_FORMAT, MOTION_VERSION, ("frame_count",),
        fixed={"fps": FPS, "joint_count": JOINT_COUNT},
    )
    return MotionSequence(TF.parse_float_rows(path, rows, body_start, FRAME_WIDTH, count))
