"""Motion representation: 147-wide frames, 6D rotations, forward kinematics.

A frame is [root translation (3); 24 joint rotations in 6D (144)], sampled
at 30 fps. Rotations are parent-relative: each 6D block is the rotation of
a joint in its parent's frame, and forward kinematics composes them down
the tree (see ``forward_kinematics``). Rotation and FK math runs on plain
arrays: ``rot6d_to_matrix`` and ``forward_kinematics`` are each one node on
the autodiff tape with a hand-written VJP, so reconstruction losses can
differentiate through joint positions, and a plain ndarray input returns an
ndarray without building a tape. ``vector_norm`` is the one norm of 3-vectors
shared by the Gram-Schmidt, the motion features and the kinematic beats.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from . import textfile as TF
from .errors import ContractError, DegenerateInputError, FormatError, ShapeError

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


def _dot(u, v):
    """u . v of two 3-tuples of component arrays, summed left to right."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    """u x v of two 3-tuples of component arrays."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _components(v: np.ndarray):
    """The three components of a last axis of 3, as views."""
    return v[..., 0], v[..., 1], v[..., 2]


def vector_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over a last axis of 3, as the sqrt of the squares
    summed left to right: bitwise ``np.linalg.norm(v, axis=-1)``, whose
    sum over a last axis this short runs in that order, without its
    small-axis reduction."""
    v = _components(v)
    return np.sqrt(_dot(v, v))


def _gram_schmidt(r: np.ndarray):
    """Rotation matrices [..., 3, 3] of 6D rotations r [..., 6], and the
    first column's norm, the projection and the second column's norm that
    ``_gram_schmidt_vjp`` reads.

    The work runs per component, each dot product a 3-term sum written
    left to right, the order of numpy's last-axis sum of 3, so the
    matrices equal those of the same steps on [..., 3] arrays bitwise. A
    degenerate input raises before anything divides by its norm.
    """
    a, b = _components(r[..., :3]), _components(r[..., 3:])
    n1 = np.sqrt(_dot(a, a))
    if (n1 <= _DEGENERACY_EPS).any():
        raise DegenerateInputError("6D rotation with near-zero first column")
    col1 = tuple(ai / n1 for ai in a)
    proj = _dot(b, col1)
    ortho = tuple(bi - proj * ci for bi, ci in zip(b, col1))
    n2 = np.sqrt(_dot(ortho, ortho))
    if (n2 <= _DEGENERACY_EPS).any():
        raise DegenerateInputError("6D rotation with columns nearly parallel")
    col2 = tuple(oi / n2 for oi in ortho)
    mat = np.empty(r.shape[:-1] + (3, 3))
    for k, col in enumerate((col1, col2, _cross(col1, col2))):
        for i in range(3):
            mat[..., i, k] = col[i]
    return mat, (n1, proj, n2)


def _gram_schmidt_vjp(r: np.ndarray, mat: np.ndarray, saved, g: np.ndarray, out: np.ndarray):
    """Write into ``out`` [..., 6] the gradient of r from ``g`` [..., 3, 3],
    the gradient of ``_gram_schmidt(r)``'s matrices: back through the cross
    product, the second normalization, the projection and the first
    normalization."""
    n1, proj, n2 = saved
    col1, col2 = _components(mat[..., 0]), _components(mat[..., 1])
    g3 = _components(g[..., 2])
    gcol1 = tuple(gi + ci for gi, ci in zip(_components(g[..., 0]), _cross(col2, g3)))
    gcol2 = tuple(gi + ci for gi, ci in zip(_components(g[..., 1]), _cross(g3, col1)))
    # col2 = ortho / n2
    along = _dot(col2, gcol2)
    gortho = tuple((gi - ci * along) / n2 for gi, ci in zip(gcol2, col2))
    # ortho = b - proj * col1, proj = b . col1
    gproj = -_dot(col1, gortho)
    for i in range(3):
        np.add(gortho[i], gproj * col1[i], out=out[..., 3 + i])
    gcol1 = tuple(gi - proj * oi + gproj * r[..., 3 + i]
                  for i, (gi, oi) in enumerate(zip(gcol1, gortho)))
    # col1 = a / n1
    along = _dot(col1, gcol1)
    for i in range(3):
        np.divide(gcol1[i] - col1[i] * along, n1, out=out[..., i])
    return out


def rot6d_to_matrix(r):
    """Gram-Schmidt a [..., 6] 6D rotation into [..., 3, 3].

    The six numbers are the first two matrix columns; the first is
    normalized, the second orthogonalized against it, the third is their
    cross product. Near-degenerate inputs (tiny first column, second
    column nearly parallel to the first) raise instead of being repaired:
    silent repair would hide upstream training bugs. A Tensor input gives
    a taped Tensor, one node with a hand-written VJP.
    """
    r, plain = T.wrap(r)
    if r.shape[-1] != 6:
        raise ShapeError(f"6D rotations need a trailing axis of 6, got {r.shape}")
    r6 = r.data
    mat, saved = _gram_schmidt(r6)
    if plain:
        return mat
    return T._node(mat, (r,), lambda g: (_gram_schmidt_vjp(r6, mat, saved, g, np.empty(r6.shape)),))


# Joints that are some joint's parent: only their global rotations are read.
_HAS_CHILD = frozenset(PARENTS[1:].tolist())
# Frames per block of the FK forward and VJP, so that a block's temporaries
# stay small enough for the cache and the heap.
_FK_BLOCK = 256


def forward_kinematics(frames):
    """Joint positions [..., T, 24, 3] from frames [..., T, 147].

    Composition: the root's global rotation is its own rotation and its
    position is the translation channel; every other joint multiplies its
    parent's global rotation and adds the parent-rotated bone offset.
    Positions are built root-relative and the translation is added once at
    the end, so shifting the translation shifts every joint exactly.

    One tape node. The forward runs on arrays, ``_FK_BLOCK`` frames at a
    time, with one matmul per joint and per bone offset, each on the values
    and layouts the same chain of taped ops uses, so positions are bitwise
    those of that chain. The node keeps each block's 6D rotations, rotation
    matrices, Gram-Schmidt norms and the global rotations of joints with
    children. Its VJP walks each block's chain in reverse joint order, then
    runs the Gram-Schmidt backward, and returns the frames' gradient as one
    array.
    """
    x, plain = T.wrap(frames)
    if x.shape[-1] != FRAME_WIDTH:
        raise ShapeError(f"frames must end in width {FRAME_WIDTH}, got {x.shape}")
    if x.ndim < 2:
        raise ShapeError("frames need at least a [T, width] shape")

    flat = x.data.reshape(-1, FRAME_WIDTH)
    positions = np.empty((flat.shape[0], JOINT_COUNT, 3))
    blocks = [slice(i, i + _FK_BLOCK) for i in range(0, flat.shape[0], _FK_BLOCK)]
    saved = [_fk_block(flat[b], positions[b]) for b in blocks]
    positions = positions.reshape(x.shape[:-1] + (JOINT_COUNT, 3))
    if plain:
        return positions

    def vjp(g):
        g = g.reshape(-1, JOINT_COUNT, 3)
        gx = np.empty((g.shape[0], FRAME_WIDTH))
        for b, kept in zip(blocks, saved):
            _fk_block_vjp(kept, g[b], gx[b])
        return (gx.reshape(x.shape),)

    return T._node(positions, (x,), vjp)


def _fk_block(frames: np.ndarray, positions: np.ndarray):
    """Fill ``positions`` [B, 24, 3] from ``frames`` [B, 147]; return what
    the VJP reads: the 6D rotations, their matrices and Gram-Schmidt norms,
    and the global rotations of the joints that have children."""
    rots = np.ascontiguousarray(frames[:, 3:]).reshape(-1, JOINT_COUNT, 6)
    rmats, norms = _gram_schmidt(rots)
    globals_ = {0: rmats[:, 0]}
    positions[:, 0] = 0.0  # root-relative until the translation is added
    for j in range(1, JOINT_COUNT):
        parent = PARENTS[j]
        step = (globals_[parent] @ DEFAULT_OFFSETS[j].reshape(3, 1)).reshape(-1, 3)
        np.add(positions[:, parent], step, out=positions[:, j])
        if j in _HAS_CHILD:
            globals_[j] = globals_[parent] @ rmats[:, j]
    positions += frames[:, None, :3]
    return rots, rmats, norms, globals_


def _fk_block_vjp(kept, g: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` [B, 147] the gradient of ``_fk_block``'s frames
    from ``g`` [B, 24, 3], the gradient of its positions.

    The walk carries each global rotation's gradient transposed, so that
    every matmul takes its operands in their stored layout: with H = dG^T,
    a child j of p adds off_j glocal_j^T + R_j H_j to H_p, and R_j's
    gradient is (H_j G_p)^T.
    """
    rots, rmats, norms, globals_ = kept
    glocal = np.moveaxis(g, 1, 0).copy()  # joint-major [24, B, 3]
    out[:, :3] = glocal.sum(axis=0)
    grot_t = np.zeros(rmats.shape)  # each joint's rotation gradient, transposed
    gglobal_t = {}
    for j in range(JOINT_COUNT - 1, 0, -1):
        parent = PARENTS[j]
        glocal[parent] += glocal[j]
        contrib = DEFAULT_OFFSETS[j][:, None] * glocal[j][:, None, :]
        h = gglobal_t.pop(j, None)
        if h is not None:  # only a joint with children has a global to pass back
            contrib += rmats[:, j] @ h
            np.matmul(h, globals_[parent], out=grot_t[:, j])
        if parent in gglobal_t:
            gglobal_t[parent] += contrib
        else:
            gglobal_t[parent] = contrib
    grot_t[:, 0] = gglobal_t.pop(0)
    # splitting out's last axis gives a view, which the Gram-Schmidt VJP fills
    _gram_schmidt_vjp(rots, rmats, norms, np.swapaxes(grot_t, -1, -2),
                      out[:, 3:].reshape(-1, JOINT_COUNT, 6))


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
