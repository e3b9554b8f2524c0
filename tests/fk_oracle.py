"""Forward kinematics composed from taped ops: the oracle the one-node
``motion.forward_kinematics`` and ``motion.rot6d_to_matrix`` are held to,
bitwise in their outputs and within 1e-12 of the largest entry in their
input gradients.

This is the tape-op form the program ran before FK became one node: a
Gram-Schmidt of tensor slices, a cross product by index gathers, and one
taped matmul per joint and per bone offset. Plain inputs give arrays, a
Tensor input gives taped Tensors.
"""

import numpy as np

from dancegen import tensor as T
from dancegen.errors import DegenerateInputError, ShapeError
from dancegen.motion import DEFAULT_OFFSETS, FRAME_WIDTH, JOINT_COUNT, PARENTS
from dancegen.tensor import Tensor

_DEGENERACY_EPS = 1e-8


def rot6d_to_matrix(r):
    """Gram-Schmidt a [..., 6] 6D rotation into [..., 3, 3], as taped ops."""
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
    """Joint positions [..., T, 24, 3] from frames [..., T, 147], as taped ops."""
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
