"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is a numpy array. The graph is separate from the tensors: an op's
output gets a ``_GradFn`` that holds the graph nodes of its inputs (their
``_GradFn``s, a ``requires_grad`` leaf itself, or None for a constant) and
a vector-Jacobian closure. Each closure keeps only the arrays and shapes
its VJP reads, never a Tensor, so an intermediate's array is freed as soon
as the forward drops it unless a VJP saved it; a VJP returns None for an
input that needs no gradient. ``backward`` frees the graph as it goes.
Gradients are first order only. Graph construction is single threaded;
tensors that do not track gradients are treated as immutable and are safe
to share.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables tape construction inside its block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """A float64 array plus optional gradient bookkeeping.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad``
    when ``backward`` runs; repeated backward calls keep accumulating until
    the caller clears the gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar. Scalars and ndarrays are lifted to constant tensors;
    # numpy defers to these methods rather than applying its ufuncs
    # elementwise to the Tensor as an object.
    __array_ufunc__ = None

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __rmatmul__(self, other):
        return matmul(_lift(other), self)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


class Parameter(Tensor):
    """A leaf tensor registered with a module; always tracks gradients."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def wrap(x):
    """(tensor, was_plain), so a function can take a Tensor or an array-like."""
    if isinstance(x, Tensor):
        return x, False
    return Tensor(np.asarray(x, dtype=np.float64)), True


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` to undo numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g


class _GradFn:
    """One op's entry in the graph: the graph nodes of its inputs, in the
    op's order, and the VJP that maps the output's gradient to theirs."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


def _graph_node(t: Tensor):
    """``t``'s grad function, ``t`` itself for a leaf that needs a gradient,
    or None for a constant."""
    if t._grad_fn is not None:
        return t._grad_fn
    return t if t.requires_grad else None


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Create an op output, attaching its grad function only when needed."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._grad_fn = _GradFn(tuple(_graph_node(p) for p in parents), vjp)
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``.grad`` of every requires_grad leaf reachable from
    ``loss`` and frees the graph so it cannot be reused. The sweep pops
    each grad function off its order as it goes, so a grad function, and
    the arrays its VJP kept, is released once its VJP has run.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar, got shape {loss.data.shape}")
    root = _graph_node(loss)
    if root is None:
        return
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _GradFn):
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

    grads = {id(root): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if isinstance(node, Tensor):
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        if g is not None and node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg
        node.parents = ()
        node.vjp = None


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape, need_a, need_b = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad
    return _node(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a_shape) if need_a else None,
        _unbroadcast(g, b_shape) if need_b else None,
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape, need_a, need_b = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad
    return _node(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a_shape) if need_a else None,
        _unbroadcast(-g, b_shape) if need_b else None,
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    # each side keeps the operand the other side's gradient reads
    a_shape, b_shape = a.data.shape, b.data.shape
    a_kept = a.data if b.requires_grad else None
    b_kept = b.data if a.requires_grad else None
    return _node(a.data * b.data, (a, b), lambda g: (
        None if b_kept is None else _unbroadcast(g * b_kept, a_shape),
        None if a_kept is None else _unbroadcast(g * a_kept, b_shape),
    ))


def div(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape, need_a = a.data.shape, b.data.shape, a.requires_grad
    a_kept = a.data if b.requires_grad else None
    b_data = b.data
    return _node(a.data / b.data, (a, b), lambda g: (
        _unbroadcast(g / b_data, a_shape) if need_a else None,
        None if a_kept is None else _unbroadcast(-g * a_kept / (b_data * b_data), b_shape),
    ))


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _node(e, (a,), lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _node(np.log(x), (a,), lambda g: (g / x,))


def sqrt(a: Tensor) -> Tensor:
    s = np.sqrt(a.data)
    return _node(s, (a,), lambda g: (g * (0.5 / s),))


def sigmoid(a: Tensor) -> Tensor:
    s = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def softplus(a: Tensor) -> Tensor:
    data = np.logaddexp(0.0, a.data)
    sig = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    return _node(data, (a,), lambda g: (g * sig,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def abs_(a: Tensor) -> Tensor:
    x = a.data
    return _node(np.abs(x), (a,), lambda g: (g * np.sign(x),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), composed from primitives."""
    return mul(a, sigmoid(a))


def near_zero(u: np.ndarray) -> np.ndarray | None:
    """The mask of |u| < 1e-6, where ``phi1``'s closed forms lose their
    digits, or None when no entry is that small."""
    small = np.abs(u) < 1e-6
    return small if small.any() else None


def phi1(u: np.ndarray, small: np.ndarray | None, exp_u: np.ndarray | None = None) -> np.ndarray:
    """phi1(u) = (e^u - 1) / u elementwise or, given ``exp_u`` = e^u, its
    derivative (e^u (u - 1) + 1) / u^2.

    Both closed forms lose their digits near u = 0 and divide by zero at
    it, so the entries in ``small`` (``near_zero(u)``, which a caller
    computes once for both forms) take the series 1 + u/2 + u^2/6 or
    1/2 + u/3 + u^2/8 instead. Only those entries pay for the series, and
    when ``small`` is None the closed form runs on ``u`` as it is.
    """
    safe = u if small is None else np.where(small, 1.0, u)
    if exp_u is None:
        out = np.asarray(np.expm1(safe) / safe)
    else:
        out = np.asarray((exp_u * (safe - 1.0) + 1.0) / (safe * safe))
    if small is not None:
        us = u[small]
        out[small] = (1.0 + us / 2.0 + us * us / 6.0 if exp_u is None
                      else 0.5 + us / 3.0 + us * us / 8.0)
    return out


def expm1_over(a: Tensor) -> Tensor:
    """phi1(u) = (e^u - 1) / u as a taped op, finite through u = 0."""
    u = a.data
    small = near_zero(u)
    return _node(phi1(u, small), (a,), lambda g: (g * phi1(u, small, np.exp(u)),))


# ---------------------------------------------------------------------------
# Linear algebra and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    a_shape, b_shape = a.data.shape, b.data.shape
    a_kept = a.data if b.requires_grad else None
    b_kept = b.data if a.requires_grad else None

    def vjp(g):
        ga = None if b_kept is None else _unbroadcast(g @ np.swapaxes(b_kept, -1, -2), a_shape)
        gb = None if a_kept is None else _unbroadcast(np.swapaxes(a_kept, -1, -2) @ g, b_shape)
        return ga, gb

    return _node(a.data @ b.data, (a, b), vjp)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    total = reduce_sum(a, axis=axis, keepdims=keepdims)
    return total * (1.0 / (a.data.size // total.data.size))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a_shape = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a_shape),))


def transpose(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = [p if isinstance(p, Tensor) else Tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return _node(data, parts, lambda g: tuple(np.split(g, bounds, axis=axis)))


def softmax_lastdim(a: Tensor) -> Tensor:
    """Softmax along the last axis. -inf entries get exactly zero weight.

    A row with every entry masked to -inf has no valid distribution and
    raises rather than returning NaNs.
    """
    rowmax = np.max(a.data, axis=-1, keepdims=True)
    if np.isneginf(rowmax).any():
        raise DegenerateInputError("softmax row with all entries masked to -inf")
    e = np.exp(a.data - rowmax)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _node(s, (a,), vjp)


def index(a: Tensor, key) -> Tensor:
    """``a.data[key]`` under numpy's indexing rules; a basic key gives a view.

    The gradient is scattered into zeros: by plain assignment when no entry
    can be picked twice, otherwise by ``np.add.at``, which sums repeated
    picks. The check runs in the VJP only, so ``no_grad`` never pays for it.
    """

    # np.zeros_like keeps a's memory layout: a C-contiguous input needs only
    # its shape, any other layout keeps the input itself as the template
    shape, like = a.data.shape, None if a.data.flags.c_contiguous else a.data

    def vjp(g):
        ga = np.zeros(shape) if like is None else np.zeros_like(like)
        if _picks_once(key):
            ga[key] = g
        else:
            np.add.at(ga, key, g)
        return (ga,)

    return _node(a.data[key], (a,), vjp)


def _picks_once(key) -> bool:
    """Whether no entry can be picked twice: the key holds no integer array,
    or one of distinct non-negative indices (a negative index can name the
    same entry as a non-negative one)."""
    ints = [np.asarray(k) for k in (key if isinstance(key, tuple) else (key,))
            if isinstance(k, (list, np.ndarray)) and np.asarray(k).dtype.kind in "iu"]
    if len(ints) != 1:
        return not ints
    ids = ints[0]
    return ids.size == 0 or (ids.min() >= 0 and np.unique(ids).size == ids.size)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding ids outside [0, {table.data.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return index(table, ids)


# ---------------------------------------------------------------------------
# Convolutions. Layout: activations [..., time, channels], weights
# [kernel, in_channels, out_channels]. Same-style padding keeps
# out_len = ceil(in_len / stride); the transposed op is the adjoint of the
# same-padded conv that maps in_len * stride rows to in_len, so it returns
# exactly in_len * stride rows. Both are linear maps without a bias; a
# caller adds its bias with ``+``.


def _same_pad(t_in: int, kernel: int, stride: int):
    t_out = -(-t_in // stride)
    total = max((t_out - 1) * stride + kernel - t_in, 0)
    return t_out, total // 2, total - total // 2


def _windows(a: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """im2col of the same-padded conv: [..., t, C] -> [..., ceil(t/stride), kernel*C]."""
    t_out, pad_l, pad_r = _same_pad(a.shape[-2], kernel, stride)
    ap = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(pad_l, pad_r), (0, 0)])
    win = np.lib.stride_tricks.sliding_window_view(ap, kernel, axis=-2)[..., ::stride, :, :]
    return np.swapaxes(win, -1, -2).reshape(a.shape[:-2] + (t_out, kernel * a.shape[-1]))


def _overlap_add(cols: np.ndarray, t: int, kernel: int, stride: int) -> np.ndarray:
    """Adjoint of ``_windows``: [..., ceil(t/stride), kernel*C] -> [..., t, C]."""
    t_out, pad_l, pad_r = _same_pad(t, kernel, stride)
    cols = cols.reshape(cols.shape[:-1] + (kernel, -1))
    out = np.zeros(cols.shape[:-3] + (t + pad_l + pad_r, cols.shape[-1]))
    span = stride * (t_out - 1) + 1
    for k in range(kernel):
        out[..., k:k + span:stride, :] += cols[..., k, :]
    return out[..., pad_l:pad_l + t, :]


def _conv_shapes(op: str, x: Tensor, w: Tensor, stride: int):
    if stride < 1:
        raise ContractError(f"{op} stride must be >= 1, got {stride}")
    if x.ndim < 2 or w.ndim != 3:
        raise ShapeError(f"{op} expects x [..., T, Cin] and w [K, Cin, Cout], got {x.shape}, {w.shape}")
    kernel, c_in, c_out = w.shape
    if x.shape[-1] != c_in:
        raise ShapeError(f"{op} channels mismatch: x has {x.shape[-1]}, w expects {c_in}")
    return kernel, c_in, c_out


def conv1d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    kernel, c_in, c_out = _conv_shapes("conv1d", x, w, stride)
    cols = _windows(x.data, kernel, stride)
    w2 = w.data.reshape(kernel * c_in, c_out)
    t_in, w_shape = x.data.shape[-2], w.data.shape
    cols_kept = cols if w.requires_grad else None
    w2_kept = w2 if x.requires_grad else None

    def vjp(g):
        gx = None if w2_kept is None else _overlap_add(g @ w2_kept.T, t_in, kernel, stride)
        gw = None if cols_kept is None else (
            cols_kept.reshape(-1, kernel * c_in).T @ g.reshape(-1, c_out)).reshape(w_shape)
        return gx, gw

    return _node(cols @ w2, (x, w), vjp)


def conv1d_transpose(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    kernel, c_in, c_out = _conv_shapes("conv1d_transpose", x, w, stride)
    wt = np.swapaxes(w.data, 0, 1).reshape(c_in, kernel * c_out)
    x_kept = x.data if w.requires_grad else None
    wt_kept = wt if x.requires_grad else None

    def vjp(g):
        gcols = _windows(g, kernel, stride)
        gx = None if wt_kept is None else gcols @ wt_kept.T
        if x_kept is None:
            return gx, None
        gw = x_kept.reshape(-1, c_in).T @ gcols.reshape(-1, kernel * c_out)
        return gx, np.swapaxes(gw.reshape(c_in, kernel, c_out), 0, 1)

    return _node(_overlap_add(x.data @ wt, x.shape[-2] * stride, kernel, stride), (x, w), vjp)


# ---------------------------------------------------------------------------
# Linear recurrence (diagonal state-space scan)


def _recurrence_loop(a: np.ndarray, b: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """h_t = a_t * h_{t-1} + b_t along axis 0 from h_{-1} = initial, in numpy."""
    h = np.empty(b.shape)
    prev = initial
    for t in range(b.shape[0]):
        prev = np.multiply(a[t], prev, out=h[t])
        prev += b[t]
    return h


def linear_recurrence(decay: Tensor, drive: Tensor, initial=None) -> Tensor:
    """States of h_t = decay_t * h_{t-1} + drive_t along axis 0.

    Elementwise over trailing axes: the recurrent mode of a diagonal scan.
    h_{-1} is ``initial`` (an array of one row's shape), or zero when it is
    None; it is a constant, so no gradient flows to it, and a sequence split
    in two and chained through ``initial`` gives the unsplit states bitwise.
    The adjoint is the same loop backwards in time, lam_t = g_t +
    decay_{t+1} lam_{t+1}, with gdrive = lam and gdecay = lam * h_{t-1}.
    """
    if decay.shape != drive.shape:
        raise ShapeError(f"recurrence shapes differ: {decay.shape} vs {drive.shape}")
    if decay.ndim < 1 or decay.shape[0] < 1:
        raise ShapeError("recurrence needs a nonempty leading time axis")
    zero_row = np.zeros((1,) + decay.shape[1:])
    first = zero_row if initial is None else np.asarray(initial, dtype=np.float64)[None]
    if first.shape != zero_row.shape:
        raise ShapeError(f"initial state must be {decay.shape[1:]}, got {first.shape[1:]}")
    decay_data = decay.data
    h = _recurrence_loop(decay_data, drive.data, first[0])

    def vjp(g):
        decay_next = np.concatenate([decay_data[1:], zero_row])
        lam = _recurrence_loop(decay_next[::-1], g[::-1], zero_row[0])[::-1]
        return lam * np.concatenate([first, h[:-1]]), lam

    return _node(h, (decay, drive), vjp)


def parallel_linear_recurrence(decay: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """The same recurrence by associative doubling: the oracle the tests hold
    ``linear_recurrence`` to, not a fast path (it is slower at every length).

    Pairs (a, b) represent affine maps h -> a*h + b; composing prefixes in
    log2(T) sweeps yields all states. Matches the sequential loop to
    floating-point accumulation order.
    """
    if decay.shape != drive.shape:
        raise ShapeError(f"recurrence shapes differ: {decay.shape} vs {drive.shape}")
    a = np.array(decay, dtype=np.float64, copy=True)
    b = np.array(drive, dtype=np.float64, copy=True)
    steps = a.shape[0]
    shift = 1
    while shift < steps:
        b[shift:] = b[shift:] + a[shift:] * b[:-shift]
        a[shift:] = a[shift:] * a[:-shift]
        shift *= 2
    return b


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute deviation between two tensors."""
    return reduce_mean(abs_(sub(a, b)))
