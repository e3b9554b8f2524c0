"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is a numpy array; the graph is a tape of vector-Jacobian closures
built during the forward pass and freed after ``backward``. Gradients are
first order only. Graph construction is single threaded; tensors that do
not track gradients are treated as immutable and are safe to share.
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._vjp = None

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
        return float(self.data)

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


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Create an op output, attaching the tape entry only when needed."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``.grad`` of every requires_grad leaf reachable from
    ``loss`` and frees the tape so the graph cannot be reused. The sweep
    pops each node off its order as it goes, so a node, and the arrays its
    VJP kept, is released once its VJP has run unless the caller holds it.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar, got shape {loss.data.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            node._parents = ()
            node._vjp = None
            continue
        if node.requires_grad and not node._parents:
            node.grad = g if node.grad is None else node.grad + g
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg
        node._parents = ()
        node._vjp = None


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _node(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _node(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _node(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    return _node(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _node(e, (a,), lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


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
    return _node(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), composed from primitives."""
    return mul(a, sigmoid(a))


def phi1(u: np.ndarray, exp_u: np.ndarray | None = None) -> np.ndarray:
    """phi1(u) = (e^u - 1) / u elementwise or, given ``exp_u`` = e^u, its
    derivative (e^u (u - 1) + 1) / u^2.

    Both closed forms lose their digits near u = 0 and divide by zero at
    it, so the entries with |u| < 1e-6 take the series 1 + u/2 + u^2/6 or
    1/2 + u/3 + u^2/8 instead. Only those entries pay for the series, and
    when there are none the closed form runs on ``u`` as it is.
    """
    small = np.abs(u) < 1e-6
    any_small = small.any()
    safe = np.where(small, 1.0, u) if any_small else u
    if exp_u is None:
        out = np.asarray(np.expm1(safe) / safe)
    else:
        out = np.asarray((exp_u * (safe - 1.0) + 1.0) / (safe * safe))
    if any_small:
        us = u[small]
        out[small] = (1.0 + us / 2.0 + us * us / 6.0 if exp_u is None
                      else 0.5 + us / 3.0 + us * us / 8.0)
    return out


def expm1_over(a: Tensor) -> Tensor:
    """phi1(u) = (e^u - 1) / u as a taped op, finite through u = 0."""
    u = a.data
    return _node(phi1(u), (a,), lambda g: (g * phi1(u, np.exp(u)),))


# ---------------------------------------------------------------------------
# Linear algebra and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _node(data, (a, b), vjp)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(data, (a,), vjp)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)
    return _node(data, (a,), lambda g: (g.reshape(a.data.shape),))


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

    def vjp(g):
        ga = np.zeros_like(a.data)
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

    def vjp(g):
        gx = _overlap_add(g @ w2.T, x.shape[-2], kernel, stride)
        gw = (cols.reshape(-1, kernel * c_in).T @ g.reshape(-1, c_out)).reshape(w.shape)
        return gx, gw

    return _node(cols @ w2, (x, w), vjp)


def conv1d_transpose(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    kernel, c_in, c_out = _conv_shapes("conv1d_transpose", x, w, stride)
    wt = np.swapaxes(w.data, 0, 1).reshape(c_in, kernel * c_out)

    def vjp(g):
        gcols = _windows(g, kernel, stride)
        gw = x.data.reshape(-1, c_in).T @ gcols.reshape(-1, kernel * c_out)
        return gcols @ wt.T, np.swapaxes(gw.reshape(c_in, kernel, c_out), 0, 1)

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
    h = _recurrence_loop(decay.data, drive.data, first[0])

    def vjp(g):
        decay_next = np.concatenate([decay.data[1:], zero_row])
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
