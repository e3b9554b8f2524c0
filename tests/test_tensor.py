import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegen import tensor as T
from dancegen.errors import ContractError, DegenerateInputError, ShapeError
from dancegen.tensor import Tensor, backward

from gradcheck import check_gradients


def rand(rng, *shape):
    return rng.standard_normal(shape)


SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_arithmetic_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, 4, 5)
    b = rand(rng, 4, 5)
    check_gradients(lambda xs: xs[0] + xs[1], [a, b])
    check_gradients(lambda xs: xs[0] - xs[1], [a, b])
    check_gradients(lambda xs: xs[0] * xs[1], [a, b])
    check_gradients(lambda xs: xs[0] / (xs[1] * xs[1] + 1.0), [a, b])
    check_gradients(lambda xs: -xs[0], [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, 3, 4, 5)
    b = rand(rng, 1, 5)
    c = rand(rng, 4, 1)
    check_gradients(lambda xs: xs[0] * xs[1] + xs[2], [a, b, c])


@pytest.mark.parametrize("seed", SEEDS)
def test_unary_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 6, 3)
    check_gradients(lambda xs: T.exp(xs[0]), [x * 0.5])
    check_gradients(lambda xs: T.log(xs[0]), [np.abs(x) + 0.5])
    check_gradients(lambda xs: T.sqrt(xs[0]), [np.abs(x) + 0.5])
    check_gradients(lambda xs: T.sigmoid(xs[0]), [x * 2.0])
    check_gradients(lambda xs: T.softplus(xs[0]), [x * 2.0])
    # keep relu/abs probes away from the kink at 0
    bumped = np.where(np.abs(x) < 0.1, x + 0.5, x)
    check_gradients(lambda xs: T.relu(xs[0]), [bumped])
    check_gradients(lambda xs: T.abs_(xs[0]), [bumped])
    check_gradients(lambda xs: T.silu(xs[0]), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_expm1_over_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 5, 4)
    check_gradients(lambda xs: T.expm1_over(xs[0]), [x])
    # the series branch near zero; finite differences with h=1e-5 straddle it,
    # and both branches must agree to that resolution
    tiny = rand(rng, 8) * 1e-4
    check_gradients(lambda xs: T.expm1_over(xs[0]), [tiny], tol=5e-4)


def test_expm1_over_values():
    x = np.array([1e-12, -1e-9, 1.0, -2.0])
    out = T.expm1_over(Tensor(x)).data
    assert abs(out[0] - 1.0) < 1e-9
    assert abs(out[1] - 1.0) < 1e-6
    assert abs(out[2] - (np.e - 1.0)) < 1e-12
    assert abs(out[3] - (np.expm1(-2.0) / -2.0)) < 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_gradients(seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, 4, 3)
    b = rand(rng, 3, 5)
    check_gradients(lambda xs: xs[0] @ xs[1], [a, b])
    # batched with broadcast on the left operand
    c = rand(rng, 2, 6, 4, 3)
    check_gradients(lambda xs: xs[0] @ xs[1], [c, b])


def test_matmul_identity_and_associativity():
    rng = np.random.default_rng(0)
    a = Tensor(rand(rng, 3, 3))
    b = Tensor(rand(rng, 3, 3))
    c = Tensor(rand(rng, 3, 3))
    eye = Tensor(np.eye(3))
    np.testing.assert_allclose((a @ eye).data, a.data, atol=1e-15)
    np.testing.assert_allclose(((a @ b) @ c).data, (a @ (b @ c)).data, atol=1e-12)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


@pytest.mark.parametrize("seed", SEEDS)
def test_reduction_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 4, 5)
    check_gradients(lambda xs: xs[0].sum(), [x])
    check_gradients(lambda xs: xs[0].sum(axis=1), [x])
    check_gradients(lambda xs: xs[0].sum(axis=2, keepdims=True), [x])
    check_gradients(lambda xs: xs[0].mean(axis=0), [x])
    check_gradients(lambda xs: xs[0].mean(), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_shape_op_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 4, 6)
    check_gradients(lambda xs: xs[0].reshape(2, 12), [x])
    check_gradients(lambda xs: xs[0].transpose((1, 0)), [x])
    check_gradients(lambda xs: xs[0][:, 2:5], [x])
    y = rand(rng, 4, 2)
    check_gradients(lambda xs: T.concat([xs[0], xs[1]], axis=1), [x, y])


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 5, 7)
    check_gradients(lambda xs: T.softmax_lastdim(xs[0]), [x])


def test_softmax_reference_values():
    out = T.softmax_lastdim(Tensor([1.0, 2.0, 3.0])).data
    np.testing.assert_allclose(out, [0.0900, 0.2447, 0.6652], atol=5e-5)


def test_softmax_with_masked_entries():
    x = np.array([[1.0, -np.inf, 2.0]])
    out = T.softmax_lastdim(Tensor(x)).data
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)
    # masked entries receive exactly zero gradient
    leaf = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
    masked = leaf + Tensor(np.array([[0.0, -np.inf, 0.0]]))
    loss = T.softmax_lastdim(masked).sum()
    backward(loss)
    assert leaf.grad[0, 1] == 0.0


def test_softmax_fully_masked_row_raises():
    x = np.full((2, 3), -np.inf)
    with pytest.raises(DegenerateInputError):
        T.softmax_lastdim(Tensor(x))


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_are_distributions(values):
    out = T.softmax_lastdim(Tensor(values)).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_and_gather_gradients(seed):
    rng = np.random.default_rng(seed)
    table = rand(rng, 7, 4)
    ids = rng.integers(0, 7, size=9)
    check_gradients(lambda xs: T.embedding(xs[0], ids), [table])
    logits = rand(rng, 6, 5)
    targets = rng.integers(0, 5, size=6)
    check_gradients(lambda xs: xs[0][np.arange(6), targets], [logits])


@pytest.mark.parametrize("seed", SEEDS)
def test_gather_last_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 2, 7)
    idx = rng.permutation(7)[:5]
    check_gradients(lambda xs: xs[0][..., idx], [x])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", [
    np.s_[1:3, ::2],
    np.s_[2],
    np.s_[..., [4, 0, 2]],
    np.s_[np.array([0, 3, 0, 3, 1])],
    np.s_[np.array([[0, 2], [2, 3]]), np.array([1, 1])],
    np.s_[np.array([-1, 3])],
], ids=["slice", "int", "ellipsis_columns", "repeated_ids", "array_tuple", "mixed_sign"])
def test_index_gradients(seed, key):
    rng = np.random.default_rng(seed)
    x = rand(rng, 4, 3, 5)
    check_gradients(lambda xs: xs[0][key], [x])


def test_index_forward_is_numpy_indexing():
    x = np.arange(24.0).reshape(4, 6)
    view = Tensor(x)[1:, ::2]
    assert np.shares_memory(view.data, x)
    assert np.array_equal(Tensor(x)[[0, 0, 3], -1].data, x[[0, 0, 3], -1])
    with pytest.raises(IndexError):
        Tensor(x)[:, 6]


def test_index_sums_repeated_picks():
    leaf = Tensor(np.zeros((3, 2)), requires_grad=True)
    backward((leaf[np.array([2, 0, 2, -1])] * Tensor([[1.0, 2.0]])).sum())
    np.testing.assert_array_equal(leaf.grad, [[1.0, 2.0], [0.0, 0.0], [3.0, 6.0]])


def test_ndarray_operands_defer_to_tensor():
    leaf = Tensor(np.ones((3, 2)), requires_grad=True)
    out = np.full(2, 3.0) * (np.ones((4, 3)) @ leaf)
    assert isinstance(out, Tensor) and out.shape == (4, 2)
    backward(out.sum())
    np.testing.assert_array_equal(leaf.grad, np.full((3, 2), 12.0))


def test_embedding_range_check():
    with pytest.raises(ShapeError):
        T.embedding(Tensor(np.zeros((3, 2))), np.array([0, 3]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (4, 2)])
def test_conv1d_gradients(seed, kernel, stride):
    rng = np.random.default_rng(seed)
    x = rand(rng, 8, 3)
    w = rand(rng, kernel, 3, 4)
    b = rand(rng, 4)
    check_gradients(lambda xs: T.conv1d(xs[0], xs[1], stride=stride) + xs[2], [x, w, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_conv1d_batched_gradients(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 8, 3)
    w = rand(rng, 4, 3, 4)
    b = rand(rng, 4)
    check_gradients(lambda xs: T.conv1d(xs[0], xs[1], stride=2) + xs[2], [x, w, b])


def test_conv1d_kernel_one_is_identity():
    rng = np.random.default_rng(0)
    x = rand(rng, 10, 5)
    w = np.eye(5)[None]  # kernel size 1, identity channel map
    out = T.conv1d(Tensor(x), Tensor(w), stride=1)
    np.testing.assert_array_equal(out.data, x)


def test_conv1d_output_lengths():
    rng = np.random.default_rng(0)
    x = Tensor(rand(rng, 240, 2))
    w = Tensor(rand(rng, 4, 2, 2))
    for expected in (120, 60, 30):
        x = T.conv1d(x, w, stride=2)
        assert x.shape == (expected, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kernel,stride", [(4, 2), (3, 1), (2, 3)])
def test_conv1d_transpose_gradients(seed, kernel, stride):
    rng = np.random.default_rng(seed)
    x = rand(rng, 6, 3)
    w = rand(rng, kernel, 3, 4)
    b = rand(rng, 4)
    check_gradients(lambda xs: T.conv1d_transpose(xs[0], xs[1], stride=stride) + xs[2], [x, w, b])


def test_conv1d_transpose_restores_length():
    rng = np.random.default_rng(0)
    x = Tensor(rand(rng, 30, 2))
    w = Tensor(rand(rng, 4, 2, 2))
    for expected in (60, 120, 240):
        x = T.conv1d_transpose(x, w, stride=2)
        assert x.shape == (expected, 2)


KERNEL_STRIDES = [(1, 2), (2, 3), (1, 3), (4, 2), (3, 1)]


@pytest.mark.parametrize("kernel,stride", KERNEL_STRIDES)
def test_conv1d_transpose_length_is_in_len_times_stride(kernel, stride):
    w = Tensor(np.ones((kernel, 3, 2)))
    for t_in in (1, 4, 5):
        out = T.conv1d_transpose(Tensor(np.ones((t_in, 3))), w, stride)
        assert out.shape == (t_in * stride, 2)


@pytest.mark.parametrize("kernel,stride", KERNEL_STRIDES)
def test_conv1d_transpose_is_adjoint_of_conv1d(kernel, stride):
    rng = np.random.default_rng(kernel * 10 + stride)
    x = rand(rng, 2, 5 * stride, 4)  # conv1d maps 5*stride rows to 5
    y = rand(rng, 2, 5, 3)
    w = rand(rng, kernel, 3, 4)
    lhs = np.vdot(T.conv1d(Tensor(x), Tensor(np.swapaxes(w, 1, 2)), stride).data, y)
    rhs = np.vdot(x, T.conv1d_transpose(Tensor(y), Tensor(w), stride).data)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv1d(Tensor(np.zeros((8, 3))), Tensor(np.zeros((4, 2, 4))), stride=2)
    with pytest.raises(ShapeError):
        T.conv1d_transpose(Tensor(np.zeros((8, 3))), Tensor(np.zeros((4, 2, 4))), stride=2)


# steps = 1 leaves the adjoint an empty decay[1:] to pad; a nonzero
# initial state enters the decay gradient through h_{-1}
@pytest.mark.parametrize("seed, steps, seeded", [(s, 7, False) for s in SEEDS]
                         + [(0, 1, False), (0, 7, True)],
                         ids=[str(s) for s in SEEDS] + ["steps1", "initial"])
def test_linear_recurrence_gradients(seed, steps, seeded):
    rng = np.random.default_rng(seed)
    decay = rng.uniform(0.1, 0.95, size=(steps, 3))
    drive = rand(rng, steps, 3)
    initial = rand(rng, 3) * 2.0 if seeded else None
    check_gradients(lambda xs: T.linear_recurrence(xs[0], xs[1], initial), [decay, drive])


def test_linear_recurrence_chains_through_initial():
    rng = np.random.default_rng(5)
    decay = rng.uniform(-1.0, 1.0, size=(23, 4, 3))
    drive = rng.standard_normal((23, 4, 3))
    whole = T.linear_recurrence(Tensor(decay), Tensor(drive)).data
    for cut in range(1, 23):
        head = T.linear_recurrence(Tensor(decay[:cut]), Tensor(drive[:cut])).data
        tail = T.linear_recurrence(Tensor(decay[cut:]), Tensor(drive[cut:]), head[-1]).data
        assert np.array_equal(np.concatenate([head, tail]), whole), cut


def test_linear_recurrence_matches_hand_rollout():
    decay = Tensor(np.array([[0.5], [0.5], [0.5]]))
    drive = Tensor(np.array([[1.0], [1.0], [1.0]]))
    out = T.linear_recurrence(decay, drive).data
    np.testing.assert_allclose(out[:, 0], [1.0, 1.5, 1.75], atol=1e-15)


@pytest.mark.parametrize("seed", range(100))
def test_parallel_recurrence_matches_sequential(seed):
    rng = np.random.default_rng(seed)
    steps = int(rng.integers(1, 65))
    width = int(rng.integers(1, 5))
    decay = rng.uniform(-1.0, 1.0, size=(steps, width))
    drive = rng.standard_normal((steps, width))
    seq = T.linear_recurrence(Tensor(decay), Tensor(drive)).data
    par = T.parallel_linear_recurrence(decay, drive)
    assert np.abs(seq - par).max() < 1e-10


def test_linear_recurrence_shape_error():
    with pytest.raises(ShapeError):
        T.linear_recurrence(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 3))))
    with pytest.raises(ShapeError):
        T.linear_recurrence(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))), np.zeros(3))


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(x + x)


def test_gradient_accumulation_across_backwards():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss1 = (x * x).sum()
    backward(loss1)
    first = x.grad.copy()
    loss2 = (x * x).sum()
    backward(loss2)
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_tape_freed_after_backward():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x
    loss = y.sum()
    backward(loss)
    grad_after_first = x.grad.copy()
    assert loss._parents == () and loss._vjp is None
    assert y._parents == () and y._vjp is None
    # a second sweep over the freed graph must not touch leaf gradients
    backward(loss)
    np.testing.assert_array_equal(x.grad, grad_after_first)


def test_backward_releases_each_node_once_its_vjp_has_run():
    # when the leaf-most node's VJP runs, the nodes after it are gone, but a
    # tensor the caller holds keeps its data
    leaf = Tensor(np.linspace(0.1, 0.4, 4), requires_grad=True)
    seen = {}

    def first_vjp(g):
        seen["released"] = [ref() is None for ref in later]
        seen["held"] = held.data.copy()
        return (g * 2.0,)

    first = T._node(leaf.data * 2.0, (leaf,), first_vjp)
    held = T.exp(first)
    mid = T.exp(held)
    top = T.exp(mid)
    later = [weakref.ref(mid.data), weakref.ref(top.data)]
    loss = top.sum()
    del first, mid, top
    backward(loss)
    assert seen["released"] == [True, True]
    assert np.array_equal(seen["held"], np.exp(2.0 * leaf.data))
    assert np.array_equal(held.data, seen["held"])
    assert leaf.grad is not None and np.isfinite(leaf.grad).all()


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    assert y._parents == ()


def test_float64_enforced():
    x = Tensor(np.ones(3, dtype=np.float32))
    assert x.data.dtype == np.float64


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_add_matches_numpy_broadcast(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    b = rng.standard_normal((1, cols))
    np.testing.assert_array_equal((Tensor(a) + Tensor(b)).data, a + b)
