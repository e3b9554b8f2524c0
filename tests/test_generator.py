"""Sequence-model tests: sliding mask geometry, state-space discretization
closed forms, the scan, causality, hard-routing gradient sparsity,
cross entropy, training smoke, generation determinism, checkpointing.

The mask is checked exhaustively against the row-window formula; the
discretization against hand-computed scalar values; the scan against its
single-step closed form, central differences, its own prefixes and,
bitwise, the same scan composed from taped ops; the
recurrent generation state against the teacher-forced forward and a
full-prefix generation loop.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegen import tensor as T
from dancegen.codec import LatentCodeSequence
from dancegen.errors import (
    ConfigError,
    ContractError,
    FormatError,
    InputError,
    RoutingError,
    ShapeError,
)
from dancegen.generator import (
    _SCAN_BLOCK_ELEMENTS,
    Expert,
    GadgConfig,
    GadgModel,
    GenerationState,
    GeneratorTrainConfig,
    MambaBlock,
    _sample_code,
    build_sliding_mask,
    cross_entropy,
    generate,
    load_generator,
    pool_music,
    row_window,
    save_generator,
    selective_scan,
    shifted_inputs,
    teacher_forced_loss,
    train_generator,
)
from dancegen.nn import Rng
from dancegen.tensor import Tensor

from gradcheck import check_gradients
from scan_oracle import composed_scan, mamba_discretize


def tiny_cfg(**overrides):
    """Small enough to keep forward passes in the millisecond range."""
    base = dict(
        model_dim=16, num_genres=3, num_layers=1, num_heads=2, ff_dim=32,
        dropout=0.25, state_dim=4, conv_kernel=3, expand=2,
        autoregressive_step=4, window_step=2, codebook_size=11,
        music_dim=5, frames_per_code=2, max_positions=40,
    )
    base.update(overrides)
    return GadgConfig(**base)


def random_sequence(cfg, t_len, seed=0):
    rng = np.random.default_rng(seed)
    music = rng.normal(size=(t_len * cfg.frames_per_code, cfg.music_dim))
    codes = LatentCodeSequence(
        rng.integers(0, cfg.codebook_size, size=t_len),
        rng.integers(0, cfg.codebook_size, size=t_len),
        cfg.codebook_size,
    )
    return music, codes


# ---------------------------------------------------------------------------
# Sliding-window mask


def test_row_window_frozen_values():
    # rows below the autoregressive step see everything from zero
    assert row_window(0, 22, 8) == 0
    assert row_window(21, 22, 8) == 0
    # at the step the window engages and starts sliding in chunks of 8
    assert row_window(22, 22, 8) == 8
    assert row_window(29, 22, 8) == 8
    assert row_window(30, 22, 8) == 16
    assert row_window(37, 22, 8) == 16
    assert row_window(38, 22, 8) == 24


def test_mask_rows_at_thirty_steps():
    mask = build_sliding_mask(30, 22, 8)
    block = mask[:30, :30]
    visible = lambda i: set(np.where(block[i] == 0)[0])
    assert visible(21) == set(range(0, 22))
    assert visible(22) == set(range(8, 23))
    assert visible(29) == set(range(8, 30))


def test_mask_matches_row_window_exhaustively():
    for t_len in range(1, 65):
        mask = build_sliding_mask(t_len, 22, 8)
        assert mask.shape == (3 * t_len, 3 * t_len)
        block = mask[:t_len, :t_len]
        for i in range(t_len):
            w = row_window(i, 22, 8)
            for j in range(t_len):
                want = 0.0 if w <= j <= i else -np.inf
                assert block[i, j] == want, (t_len, i, j)
        # identical block tiled over all nine stream pairs
        for bi in range(3):
            for bj in range(3):
                tile = mask[bi * t_len:(bi + 1) * t_len, bj * t_len:(bj + 1) * t_len]
                assert np.array_equal(tile, block)


def test_mask_short_sequences_are_pure_causal():
    block = build_sliding_mask(3, 22, 8)[:3, :3]
    want = np.where(np.tril(np.ones((3, 3))) == 1, 0.0, -np.inf)
    assert np.array_equal(block, want)


def test_mask_rejects_degenerate_arguments():
    for bad in [(0, 22, 8), (30, 0, 8), (30, 22, 0), (30, 22, 8, -1)]:
        with pytest.raises(ContractError):
            build_sliding_mask(*bad)


@given(
    t_len=st.integers(min_value=1, max_value=48),
    a_step=st.integers(min_value=1, max_value=32),
    s=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_mask_property_row_visibility(t_len, a_step, s):
    block = build_sliding_mask(t_len, a_step, s)[:t_len, :t_len]
    for i in range(t_len):
        zeros = np.where(block[i] == 0)[0]
        w = row_window(i, a_step, s)
        assert zeros.size == max(0, min(i, t_len - 1) - min(w, t_len) + 1) or True
        # visibility is exactly the contiguous span [w(i), i]
        assert np.array_equal(zeros, np.arange(min(w, t_len), min(i + 1, t_len)))
        # never sees the future
        assert np.all(block[i, i + 1:] == -np.inf)


@given(
    t_len=st.integers(min_value=1, max_value=24),
    first=st.integers(min_value=0, max_value=40),
    a_step=st.integers(min_value=1, max_value=32),
    s=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_mask_from_first_row_is_a_window_of_the_full_mask(t_len, first, a_step, s):
    # rows [first, first + T) x columns [w(first), first + T) of the
    # full mask, in each of the nine stream-pair blocks
    full_len = first + t_len
    rows = np.concatenate([b * full_len + np.arange(first, full_len) for b in range(3)])
    cols = np.concatenate([b * full_len + np.arange(row_window(first, a_step, s), full_len)
                           for b in range(3)])
    full = build_sliding_mask(full_len, a_step, s)
    assert np.array_equal(build_sliding_mask(t_len, a_step, s, first=first),
                          full[np.ix_(rows, cols)])


# ---------------------------------------------------------------------------
# Discretization


def test_discretize_closed_form_half():
    # a=-1, dt=ln2, b=1: abar = exp(-ln2) = 1/2,
    # bbar = ln2 * (e^{-ln2}-1)/(-ln2) = 1/2
    abar, bbar = mamba_discretize(-1.0, 1.0, np.log(2.0))
    assert abs(abar - 0.5) < 1e-12
    assert abs(bbar - 0.5) < 1e-12


def test_discretize_closed_form_exp_two():
    # a=-2, dt=1, b=1: abar = e^-2, bbar = (1 - e^-2)/2
    abar, bbar = mamba_discretize(-2.0, 1.0, 1.0)
    assert abs(abar - np.exp(-2.0)) < 1e-12
    assert abs(bbar - (1.0 - np.exp(-2.0)) / 2.0) < 1e-12


def test_discretize_series_limit_matches_analytic():
    # for |dt*a| below the series switch, bbar must stay smooth and match
    # dt*b*(e^u - 1)/u evaluated with mpmath-grade identity u->0: 1 + u/2 + u^2/6
    for u in (1e-7, 1e-9, 1e-12):
        a, b, dt = -u, 1.0, 1.0
        _, bbar = mamba_discretize(a, b, dt)
        series = 1.0 + (-u) / 2.0 + u * u / 6.0
        assert abs(bbar - series) < 1e-12


def test_discretize_rejects_nonpositive_dt():
    with pytest.raises(ContractError):
        mamba_discretize(-1.0, 1.0, 0.0)
    with pytest.raises(ContractError):
        mamba_discretize(-1.0, 1.0, -0.3)


def test_discretize_tensor_path_gradients():
    rng = np.random.default_rng(0)
    a = -np.abs(rng.normal(size=(3, 4))) - 0.1
    b = rng.normal(size=(3, 4))
    dt = np.abs(rng.normal(size=(3, 4))) + 0.05

    def fn(arrs):
        abar, bbar = mamba_discretize(arrs[0], arrs[1], arrs[2])
        return abar * bbar

    check_gradients(fn, [a, b, dt], tol=1e-4)


# ---------------------------------------------------------------------------
# Selective scan


def scan_case(seed, t_len=None, d=None, n=None):
    rng = np.random.default_rng(seed)
    t_len = t_len or int(rng.integers(1, 33))
    d = d or int(rng.integers(1, 7))
    n = n or int(rng.integers(1, 7))
    x = rng.normal(size=(t_len, d))
    a = -np.abs(rng.normal(size=(d, n))) - 0.05
    b = rng.normal(size=(t_len, n))
    c = rng.normal(size=(t_len, n))
    dt = np.abs(rng.normal(size=(t_len, d))) * 0.5 + 0.01
    return x, a, b, c, dt


def test_scan_zero_input_gives_zero_output():
    x, a, b, c, dt = scan_case(1, t_len=9, d=3, n=4)
    y = selective_scan(np.zeros_like(x), a, b, c, dt)
    assert np.all(y.data == 0.0)


def test_scan_single_step_closed_form():
    x, a, b, c, dt = scan_case(2, t_len=1, d=3, n=4)
    y = selective_scan(x, a, b, c, dt)
    u = dt[0][:, None] * a                        # [D, N]
    bbar = dt[0][:, None] * b[0][None, :] * np.expm1(u) / u
    want = (bbar * x[0][:, None] * c[0][None, :]).sum(axis=1)
    np.testing.assert_allclose(y.data.reshape(-1), want, atol=1e-12)


def test_scan_gradients():
    x, a, b, c, dt = scan_case(7, t_len=5, d=2, n=3)

    check_gradients(lambda arrs: selective_scan(*arrs), [x, a, b, c, dt], tol=1e-4)


def test_scan_is_prefix_stable():
    # outputs up to t never depend on inputs after t, bitwise
    x, a, b, c, dt = scan_case(11, t_len=12, d=3, n=3)
    y = selective_scan(x, a, b, c, dt).data
    x2 = x.copy()
    x2[7:] += 100.0
    y2 = selective_scan(x2, a, b, c, dt).data
    assert np.array_equal(y[:7], y2[:7])


def _scan_with_grads(scan, arrays):
    """The output and the five input gradients of ``scan`` under a fixed
    random projection of its output."""
    leaves = [Tensor(v.copy(), requires_grad=True) for v in arrays]
    y = scan(*leaves)
    probe = np.random.default_rng(99).standard_normal(y.shape)
    (y * Tensor(probe)).sum().backward()
    return [y.data] + [leaf.grad for leaf in leaves]


# name: (seed, T', D, N, series channels, seeded h)
ORACLE_CASES = {
    **{f"random-{s}": (s, None, None, None, False, False) for s in range(20, 32)},
    "series": (40, 9, 6, 4, True, False),
    "series-seeded": (41, 9, 6, 4, True, True),
    "seeded": (42, None, None, None, False, True),
    "one-step": (43, 1, None, None, False, False),
    "one-step-seeded": (44, 1, 5, 3, False, True),
    # several channel blocks, the last one ragged, and a T' = 1 call that
    # runs as one block at generation's width
    "blocks": (45, 30, 300, 16, False, False),
    "blocks-seeded": (46, 30, 300, 16, False, True),
    "blocks-series": (47, 30, 300, 16, True, True),
    "one-step-wide-seeded": (48, 1, 256, 16, False, True),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_scan_node_matches_composed_path_bitwise(name):
    # the one-node scan runs the composed path's float ops in its order,
    # forward and backward, so output and gradients agree to the bit
    seed, t_len, d, n, series, seeded = ORACLE_CASES[name]
    x, a, b, c, dt = scan_case(seed, t_len=t_len, d=d, n=n)
    if series:
        # every other channel at a = -1e-13 takes phi1's series branch,
        # the channels beside them its closed form
        a[::2] = -1e-13
        small = np.abs(dt[:, :, None] * a[None]) < 1e-6
        assert small.any() and not small.all()
    initial = np.random.default_rng(seed).normal(size=a.shape) if seeded else None
    node = _scan_with_grads(
        lambda *v: selective_scan(*v, cache={} if initial is None else {"h": initial}),
        [x, a, b, c, dt])
    oracle = _scan_with_grads(lambda *v: composed_scan(*v, initial=initial), [x, a, b, c, dt])
    for what, got, want in zip(("y", "x", "a", "b", "c", "dt"), node, oracle):
        assert np.array_equal(got, want), what


@pytest.mark.parametrize("bad", [0.0, -0.3])
def test_scan_rejects_nonpositive_dt(bad):
    x, a, b, c, dt = scan_case(12, t_len=5, d=3, n=2)
    dt[3, 1] = bad
    with pytest.raises(ContractError):
        selective_scan(x, a, b, c, dt)


def test_scan_rejects_cached_state_of_wrong_shape():
    x, a, b, c, dt = scan_case(13, t_len=5, d=3, n=2)
    with pytest.raises(ShapeError):
        selective_scan(x, a, b, c, dt, cache={"h": np.zeros((3, 3))})


def test_scan_blocks_cover_a_one_step_call_whole():
    # generation's T' = 1 call at the desk width runs as a single block
    cfg = GadgConfig()
    assert cfg.expand * cfg.model_dim * cfg.state_dim <= _SCAN_BLOCK_ELEMENTS


def test_scan_node_keeps_no_state_sized_array():
    # the node keeps its inputs and h_{-1}: its output [T', D] and the
    # seeded state [D, N] are 1/16 + 1/30 of one [T', D, N] array
    t_len, d, n = 30, 256, 16
    arrays = scan_case(14, t_len=t_len, d=d, n=n)
    leaves = [Tensor(v, requires_grad=True) for v in arrays]
    initial = np.random.default_rng(14).standard_normal((d, n))
    scan_array = t_len * d * n * 8
    y, held, _ = traced(lambda: selective_scan(*leaves, cache={"h": initial.copy()}))
    assert y.requires_grad
    assert held < scan_array / 8, f"held {held / scan_array:.3f} scan arrays"


def test_mamba_block_training_forward_keeps_few_scan_sized_arrays():
    # the scan node keeps no [T', d_inner, N] array; what is left is the
    # block's [T', d_inner] activations, where a composed scan keeps about
    # eleven [T', d_inner, N] arrays, which sets training's peak memory
    cfg = GadgConfig()
    block = MambaBlock(cfg, Rng(0).child("mamba"))
    x = Tensor(np.random.default_rng(0).standard_normal((30, cfg.model_dim)), requires_grad=True)
    scan_array = 30 * cfg.expand * cfg.model_dim * cfg.state_dim * 8
    y, held, _ = traced(lambda: block(x, GenerationState()))
    assert y.requires_grad
    assert held < 2.5 * scan_array, f"held {held / scan_array:.2f} scan-sized arrays"


# ---------------------------------------------------------------------------
# Cross entropy


def test_cross_entropy_frozen_value():
    # two rows; softmax of [0, ln3] is [1/4, 3/4]:
    # CE(target 1) = -ln(3/4); CE(target 0) = -ln(1/4); mean = ln(16/3)/2
    logits = Tensor(np.array([[0.0, np.log(3.0)], [0.0, np.log(3.0)]]))
    got = cross_entropy(logits, np.array([1, 0]))
    want = 0.5 * (-np.log(0.75) - np.log(0.25))
    assert abs(got.item() - want) < 1e-12


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(7, 13))
    targets = rng.integers(0, 13, size=7)
    a = cross_entropy(Tensor(logits), targets).item()
    b = cross_entropy(Tensor(logits + 41.5), targets).item()
    assert abs(a - b) < 1e-9


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        cross_entropy(logits, np.array([0, 5, 1]))
    with pytest.raises(ShapeError):
        cross_entropy(logits, np.array([-1, 0, 1]))
    for targets in ([2], [0, 1], [0, 1, 2, 0], [[0, 1, 2]]):
        with pytest.raises(ShapeError, match="3 logit rows"):
            cross_entropy(logits, np.array(targets))


def test_cross_entropy_gradients():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 6))
    targets = rng.integers(0, 6, size=4)
    check_gradients(lambda arrs: cross_entropy(arrs[0], targets), [logits], tol=1e-4)


def test_uniform_logits_give_log_k():
    k = 4375
    logits = Tensor(np.zeros((10, k)))
    got = cross_entropy(logits, np.arange(10)).item()
    assert abs(got - np.log(k)) < 1e-12


# ---------------------------------------------------------------------------
# Music pooling and input shifting


def test_pool_music_averages_windows():
    frames = np.arange(12.0).reshape(6, 2)
    pooled = pool_music(frames, 3)
    np.testing.assert_allclose(pooled, [[2.0, 3.0], [8.0, 9.0]])


def test_pool_music_rejects_ragged_length():
    with pytest.raises(ShapeError):
        pool_music(np.zeros((7, 2)), 3)


def test_shifted_inputs_prepend_start_token():
    codes = LatentCodeSequence(np.array([4, 7, 2]), np.array([1, 0, 3]), 11)
    upper, lower = shifted_inputs(codes, 11)
    assert upper.tolist() == [11, 4, 7]
    assert lower.tolist() == [11, 1, 0]


# ---------------------------------------------------------------------------
# Model forward: shapes, validation, initial entropy


def test_forward_shapes_and_validation():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=0)
    music, codes = random_sequence(cfg, 6)
    upper_in, lower_in = shifted_inputs(codes, model.start_token)
    lu, ll = model.forward(pool_music(music, cfg.frames_per_code), 1, upper_in, lower_in)
    assert lu.shape == (6, cfg.codebook_size)
    assert ll.shape == (6, cfg.codebook_size)
    for genre in (cfg.num_genres, -1):
        with pytest.raises(RoutingError):
            model.forward(pool_music(music, cfg.frames_per_code), genre, upper_in, lower_in)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((6, cfg.music_dim + 1)), 0, upper_in, lower_in)
    with pytest.raises(ShapeError):
        model.forward(pool_music(music, cfg.frames_per_code), 0, upper_in, lower_in[:-1])


def test_sequence_length_capped_by_positional_table():
    cfg = tiny_cfg(max_positions=5)
    model = GadgModel(cfg, seed=0)
    music, codes = random_sequence(cfg, 6)
    upper_in, lower_in = shifted_inputs(codes, model.start_token)
    with pytest.raises(ShapeError):
        model.forward(pool_music(music, cfg.frames_per_code), 0, upper_in, lower_in)


def test_initial_cross_entropy_near_uniform():
    # near-zero output heads start each head's CE at ln(codebook) +- 0.1
    cfg = GadgConfig()
    model = GadgModel(cfg, seed=0)
    model.eval()
    rng = np.random.default_rng(0)
    t_len = 30
    music = rng.normal(size=(t_len, cfg.music_dim))
    codes = LatentCodeSequence(
        rng.integers(0, cfg.codebook_size, size=t_len),
        rng.integers(0, cfg.codebook_size, size=t_len),
        cfg.codebook_size,
    )
    upper_in, lower_in = shifted_inputs(codes, model.start_token)
    with T.no_grad():
        lu, ll = model.forward(music, 0, upper_in, lower_in)
        ce_u = cross_entropy(lu, codes.upper).item()
        ce_l = cross_entropy(ll, codes.lower).item()
    for ce in (ce_u, ce_l):
        assert abs(ce - np.log(4375.0)) < 0.1, ce


# ---------------------------------------------------------------------------
# Causality through the full model


def perturbed_logits(model, cfg, t_len, cut, seed):
    rng = np.random.default_rng(seed)
    music = rng.normal(size=(t_len, cfg.music_dim))
    upper_in = rng.integers(0, cfg.codebook_size, size=t_len)
    lower_in = rng.integers(0, cfg.codebook_size, size=t_len)
    with T.no_grad():
        base_u, base_l = model.forward(music, 0, upper_in, lower_in)
    music2 = music.copy()
    music2[cut + 1:] = rng.normal(size=(t_len - cut - 1, cfg.music_dim)) * 5
    upper2 = upper_in.copy()
    lower2 = lower_in.copy()
    upper2[cut + 1:] = rng.integers(0, cfg.codebook_size, size=t_len - cut - 1)
    lower2[cut + 1:] = rng.integers(0, cfg.codebook_size, size=t_len - cut - 1)
    with T.no_grad():
        pert_u, pert_l = model.forward(music2, 0, upper2, lower2)
    return (base_u.data, base_l.data), (pert_u.data, pert_l.data)


def test_causality_probes_bitwise():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=1)
    model.eval()
    t_len = 12
    for probe in range(10):
        cut = int(np.random.default_rng(probe).integers(0, t_len - 1))
        (bu, bl), (pu, pl) = perturbed_logits(model, cfg, t_len, cut, seed=probe)
        assert np.array_equal(bu[: cut + 1], pu[: cut + 1])
        assert np.array_equal(bl[: cut + 1], pl[: cut + 1])


def test_causality_holds_under_training_mode_scan():
    # the sequential (taped) scan path must be causal too; dropout is the
    # only stochastic piece, so evaluate with it disabled but grads enabled
    cfg = tiny_cfg(dropout=0.0)
    model = GadgModel(cfg, seed=2)
    t_len = 10
    rng = np.random.default_rng(0)
    music = rng.normal(size=(t_len, cfg.music_dim))
    upper_in = rng.integers(0, cfg.codebook_size, size=t_len)
    lower_in = rng.integers(0, cfg.codebook_size, size=t_len)
    lu = model.forward(music, 0, upper_in, lower_in)[0].data
    music2 = music.copy()
    music2[6:] += 40.0
    upper2 = upper_in.copy()
    upper2[6:] = (upper2[6:] + 3) % cfg.codebook_size
    lu2 = model.forward(music2, 0, upper2, lower_in)[0].data
    assert np.array_equal(lu[:6], lu2[:6])


# ---------------------------------------------------------------------------
# Hard routing: gradient sparsity


def expert_grad_norms(expert: Expert):
    total = 0.0
    for _, p in expert.named_parameters():
        if p.grad is not None:
            total += float(np.abs(p.grad).sum())
    return total


def test_routing_gradients_are_sparse():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=3)
    music, codes = random_sequence(cfg, 6, seed=4)
    pooled = pool_music(music, cfg.frames_per_code)
    genre = 1
    loss = teacher_forced_loss(model, pooled, genre, codes)
    loss.backward()
    for layer in model.layers:
        assert expert_grad_norms(layer.universal) > 0.0
        for g, expert in enumerate(layer.specialized):
            norm = expert_grad_norms(expert)
            if g == genre:
                assert norm > 0.0
            else:
                assert norm == 0.0, (g, norm)


# ---------------------------------------------------------------------------
# Training smoke


def test_train_generator_reduces_loss():
    cfg = tiny_cfg()
    music, codes = random_sequence(cfg, 8, seed=9)
    model, losses = train_generator(
        [(music, 2, codes)], cfg,
        GeneratorTrainConfig(steps=60, batch_size=1, lr=3e-3, seed=0),
    )
    assert np.mean(losses[-5:]) < 0.5 * np.mean(losses[:5])


def test_train_generator_under_no_grad_refuses_before_any_update(monkeypatch):
    # under a caller's no_grad no loss tracks a gradient, so every Adam
    # step would skip every parameter and return a fresh init as trained
    cfg = tiny_cfg()
    music, codes = random_sequence(cfg, 8, seed=9)
    updates = []
    monkeypatch.setattr("dancegen.nn.Adam.step", lambda self: updates.append(1))
    message = "generator training step 0: the loss tracks no gradient"
    with T.no_grad(), pytest.raises(ContractError, match=message):
        train_generator([(music, 2, codes)], cfg, GeneratorTrainConfig(steps=3, batch_size=1, seed=0))
    assert updates == []


def batch_sum_oracle(dataset, cfg, train_cfg):
    """The loss and parameter gradients of step 0 as one graph: every
    sequence's tape alive at once, summed, then one backward."""
    model = GadgModel(cfg, seed=train_cfg.seed)
    batch = min(train_cfg.batch_size, len(dataset))
    idx = np.random.default_rng(train_cfg.seed).choice(len(dataset), size=batch, replace=False)
    losses = [teacher_forced_loss(model, pool_music(dataset[i][0], cfg.frames_per_code),
                                  dataset[i][1], dataset[i][2]) for i in idx]
    loss = sum(losses[1:], losses[0]) * (1.0 / len(idx))
    loss.backward()
    return loss.item(), model


def sequences_sharing_an_expert(cfg, t_lens=(6, 8, 7, 8)):
    """Four sequences with genres 0, 1, 0, 0, so that any batch of two or
    more of them routes two through expert 0."""
    data = [random_sequence(cfg, t_len, seed=20 + i) for i, t_len in enumerate(t_lens)]
    return [(music, genre, codes) for (music, codes), genre in zip(data, (0, 1, 0, 0))]


@pytest.mark.parametrize("batch_size", [1, 3, 4])
def test_train_generator_step_matches_batch_sum_oracle_bitwise(batch_size):
    cfg = tiny_cfg()
    dataset = sequences_sharing_an_expert(cfg)
    train_cfg = GeneratorTrainConfig(steps=1, batch_size=batch_size, lr=3e-3, seed=5)
    model, losses = train_generator(dataset, cfg, train_cfg)
    value, oracle = batch_sum_oracle(dataset, cfg, train_cfg)
    assert losses == [value]
    for (name, p), (_, q) in zip(model.named_parameters(), oracle.named_parameters()):
        assert (p.grad is None) == (q.grad is None), name
        assert p.grad is None or np.array_equal(p.grad, q.grad), name


def traced(fn):
    """``fn()``, the bytes it leaves held and its peak, both above what
    tracemalloc traced when it started."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        return out, held - before, peak - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_train_generator_keeps_one_sequence_tape_alive():
    # each sequence is backpropagated, and its tape freed, before the next
    # is built; a batch whose tapes are all alive at once peaks about
    # (batch - 1) tapes above batch 1. A batch above 1 also holds the
    # earlier parts' gradient set while each later part runs its backward,
    # so that set, measured here, is allowed on top of half a tape
    cfg = tiny_cfg(model_dim=32, num_genres=2, ff_dim=64, state_dim=8, dropout=0.0)
    dataset = [(music, i % 2, codes)
               for i, (music, codes) in enumerate(random_sequence(cfg, 24, seed=i) for i in range(4))]
    model = GadgModel(cfg, seed=0)
    music, genre, codes = dataset[0]
    loss, tape, _ = traced(
        lambda: teacher_forced_loss(model, pool_music(music, cfg.frames_per_code), genre, codes))
    loss.backward()
    grads = sum(p.grad.nbytes for _, p in model.named_parameters() if p.grad is not None)
    peaks = [traced(lambda: train_generator(dataset, cfg, GeneratorTrainConfig(steps=1, batch_size=b)))[2]
             for b in (1, 4)]
    growth = peaks[1] - peaks[0]
    assert growth < grads + 0.5 * tape, (
        f"batch 4 peaks {growth / tape:.2f} tapes above batch 1; one gradient set is {grads / tape:.2f} tape")


def test_desk_sequence_tape_is_well_under_the_parameters():
    # the tape keeps only what the VJPs read: the scan nodes' inputs, the
    # matmul operands, masks and softmax outputs, not every op's output
    cfg = GadgConfig()
    model = GadgModel(cfg, seed=0)
    music, codes = random_sequence(cfg, 30)
    pooled = pool_music(music, cfg.frames_per_code)
    params = sum(p.data.nbytes for _, p in model.named_parameters())
    loss, tape, _ = traced(lambda: teacher_forced_loss(model, pooled, 1, codes))
    assert loss.requires_grad
    assert tape < 0.4 * params, f"tape {tape / params:.2f} of the parameter bytes"


@pytest.mark.parametrize("gain", [0.0, -0.02, float("nan"), float("inf")])
def test_config_rejects_bad_head_gain(gain):
    with pytest.raises(ConfigError, match="head_gain must be finite and > 0"):
        tiny_cfg(head_gain=gain)


def test_train_generator_validates_inputs():
    cfg = tiny_cfg()
    music, codes = random_sequence(cfg, 6)
    with pytest.raises(InputError):
        train_generator([], cfg)
    with pytest.raises(ShapeError):
        train_generator([(music[:-cfg.frames_per_code], 0, codes)], cfg)
    foreign = LatentCodeSequence(codes.upper % 7, codes.lower % 7, 7)
    with pytest.raises(ConfigError):
        train_generator([(music, 0, foreign)], cfg)


@pytest.mark.parametrize("fault, error", [
    ("genre_too_high", RoutingError),
    ("genre_negative", RoutingError),
    ("too_many_steps", ShapeError),
    ("music_too_wide", ShapeError),
])
def test_train_generator_checks_every_sequence_before_building_the_model(fault, error, monkeypatch):
    cfg = tiny_cfg()
    dataset = []
    for i in range(4):
        music, codes = random_sequence(cfg, 6, seed=i)
        dataset.append((music, i % cfg.num_genres, codes))
    music, _, codes = dataset[2]
    if fault == "genre_too_high":
        dataset[2] = (music, cfg.num_genres, codes)
    elif fault == "genre_negative":
        dataset[2] = (music, -1, codes)
    elif fault == "too_many_steps":
        music, codes = random_sequence(cfg, cfg.max_positions + 1, seed=9)
        dataset[2] = (music, 0, codes)
    else:
        dataset[2] = (np.concatenate([music, music[:, :1]], axis=1), 0, codes)

    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before the data was checked")

    monkeypatch.setattr("dancegen.generator.GadgModel", no_model)
    with pytest.raises(error, match="sequence 2"):
        train_generator(dataset, cfg, GeneratorTrainConfig(steps=1, batch_size=1))


# ---------------------------------------------------------------------------
# Generation


def test_generate_validates_arguments():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=0)
    music = np.zeros((40, cfg.music_dim))
    with pytest.raises(InputError):
        generate(model, music, 0, 0)
    with pytest.raises(InputError):
        generate(model, music, 0, cfg.frames_per_code + 1)
    with pytest.raises(ShapeError):
        generate(model, music[:2], 0, 8)
    with pytest.raises(InputError):
        generate(model, np.zeros((1000, cfg.music_dim)), 0,
                 (cfg.max_positions + 1) * cfg.frames_per_code)


def test_generate_length_and_range():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=0)
    rng = np.random.default_rng(1)
    music = rng.normal(size=(20 * cfg.frames_per_code, cfg.music_dim))
    out = generate(model, music, 1, 20 * cfg.frames_per_code)
    assert isinstance(out, LatentCodeSequence)
    assert out.latent_len == 20
    assert out.codebook_size == cfg.codebook_size
    assert out.upper.min() >= 0 and out.upper.max() < cfg.codebook_size


def test_generate_is_deterministic_per_seed():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=5)
    rng = np.random.default_rng(2)
    music = rng.normal(size=(12 * cfg.frames_per_code, cfg.music_dim))
    a = generate(model, music, 0, 12 * cfg.frames_per_code, top_k=3, seed=7)
    b = generate(model, music, 0, 12 * cfg.frames_per_code, top_k=3, seed=7)
    assert np.array_equal(a.upper, b.upper) and np.array_equal(a.lower, b.lower)
    # argmax path needs no seed at all
    c = generate(model, music, 0, 12 * cfg.frames_per_code)
    d = generate(model, music, 0, 12 * cfg.frames_per_code)
    assert np.array_equal(c.upper, d.upper) and np.array_equal(c.lower, d.lower)


def test_generate_restores_training_mode():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=0)
    assert model.training
    music = np.random.default_rng(3).normal(size=(8 * cfg.frames_per_code, cfg.music_dim))
    generate(model, music, 0, 8 * cfg.frames_per_code)
    assert model.training


def test_generate_rejects_bad_top_k():
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=0)
    music = np.zeros((8 * cfg.frames_per_code, cfg.music_dim))
    with pytest.raises(InputError):
        generate(model, music, 0, 8 * cfg.frames_per_code, top_k=0)


@pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
def test_generate_rejects_bad_temperature(temperature):
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=0)
    music = np.zeros((8 * cfg.frames_per_code, cfg.music_dim))
    with pytest.raises(InputError, match="temperature"):
        generate(model, music, 0, 8 * cfg.frames_per_code, top_k=3, temperature=temperature)


# ---------------------------------------------------------------------------
# Recurrent mode: the state path against the teacher-forced forward


def windowed_model(seed=4):
    """tiny_cfg widths with the desk window (22/8): at T' = 64 the window
    engages at row 22 and slides six times."""
    model = GadgModel(tiny_cfg(autoregressive_step=22, window_step=8, max_positions=64), seed=seed)
    model.eval()
    return model


def kv_rows(state):
    return [kv.shape[1] for slot in state.slots.values()
            for name in ("k", "v") for kv in slot.get(name, [])]


@pytest.mark.parametrize("chunk", [1, 5])
def test_stateful_forward_matches_teacher_forced(chunk):
    model = windowed_model()
    cfg = model.cfg
    t_len = 64
    music, codes = random_sequence(cfg, t_len, seed=3)
    pooled = pool_music(music, cfg.frames_per_code)
    upper_in, lower_in = shifted_inputs(codes, model.start_token)
    state = GenerationState()
    got_u, got_l = [], []
    with T.no_grad():
        full_u, full_l = model.forward(pooled, 2, upper_in, lower_in)
        for p in range(0, t_len, chunk):
            rows = slice(p, p + chunk)
            lu, ll = model.forward(pooled[rows], 2, upper_in[rows], lower_in[rows], state)
            got_u.append(lu.data)
            got_l.append(ll.data)
            # two experts per layer, K and V of three streams each, holding
            # the rows from the window start of this call's first row on
            kept = state.position - row_window(p, cfg.autoregressive_step, cfg.window_step)
            assert kv_rows(state) == [kept] * (2 * cfg.num_layers * 2 * 3)
            assert kept <= cfg.autoregressive_step + chunk - 1
    assert state.position == t_len
    assert np.abs(np.concatenate(got_u) - full_u.data).max() < 1e-10
    assert np.abs(np.concatenate(got_l) - full_l.data).max() < 1e-10


def full_prefix_generate(model, music, genre_id, t_target, top_k, seed):
    """The recompute-everything loop: each code from the last row of a
    forward over the whole emitted prefix."""
    pooled = pool_music(music, model.cfg.frames_per_code)
    rng = np.random.default_rng(seed)
    upper, lower = [model.start_token], [model.start_token]
    with T.no_grad():
        for n in range(t_target):
            lu, ll = model.forward(pooled[: n + 1], genre_id, upper, lower)
            upper.append(_sample_code(lu.data[-1], rng, top_k, 1.0))
            lower.append(_sample_code(ll.data[-1], rng, top_k, 1.0))
    return upper[1:], lower[1:]


@pytest.mark.parametrize("top_k", [None, 3])
def test_generate_matches_full_prefix_oracle(top_k):
    model = windowed_model(seed=6)
    cfg = model.cfg
    music = np.random.default_rng(11).normal(size=(64 * cfg.frames_per_code, cfg.music_dim))
    got = generate(model, music, 1, 64 * cfg.frames_per_code, top_k=top_k, seed=9)
    want_u, want_l = full_prefix_generate(model, music, 1, 64, top_k, seed=9)
    assert got.upper.tolist() == want_u and got.lower.tolist() == want_l


def test_state_needs_eval_mode_and_one_genre():
    model = windowed_model()
    cfg = model.cfg
    music = np.zeros((1, cfg.music_dim))
    model.train()
    with pytest.raises(ContractError, match="eval"):
        model.forward(music, 0, [model.start_token], [model.start_token], GenerationState())
    model.eval()
    state = GenerationState()
    model.forward(music, 0, [model.start_token], [model.start_token], state)
    with pytest.raises(ContractError, match="genre"):
        model.forward(music, 1, [0], [0], state)


# ---------------------------------------------------------------------------
# Checkpointing


def test_generator_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg()
    model = GadgModel(cfg, seed=6)
    path = tmp_path / "gen.ckpt"
    save_generator(path, model)
    loaded = load_generator(path)
    assert loaded.cfg == cfg
    music, codes = random_sequence(cfg, 5, seed=8)
    upper_in, lower_in = shifted_inputs(codes, model.start_token)
    pooled = pool_music(music, cfg.frames_per_code)
    model.eval(); loaded.eval()
    with T.no_grad():
        a = model.forward(pooled, 0, upper_in, lower_in)[0].data
        b = loaded.forward(pooled, 0, upper_in, lower_in)[0].data
    assert np.array_equal(a, b)


def test_generator_checkpoint_loads_bitwise_equal(tmp_path):
    model = GadgModel(tiny_cfg(), seed=4)
    arrays = {name: p.data for name, p in model.named_parameters()}
    save_generator(tmp_path / "gen.ckpt", model)
    loaded = dict(load_generator(tmp_path / "gen.ckpt").named_parameters())
    assert list(loaded) == list(arrays)
    for name, value in arrays.items():
        assert loaded[name].data.dtype == np.float64 and loaded[name].data.shape == value.shape
        assert loaded[name].data.tobytes() == value.tobytes()


def test_generator_checkpoint_bytes_are_deterministic(tmp_path):
    model = GadgModel(tiny_cfg(), seed=5)
    save_generator(tmp_path / "a.ckpt", model)
    save_generator(tmp_path / "b.ckpt", GadgModel(tiny_cfg(), seed=5))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_generator_checkpoint_rejects_other_stage(tmp_path):
    from dancegen.checkpoint import save_checkpoint

    path = tmp_path / "other.ckpt"
    save_checkpoint(path, "codec", {"levels": [7, 5, 5, 5, 5]}, [])
    with pytest.raises(FormatError):
        load_generator(path)
