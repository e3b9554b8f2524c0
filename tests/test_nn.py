"""The training loop both stages share: the batches it draws, the mean of
the parts of a batch's loss, each backpropagated before the next is built,
its loss log, and its stop before the first step whose loss or gradient is
not finite."""

from types import SimpleNamespace

import numpy as np
import pytest

from dancegen import tensor as T
from dancegen.errors import DegenerateInputError
from dancegen.nn import Module, fit
from dancegen.tensor import Parameter, Tensor

TARGETS = np.array([0.5, -1.0, 2.0, 0.25, 3.0])
BETAS = (0.9, 0.99)


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.array([1.0]))


def recording_loss(model, drawn, bad_step=None, bad="loss"):
    """One part: the squared error of ``w`` to the drawn targets. Records
    each batch; at step ``bad_step`` the ``bad`` loss value or gradient is
    NaN."""

    def batch_loss(idx):
        drawn.append(idx.copy())
        step = len(drawn) - 1

        def part():
            diff = model.w - Tensor(TARGETS[idx])
            loss = T.reduce_mean(diff * diff)
            if step != bad_step:
                return loss
            if bad == "loss":
                return loss * np.nan
            return loss + T.reduce_sum(T.sqrt(model.w * 0.0))  # value 0, gradient 0 * inf

        return [part]

    return batch_loss


def run_fit(model, steps, batch_size, seed, drawn, **bad):
    cfg = SimpleNamespace(steps=steps, batch_size=batch_size, lr=0.1)
    batch_loss = recording_loss(model, drawn, **bad)
    with np.errstate(divide="ignore", invalid="ignore"):
        return fit(model, cfg, BETAS, TARGETS.size, batch_loss, np.random.default_rng(seed), "toy")


@pytest.mark.parametrize("batch_size", [1, 3, 5, 8])
def test_fit_draws_each_batch_from_rng_and_logs_every_step(batch_size):
    model, drawn = Toy(), []
    losses = run_fit(model, 6, batch_size, 7, drawn)
    twin = np.random.default_rng(7)
    size = min(batch_size, TARGETS.size)
    expected = [twin.choice(TARGETS.size, size=size, replace=False) for _ in range(6)]
    assert [d.tolist() for d in drawn] == [e.tolist() for e in expected]
    assert len(losses) == 6
    assert losses[0] == pytest.approx(np.mean((1.0 - TARGETS[expected[0]]) ** 2), rel=1e-15)
    assert model.w.data[0] != 1.0


@pytest.mark.parametrize("bad, message", [
    ("loss", "toy training diverged at step 2: loss nan"),
    ("gradient", r"toy training diverged at step 2: loss [0-9.e-]+; gradient of w not finite"),
])
def test_fit_stops_before_the_first_non_finite_step(bad, message):
    model, drawn = Toy(), []
    with pytest.raises(DegenerateInputError, match=message) as stop:
        run_fit(model, 5, 2, 3, drawn, bad_step=2, bad=bad)
    assert len(drawn) == 3
    assert len(stop.value.losses) == 2
    after_steps_0_and_1 = Toy()
    run_fit(after_steps_0_and_1, 2, 2, 3, [])
    assert model.w.data.tolist() == after_steps_0_and_1.w.data.tolist()
    assert model.w.data[0] != 1.0


def test_fit_steps_on_the_mean_of_three_parts_built_one_at_a_time():
    model = Toy()
    values, grads_at_build = [], []

    def batch_loss(idx):
        def part(target):
            def build():
                grads_at_build.append(None if model.w.grad is None else model.w.grad.copy())
                diff = model.w - Tensor(np.array([target]))
                loss = T.reduce_sum(diff * diff)
                values.append(loss.item())
                return loss

            return build

        return [part(t) for t in TARGETS[:3]]

    cfg = SimpleNamespace(steps=1, batch_size=1, lr=0.1)
    losses = fit(model, cfg, BETAS, 1, batch_loss, np.random.default_rng(0), "toy")
    v0, v1, v2 = values
    assert losses == [(v0 + v1 + v2) * (1 / 3)]
    # each part is backpropagated, scaled by 1/3, before the next is built
    part_grads = [2.0 * (1.0 - t) / 3 for t in TARGETS[:3]]
    assert grads_at_build[0] is None
    assert grads_at_build[1] == pytest.approx([part_grads[0]], rel=1e-15)
    assert grads_at_build[2] == pytest.approx([part_grads[0] + part_grads[1]], rel=1e-15)
    assert model.w.grad == pytest.approx([sum(part_grads)], rel=1e-15)
