"""Parameter containers, init, the Adam optimizer and the training loop.

Modules discover parameters by walking instance attributes in insertion
order, so checkpoint names are stable as long as attribute names are.
Random init is keyed by a path of names rather than call order: the same
seed and the same module tree always produce the same weights.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError
from .tensor import Parameter, Tensor


_PLACEHOLDER_INIT = contextvars.ContextVar("placeholder_init", default=False)


@contextlib.contextmanager
def placeholder_init():
    """Within this block ``Rng.uniform`` and ``Rng.normal`` draw nothing:
    each returns ``np.broadcast_to(0.0, shape)``, a read-only view with
    zero strides that allocates no array. A model built here is only a
    frame for parameters that replace every one of its arrays; a
    placeholder left in it fails on its first in-place update."""
    token = _PLACEHOLDER_INIT.set(True)
    try:
        yield
    finally:
        _PLACEHOLDER_INIT.reset(token)


class Rng:
    """Deterministic, splittable random stream keyed by (seed, name path).

    ``uniform`` and ``normal`` return placeholders instead of draws inside
    ``placeholder_init()``; ``generator`` always gives the real stream.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self._path = _path
        self._gen = None

    def child(self, name: str) -> "Rng":
        return Rng(self.seed, self._path + (str(name),))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            tag = f"{self.seed}/" + "/".join(self._path)
            digest = hashlib.blake2s(tag.encode()).digest()
            self._gen = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        return self._gen

    def uniform(self, shape, low: float, high: float) -> np.ndarray:
        if _PLACEHOLDER_INIT.get():
            return np.broadcast_to(np.float64(0.0), shape)
        return self.generator.uniform(low, high, size=shape)

    def normal(self, shape, std: float) -> np.ndarray:
        if _PLACEHOLDER_INIT.get():
            return np.broadcast_to(np.float64(0.0), shape)
        return self.generator.normal(0.0, std, size=shape)


def fan_in_uniform(rng: Rng, shape, fan_in: int, gain: float) -> np.ndarray:
    """Default weight init: uniform(-gain/sqrt(fan_in), +gain/sqrt(fan_in))."""
    bound = gain / np.sqrt(fan_in)
    return rng.uniform(shape, -bound, bound)


class Module:
    """Minimal parameter registry with torch-like train/eval switching."""

    def __init__(self):
        self.training = True

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        return ((path, p) for path, p in _walk("", self) if isinstance(p, Parameter))

    def modules(self) -> Iterator["Module"]:
        return (m for _, m in _walk("", self) if isinstance(m, Module))

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)


def _walk(path: str, value):
    """(dotted path, value) of ``value`` and of everything under it, depth
    first: a module's attributes but ``training`` in insertion order, and
    the items of lists, tuples and dicts."""
    yield path, value
    if isinstance(value, Module):
        items = ((name, item) for name, item in vars(value).items() if name != "training")
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    else:
        return
    for key, item in items:
        yield from _walk(f"{path}.{key}" if path else str(key), item)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: Rng, bias: bool = True, gain: float = 1.0):
        super().__init__()
        self.weight = Parameter(fan_in_uniform(rng.child("weight"), (in_dim, out_dim), in_dim, gain))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y


class Dropout(Module):
    """Inverted dropout with an internal deterministic stream.

    The mask sequence depends only on the construction seed and the call
    order, which is fixed in this single-threaded package.
    """

    def __init__(self, p: float, rng: Rng):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ContractError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._gen = rng.child("mask").generator

    def __call__(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._gen.random(x.shape) < keep) / keep
        return x * Tensor(mask)


def check_training_ranges(cfg) -> None:
    """Reject steps or batch_size below 1, a negative seed, and an lr not finite and > 0."""
    for name, low in (("steps", 1), ("batch_size", 1), ("seed", 0)):
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(cfg, name)}")
    if not (np.isfinite(cfg.lr) and cfg.lr > 0):
        raise ConfigError(f"lr must be finite and > 0, got {cfg.lr}")


ADAM_EPS = 1e-8


class Adam:
    """Adam with the betas of its training stage; state is kept per parameter."""

    def __init__(self, params, lr: float, betas: tuple):
        self.params = list(params)
        if not self.params:
            raise ContractError("optimizer needs at least one parameter")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._step += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._step
        bias2 = 1.0 - b2 ** self._step
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def fit(model: Module, train_cfg, betas: tuple, count: int, batch_loss, rng, stage: str) -> list:
    """The training loop of both stages; returns the loss log. Each step
    draws ``min(batch_size, count)`` distinct indices from ``rng`` and
    takes one Adam step on the mean of the parts of ``batch_loss(idx)``, a
    list of zero-argument callables that each build one part's loss. Each
    part is backpropagated before the next is built, so one part's tape is
    alive at a time. A non-finite loss or gradient raises a
    DegenerateInputError naming ``stage`` and the step (from 0, as in the
    loss log) before the update; its ``losses`` are the log of the steps
    before it. A part loss that tracks no gradient, as one built inside a
    caller's ``no_grad`` does, raises a ContractError naming ``stage`` and
    the step before it is backpropagated."""
    named = list(model.named_parameters())
    optim = Adam((p for _, p in named), train_cfg.lr, betas)
    batch = min(train_cfg.batch_size, count)
    losses = []
    for step in range(train_cfg.steps):
        idx = rng.choice(count, size=batch, replace=False)
        optim.zero_grad()
        parts = batch_loss(idx)
        scale = 1.0 / len(parts)
        value = 0.0
        for part in parts:
            loss = part()
            if not loss.requires_grad:
                raise ContractError(f"{stage} training step {step}: the loss tracks no gradient "
                                    "(is it built under no_grad?)")
            (loss * scale).backward()
            value += loss.item()
        value *= scale
        bad = [name for name, p in named if p.grad is not None and not np.isfinite(p.grad).all()]
        if bad or not np.isfinite(value):
            grads = f"; gradient of {bad[0]} not finite" if bad else ""
            err = DegenerateInputError(f"{stage} training diverged at step {step}: loss {value}{grads}")
            err.losses = losses
            raise err
        optim.step()
        losses.append(value)
    return losses
