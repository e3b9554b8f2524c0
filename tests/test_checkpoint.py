"""Saving a checkpoint writes the bytes of ``np.savez`` on the same members,
from each parameter's own buffer, with no staging copy. Loading one builds
its model without random init: no draw runs, each parameter is allocated
once, by the read, and every loaded parameter is a writeable array equal
to the saved one. A checkpoint that lacks a parameter is refused by name,
and a loaded generator's dropout streams are those of a fresh generator
with the load's seed."""

import tracemalloc

import numpy as np
import pytest

from checkpoint_files import read_v2, write_v2
from dancegen.codec import CodecModel, FsqConfig, load_codec, save_codec
from dancegen.errors import FormatError
from dancegen.generator import GadgConfig, GadgModel, load_generator, save_generator
from dancegen.nn import Dropout, Linear, Rng, placeholder_init
from dancegen.tensor import Tensor

TINY_GADG = dict(model_dim=16, num_genres=3, num_layers=1, num_heads=2, ff_dim=32,
                 dropout=0.25, state_dim=4, conv_kernel=3, expand=2,
                 autoregressive_step=4, window_step=2, codebook_size=11,
                 music_dim=5, frames_per_code=2, max_positions=40)

# stage -> (config class, model class, small config, save, load)
STAGES = {
    "generator": (GadgConfig, GadgModel, TINY_GADG, save_generator, load_generator),
    "codec": (FsqConfig, CodecModel, dict(feature_dim=16), save_codec, load_codec),
}


@pytest.fixture(params=sorted(STAGES))
def saved(request, tmp_path):
    """(saved small model, its checkpoint path, the stage's loader)."""
    config_cls, model_cls, small, save, load = STAGES[request.param]
    model = model_cls(config_cls(**small), seed=3)
    path = tmp_path / f"{request.param}.ckpt"
    save(path, model)
    return model, path, load


class CountingGenerator:
    """Forwards to a numpy Generator and records the name of each method called."""

    def __init__(self, gen, calls):
        self._gen, self._calls = gen, calls

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


def test_load_draws_no_random_init(saved, monkeypatch):
    model, path, load = saved
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: CountingGenerator(default_rng(*a, **k), calls))
    load(path)
    assert calls == []
    type(model)(model.cfg)  # the counter sees the draws of a plain build
    assert calls


def test_loaded_parameters_are_writeable_copies_of_the_saved_ones(saved):
    model, path, load = saved
    loaded = dict(load(path).named_parameters())
    for name, p in model.named_parameters():
        data = loaded[name].data
        assert data.flags.writeable, name
        assert 0 not in data.strides, name
        assert data.dtype == np.float64 and data.tobytes() == p.data.tobytes(), name


def test_missing_parameter_is_refused_by_name(saved, tmp_path):
    _, path, load = saved
    header, arrays = read_v2(path)
    name = sorted(arrays)[len(arrays) // 2]
    del arrays[name]
    bad = tmp_path / "bad.ckpt"
    write_v2(bad, header, arrays)
    with pytest.raises(FormatError, match=f"missing \\['{name}'\\]") as err:
        load(bad)
    assert str(bad) in str(err.value)


def test_loaded_generator_draws_the_dropout_masks_of_a_fresh_one(tmp_path):
    # the load builds with the default seed 0; dropout streams are keyed by
    # seed and name path, not by how the weights were initialised
    cfg = GadgConfig(**TINY_GADG)
    save_generator(tmp_path / "gen.ckpt", GadgModel(cfg, seed=0))
    loaded = load_generator(tmp_path / "gen.ckpt")
    fresh = GadgModel(cfg, seed=0)
    pairs = [(a, b) for a, b in zip(fresh.modules(), loaded.modules()) if isinstance(a, Dropout)]
    assert pairs
    ones = Tensor(np.ones((6, cfg.model_dim)))
    for _ in range(2):
        for a, b in pairs:
            assert np.array_equal(a(ones).data, b(ones).data)


def test_placeholder_init_allocates_nothing_and_refuses_updates():
    drawn = Linear(3, 5, Rng(4).child("layer")).weight.data
    rng = Rng(4)
    with placeholder_init():
        layer = Linear(3, 5, rng.child("layer"))
        normal = rng.child("table").normal((6, 2), 0.02)
    for value in (layer.weight.data, normal):
        assert value.strides == (0, 0) and not value.any()
        with pytest.raises(ValueError, match="read-only"):
            value -= 1.0
    # the switch is off again after the block, also after an error in it
    with pytest.raises(RuntimeError), placeholder_init():
        raise RuntimeError
    assert Linear(3, 5, Rng(4).child("layer")).weight.data.tobytes() == drawn.tobytes()
    assert drawn.any()


def traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak, above what was held before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("stage, bound", [("generator", 1.1), ("codec", 1.25)])
def test_desk_load_peak_memory_is_about_one_copy_of_the_parameters(tmp_path, stage, bound):
    # a random init that the load overwrites would hold a second copy
    config_cls, model_cls, _, save, load = STAGES[stage]
    model = model_cls(config_cls(), seed=0)
    save(tmp_path / "model.ckpt", model)
    param_bytes = sum(p.data.nbytes for _, p in model.named_parameters())
    del model
    peak = traced_peak(lambda: load(tmp_path / "model.ckpt"))
    assert peak <= bound * param_bytes, f"{stage} load peak {peak / param_bytes:.2f}x its parameters"


def generator_with_noncontiguous_parameters():
    """A tiny generator whose parameters include a Fortran-ordered matrix, a
    strided view of a matrix and of a vector, and a zero-stride placeholder."""
    model = GadgModel(GadgConfig(**TINY_GADG), seed=3)
    matrices = [p for _, p in model.named_parameters() if p.data.ndim == 2]
    vector = next(p for _, p in model.named_parameters() if p.data.ndim == 1)
    matrices[0].data = np.asfortranarray(matrices[0].data)
    matrices[1].data = np.repeat(matrices[1].data, 2, axis=1)[:, ::2]
    matrices[2].data = np.broadcast_to(0.25, matrices[2].data.shape)
    vector.data = np.repeat(vector.data, 3)[1::3]
    return model


SAVED_MODELS = {
    "desk codec": (lambda: CodecModel(FsqConfig(), seed=0), save_codec, load_codec),
    "tiny generator": (lambda: GadgModel(GadgConfig(**TINY_GADG), seed=3),
                       save_generator, load_generator),
    "noncontiguous generator": (generator_with_noncontiguous_parameters,
                                save_generator, load_generator),
}


@pytest.mark.parametrize("which", sorted(SAVED_MODELS))
def test_save_writes_the_bytes_of_np_savez(tmp_path, which):
    build, save, load = SAVED_MODELS[which]
    model = build()
    save(tmp_path / "model.ckpt", model)
    header, _ = read_v2(tmp_path / "model.ckpt")
    arrays = {name: p.data for name, p in model.named_parameters()}
    write_v2(tmp_path / "savez.ckpt", header, arrays)
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "savez.ckpt").read_bytes()
    for name, p in load(tmp_path / "model.ckpt").named_parameters():
        assert np.array_equal(p.data, arrays[name]), name


def test_save_stages_no_copy_of_a_parameter(tmp_path):
    # np.savez, given a zip member handle, copies each array into a bytes
    # object before writing it, so its peak is at least the largest array
    model = GadgModel(GadgConfig(), seed=0)
    largest = max(p.data.nbytes for _, p in model.named_parameters())
    peak = traced_peak(lambda: save_generator(tmp_path / "generator.ckpt", model))
    assert peak < largest / 4, f"save peak {peak} B for a largest parameter of {largest} B"
