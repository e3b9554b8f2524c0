"""Pipeline config: defaults, strict key checking, invariants, file loading."""

import json

import pytest

from dancegen.codec import CodecTrainConfig, FsqConfig, LossConfig
from dancegen.config import (
    CONFIG_ENV_VAR,
    PipelineConfig,
    config_from_dict,
    load_config,
)
from dancegen.errors import ConfigError, FormatError
from dancegen.generator import GadgConfig, GeneratorTrainConfig


def test_default_codebook_size():
    assert PipelineConfig().codebook_size == 7 * 5 * 5 * 5 * 5 == 4375


def test_builders_return_stage_configs():
    cfg = PipelineConfig()
    assert cfg.fsq_config() == FsqConfig(levels=(7, 5, 5, 5, 5), feature_dim=64)
    assert cfg.loss_config() == LossConfig(velocity_weight=0.5, accel_weight=0.25)
    assert isinstance(cfg.codec_train_config(), CodecTrainConfig)
    g = cfg.gadg_config()
    assert isinstance(g, GadgConfig)
    assert g.codebook_size == 4375
    assert g.num_genres == cfg.gadg.num_genres
    t = cfg.generator_train_config()
    assert isinstance(t, GeneratorTrainConfig)
    assert t.seed == cfg.data.seed


def test_section_overrides_apply():
    cfg = config_from_dict({"hfdq": {"levels": [5, 5, 5], "steps": 7}})
    assert cfg.hfdq.levels == (5, 5, 5)
    assert cfg.codebook_size == 125
    assert cfg.hfdq.steps == 7
    # untouched sections keep defaults
    assert cfg.gadg.model_dim == 128


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match=r"'velocty_weight'.*'hfdq'"):
        config_from_dict({"hfdq": {"velocty_weight": 0.5}})


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="'hdfq'"):
        config_from_dict({"hdfq": {}})


def test_window_invariant():
    with pytest.raises(ConfigError, match="window_step"):
        config_from_dict({"gadg": {"autoregressive_step": 4, "window_step": 8}})


@pytest.mark.parametrize("clip_frames", [8, 0, -8])
def test_clips_below_the_synthetic_floor_rejected_by_name(clip_frames):
    with pytest.raises(ConfigError, match=rf"data.clip_frames {clip_frames} is below 16"):
        config_from_dict({"data": {"clip_frames": clip_frames}})


@pytest.mark.parametrize("sigma", [0, -1.0, float("nan"), float("inf")])
def test_bad_bas_sigma_rejected_at_load(sigma):
    with pytest.raises(ConfigError, match="metrics.bas_sigma must be finite and > 0"):
        config_from_dict({"metrics": {"bas_sigma": sigma}})


def test_genre_count_is_stated_once():
    cfg = config_from_dict({"gadg": {"num_genres": 3}})
    assert cfg.gadg_config().num_genres == 3
    with pytest.raises(ConfigError, match=r"'num_genres'.*'data'"):
        config_from_dict({"gadg": {"num_genres": 3}, "data": {"num_genres": 3}})


def test_round_trip_through_file(tmp_path):
    cfg = config_from_dict({"data": {"seed": 9, "clip_frames": 96}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = load_config(path)
    assert again.to_dict() == cfg.to_dict()


def test_env_var_fallback(tmp_path, monkeypatch):
    path = tmp_path / "env_cfg.json"
    path.write_text(json.dumps({"data": {"clip_frames": 48}}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    assert load_config().data.clip_frames == 48
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert load_config().data.clip_frames == 240


def test_explicit_path_wins_over_env(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"data": {"seed": 1}}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"data": {"seed": 2}}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(a))
    assert load_config(b).data.seed == 2


def test_malformed_config_files(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_config(bad_json)
    wrong_root = tmp_path / "root.json"
    wrong_root.write_text("[1, 2]")
    with pytest.raises(FormatError, match="JSON object"):
        load_config(wrong_root)
    with pytest.raises(FormatError, match="cannot read"):
        load_config(tmp_path / "missing.json")


SECTION_KEYS = {
    "hfdq": {"levels", "feature_dim", "velocity_weight", "accel_weight",
             "steps", "batch_size", "lr", "noise_clips"},
    "gadg": {"model_dim", "num_genres", "num_layers", "num_heads", "ff_dim", "dropout",
             "state_dim", "conv_kernel", "expand", "autoregressive_step", "window_step",
             "max_positions", "steps", "batch_size", "lr"},
    "data": {"seed", "clip_frames"},
    "metrics": {"bas_sigma"},
}


def test_section_key_sets_are_pinned():
    sections = PipelineConfig().to_dict()
    assert {name: set(values) for name, values in sections.items()} == SECTION_KEYS


@pytest.mark.parametrize("section, key", [
    ("gadg", "top_k"), ("gadg", "temperature"), ("metrics", "feature_kinds"),
    ("data", "num_genres"),
    # stage fields that are fixed or derived, never settable
    ("hfdq", "betas"), ("hfdq", "seed"), ("gadg", "seed"), ("gadg", "head_gain"),
    ("gadg", "music_dim"), ("gadg", "frames_per_code"), ("gadg", "codebook_size"),
])
def test_unsettable_keys_rejected_by_name(section, key):
    with pytest.raises(ConfigError, match=rf"'{key}'.*'{section}'"):
        config_from_dict({section: {key: 1}})


def test_defaults_are_the_stage_defaults():
    cfg = PipelineConfig()
    assert cfg.fsq_config() == FsqConfig()
    assert cfg.loss_config() == LossConfig()
    assert cfg.codec_train_config() == CodecTrainConfig()
    assert cfg.gadg_config() == GadgConfig()
    assert cfg.generator_train_config() == GeneratorTrainConfig()


def test_overrides_reach_the_stage_configs():
    cfg = config_from_dict({
        "hfdq": {"levels": [3, 3], "accel_weight": 0.1, "lr": 0.01, "noise_clips": 2},
        "gadg": {"dropout": 0.1, "max_positions": 64, "lr": 0.02, "batch_size": 3},
        "data": {"seed": 5},
    })
    assert cfg.fsq_config().levels == (3, 3)
    assert cfg.loss_config().accel_weight == 0.1
    assert cfg.codec_train_config() == CodecTrainConfig(lr=0.01, noise_clips=2, seed=5)
    g = cfg.gadg_config()
    assert (g.dropout, g.max_positions, g.codebook_size) == (0.1, 64, 9)
    assert cfg.generator_train_config() == GeneratorTrainConfig(lr=0.02, batch_size=3, seed=5)


@pytest.mark.parametrize("section, value", [("hfdq", 5), ("gadg", [1]), ("metrics", None)])
def test_non_object_section_rejected_by_name(section, value):
    with pytest.raises(ConfigError, match=rf"section '{section}' must be a JSON object"):
        config_from_dict({section: value})


@pytest.mark.parametrize("section, key, value", [
    ("hfdq", "steps", True), ("hfdq", "steps", "ten"), ("hfdq", "steps", 10.0),
    ("data", "seed", [1]), ("gadg", "dropout", "0.1"), ("gadg", "dropout", False),
    ("metrics", "bas_sigma", None), ("hfdq", "levels", 7), ("hfdq", "levels", [3, 3.0]),
    ("hfdq", "levels", [True, 3]), ("hfdq", "levels", "75555"),
])
def test_mistyped_value_rejected_by_name(section, key, value):
    with pytest.raises(ConfigError, match=rf"config section '{section}': {key} must be"):
        config_from_dict({section: {key: value}})


def test_float_fields_take_integers():
    cfg = config_from_dict({"hfdq": {"lr": 1, "velocity_weight": 0.25},
                            "metrics": {"bas_sigma": 2}})
    assert (cfg.hfdq.lr, cfg.hfdq.velocity_weight, cfg.metrics.bas_sigma) == (1, 0.25, 2)
