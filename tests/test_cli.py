"""End-to-end checks of the command-line surface.

Everything runs in-process through main(argv) against a module-scoped
miniature dataset and deliberately under-trained checkpoints; correctness
of the trained pipeline itself lives in the acceptance suite.
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from checkpoint_files import ZIP_EDITS, read_v2, write_v1_checkpoint, write_v2, write_zip_edit
from dancegen import cli
from dancegen import codec as C
from dancegen import generator as G
from dancegen import motion as MO
from dancegen.checkpoint import config_hash
from dancegen.cli import main, read_loss_log
from dancegen.codec import (
    LatentCodeSequence,
    load_codec,
    read_codes_file,
    reconstruction_loss,
    write_codes_file,
)
from dancegen.config import load_config
from dancegen.errors import FormatError
from dancegen.metrics import (
    GaussianStats,
    beat_align_score,
    diversity,
    extract_features,
    frechet_distance,
    read_report_file,
    write_report_file,
)
from dancegen.motion import FRAME_WIDTH, MotionSequence, read_motion_file, write_motion_file
from dancegen.music import beat_extract, read_music_file

TINY = {
    "hfdq": {"steps": 25, "batch_size": 2, "feature_dim": 16},
    "gadg": {
        "model_dim": 32, "num_heads": 4, "ff_dim": 64, "state_dim": 4,
        "steps": 15, "batch_size": 2,
    },
    "data": {"clip_frames": 96},
}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Config file, six synthetic clips, and one checkpoint per stage."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    data = root / "data"
    assert main(["synth-data", "--config", str(cfg), "--out", str(data), "--clips", "6"]) == 0
    codec = root / "codec.ckpt"
    assert main(["train-hfdq", "--config", str(cfg), "--data", str(data),
                 "--out-ckpt", str(codec)]) == 0
    gen = root / "gen.ckpt"
    assert main(["train-gadg", "--config", str(cfg), "--data", str(data),
                 "--hfdq-ckpt", str(codec), "--out-ckpt", str(gen)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "codec": codec, "gen": gen}


def test_synth_data_layout(env):
    data = env["data"]
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["format"] == "dancegen-manifest"
    assert len(manifest["clips"]) == 6
    # genres cycle through the configured count
    assert [c["genre_id"] for c in manifest["clips"]] == [0, 1, 2, 3, 0, 1]
    for entry in manifest["clips"]:
        music = read_music_file(data / entry["music"])
        clip = read_motion_file(data / entry["motion"])
        assert music.genre_id == entry["genre_id"]
        assert clip.frames.shape == (96, FRAME_WIDTH)


def test_synth_data_rerun_byte_identical(env, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth-data", "--config", str(env["cfg"]),
                     "--out", str(out), "--clips", "3"]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_data_zero_clips_warns(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["synth-data", "--out", str(out), "--clips", "0"]) == 0
    assert json.loads((out / "manifest.json").read_text())["clips"] == []
    assert "warning" in capsys.readouterr().err


def test_synth_data_rejects_negative_clips(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth-data", "--out", str(out), "--clips", "-3"]) == 2
    assert "--clips" in capsys.readouterr().err
    assert not out.exists()


def test_train_hfdq_outputs(env):
    losses = read_loss_log(str(env["codec"]) + ".losses.txt")
    assert losses.shape == (TINY["hfdq"]["steps"],)
    assert losses[-1] < losses[0]
    header, _ = read_v2(env["codec"])
    assert header["stage"] == "codec"
    fsq = load_config(env["cfg"]).fsq_config()
    assert fsq.feature_dim == TINY["hfdq"]["feature_dim"]
    assert header["config"] == json.loads(json.dumps(asdict(fsq)))


def test_train_gadg_outputs(env):
    losses = read_loss_log(str(env["gen"]) + ".losses.txt")
    assert losses.shape == (TINY["gadg"]["steps"],)
    assert losses[-1] < losses[0]


def test_train_hfdq_stops_at_non_finite_loss(env, tmp_path, capsys, monkeypatch):
    def nan_loss(*args):
        return reconstruction_loss(*args) * np.nan

    monkeypatch.setattr(C, "reconstruction_loss", nan_loss)
    ckpt = tmp_path / "codec.ckpt"
    assert main(["train-hfdq", "--config", str(env["cfg"]), "--data", str(env["data"]),
                 "--out-ckpt", str(ckpt)]) == 2
    assert "codec training diverged at step 0: loss nan" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, module, loss_name, stage", [
    ("train-hfdq", C, "reconstruction_loss", "codec"),
    ("train-gadg", G, "teacher_forced_loss", "generator"),
], ids=["train-hfdq", "train-gadg"])
def test_training_that_diverges_at_step_2_keeps_the_loss_log_of_steps_0_and_1(
        env, tmp_path, capsys, monkeypatch, command, module, loss_name, stage):
    # one codec part per step; one generator part per sequence of a batch
    parts_per_step = 1 if stage == "codec" else TINY["gadg"]["batch_size"]
    real_loss, calls = getattr(module, loss_name), []

    def nan_from_step_2(*args):
        calls.append(None)
        loss = real_loss(*args)
        return loss * np.nan if len(calls) > 2 * parts_per_step else loss

    monkeypatch.setattr(module, loss_name, nan_from_step_2)
    ckpt = tmp_path / "out.ckpt"
    argv = [command, "--config", str(env["cfg"]), "--data", str(env["data"]),
            "--out-ckpt", str(ckpt)]
    if command == "train-gadg":
        argv += ["--hfdq-ckpt", str(env["codec"])]
    assert main(argv) == 2
    assert f"{stage} training diverged at step 2: loss nan" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out.ckpt.losses.txt"]
    losses = read_loss_log(str(ckpt) + ".losses.txt")
    assert losses.shape == (2,)
    assert np.isfinite(losses).all()


def test_train_requires_data_dir(env, tmp_path):
    assert main(["train-hfdq", "--config", str(env["cfg"]),
                 "--data", str(tmp_path), "--out-ckpt", str(tmp_path / "c.json")]) == 2


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"version": 1}'])
def test_malformed_manifest_is_validation_error(tmp_path, capsys, text):
    data = tmp_path / "d"
    data.mkdir()
    (data / "manifest.json").write_text(text)
    assert main(["train-hfdq", "--data", str(data),
                 "--out-ckpt", str(tmp_path / "c.json")]) == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    "clip_0000", {"motion": "m.txt", "genre_id": 0}, {"music": 3, "motion": "m.txt", "genre_id": 0},
    {"music": "a.txt", "motion": "m.txt"}, {"music": "a.txt", "motion": "m.txt", "genre_id": "0"},
    {"music": "a.txt", "motion": "m.txt", "genre_id": True},
])
def test_malformed_manifest_entry_is_validation_error(tmp_path, capsys, entry):
    data = tmp_path / "d"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"version": 1, "clips": [entry]}))
    assert main(["train-hfdq", "--data", str(data),
                 "--out-ckpt", str(tmp_path / "c.json")]) == 2
    assert "clip entry 0" in capsys.readouterr().err


def test_manifest_genre_must_match_music_header(env, tmp_path, capsys):
    data = tmp_path / "d"
    data.mkdir()
    for name in ("clip_0001.music.txt", "clip_0001.motion.txt"):
        (data / name).write_bytes((env["data"] / name).read_bytes())
    (data / "manifest.json").write_text(json.dumps({"version": 1, "clips": [
        {"music": "clip_0001.music.txt", "motion": "clip_0001.motion.txt", "genre_id": 2}]}))
    ckpt = tmp_path / "c.json"
    assert main(["train-hfdq", "--config", str(env["cfg"]), "--data", str(data),
                 "--out-ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "clip entry 0" in err and "genre_id 2" in err and "says 1" in err
    assert not ckpt.exists()


@pytest.mark.parametrize("stage, override, field", [
    ("hfdq", {"steps": 0}, "steps"),
    ("gadg", {"steps": 0}, "steps"),
    ("hfdq", {"steps": 1, "batch_size": 0}, "batch_size"),
    ("gadg", {"batch_size": 0}, "batch_size"),
    ("hfdq", {"lr": 0}, "lr"),
    ("gadg", {"lr": -3e-4}, "lr"),
    ("hfdq", {"lr": float("nan")}, "lr"),
    ("hfdq", {"noise_clips": -1}, "noise_clips"),
    ("hfdq", {"levels": []}, "levels"),
    ("hfdq", {"velocity_weight": -1}, "velocity_weight"),
    ("hfdq", {"accel_weight": float("inf")}, "accel_weight"),
    ("hfdq", {"levels": [0, 5]}, "levels"),
])
def test_train_rejects_out_of_range_config(env, tmp_path, capsys, stage, override, field):
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps(dict(TINY, **{stage: dict(TINY[stage], **override)})))
    ckpt = tmp_path / "out.ckpt.json"
    argv = ["--config", str(cfg), "--data", str(env["data"]), "--out-ckpt", str(ckpt)]
    if stage == "hfdq":
        argv = ["train-hfdq"] + argv
    else:
        argv = ["train-gadg", "--hfdq-ckpt", str(env["codec"])] + argv
    assert main(argv) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["train-hfdq", "train-gadg"])
def test_train_rejects_negative_seed(env, tmp_path, capsys, command):
    # synth-data masks the seed, so only the training commands can refuse it
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps(dict(TINY, data=dict(TINY["data"], seed=-1))))
    ckpt = tmp_path / "out.ckpt"
    argv = [command, "--config", str(cfg), "--data", str(env["data"]), "--out-ckpt", str(ckpt)]
    if command == "train-gadg":
        argv += ["--hfdq-ckpt", str(env["codec"])]
    assert main(argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_synth_data_refuses_clips_the_codec_cannot_take(tmp_path, capsys):
    cfg = tmp_path / "frames.json"
    cfg.write_text(json.dumps({"data": {"clip_frames": 100}}))
    out = tmp_path / "d"
    assert main(["synth-data", "--config", str(cfg), "--out", str(out), "--clips", "1"]) == 2
    assert "data.clip_frames 100 is not a multiple of 8" in capsys.readouterr().err
    assert not out.exists()


def test_synth_data_refuses_clips_below_the_floor_before_making_the_directory(tmp_path, capsys):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"data": {"clip_frames": 8}}))
    out = tmp_path / "d"
    assert main(["synth-data", "--config", str(cfg), "--out", str(out), "--clips", "1"]) == 2
    assert "data.clip_frames 8 is below 16" in capsys.readouterr().err
    assert not out.exists()


def test_train_gadg_missing_codec_is_dependency_error(env, tmp_path, capsys):
    code = main(["train-gadg", "--config", str(env["cfg"]), "--data", str(env["data"]),
                 "--hfdq-ckpt", str(tmp_path / "nope.json"),
                 "--out-ckpt", str(tmp_path / "g.json")])
    assert code == 3
    assert "not found" in capsys.readouterr().err


def test_encode_decode_round_trip(env, tmp_path):
    src = env["data"] / "clip_0000.motion.txt"
    codes_path = tmp_path / "c.codes.txt"
    rec_path = tmp_path / "c.rec.motion.txt"
    assert main(["encode", "--ckpt", str(env["codec"]), "--in", str(src),
                 "--out", str(codes_path)]) == 0
    codes = read_codes_file(codes_path)
    assert codes.latent_len == 96 // 8
    assert main(["decode", "--ckpt", str(env["codec"]), "--in", str(codes_path),
                 "--out", str(rec_path)]) == 0
    rec = read_motion_file(rec_path)
    assert rec.frames.shape == (96, FRAME_WIDTH)


def test_encode_rejects_ragged_length(env, tmp_path):
    clip = read_motion_file(env["data"] / "clip_0000.motion.txt")
    short = tmp_path / "short.motion.txt"
    write_motion_file(short, MotionSequence(clip.frames[:10]))
    assert main(["encode", "--ckpt", str(env["codec"]), "--in", str(short),
                 "--out", str(tmp_path / "x.txt")]) == 2


def test_decode_all_zero_codes_is_valid_motion(env, tmp_path):
    codes = LatentCodeSequence(
        upper=np.zeros(4, dtype=np.int64), lower=np.zeros(4, dtype=np.int64),
        codebook_size=4375,
    )
    path = tmp_path / "zero.codes.txt"
    write_codes_file(path, codes)
    out = tmp_path / "zero.motion.txt"
    assert main(["decode", "--ckpt", str(env["codec"]), "--in", str(path),
                 "--out", str(out)]) == 0
    frames = read_motion_file(out).frames  # constructor validates the pose
    assert frames.shape == (32, FRAME_WIDTH)


def test_generate_deterministic(env, tmp_path):
    music = env["data"] / "clip_0001.music.txt"
    outs = []
    for name in ("g1.motion.txt", "g2.motion.txt"):
        out = tmp_path / name
        assert main(["generate", "--gadg-ckpt", str(env["gen"]),
                     "--hfdq-ckpt", str(env["codec"]), "--music", str(music),
                     "--genre", "1", "--frames", "64", "--seed", "5",
                     "--top-k", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert read_motion_file(tmp_path / "g1.motion.txt").frames.shape == (64, FRAME_WIDTH)


@pytest.mark.parametrize("temperature", ["0", "-1"])
def test_generate_rejects_bad_temperature(env, tmp_path, capsys, temperature):
    code = main(["generate", "--gadg-ckpt", str(env["gen"]),
                 "--hfdq-ckpt", str(env["codec"]),
                 "--music", str(env["data"] / "clip_0001.music.txt"),
                 "--genre", "1", "--frames", "32", "--top-k", "3",
                 "--temperature", temperature, "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "temperature" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_generate_rejects_negative_seed(env, tmp_path, capsys):
    out = tmp_path / "x.motion.txt"
    code = main(["generate", "--gadg-ckpt", str(env["gen"]), "--hfdq-ckpt", str(env["codec"]),
                 "--music", str(env["data"] / "clip_0001.music.txt"),
                 "--genre", "1", "--frames", "32", "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_temperature_without_top_k(env, tmp_path, capsys):
    code = main(["generate", "--gadg-ckpt", str(env["gen"]),
                 "--hfdq-ckpt", str(env["codec"]),
                 "--music", str(env["data"] / "clip_0001.music.txt"),
                 "--genre", "1", "--frames", "32", "--temperature", "0.5",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--temperature" in err and "--top-k" in err
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("stage, edit", [
    ("gen", "extra_config_key"), ("gen", "mistyped_config_value"),
    ("gen", "no_params"), ("gen", "size_not_shape"),
    ("codec", "extra_config_key"),
    ("codec", "mistyped_config_value"), ("codec", "no_params"), ("codec", "size_not_shape"),
    ("gen", "truncated"), ("codec", "truncated"),
    ("gen", "no_header"), ("codec", "no_header"),
    ("gen", "unknown_version"), ("codec", "unknown_version"),
    ("gen", "missing_config_key"), ("codec", "missing_config_key"),
    ("gen", "window_step_over_autoregressive_step"),
    ("gen", "v1_json"), ("codec", "v1_json"),
    ("codec", "float_level"), ("gen", "bool_config_int"), ("gen", "float_config_int"),
    ("gen", "string_dropout"), ("gen", "bool_head_gain"), ("gen", "nan_head_gain"),
    ("codec", "int_levels"),
    ("codec", "float_feature_dim"), ("codec", "bool_feature_dim"), ("codec", "list_config"),
])
def test_malformed_checkpoint_is_validation_error(env, tmp_path, capsys, stage, edit):
    header, arrays = read_v2(env[stage])
    if edit == "extra_config_key":
        key, value = ("colour", "red") if stage == "gen" else ("feature_dims", 512)
        header["config"][key] = value
    elif edit == "mistyped_config_value":
        key = "model_dim" if stage == "gen" else "feature_dim"
        header["config"][key] = str(header["config"][key])
    elif edit == "no_params":
        arrays = {}
    elif edit == "size_not_shape":
        name = next(iter(arrays))
        arrays[name] = np.append(arrays[name], 0.0)
    elif edit == "no_header":
        header = None
    elif edit == "unknown_version":
        header["version"] = 3
    elif edit == "missing_config_key":
        missing = "window_step" if stage == "gen" else "feature_dim"
        del header["config"][missing]
    elif edit == "window_step_over_autoregressive_step":
        header["config"].update(autoregressive_step=4, window_step=8)
    elif edit == "float_level":  # int() would load this as a 7-level codec
        header["config"]["levels"][0] = 7.9
    elif edit == "bool_config_int":
        header["config"]["num_layers"] = True
    elif edit == "float_config_int":
        header["config"]["model_dim"] = float(header["config"]["model_dim"])
    elif edit == "string_dropout":
        header["config"]["dropout"] = "0.25"
    elif edit == "bool_head_gain":
        header["config"]["head_gain"] = True
    elif edit == "nan_head_gain":  # json writes and reads the NaN literal
        header["config"]["head_gain"] = float("nan")
    elif edit == "int_levels":
        header["config"]["levels"] = 7
    elif edit == "float_feature_dim":
        header["config"]["feature_dim"] = 64.0
    elif edit == "bool_feature_dim":
        header["config"]["feature_dim"] = True
    elif edit == "list_config":
        header["config"] = [1]
    bad = tmp_path / "bad.ckpt"
    if edit == "truncated":  # a copy killed halfway
        data = env[stage].read_bytes()
        bad.write_bytes(data[:len(data) // 2])
    elif edit == "v1_json":
        write_v1_checkpoint(bad, header["stage"], header["config"], arrays)
    else:
        write_v2(bad, header, arrays)
    ckpts = dict(env, **{stage: bad})
    out = tmp_path / "x.motion.txt"
    code = main(["generate", "--gadg-ckpt", str(ckpts["gen"]),
                 "--hfdq-ckpt", str(ckpts["codec"]),
                 "--music", str(env["data"] / "clip_0001.music.txt"),
                 "--genre", "1", "--frames", "32", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    if edit == "missing_config_key":
        assert f"config has no key {missing!r}" in err
    if edit == "window_step_over_autoregressive_step":
        assert "window_step 8" in err
    if edit == "v1_json":
        assert "v1" in err
    field = {"float_level": "levels", "bool_config_int": "num_layers",
             "float_config_int": "model_dim", "string_dropout": "dropout",
             "bool_head_gain": "head_gain", "nan_head_gain": "head_gain", "int_levels": "levels",
             "float_feature_dim": "feature_dim", "bool_feature_dim": "feature_dim",
             "list_config": "config"}.get(edit)
    if field:
        assert f"{field} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("edit", ["v2_nan", "v2_float32"])
def test_bad_parameter_values_name_the_parameter(env, tmp_path, capsys, edit):
    header, arrays = read_v2(env["codec"])
    name = list(arrays)[-1]
    bad = tmp_path / "bad.ckpt"
    arrays[name] = (np.full_like(arrays[name], np.nan) if edit == "v2_nan"
                    else arrays[name].astype(np.float32))
    write_v2(bad, header, arrays)
    codes = tmp_path / "zero.codes.txt"
    write_codes_file(codes, LatentCodeSequence(np.zeros(4, dtype=np.int64),
                                               np.zeros(4, dtype=np.int64), 4375))
    out = tmp_path / "x.motion.txt"
    assert main(["decode", "--ckpt", str(bad), "--in", str(codes), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"parameter {name}" in err
    assert not out.exists()


@pytest.mark.parametrize("edit", sorted(ZIP_EDITS))
def test_checkpoint_with_an_unreadable_zip_field_is_validation_error(env, tmp_path, capsys,
                                                                     edit):
    # zipfile raises NotImplementedError or OSError on these, not BadZipFile
    bad = tmp_path / "bad.ckpt"
    write_zip_edit(bad, env["codec"], edit)
    codes = tmp_path / "zero.codes.txt"
    write_codes_file(codes, LatentCodeSequence(np.zeros(4, dtype=np.int64),
                                               np.zeros(4, dtype=np.int64), 4375))
    out = tmp_path / "x.motion.txt"
    assert main(["decode", "--ckpt", str(bad), "--in", str(codes), "--out", str(out)]) == 2
    assert f"{bad}: malformed checkpoint" in capsys.readouterr().err
    assert not out.exists()


def _assert_codec_config_refused(env, tmp_path, capsys, config, message):
    header, arrays = read_v2(env["codec"])
    header["config"] = config
    header["config_hash"] = config_hash(config)
    bad = tmp_path / "old.ckpt"
    write_v2(bad, header, arrays)
    with pytest.raises(FormatError, match=message) as err:
        load_codec(bad)
    assert str(bad) in str(err.value)
    codes = tmp_path / "zero.codes.txt"
    write_codes_file(codes, LatentCodeSequence(np.zeros(4, dtype=np.int64),
                                               np.zeros(4, dtype=np.int64), 4375))
    out = tmp_path / "x.motion.txt"
    assert main(["decode", "--ckpt", str(bad), "--in", str(codes), "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert str(bad) in stderr and message in stderr
    assert not out.exists()


@pytest.mark.parametrize("edit", ["swap_joint", "reorder_upper"])
def test_checkpoint_with_another_body_split_is_rejected(env, tmp_path, capsys, edit):
    # the body split is fixed by the skeleton, not by the checkpoint: a header
    # that carries one, even a split other than the fixed one, is refused
    config = dict(read_v2(env["codec"])[0]["config"])
    if edit == "swap_joint":  # same widths, so every parameter shape still fits
        config["lower_joints"] = [12 if j == 11 else j for j in MO.LOWER_JOINTS]
        config["upper_joints"] = [11 if j == 12 else j for j in MO.UPPER_JOINTS]
        key = "lower_joints"
    else:
        config["upper_joints"] = list(reversed(MO.UPPER_JOINTS))
        key = "upper_joints"
    _assert_codec_config_refused(env, tmp_path, capsys, config,
                                 f"bad codec config: ConfigError: unknown key '{key}'")


def test_codec_checkpoint_with_the_old_config_keys_is_rejected(env, tmp_path, capsys):
    # the codec header of earlier releases also held the body split and
    # the two loss weights, which no loader read
    loss = load_config(env["cfg"]).loss_config()
    config = {**read_v2(env["codec"])[0]["config"], "lower_joints": list(MO.LOWER_JOINTS),
              "upper_joints": list(MO.UPPER_JOINTS), "velocity_weight": loss.velocity_weight,
              "accel_weight": loss.accel_weight}
    _assert_codec_config_refused(env, tmp_path, capsys, config,
                                 "bad codec config: ConfigError: unknown key 'lower_joints'")


def test_checkpoint_given_as_codes_file_is_validation_error(env, tmp_path, capsys):
    out = tmp_path / "x.motion.txt"
    assert main(["decode", "--ckpt", str(env["codec"]), "--in", str(env["codec"]),
                 "--out", str(out)]) == 2
    assert f"{env['codec']}: not a text file" in capsys.readouterr().err
    assert not out.exists()


def test_generate_unknown_genre_lists_valid_ids(env, tmp_path, capsys):
    code = main(["generate", "--gadg-ckpt", str(env["gen"]),
                 "--hfdq-ckpt", str(env["codec"]),
                 "--music", str(env["data"] / "clip_0001.music.txt"),
                 "--genre", "11", "--frames", "32",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "11" in err and "0, 1, 2, 3" in err


def test_generate_rejects_codebook_mismatch(env, tmp_path, capsys):
    cfg = tmp_path / "small.json"
    tiny = dict(TINY, hfdq=dict(TINY["hfdq"], levels=[3, 3, 3], steps=4))
    cfg.write_text(json.dumps(tiny))
    other = tmp_path / "other_codec.json"
    assert main(["train-hfdq", "--config", str(cfg), "--data", str(env["data"]),
                 "--out-ckpt", str(other)]) == 0
    code = main(["generate", "--gadg-ckpt", str(env["gen"]), "--hfdq-ckpt", str(other),
                 "--music", str(env["data"] / "clip_0001.music.txt"),
                 "--genre", "0", "--frames", "32", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "27" in capsys.readouterr().err


def test_train_gadg_rejects_codebook_mismatch(env, tmp_path):
    cfg = tmp_path / "small.json"
    tiny = dict(TINY, hfdq=dict(TINY["hfdq"], levels=[3, 3, 3], steps=4))
    cfg.write_text(json.dumps(tiny))
    # generator config says 27 codes but the checkpoint was built on 4375
    assert main(["train-gadg", "--config", str(cfg), "--data", str(env["data"]),
                 "--hfdq-ckpt", str(env["codec"]),
                 "--out-ckpt", str(tmp_path / "g.json")]) == 2


def test_evaluate_reference_against_itself(env, tmp_path):
    report_path = tmp_path / "report.txt"
    assert main(["evaluate", "--config", str(env["cfg"]),
                 "--generated-dir", str(env["data"]),
                 "--reference-dir", str(env["data"]),
                 "--out-report", str(report_path)]) == 0
    report = read_report_file(report_path)
    assert abs(report["fid_k"]) < 1e-6
    assert abs(report["fid_g"]) < 1e-6
    assert report["n_sequences"] == 6
    assert report["div_k"] > 0.0
    assert 0.0 < report["bas"] <= 1.0
    assert len(report["config_hash"]) == 16


def copy_clips(src, dst, names):
    dst.mkdir()
    for name in names:
        for ext in ("motion", "music"):
            (dst / f"{name}.{ext}.txt").write_bytes((src / f"{name}.{ext}.txt").read_bytes())
    return dst


def evaluate_report_per_kind(gen_paths, ref_paths, cfg):
    """The report as evaluate built it with one read per feature kind and
    a separate read for beat alignment: the oracle of the one-pass path."""
    report = {"n_sequences": len(gen_paths), "config_hash": config_hash(cfg.to_dict())}
    for kind, fid_key, div_key in (("kinetic", "fid_k", "div_k"), ("geometric", "fid_g", "div_g")):
        gen, ref = (np.stack([extract_features(read_motion_file(p).frames, kind) for p in paths])
                    for paths in (gen_paths, ref_paths))
        report[fid_key] = frechet_distance(GaussianStats.from_samples(gen),
                                           GaussianStats.from_samples(ref))
        report[div_key] = diversity(gen)
    scores = []
    for path in gen_paths:
        music = read_music_file(path.with_name(path.name.replace(".motion.txt", ".music.txt")))
        kin = beat_extract(MO.forward_kinematics(read_motion_file(path).frames))
        scores.append(beat_align_score(music.beat_frames(), kin, sigma=cfg.metrics.bas_sigma))
    report["bas"] = float(np.mean(scores))
    return report


def test_evaluate_matches_per_kind_oracle(env, tmp_path):
    gen_dir = copy_clips(env["data"], tmp_path / "gen", [f"clip_{i:04d}" for i in range(4)])
    report_path, oracle_path = tmp_path / "report.txt", tmp_path / "oracle.txt"
    assert main(["evaluate", "--config", str(env["cfg"]),
                 "--generated-dir", str(gen_dir), "--reference-dir", str(env["data"]),
                 "--out-report", str(report_path)]) == 0
    want = evaluate_report_per_kind(sorted(gen_dir.glob("*.motion.txt")),
                                    sorted(env["data"].glob("*.motion.txt")),
                                    load_config(str(env["cfg"])))
    got = read_report_file(report_path)
    for key in ("fid_k", "fid_g", "div_k", "div_g", "bas"):
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key
    assert got["fid_k"] > 0.0
    write_report_file(oracle_path, want)
    assert report_path.read_bytes() == oracle_path.read_bytes()


def counting(monkeypatch, module, name):
    """Replaces module.name with a wrapper that logs each call's first argument."""
    calls, original = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_evaluate_reads_and_runs_fk_once_per_clip(env, tmp_path, monkeypatch):
    gen_dir = copy_clips(env["data"], tmp_path / "gen", [f"clip_{i:04d}" for i in range(3)])
    reads = counting(monkeypatch, cli, "read_motion_file")
    fk = counting(monkeypatch, MO, "forward_kinematics")
    assert main(["evaluate", "--config", str(env["cfg"]),
                 "--generated-dir", str(gen_dir), "--reference-dir", str(env["data"]),
                 "--out-report", str(tmp_path / "r.txt")]) == 0
    clips = sorted(gen_dir.glob("*.motion.txt")) + sorted(env["data"].glob("*.motion.txt"))
    assert sorted(map(str, reads)) == sorted(map(str, clips))
    assert len(fk) == len(clips) == 9


def test_evaluate_rejects_partial_music_before_parsing(env, tmp_path, monkeypatch, capsys):
    gen_dir = copy_clips(env["data"], tmp_path / "gen", ["clip_0000", "clip_0001"])
    (gen_dir / "clip_0002.motion.txt").write_bytes(
        (env["data"] / "clip_0002.motion.txt").read_bytes())
    reads = counting(monkeypatch, cli, "read_motion_file")
    report_path = tmp_path / "r.txt"
    assert main(["evaluate", "--config", str(env["cfg"]),
                 "--generated-dir", str(gen_dir), "--reference-dir", str(env["data"]),
                 "--out-report", str(report_path)]) == 2
    assert "clip_0002.motion.txt has no .music.txt" in capsys.readouterr().err
    assert reads == []
    assert not report_path.exists()


def test_evaluate_needs_music_siblings(env, tmp_path):
    gen_dir = tmp_path / "gen"
    gen_dir.mkdir()
    for name in ("clip_0000.motion.txt", "clip_0001.motion.txt"):
        (gen_dir / name).write_bytes((env["data"] / name).read_bytes())
    assert main(["evaluate", "--config", str(env["cfg"]),
                 "--generated-dir", str(gen_dir),
                 "--reference-dir", str(env["data"]),
                 "--out-report", str(tmp_path / "r.txt")]) == 2


def test_evaluate_rejects_zero_bas_sigma(env, tmp_path, capsys):
    cfg = tmp_path / "sigma.json"
    cfg.write_text(json.dumps(dict(TINY, metrics={"bas_sigma": 0})))
    report_path = tmp_path / "report.txt"
    assert main(["evaluate", "--config", str(cfg),
                 "--generated-dir", str(env["data"]),
                 "--reference-dir", str(env["data"]),
                 "--out-report", str(report_path)]) == 2
    assert "sigma must be finite and > 0" in capsys.readouterr().err
    assert not report_path.exists()


def test_evaluate_needs_two_sequences(env, tmp_path):
    gen_dir = tmp_path / "one"
    gen_dir.mkdir()
    for ext in ("motion", "music"):
        name = f"clip_0000.{ext}.txt"
        (gen_dir / name).write_bytes((env["data"] / name).read_bytes())
    assert main(["evaluate", "--config", str(env["cfg"]),
                 "--generated-dir", str(gen_dir),
                 "--reference-dir", str(env["data"]),
                 "--out-report", str(tmp_path / "r.txt")]) == 2


def test_unwritable_output_is_io_error(env):
    assert main(["encode", "--ckpt", str(env["codec"]),
                 "--in", str(env["data"] / "clip_0000.motion.txt"),
                 "--out", "/nonexistent-dir/x.txt"]) == 4


def test_config_env_var_used(tmp_path, monkeypatch):
    cfg = tmp_path / "env.json"
    cfg.write_text(json.dumps({"data": {"clip_frames": 48}, "gadg": {"num_genres": 2}}))
    monkeypatch.setenv("DANCEGEN_CONFIG", str(cfg))
    out = tmp_path / "d"
    assert main(["synth-data", "--out", str(out), "--clips", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["clip_frames"] == 48
    assert [c["genre_id"] for c in manifest["clips"]] == [0, 1]


def test_bad_config_file_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{oops")
    assert main(["synth-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d"), "--clips", "1"]) == 2


def test_non_utf8_config_file_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff{}")
    assert main(["synth-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d"), "--clips", "1"]) == 2
    assert f"{cfg}: not a text file" in capsys.readouterr().err
