#!/usr/bin/env python3
"""Outputs a refactor of the core must leave bitwise unchanged, dumped from
one checkout's ``src/`` and compared between two dumps:

    python3 scripts/bitwise_outputs.py dump --src OLD/src --out old.npz
    python3 scripts/bitwise_outputs.py dump --src NEW/src --out new.npz
    python3 scripts/bitwise_outputs.py compare old.npz new.npz

A dump holds the loss logs of the benchmark's ``train`` workload at seed 0
(5 codec and 3 generator steps on 16 synthetic 240-frame clips), every
parameter of a generator after 2 steps at batch 3 on the first 7 of those
clips (genres cycling; a 1/3 mean scale is inexact), the codes
of 8 clips generated as its ``generate`` workload does (4 genres, argmax
and top-k 8, 32 codes), the gradient of every parameter of the seed-0
desk-config generator and codec after one training-mode loss on fixed
inputs (a 30-code teacher-forced sequence, four 240-frame clips), and
forward kinematics, split/merge and the finite differences, with their
input gradients, on a [8, 240, 147] batch. It also holds the five report
floats (fid_k, fid_g, div_k, div_g, bas) of ``dancegen evaluate``, run
through ``dancegen.cli.main`` on 8 generated against 8 reference synthetic
240-frame clips with their music, and the kinetic and geometric features
of each of those 16 motions with ``rot6d_to_matrix`` of 1000 seeded 6D rows
(``motion_features``) and the rows' input gradient
(``motion_features_grad``), and the output and five input gradients
of ``selective_scan`` on a case with some channels at a = -1e-13, where
|dt * a| < 1e-6 takes the series branch, from a seeded state h, and the
same six arrays at the desk shape [30, 256, 16] (``scan_desk``), which
spans several of the scan's channel blocks, from a seeded state h, and the
sha256 of the checkpoint files ``save_codec`` and ``save_generator`` write
for the seed-0 desk models, which catch any change to a checkpoint's
header or its config_hash, and the codes (argmax and top-k 8, 32 codes) and
decoded frames of those two models after a save and a load, which cover
the load path, and the config_hash of a pipeline config read from a file
that sets JSON integers in number fields and a level list, and of each
stage config built from it, which catch a reader that changes a value's
type, and the frames ``read_motion_file`` and ``read_music_file`` return
for a synthetic 240-frame pair and for a clip of full-precision edge values
(``parsed_text_files``), which catch a parser that reads any field
differently. The parameter gradients catch a reordered sum
that the trained loss logs can round away. Run each dump with one BLAS thread (OPENBLAS_NUM_THREADS=1), as the benchmark
does. ``compare`` exits 1 if any entry differs in a single bit.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GENRES = 4


def dump(src: str, out: str) -> None:
    sys.path.insert(0, src)
    import dancegen as dg
    from dancegen import motion as M
    from dancegen import tensor as T
    from dancegen.codec import reconstruction_loss
    from dancegen.generator import pool_music, teacher_forced_loss

    res = {}
    cfg = dg.load_config(None)
    pairs = [dg.synthesize_pair(dg.SyntheticPairConfig(seed=i, clip_frames=240), i % GENRES)
             for i in range(16)]
    codec, res["codec_losses"] = dg.train_codec(
        [clip.frames for _, clip in pairs], cfg.fsq_config(), cfg.loss_config(),
        dataclasses.replace(cfg.codec_train_config(), steps=5, seed=0))
    dataset = [(music.frames, music.genre_id, codec.encode(clip.frames)) for music, clip in pairs]
    _, res["generator_losses"] = dg.train_generator(
        dataset, cfg.gadg_config(), dataclasses.replace(cfg.generator_train_config(), steps=3, seed=0))
    trained, _ = dg.train_generator(
        dataset[:7], cfg.gadg_config(),
        dataclasses.replace(cfg.generator_train_config(), steps=2, batch_size=3, seed=0))
    res["generator_batch3_params"] = np.concatenate(
        [p.data.ravel() for _, p in trained.named_parameters()])

    generator = dg.GadgModel(cfg.gadg_config(), seed=0)
    tracks = [dg.synthesize_pair(dg.SyntheticPairConfig(seed=g, clip_frames=256), g)[0]
              for g in range(GENRES)]
    for i in range(2 * GENRES):
        music = tracks[i % GENRES]
        top_k = 8 if (i + i // GENRES) % 2 else None
        codes = dg.generate(generator, music.frames, music.genre_id, 256,
                            top_k=top_k, temperature=1.0, seed=i)
        res[f"codes_{i}"] = np.stack([codes.upper, codes.lower])

    music = pairs[0][0]
    teacher_forced_loss(generator, pool_music(music.frames, cfg.gadg_config().frames_per_code),
                        music.genre_id, dataset[0][2]).backward()
    model = dg.CodecModel(cfg.fsq_config(), seed=0)
    frames = np.stack([clip.frames for _, clip in pairs[:4]])
    frames_hat, _, _ = model.reconstruct(T.Tensor(frames))
    reconstruction_loss(frames_hat, T.Tensor(frames),
                        M.forward_kinematics(frames_hat).reshape((4, 240, -1)),
                        T.Tensor(M.forward_kinematics(frames).reshape((4, 240, -1))),
                        cfg.loss_config()).backward()
    for prefix, module in (("generator_grad.", generator), ("codec_grad.", model)):
        for name, p in module.named_parameters():
            res[prefix + name] = np.zeros(0) if p.grad is None else p.grad

    rng = np.random.default_rng(7)
    x = np.tile(M.REST_FRAME, (8, 240, 1)) + 0.3 * rng.standard_normal((8, 240, 147))
    probe = rng.standard_normal((8, 240, 24, 3))
    runs = {
        "fk": lambda t: M.forward_kinematics(t) * T.Tensor(probe),
        "split_merge": lambda t: M.merge_body(*(p * w for p, w in zip(M.split_body(t), (2.0, 3.0)))),
        "diff1": lambda t: M.finite_difference(t, 1),
        "diff2": lambda t: M.finite_difference(t, 2),
    }
    for name, fn in runs.items():
        leaf = T.Tensor(x, requires_grad=True)
        y = fn(leaf)
        (y * y).sum().backward()
        res[name], res[name + "_grad"] = y.data, leaf.grad
    res["split_upper"], res["split_lower"] = M.split_body(x)
    res["evaluate_report"] = evaluate_report(dg)
    res["motion_features"], res["motion_features_grad"] = motion_features(dg, M, T)
    res["scan_series"] = scan_series(T)
    res["scan_desk"] = scan_desk(T)
    res["codec_checkpoint_sha256"] = checkpoint_sha256(dg.save_codec, model)
    res["generator_checkpoint_sha256"] = checkpoint_sha256(dg.save_generator, generator)
    res["loaded_pipeline"] = loaded_pipeline(dg, generator, model, tracks[0])
    res["config_hashes"] = config_hashes(dg)
    res["parsed_text_files"] = parsed_text_files(dg)
    np.savez(out, **{k: np.asarray(v) for k, v in res.items()})


def evaluate_pairs(dg):
    """(side, index, music, motion) of the 8 generated and 8 reference
    synthetic 240-frame clip pairs that ``evaluate_report`` evaluates."""
    for side, first_seed in (("gen", 100), ("ref", 200)):
        for i in range(8):
            music, clip = dg.synthesize_pair(
                dg.SyntheticPairConfig(seed=first_seed + i, clip_frames=240), i % GENRES)
            yield side, i, music, clip


def evaluate_report(dg) -> np.ndarray:
    """fid_k, fid_g, div_k, div_g and bas of the evaluate command on 8 against
    8 synthetic clip pairs."""
    from dancegen.cli import main
    from dancegen.metrics import read_report_file

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for side, i, music, clip in evaluate_pairs(dg):
            (root / side).mkdir(exist_ok=True)
            dg.write_music_file(root / side / f"clip_{i:04d}.music.txt", music)
            dg.write_motion_file(root / side / f"clip_{i:04d}.motion.txt", clip)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["evaluate", "--generated-dir", str(root / "gen"),
                         "--reference-dir", str(root / "ref"),
                         "--out-report", str(root / "report.txt")])
        if code != 0:
            raise RuntimeError(f"dancegen evaluate exited {code}")
        report = read_report_file(root / "report.txt")
    return np.array([report[k] for k in ("fid_k", "fid_g", "div_k", "div_g", "bas")])


def motion_features(dg, M, T):
    """(the kinetic then geometric features of each ``evaluate_pairs`` motion,
    followed by ``rot6d_to_matrix`` of 1000 seeded 6D rows, flattened into
    one vector; the rows' input gradient under a seeded probe)."""
    from dancegen.metrics import extract_features

    parts = [extract_features(clip, kind) for _, _, _, clip in evaluate_pairs(dg)
             for kind in ("kinetic", "geometric")]
    rng = np.random.default_rng(13)
    leaf = T.Tensor(rng.standard_normal((1000, 6)), requires_grad=True)
    mats = M.rot6d_to_matrix(leaf)
    (mats * T.Tensor(rng.standard_normal(mats.shape))).sum().backward()
    return np.concatenate(parts + [mats.data.ravel()]), leaf.grad


def scan_series(T) -> np.ndarray:
    """The scan's output and its x, a, b, c and dt gradients, flattened into
    one vector, on [12, 6] inputs with 4 states whose even channels take the
    series branch of phi1."""
    from dancegen.generator import selective_scan

    rng = np.random.default_rng(11)
    x, b, c = rng.standard_normal((12, 6)), rng.standard_normal((12, 4)), rng.standard_normal((12, 4))
    a = -np.abs(rng.standard_normal((6, 4))) - 0.05
    a[::2] = -1e-13
    dt = rng.uniform(0.01, 0.5, size=(12, 6))
    leaves = [T.Tensor(v, requires_grad=True) for v in (x, a, b, c, dt)]
    y = selective_scan(*leaves, cache={"h": rng.standard_normal((6, 4))})
    (y * T.Tensor(rng.standard_normal(y.shape))).sum().backward()
    return np.concatenate([y.data.ravel()] + [leaf.grad.ravel() for leaf in leaves])


def scan_desk(T) -> np.ndarray:
    """The scan's output and its x, a, b, c and dt gradients, flattened into
    one vector, at the desk generator's [30, 256, 16] from a seeded state h,
    with a = -1..-16 per channel as ``MambaBlock`` starts it."""
    from dancegen.generator import selective_scan

    rng = np.random.default_rng(12)
    x, b, c = rng.standard_normal((30, 256)), rng.standard_normal((30, 16)), rng.standard_normal((30, 16))
    a = -np.tile(np.arange(1.0, 17.0), (256, 1)) * rng.uniform(0.5, 1.5, size=(256, 16))
    dt = rng.uniform(1e-3, 0.1, size=(30, 256))
    leaves = [T.Tensor(v, requires_grad=True) for v in (x, a, b, c, dt)]
    y = selective_scan(*leaves, cache={"h": rng.standard_normal((256, 16))})
    (y * T.Tensor(rng.standard_normal(y.shape))).sum().backward()
    return np.concatenate([y.data.ravel()] + [leaf.grad.ravel() for leaf in leaves])


def checkpoint_sha256(save, model) -> np.ndarray:
    """The sha256 digest, as 32 uint8, of the file ``save(path, model)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save(path, model)
        return np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), dtype=np.uint8)


def loaded_pipeline(dg, generator, codec, music) -> np.ndarray:
    """The upper and lower codes, argmax then top-k 8 at seed 0, that
    ``generator`` read back from its saved checkpoint generates for 256
    frames of ``music``, each followed by the frames ``codec`` read back
    from its checkpoint decodes from them, flattened into one vector."""
    with tempfile.TemporaryDirectory() as tmp:
        dg.save_generator(Path(tmp) / "gen.ckpt", generator)
        dg.save_codec(Path(tmp) / "codec.ckpt", codec)
        generator = dg.load_generator(Path(tmp) / "gen.ckpt")
        codec = dg.load_codec(Path(tmp) / "codec.ckpt")
    parts = []
    for top_k in (None, 8):
        codes = dg.generate(generator, music.frames, music.genre_id, 256,
                            top_k=top_k, temperature=1.0, seed=0)
        parts += [codes.upper, codes.lower, codec.decode(codes).ravel()]
    return np.concatenate(parts)


def config_hashes(dg) -> np.ndarray:
    """The config_hash of ``load_config(f).to_dict()`` and of ``asdict`` of
    each stage config built from it, for a file ``f`` that sets ``dropout``
    0, ``lr`` 1 and ``levels`` [3, 3]. A reader that turned a JSON integer
    into a float would change them, and so a generator header's bytes."""
    from dancegen.checkpoint import config_hash

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"hfdq": {"levels": [3, 3], "lr": 1},
                                    "gadg": {"dropout": 0, "lr": 1}}))
        cfg = dg.load_config(path)
    stages = (cfg.fsq_config(), cfg.loss_config(), cfg.codec_train_config(),
              cfg.gadg_config(), cfg.generator_train_config())
    return np.array([config_hash(cfg.to_dict())]
                    + [config_hash(dataclasses.asdict(stage)) for stage in stages])


def parsed_text_files(dg) -> np.ndarray:
    """The frames read back from the motion and music files written for the
    synthetic pair of seed 300 and for a 3-frame clip whose fields cycle
    through -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.1, 1/3,
    1.7976931348623157e308 and their negatives (the music's peak, beat and
    envelope columns held to 0, 1 and 1/3), flattened into one vector."""
    from dancegen.music import ENVELOPE_COL

    music, clip = dg.synthesize_pair(dg.SyntheticPairConfig(seed=300, clip_frames=240), 1)
    edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.1, 1 / 3, 1.7976931348623157e308]
    edges += [-v for v in edges]
    edge_music = np.resize(edges, (3, music.frames.shape[1]))
    edge_music[:, ENVELOPE_COL - 2:] = [0.0, 1.0, 1 / 3]
    clips = [(music, clip),
             (dg.MusicFeatureSequence(edge_music, 2),
              dg.MotionSequence(np.resize(edges, (3, clip.frames.shape[1]))))]
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for music, clip in clips:
            dg.write_music_file(Path(tmp) / "clip.music.txt", music)
            dg.write_motion_file(Path(tmp) / "clip.motion.txt", clip)
            parts += [dg.read_music_file(Path(tmp) / "clip.music.txt").frames.ravel(),
                      dg.read_motion_file(Path(tmp) / "clip.motion.txt").frames.ravel()]
    return np.concatenate(parts)


def compare(a: str, b: str) -> int:
    old, new = np.load(a), np.load(b)
    bad = sorted(set(old.files) ^ set(new.files))
    for key in sorted(set(old.files) & set(new.files)):
        x, y = old[key], new[key]
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            bad.append(key)
    for key in bad:
        print(f"differs: {key}")
    print(f"{len(old.files)} entries, {len(bad)} differ")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--src", required=True, help="the checkout's src/ directory")
    d.add_argument("--out", required=True, help=".npz file to write")
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "dump":
        dump(args.src, args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
