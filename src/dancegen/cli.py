"""Command-line surface for the full pipeline.

Subcommands: synth-data, train-hfdq, train-gadg, encode, decode, generate,
evaluate. Every command is deterministic given its seed, config, and
inputs. Exit codes: 0 success, 2 validation error, 3 missing dependency,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import motion as MO
from . import textfile as TF
from .checkpoint import config_hash
from .codec import (
    load_codec,
    read_codes_file,
    save_codec,
    train_codec,
    write_codes_file,
)
from .config import CONFIG_ENV_VAR, load_config
from .errors import (
    ConfigError,
    DancegenError,
    DegenerateInputError,
    DependencyError,
    FormatError,
    InputError,
    RoutingError,
)
from .generator import generate as generate_codes
from .generator import load_generator, save_generator, train_generator
from .metrics import (
    GaussianStats,
    beat_align_score,
    diversity,
    frechet_distance,
    position_features,
    write_report_file,
)
from .motion import MotionSequence, read_motion_file, write_motion_file
from .music import (
    SyntheticPairConfig,
    beat_extract,
    read_music_file,
    synthesize_pair,
    write_music_file,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
LOSSES_FORMAT = "dancegen-losses"
LOSSES_VERSION = 1


def write_loss_log(path, losses) -> None:
    rows = (f"{step} {repr(float(value))}" for step, value in enumerate(losses))
    TF.write_text_file(path, LOSSES_FORMAT, LOSSES_VERSION, {}, rows)


def read_loss_log(path):
    """The losses of a log whose steps run 0, 1, 2, ... as written."""
    _, rows, body_start = TF.read_text_file(path, LOSSES_FORMAT, LOSSES_VERSION)
    losses = []
    for line_no, step, value in TF.keyed_rows(path, rows, body_start):
        if step != str(len(losses)):
            raise FormatError(f"{path}: line {line_no}: step {step!r}, expected {len(losses)}")
        losses.append(TF.parse_value(path, line_no, float, value))
    return np.array(losses)


def _load_pairs(data_dir: Path):
    path = data_dir / MANIFEST_NAME
    if not path.exists():
        raise InputError(f"{data_dir} has no {MANIFEST_NAME}; run synth-data first")
    manifest = TF.read_json_object(path, "manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise InputError(f"{path}: unsupported manifest version {manifest.get('version')}")
    if not isinstance(manifest.get("clips"), list):
        raise FormatError(f"{path}: manifest has no 'clips' list")
    if not manifest["clips"]:
        raise InputError(f"{data_dir}: manifest lists no clips")
    pairs = []
    for i, entry in enumerate(manifest["clips"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("music"), str)
                and isinstance(entry.get("motion"), str) and type(entry.get("genre_id")) is int):
            raise FormatError(
                f"{path}: clip entry {i} must be an object with string 'music' and "
                f"'motion' and an integer 'genre_id'"
            )
        music = read_music_file(data_dir / entry["music"])
        if music.genre_id != entry["genre_id"]:
            raise FormatError(
                f"{path}: clip entry {i} has genre_id {entry['genre_id']} but its music "
                f"file says {music.genre_id}"
            )
        clip = read_motion_file(data_dir / entry["motion"])
        pairs.append((music, clip, entry["genre_id"]))
    return pairs


# ---------------------------------------------------------------------------
# Commands


def cmd_synth_data(args) -> int:
    if args.clips < 0:
        raise InputError(f"--clips must be >= 0, got {args.clips}")
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.clips):
        genre_id = i % cfg.gadg.num_genres
        pair_cfg = SyntheticPairConfig(
            seed=cfg.data.seed + i, clip_frames=cfg.data.clip_frames
        )
        music, clip = synthesize_pair(pair_cfg, genre_id)
        music_name = f"clip_{i:04d}.music.txt"
        motion_name = f"clip_{i:04d}.motion.txt"
        write_music_file(out / music_name, music)
        write_motion_file(out / motion_name, clip)
        entries.append({"music": music_name, "motion": motion_name, "genre_id": genre_id})
    manifest = {
        "format": "dancegen-manifest",
        "version": MANIFEST_VERSION,
        "seed": cfg.data.seed,
        "clip_frames": cfg.data.clip_frames,
        "clips": entries,
    }
    with TF.atomic_write(out / MANIFEST_NAME) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.clips == 0:
        print("warning: zero clips requested; wrote an empty manifest", file=sys.stderr)
    print(f"wrote {args.clips} music/motion pairs to {out}")
    return 0


def _train(loss_log, train, *inputs):
    """``train(*inputs)``; if it diverges after step 0, write the loss log
    of the steps before it, then re-raise."""
    try:
        return train(*inputs)
    except DegenerateInputError as e:
        if getattr(e, "losses", None):
            write_loss_log(loss_log, e.losses)
        raise


def cmd_train_hfdq(args) -> int:
    cfg = load_config(args.config)
    pairs = _load_pairs(Path(args.data))
    clips = [clip.frames for _, clip, _ in pairs]
    loss_log = args.loss_log or f"{args.out_ckpt}.losses.txt"
    model, losses = _train(
        loss_log, train_codec, clips, cfg.fsq_config(), cfg.loss_config(), cfg.codec_train_config()
    )
    save_codec(args.out_ckpt, model)
    write_loss_log(loss_log, losses)
    print(
        f"codec trained for {len(losses)} steps on {len(clips)} clips; "
        f"final loss {losses[-1]:.6f}; checkpoint {args.out_ckpt}"
    )
    return 0


def cmd_train_gadg(args) -> int:
    cfg = load_config(args.config)
    codec = load_codec(args.hfdq_ckpt)
    if codec.cfg.codebook_size != cfg.codebook_size:
        raise ConfigError(
            f"codec checkpoint has a {codec.cfg.codebook_size}-code grid but the "
            f"config levels imply {cfg.codebook_size}"
        )
    pairs = _load_pairs(Path(args.data))
    dataset = [
        (music.frames, genre_id, codec.encode(clip.frames))
        for music, clip, genre_id in pairs
    ]
    loss_log = args.loss_log or f"{args.out_ckpt}.losses.txt"
    model, losses = _train(
        loss_log, train_generator, dataset, cfg.gadg_config(), cfg.generator_train_config()
    )
    save_generator(args.out_ckpt, model)
    write_loss_log(loss_log, losses)
    print(
        f"generator trained for {len(losses)} steps on {len(dataset)} sequences; "
        f"final loss {losses[-1]:.6f}; checkpoint {args.out_ckpt}"
    )
    return 0


def cmd_encode(args) -> int:
    codec = load_codec(args.ckpt)
    clip = read_motion_file(args.infile)
    codes = codec.encode(clip.frames)
    write_codes_file(args.out, codes)
    print(f"encoded {clip.frames.shape[0]} frames to {codes.latent_len} code steps")
    return 0


def cmd_decode(args) -> int:
    codec = load_codec(args.ckpt)
    codes = read_codes_file(args.infile)
    frames = codec.decode(codes)
    write_motion_file(args.out, MotionSequence(frames))
    print(f"decoded {codes.latent_len} code steps to {frames.shape[0]} frames")
    return 0


def cmd_generate(args) -> int:
    if args.temperature is not None and args.top_k is None:
        raise InputError("--temperature applies only to top-k sampling; give --top-k with it")
    generator = load_generator(args.gadg_ckpt)
    codec = load_codec(args.hfdq_ckpt)
    if generator.cfg.codebook_size != codec.cfg.codebook_size:
        raise ConfigError(
            f"checkpoint mismatch: generator predicts {generator.cfg.codebook_size} "
            f"codes, codec decodes {codec.cfg.codebook_size}"
        )
    if not 0 <= args.genre < generator.cfg.num_genres:
        raise RoutingError(
            f"unknown genre id {args.genre}; valid ids: "
            f"{', '.join(str(g) for g in range(generator.cfg.num_genres))}"
        )
    music = read_music_file(args.music)
    codes = generate_codes(
        generator, music.frames, args.genre, args.frames,
        top_k=args.top_k, temperature=1.0 if args.temperature is None else args.temperature,
        seed=args.seed,
    )
    frames = codec.decode(codes)
    write_motion_file(args.out, MotionSequence(frames))
    print(f"generated {frames.shape[0]} frames (genre {args.genre}, seed {args.seed})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    gen_paths = sorted(Path(args.generated_dir).glob("*.motion.txt"))
    ref_paths = sorted(Path(args.reference_dir).glob("*.motion.txt"))
    for name, paths in (("generated", gen_paths), ("reference", ref_paths)):
        if len(paths) < 2:
            raise InputError(
                f"{name} directory needs at least two .motion.txt files for "
                f"covariance fits, found {len(paths)}"
            )
    music_paths = [p.with_name(p.name.replace(".motion.txt", ".music.txt")) for p in gen_paths]
    lonely = [p for p, music in zip(gen_paths, music_paths) if not music.exists()]
    if lonely:
        raise InputError(
            f"{lonely[0]} has no .music.txt beside it; beat alignment needs music "
            "beside every generated motion"
        )
    # One read and one FK pass per clip; only its features and BAS score are kept.
    kinds = {"kinetic": ("fid_k", "div_k"), "geometric": ("fid_g", "div_g")}
    sigma, n = cfg.metrics.bas_sigma, len(gen_paths)
    feats, scores = {kind: [] for kind in kinds}, []
    for i, path in enumerate(gen_paths + ref_paths):
        pos = MO.forward_kinematics(read_motion_file(path).frames)
        for kind in kinds:
            feats[kind].append(position_features(pos, kind))
        if i < n:
            beats = read_music_file(music_paths[i]).beat_frames()
            scores.append(beat_align_score(beats, beat_extract(pos), sigma=sigma))
    report = {"n_sequences": n, "config_hash": config_hash(cfg.to_dict()),
              "bas": float(np.mean(scores))}
    for kind, (fid_key, div_key) in kinds.items():
        gen_feats, ref_feats = np.stack(feats[kind][:n]), np.stack(feats[kind][n:])
        report[fid_key] = frechet_distance(
            GaussianStats.from_samples(gen_feats),
            GaussianStats.from_samples(ref_feats),
        )
        report[div_key] = diversity(gen_feats)
    write_report_file(args.out_report, report)
    print(
        f"fid_k {report['fid_k']:.6f}  fid_g {report['fid_g']:.6f}  "
        f"div_k {report['div_k']:.6f}  div_g {report['div_g']:.6f}  "
        f"bas {report['bas']:.6f}  ({report['n_sequences']} sequences)"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dancegen",
        description="Two-stage music-to-dance pipeline: motion codec + genre-routed generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", default=None,
                       help=f"JSON config path (default: ${CONFIG_ENV_VAR} or built-ins)")

    p = sub.add_parser("synth-data", help="write a synthetic paired music/motion dataset")
    add_config(p)
    p.add_argument("--out", required=True)
    p.add_argument("--clips", type=int, required=True)
    p.set_defaults(handler=cmd_synth_data)

    p = sub.add_parser("train-hfdq", help="train the motion codec")
    add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--loss-log", default=None)
    p.set_defaults(handler=cmd_train_hfdq)

    p = sub.add_parser("train-gadg", help="train the code generator")
    add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--hfdq-ckpt", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--loss-log", default=None)
    p.set_defaults(handler=cmd_train_gadg)

    p = sub.add_parser("encode", help="motion file to latent code file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="latent code file to motion file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("generate", help="music + genre to a generated motion file")
    p.add_argument("--gadg-ckpt", required=True)
    p.add_argument("--hfdq-ckpt", required=True)
    p.add_argument("--music", required=True)
    p.add_argument("--genre", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("evaluate", help="metric report for generated vs reference motions")
    add_config(p)
    p.add_argument("--generated-dir", required=True)
    p.add_argument("--reference-dir", required=True)
    p.add_argument("--out-report", required=True)
    p.set_defaults(handler=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DependencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DancegenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
