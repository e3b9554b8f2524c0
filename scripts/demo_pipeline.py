#!/usr/bin/env python3
"""End-to-end desk demo of every CLI command: synthesize a paired dataset,
train the codec, round-trip one dataset clip through encode and decode,
train the generator, generate motions for every genre, and score them
against the dataset.

Runs in about a minute with the default small settings. Pass --full for
the built-in desk-scale config (much slower, better reconstructions).
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from dancegen.cli import main as cli
from dancegen.config import load_config

SMALL = {
    "hfdq": {"steps": 150, "batch_size": 2, "feature_dim": 32},
    "gadg": {"model_dim": 32, "num_heads": 4, "num_layers": 1, "ff_dim": 64,
             "state_dim": 4, "steps": 150, "batch_size": 2, "lr": 1e-3},
    "data": {"clip_frames": 240},
}


def run(args_list):
    code = cli(args_list)
    if code != 0:
        print(f"command {' '.join(args_list[:1])} exited {code}", file=sys.stderr)
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default=None, help="directory to run in (default: temp)")
    ap.add_argument("--clips", type=int, default=8)
    ap.add_argument("--frames", type=int, default=240, help="generated motion length")
    ap.add_argument("--full", action="store_true", help="use the desk-scale defaults")
    args = ap.parse_args()

    root = Path(args.workdir or tempfile.mkdtemp(prefix="dancegen_demo_"))
    root.mkdir(parents=True, exist_ok=True)
    print(f"workspace: {root}")

    cfg_path = root / "config.json"
    cfg_args = []
    if not args.full:
        cfg_path.write_text(json.dumps(SMALL, indent=2))
        cfg_args = ["--config", str(cfg_path)]
    num_genres = load_config(cfg_args[-1] if cfg_args else None).gadg.num_genres

    t0 = time.time()
    data = root / "data"
    run(["synth-data", *cfg_args, "--out", str(data), "--clips", str(args.clips)])

    codec = root / "codec.ckpt"
    run(["train-hfdq", *cfg_args, "--data", str(data), "--out-ckpt", str(codec)])

    clip = data / "clip_0000.motion.txt"
    codes = root / "clip_0000.codes.txt"
    run(["encode", "--ckpt", str(codec), "--in", str(clip), "--out", str(codes)])
    run(["decode", "--ckpt", str(codec), "--in", str(codes),
         "--out", str(root / "clip_0000.decoded.motion.txt")])

    gen = root / "generator.ckpt"
    run(["train-gadg", *cfg_args, "--data", str(data),
         "--hfdq-ckpt", str(codec), "--out-ckpt", str(gen)])

    out_dir = root / "generated"
    out_dir.mkdir(exist_ok=True)
    for g in range(num_genres):
        music = data / f"clip_{g:04d}.music.txt"
        stem = out_dir / f"gen_{g:04d}"
        run(["generate", "--gadg-ckpt", str(gen), "--hfdq-ckpt", str(codec),
             "--music", str(music), "--genre", str(g),
             "--frames", str(args.frames), "--out", f"{stem}.motion.txt"])
        (out_dir / f"gen_{g:04d}.music.txt").write_bytes(music.read_bytes())

    run(["evaluate", *cfg_args, "--generated-dir", str(out_dir),
         "--reference-dir", str(data), "--out-report", str(root / "report.txt")])
    print(f"done in {time.time() - t0:.0f}s; report at {root / 'report.txt'}")


if __name__ == "__main__":
    main()
