"""The dancegen benchmark's workloads. run.py starts this file in a fresh
process for each run, so that set-up time and peak memory belong to one
workload alone:

    python3 perfbench/bench.py --workload {train,generate,roundtrip} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout this file sits in
and driven from outside: through its public API and the in-process
``dancegen.cli.main``. One caller issues one operation at a time (a
closed loop). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``), every workload reports the end-to-end metrics
``setup_s``, ``peak_rss_mb``, ``primary_s`` and ``secondary_s``; what the
last two time depends on the workload (see README.md).
Traced (``--trace 1``), the workload runs a fixed list of operations twice,
untraced and then under spans.Tracer, and reports per-function call
counts and self times, three counts, and the tracing overhead.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

GENRES = 4

# train: both stages at the desk config on 16 synthetic 240-frame clips
TRAIN_CLIPS = 16
TRAIN_FRAMES = 240
# Short calls, alternating, spread each stage's samples over the whole run:
# the machine's speed drifts over seconds. Five codec steps are enough for
# the loss to fall clearly below its first value.
CODEC_STEPS = 5
GEN_STEPS = 3

# generate: 32 code steps per clip, so the sliding window (22/8) engages
# and slides; one music track per genre. Two rounds of save, load and
# clips spread the single long save and load over the run.
GEN_ROUNDS = 2
GEN_FRAMES = 256
TOP_K = 8
TEMPERATURE = 1.0

# roundtrip: rounds of CLI encode+decode of 4 clips, then evaluate 16
# against 16
RT_CLIPS = 4
EVAL_CLIPS = 16
RT_FRAMES = 240


def import_program():
    """Imports dancegen from this checkout; returns (package, seconds)."""
    if not (SRC / "dancegen" / "__init__.py").is_file():
        raise SystemExit(f"error: no dancegen package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dancegen
    import dancegen.cli  # noqa: F401  (part of the start-up a CLI user pays)
    elapsed = time.perf_counter() - start
    if Path(dancegen.__file__).resolve().parent != SRC / "dancegen":
        raise SystemExit(f"error: imported dancegen from {dancegen.__file__}, not {SRC}")
    return dancegen, elapsed


class Ctx:
    """One pass of a workload: its settings and what it measured."""

    def __init__(self, dg, checks, seed: int, seconds, work: Path, tracer=None):
        self.dg = dg
        self.checks = checks
        self.tracer = tracer
        self.measured_s = 0.0  # wall time inside measured() sections
        self.seed = seed
        self.seconds = seconds  # None: fixed operation list (traced run)
        self.work = work
        self.setup_samples: list[float] = []
        self.samples = {"primary_s": [], "secondary_s": []}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        # metric -> (per-workload name, work per operation for a rate or None, unit)
        self.aliases: dict = {}

    @contextlib.contextmanager
    def measured(self):
        """Marks set-up and operations, as against input preparation and
        checks: only this part is traced and counted as traced wall time."""
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.measured_s += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False

    def setup(self, fn):
        """Runs and times one set-up. Workloads set up once per round, so
        that the reported median spreads over the run like the operations."""
        start = time.perf_counter()
        result = fn()
        self.setup_samples.append(time.perf_counter() - start)
        return result

    def loop(self, fixed: int, share: float = 1.0):
        """Indices: ``fixed`` of them in a traced run, otherwise as many as
        start within ``share`` of --seconds from the first."""
        if self.seconds is None:
            yield from range(fixed)
            return
        end = time.perf_counter() + self.seconds * share
        i = 0
        while True:
            yield i
            i += 1
            if time.perf_counter() >= end:
                return

    def op(self, metric: str, fn, *args):
        """Times one operation; a failure is counted and yields None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.samples[metric].append(time.perf_counter() - start)
        return result

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except self.checks.CheckError as e:
            self.check_failures.append(str(e))
            print(f"check failed: {e}", file=sys.stderr)


class StepClock:
    """Times the steps inside one training call from outside. A step ends
    when Adam.step returns, and the next one starts there. The first step
    starts at the call's first CodecModel.reconstruct or Adam.zero_grad,
    so that building the model and the optimizer before it is left out."""

    STARTS = (("codec", "CodecModel", "reconstruct"), ("nn", "Adam", "zero_grad"))

    def __init__(self, dg):
        self.dg = dg
        self.begin = None  # start of the step in progress
        self.durations: list[float] = []

    def _patch(self, module, cls_name, method, make):
        cls = getattr(getattr(self.dg, module), cls_name)
        original = cls.__dict__[method]
        self.undo.append((cls, method, original))
        setattr(cls, method, make(original))

    def __enter__(self):
        self.undo = []

        def starts(original):
            def wrapped(*args, **kwargs):
                if self.begin is None:
                    self.begin = time.perf_counter()
                return original(*args, **kwargs)
            return wrapped

        def ends(original):
            def wrapped(*args, **kwargs):
                result = original(*args, **kwargs)
                now = time.perf_counter()
                if self.begin is not None:
                    self.durations.append(now - self.begin)
                self.begin = now
                return result
            return wrapped

        for module, cls_name, method in self.STARTS:
            self._patch(module, cls_name, method, starts)
        self._patch("nn", "Adam", "step", ends)
        return self

    def __exit__(self, *exc):
        for cls, method, original in reversed(self.undo):
            setattr(cls, method, original)

    def call(self, ctx: Ctx, metric: str, steps: int, fn, *args):
        """Runs a training call of ``steps`` steps and records each step."""
        self.begin = None
        self.durations = []
        ctx.attempted += steps
        try:
            result = fn(*args)
        except Exception:
            ctx.failed += steps
            traceback.print_exc()
            return None
        ctx.samples[metric].extend(self.durations)
        return result


def write_pairs(dg, out: Path, first_seed: int, count: int, frames: int):
    """Synthetic music/motion pairs, genres cycling; returns
    [(music path, motion path, motion frames)]."""
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(count):
        cfg = dg.SyntheticPairConfig(seed=first_seed + i, clip_frames=frames)
        music, clip = dg.synthesize_pair(cfg, i % GENRES)
        music_path, motion_path = out / f"clip_{i:04d}.music.txt", out / f"clip_{i:04d}.motion.txt"
        dg.write_music_file(music_path, music)
        dg.write_motion_file(motion_path, clip)
        pairs.append((music_path, motion_path, clip.frames))
    return pairs


def run_cli(dg, *argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dg.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"dancegen {argv[0]} exited {code}")


# ---------------------------------------------------------------------------
# Workloads


def train(ctx: Ctx) -> None:
    dg, checks = ctx.dg, ctx.checks
    pairs = write_pairs(dg, ctx.work / "data", ctx.seed * 1000, TRAIN_CLIPS, TRAIN_FRAMES)

    def setup():
        cfg = dg.load_config(None)
        inputs = [(dg.read_music_file(m), dg.read_motion_file(c)) for m, c, _ in pairs]
        return cfg, inputs

    cfg = dg.load_config(None)
    codec_cfg = dataclasses.replace(cfg.codec_train_config(), steps=CODEC_STEPS, seed=ctx.seed)
    gen_cfg = dataclasses.replace(cfg.generator_train_config(), steps=GEN_STEPS, seed=ctx.seed)
    logs = []
    with ctx.measured(), StepClock(dg) as clock:
        for _ in ctx.loop(fixed=1):
            cfg, inputs = ctx.setup(setup)
            clips = [clip.frames for _, clip in inputs]
            trained = clock.call(ctx, "primary_s", CODEC_STEPS, dg.train_codec,
                                 clips, cfg.fsq_config(), cfg.loss_config(), codec_cfg)
            if trained is None:
                continue
            codec, codec_losses = trained
            dataset = [(music.frames, music.genre_id, codec.encode(clip.frames))
                       for music, clip in inputs]
            trained = clock.call(ctx, "secondary_s", GEN_STEPS, dg.train_generator,
                                 dataset, cfg.gadg_config(), gen_cfg)
            if trained is not None:
                logs.append((codec_losses, trained[1]))

    ctx.aliases = {
        "primary_s": ("hfdq_train_frames_per_s", codec_cfg.batch_size * TRAIN_FRAMES, "frames/s"),
        "secondary_s": ("gadg_train_codes_per_s", gen_cfg.batch_size * TRAIN_FRAMES
                        // cfg.gadg_config().frames_per_code, "codes/s"),
    }
    for _, motion_path, frames in pairs:
        ctx.check(checks.check_file_rows, motion_path, frames)
    if logs:
        ctx.check(checks.check_training, logs[0][0], logs[0][1], cfg.codebook_size)
        ctx.check(checks.require, all(log == logs[0] for log in logs),
                  "a repeated training round gave another loss log")


def generate(ctx: Ctx) -> None:
    dg, checks = ctx.dg, ctx.checks
    cfg = dg.load_config(None)
    tracks = write_pairs(dg, ctx.work / "music", ctx.seed * 1000, GENRES, GEN_FRAMES)
    generator = dg.GadgModel(cfg.gadg_config(), seed=ctx.seed)
    codec = dg.CodecModel(cfg.fsq_config(), seed=ctx.seed)
    gen_ckpt, codec_ckpt = ctx.work / "generator.ckpt.json", ctx.work / "codec.ckpt.json"
    ctx.aliases = {"primary_s": ("gen_clip_s", None, "s"), "secondary_s": ("ckpt_save_s", None, "s")}

    def save():
        dg.save_generator(gen_ckpt, generator)
        dg.save_codec(codec_ckpt, codec)

    def setup():
        dg.load_config(None)
        return (dg.load_generator(gen_ckpt), dg.load_codec(codec_ckpt),
                [dg.read_music_file(m) for m, _, _ in tracks])

    def top_k_of(i):  # argmax and top-k alternate, and swap genres every cycle
        return TOP_K if (i + i // GENRES) % 2 else None

    def clip(i, out):
        track = music[i % GENRES]
        codes = dg.generate(loaded_gen, track.frames, track.genre_id, GEN_FRAMES,
                            top_k=top_k_of(i), temperature=TEMPERATURE, seed=ctx.seed + i)
        frames = loaded_codec.decode(codes)
        dg.write_motion_file(out, dg.MotionSequence(frames))
        return codes, frames

    results = []
    rounds = GEN_ROUNDS if ctx.seconds is not None else 1
    with ctx.measured():
        for r in range(rounds):
            ctx.op("secondary_s", save)
            loaded_gen, loaded_codec, music = ctx.setup(setup)
            if r == 0:
                clip(0, ctx.work / "warmup.motion.txt")
            for _ in ctx.loop(fixed=GENRES, share=1 / rounds):
                i = len(results)
                out = ctx.work / f"clip_{i:04d}.motion.txt"
                done = ctx.op("primary_s", clip, i, out)
                if done is not None:
                    results.append((i, out, *done))

    for model, loaded in ((generator, loaded_gen), (codec, loaded_codec)):
        ctx.check(checks.check_params,
                  {n: p.data for n, p in model.named_parameters()},
                  {n: p.data for n, p in loaded.named_parameters()})
    gcfg = loaded_gen.cfg
    steps = GEN_FRAMES // gcfg.frames_per_code
    start = loaded_gen.start_token
    loaded_gen.eval()
    for i, out, codes, frames in results:
        ctx.check(checks.check_codes, codes.upper, codes.lower, steps, gcfg.codebook_size)
        ctx.check(checks.check_motion, frames, GEN_FRAMES)
        ctx.check(checks.check_file_rows, out, frames)
        track = music[i % GENRES]
        pooled = track.frames[:GEN_FRAMES].reshape(steps, gcfg.frames_per_code, -1).mean(axis=1)
        with dg.tensor.no_grad():
            logits_u, logits_l = loaded_gen.forward(
                pooled, track.genre_id,
                [start, *codes.upper[:-1]], [start, *codes.lower[:-1]])
        ctx.check(checks.check_replay, codes.upper, codes.lower, logits_u.data, logits_l.data,
                  top_k_of(i), TEMPERATURE, ctx.seed + i)


def roundtrip(ctx: Ctx) -> None:
    dg, checks = ctx.dg, ctx.checks
    ref_dir, gen_dir, io_dir = ctx.work / "reference", ctx.work / "generated", ctx.work / "io"
    ref = write_pairs(dg, ref_dir, ctx.seed * 1000, EVAL_CLIPS, RT_FRAMES)
    gen = write_pairs(dg, gen_dir, ctx.seed * 1000 + 500, EVAL_CLIPS, RT_FRAMES)
    io_dir.mkdir(parents=True, exist_ok=True)
    ckpt = ctx.work / "codec.ckpt.json"
    dg.save_codec(ckpt, dg.CodecModel(dg.load_config(None).fsq_config(), seed=ctx.seed))

    def setup():
        dg.load_config(None)
        return dg.load_codec(ckpt), [dg.read_motion_file(c).frames for _, c, _ in ref[:RT_CLIPS]]

    def encode_decode(src, codes, out):
        run_cli(dg, "encode", "--ckpt", ckpt, "--in", src, "--out", codes)
        run_cli(dg, "decode", "--ckpt", ckpt, "--in", codes, "--out", out)

    def paths(j):
        return ref[j][1], io_dir / f"clip_{j:04d}.codes.txt", io_dir / f"clip_{j:04d}.motion.txt"

    report = io_dir / "report.txt"
    ctx.aliases = {"primary_s": ("roundtrip_clip_s", None, "s"), "secondary_s": ("evaluate_s", None, "s")}
    encode_decode(*paths(0))
    with ctx.measured():
        for _ in ctx.loop(fixed=1):
            codec, clips = ctx.setup(setup)
            for j in range(RT_CLIPS):
                ctx.op("primary_s", encode_decode, *paths(j))
            ctx.op("secondary_s", run_cli, dg, "evaluate", "--generated-dir", gen_dir,
                   "--reference-dir", ref_dir, "--out-report", report)

    for j, frames in enumerate(clips):
        src, codes_path, out = paths(j)
        ctx.check(checks.check_file_rows, src, ref[j][2])
        codes = codec.encode(frames)
        ctx.check(checks.check_codes_file, codes_path, codes.upper, codes.lower)
        ctx.check(checks.check_file_rows, out, codec.decode(codes))
    feats = {}
    for name, pairs in (("gen", gen), ("ref", ref)):
        rows = [checks.parse_rows(c) for _, c, _ in pairs]
        feats[name] = {kind: [dg.extract_features(r, kind) for r in rows]
                       for kind in ("kinetic", "geometric")}
    ctx.check(checks.check_report, checks.parse_report(report), feats["gen"], feats["ref"],
              EVAL_CLIPS)
    self_report = io_dir / "self.txt"
    run_cli(dg, "evaluate", "--generated-dir", gen_dir, "--reference-dir", gen_dir,
            "--out-report", self_report)
    parsed = checks.parse_report(self_report)
    for key, kind in (("fid_k", "kinetic"), ("fid_g", "geometric")):
        ctx.check(checks.check_self_fid, float(parsed[key]), feats["gen"][kind])


RUNNERS = {"train": train, "generate": generate, "roundtrip": roundtrip}


# ---------------------------------------------------------------------------
# Runs


def run_pass(dg, checks, workload: str, seed: int, seconds, work: Path, tracer=None) -> Ctx:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(dg, checks, seed, seconds, work, tracer)
    RUNNERS[workload](ctx)
    return ctx


def result_line(ctxs, metrics: dict) -> str:
    return json.dumps({
        "correct": all(not c.check_failures for c in ctxs),
        "attempted": sum(c.attempted for c in ctxs),
        "failed": sum(c.failed for c in ctxs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    dg, import_s = import_program()
    import checks
    import spans

    seed = args.seed % 2**31
    work = WORK / f"{args.workload}-{seed}-{os.getpid()}"
    try:
        if not args.trace:
            ctx = run_pass(dg, checks, args.workload, seed, args.seconds, work)
            metrics = {
                "setup_s": (import_s + statistics.median(ctx.setup_samples), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "primary_s": (statistics.median(ctx.samples["primary_s"]), "s"),
                "secondary_s": (statistics.median(ctx.samples["secondary_s"]), "s"),
            }
            for key, (alias, work_per_op, unit) in ctx.aliases.items():
                value = metrics[key][0] if work_per_op is None else work_per_op / metrics[key][0]
                print(f"{args.workload} {alias} = {value:.6g} {unit} "
                      f"(from {key}, median of {len(ctx.samples[key])})")
            ctxs = [ctx]
        else:
            plain = run_pass(dg, checks, args.workload, seed, None, work)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(dg, checks, args.workload, seed, None, work, tracer)
            finally:
                tracer.uninstall()
            untraced_s, traced_s = plain.measured_s, traced.measured_s
            tracer.write(WORK / f"trace-{args.workload}.jsonl")
            metrics = tracer.layer_metrics()
            metrics["trace.untraced_s"] = (untraced_s, "s")
            metrics["trace.traced_s"] = (traced_s, "s")
            metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
            ctxs = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(result_line(ctxs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
