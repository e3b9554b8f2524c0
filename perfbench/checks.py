"""Correctness checks of the benchmark, computed apart from the program.

Each check takes the program's outputs and compares them with an
independent computation or a property of the method: a parser of the
text formats written here, a Frechet distance from the eigenvalues of the
covariance product, a diversity from an explicit pair loop, a replay of
the documented sampling rule. None compares with a stored copy of earlier
output. A failed check raises CheckError.
"""

from __future__ import annotations

import math

import numpy as np

FRAME_WIDTH = 147


class CheckError(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Text formats, parsed without the program's readers


def parse_rows(path) -> np.ndarray:
    """Float rows of a motion or music file; '#' lines are header."""
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    return np.array([[float(v) for v in row] for row in rows], dtype=np.float64)


def parse_codes(path) -> tuple[np.ndarray, np.ndarray]:
    streams = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and not line.startswith("#"):
                streams[parts[0]] = np.array([int(v) for v in parts[1:]], dtype=np.int64)
    require(set(streams) == {"upper", "lower"}, f"{path}: streams {sorted(streams)}")
    return streams["upper"], streams["lower"]


def parse_report(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                key, value = line.split(maxsplit=1)
                out[key] = value.strip()
    return out


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# train


def check_training(codec_losses, gen_losses, codebook_size: int, tol: float = 5e-3) -> None:
    """Both logs finite and falling from the first step; the generator's
    first loss is two uniform cross-entropies over the codebook, because
    its heads start near zero."""
    for name, losses in (("codec", codec_losses), ("generator", gen_losses)):
        losses = np.asarray(losses, dtype=np.float64)
        require(losses.size >= 2, f"{name} loss log has {losses.size} entries")
        require(np.isfinite(losses).all(), f"{name} loss log is not finite")
        require(losses[-1] < losses[0], f"{name} loss did not fall: {losses[0]} -> {losses[-1]}")
    expected = 2.0 * math.log(codebook_size)
    require(abs(gen_losses[0] - expected) <= tol,
            f"first generator loss {gen_losses[0]} is not 2 ln {codebook_size} = {expected} "
            f"within {tol}")


# ---------------------------------------------------------------------------
# generate


def check_codes(upper, lower, steps: int, codebook_size: int) -> None:
    for name, codes in (("upper", upper), ("lower", lower)):
        codes = np.asarray(codes)
        require(codes.shape == (steps,), f"{name} codes have shape {codes.shape}, want ({steps},)")
        require(codes.min() >= 0 and codes.max() < codebook_size,
                f"{name} codes outside [0, {codebook_size})")


def check_motion(frames, n_frames: int) -> None:
    frames = np.asarray(frames)
    require(frames.shape == (n_frames, FRAME_WIDTH),
            f"motion has shape {frames.shape}, want ({n_frames}, {FRAME_WIDTH})")
    require(np.isfinite(frames).all(), "motion is not finite")


def replay_codes(logits_upper, logits_lower, top_k, temperature: float, seed: int):
    """The documented rule, step by step: argmax when top_k is None, else
    keep the top_k logits in descending order, divide by the temperature,
    softmax, and draw with numpy's default_rng(seed), upper before lower."""
    rng = np.random.default_rng(seed)

    def pick(row):
        if top_k is None:
            return int(np.argmax(row))
        kept = np.argsort(-row, kind="stable")[:top_k]
        z = row[kept] / temperature
        p = np.exp(z - z.max())
        return int(rng.choice(kept, p=p / p.sum()))

    upper, lower = [], []
    for row_u, row_l in zip(np.asarray(logits_upper), np.asarray(logits_lower)):
        upper.append(pick(row_u))
        lower.append(pick(row_l))
    return np.array(upper), np.array(lower)


def check_replay(upper, lower, logits_upper, logits_lower, top_k, temperature, seed) -> None:
    """Teacher-forced logits over the emitted sequence must reproduce
    every emitted code under the sampling rule."""
    ru, rl = replay_codes(logits_upper, logits_lower, top_k, temperature, seed)
    for name, got, want in (("upper", upper, ru), ("lower", lower, rl)):
        bad = np.flatnonzero(np.asarray(got) != want)
        require(bad.size == 0, f"{name} code at step {bad[:1]} differs from the replay")


def check_params(saved: dict, loaded: dict) -> None:
    require(set(saved) == set(loaded), "reloaded parameter names differ")
    for name, value in saved.items():
        require(bitwise_equal(value, loaded[name]), f"reloaded parameter {name} differs")


def check_file_rows(path, expected) -> None:
    require(bitwise_equal(parse_rows(path), np.asarray(expected, dtype=np.float64)),
            f"{path} does not read back bitwise")


# ---------------------------------------------------------------------------
# roundtrip


def check_codes_file(path, upper, lower) -> None:
    got_u, got_l = parse_codes(path)
    require(bitwise_equal(got_u, np.asarray(upper, dtype=np.int64))
            and bitwise_equal(got_l, np.asarray(lower, dtype=np.int64)),
            f"{path} does not hold the codes of the in-process encode")


def gaussian(features):
    features = np.asarray(features, dtype=np.float64)
    mean = features.mean(axis=0)
    centered = features - mean
    return mean, centered.T @ centered / (features.shape[0] - 1)


def fid_by_eigs(feats_a, feats_b) -> float:
    """|mu_a - mu_b|^2 + tr S_a + tr S_b - 2 sum sqrt(eig(S_a S_b))."""
    mu_a, s_a = gaussian(feats_a)
    mu_b, s_b = gaussian(feats_b)
    eig = np.linalg.eigvals(s_a @ s_b).real
    cross = np.sqrt(np.clip(eig, 0.0, None)).sum()
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(s_a) + np.trace(s_b) - 2.0 * cross)


def diversity_by_pairs(features) -> float:
    features = np.asarray(features, dtype=np.float64)
    total, pairs = 0.0, 0
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            total += math.sqrt(float(((features[i] - features[j]) ** 2).sum()))
            pairs += 1
    return total / pairs


def fid_tolerance(*feature_sets) -> float:
    """Roundoff allowed in a Frechet distance. With fewer clips than
    feature dimensions the covariances are rank deficient, and the square
    root lifts each roundoff-level eigenvalue (eps * |S|^2) to
    sqrt(eps) * |S|, up to one per dimension."""
    dim = np.asarray(feature_sets[0]).shape[1]
    scale = sum(np.trace(gaussian(f)[1]) for f in feature_sets)
    return dim * math.sqrt(np.finfo(np.float64).eps) * max(scale, 1e-300)


def check_report(report: dict, gen_feats: dict, ref_feats: dict, n_sequences: int) -> None:
    """report: the parsed report file; *_feats: kind -> [n, d] features."""
    require(int(report["n_sequences"]) == n_sequences, "report counts the wrong sequences")
    for kind, fid_key, div_key in (("kinetic", "fid_k", "div_k"), ("geometric", "fid_g", "div_g")):
        fid = fid_by_eigs(gen_feats[kind], ref_feats[kind])
        got = float(report[fid_key])
        require(abs(got - fid) <= fid_tolerance(gen_feats[kind], ref_feats[kind]),
                f"{fid_key} {got} != {fid} from the eigenvalues of S_a S_b")
        div = diversity_by_pairs(gen_feats[kind])
        got = float(report[div_key])
        require(abs(got - div) <= 1e-9 * max(div, 1e-12),
                f"{div_key} {got} != {div} from the pair loop")
    bas = float(report["bas"])
    require(0.0 <= bas <= 1.0, f"bas {bas} outside [0, 1]")


def check_self_fid(value: float, features) -> None:
    require(abs(value) <= fid_tolerance(features), f"FID of a set against itself is {value}")
