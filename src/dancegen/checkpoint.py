"""Versioned JSON checkpoint container shared by both training stages.

A checkpoint stores the stage tag, the config dict that built the model,
a hash of that config, and every named parameter as shape + flat float
list. JSON float round-tripping is exact for float64, so save/load is
lossless.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import DancegenError, DependencyError, FormatError
from .textfile import atomic_write, read_json_object

CHECKPOINT_FORMAT = "dancegen-checkpoint"
CHECKPOINT_VERSION = 1


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def save_checkpoint(path, stage: str, config: dict, named_params) -> None:
    params = {}
    for name, p in named_params:
        params[name] = {
            "shape": list(p.data.shape),
            "data": [float(v) for v in p.data.reshape(-1)],
        }
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "stage": stage,
        "config": config,
        "config_hash": config_hash(config),
        "params": params,
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path, expected_stage: str):
    """Returns (config, params: dict name -> ndarray) of an
    ``expected_stage`` checkpoint. A parameter whose data are not numbers
    or whose size does not fit its shape is a FormatError naming ``path``."""
    if not os.path.exists(path):
        raise DependencyError(f"checkpoint not found: {path}")
    doc = read_json_object(path, "checkpoint")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint version {doc.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    stage = doc.get("stage")
    if stage != expected_stage:
        raise FormatError(f"{path}: stage {stage!r} does not match expected {expected_stage!r}")
    try:
        params = {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
                  for name, entry in doc["params"].items()}
        return doc["config"], params
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed checkpoint: {type(e).__name__}: {e}") from None


def load_model(path, stage: str, build):
    """The model ``build(config)`` makes from the config of a ``stage``
    checkpoint, holding its saved parameters; names and shapes must match
    exactly. A config that ``build`` rejects is a FormatError naming
    ``path``, like every other fault of the document."""
    config, params = load_checkpoint(path, stage)
    try:
        model = build(config)
    except (DancegenError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad {stage} config: {type(e).__name__}: {e}") from None
    model_params = dict(model.named_parameters())
    missing = set(model_params) - set(params)
    extra = set(params) - set(model_params)
    if missing or extra:
        raise FormatError(
            f"{path}: checkpoint/model parameter mismatch: missing {sorted(missing)[:4]}, "
            f"unexpected {sorted(extra)[:4]}"
        )
    for name, p in model_params.items():
        if params[name].shape != p.data.shape:
            raise FormatError(
                f"{path}: parameter {name}: checkpoint shape {params[name].shape} "
                f"!= model shape {p.data.shape}"
            )
        p.data = params[name].copy()
    return model
