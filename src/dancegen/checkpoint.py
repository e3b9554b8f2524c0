"""Versioned checkpoint container shared by both training stages.

A checkpoint (v2) is an uncompressed ``.npz`` archive in ``np.savez``'s
layout, so ``np.load`` reads it: one float64 array member per named
parameter, plus a ``__header__`` member holding the JSON of the format tag,
version, stage, the config dict that built the model and a hash of that
config. Arrays are stored as raw float64 bytes, so save/load is lossless,
and two saves of one model give identical files. Nothing in the archive
needs pickle.

The archive holds the bytes that ``np.savez`` would write, but each member
is written from the parameter's own buffer. Given a zip member handle,
which is not a real file, ``np.savez`` stages a ``bytes`` copy of every
array before writing it; at desk scale the largest are 4.5 MB each, and
the freed copies raised the peak memory of a run that saves and reloads.

v2 is the only format read. A file that does not start with the zip
signature, such as a v1 JSON checkpoint, is refused by name.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile

import numpy as np

from .errors import DancegenError, DependencyError, FormatError
from .nn import placeholder_init
from .textfile import atomic_write, dataclass_from_json

CHECKPOINT_FORMAT = "dancegen-checkpoint"
CHECKPOINT_VERSION = 2
HEADER = "__header__"
ZIP_SIGNATURE = b"PK"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def save_checkpoint(path, stage: str, config: dict, named_params) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "stage": stage,
        "config": config,
        "config_hash": config_hash(config),
    }
    members = {HEADER: np.array(json.dumps(header))}
    members.update((name, np.asarray(p.data, dtype=np.float64)) for name, p in named_params)
    # the loop that np.savez runs, less its per-member copy
    with atomic_write(path, "wb") as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                _write_npy(out, array)


def _write_npy(out, array: np.ndarray) -> None:
    """The bytes of ``np.save(out, array)``: a version 1.0 ``.npy`` header,
    then the data in the order the header names, written from the array's
    own buffer. Only an array that is neither C- nor Fortran-contiguous (a
    view, a zero-stride placeholder) is copied, once, in C order."""
    header = np.lib.format.header_data_from_array_1_0(array)
    np.lib.format.write_array_header_1_0(out, header)
    out.write(array.ravel("F" if header["fortran_order"] else "C").view(np.uint8))


def load_checkpoint(path, expected_stage: str):
    """Returns (config as read, params: dict name -> float64 ndarray) of an
    ``expected_stage`` checkpoint. A file that is not a zip archive (a v1
    JSON checkpoint among them), any exception while the opened archive is
    read (a truncated or malformed archive, an unsupported zip feature), a
    header of another format, version or stage, a member that is not
    float64, and a parameter with a non-finite value are each a FormatError
    naming ``path``. A file that cannot be opened raises the OSError of
    ``open``."""
    if not os.path.exists(path):
        raise DependencyError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        try:
            if fh.read(len(ZIP_SIGNATURE)) != ZIP_SIGNATURE:
                raise FormatError(f"{path}: not a checkpoint archive "
                                  "(v1 JSON checkpoints are no longer read)")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                doc = json.loads(archive[HEADER].item())
                params = {name: archive[name] for name in archive.files if name != HEADER}
        except DancegenError:
            raise
        except Exception as e:  # zipfile and np.load raise many kinds on a corrupt archive
            raise FormatError(f"{path}: malformed checkpoint: {type(e).__name__}: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {doc.get('version')!r}, "
                          f"expected {CHECKPOINT_VERSION}")
    if doc.get("stage") != expected_stage:
        raise FormatError(
            f"{path}: stage {doc.get('stage')!r} does not match expected {expected_stage!r}"
        )
    for name, value in params.items():
        if not isinstance(value, np.ndarray) or value.dtype != np.float64:
            raise FormatError(f"{path}: parameter {name} is not a float64 array")
        if not np.isfinite(value).all():
            raise FormatError(f"{path}: parameter {name} holds non-finite values")
    return doc.get("config"), params


def load_model(path, stage: str, config_cls, model_cls):
    """``model_cls(config_cls(**config))`` from the config of a ``stage``
    checkpoint, holding its saved parameters. ``textfile.dataclass_from_json``
    reads the config, which must set every field; parameter names and shapes
    must match. Each fault, a config that the reader or either class rejects
    among them, is a FormatError naming ``path``. The model is built under
    ``nn.placeholder_init()``, so no random init is drawn for the saved
    arrays to replace and each parameter is allocated once, by the read."""
    config, params = load_checkpoint(path, stage)
    try:
        with placeholder_init():
            model = model_cls(dataclass_from_json(config_cls, config, "header config", True))
    except (DancegenError, TypeError, ValueError) as e:
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
        p.data = params[name]
    return model
