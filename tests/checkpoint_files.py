"""Test helpers that write checkpoint files by hand: a file in the old v1
JSON layout, which the package refuses, and v2 archives with an edited
header or edited members."""

import json

import numpy as np

from dancegen.checkpoint import HEADER, config_hash


def write_v1_checkpoint(path, stage: str, config: dict, arrays: dict) -> None:
    """The v1 layout: one JSON document, each parameter a shape and a flat
    list of floats. Only written to check that loading refuses it."""
    doc = {
        "format": "dancegen-checkpoint",
        "version": 1,
        "stage": stage,
        "config": config,
        "config_hash": config_hash(config),
        "params": {name: {"shape": list(a.shape), "data": a.reshape(-1).tolist()}
                   for name, a in arrays.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_v2(path):
    """(header dict, parameter arrays by name) of a v2 checkpoint."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    return json.loads(members.pop(HEADER).item()), members


def write_v2(path, header, arrays: dict) -> None:
    """A v2 archive; ``header=None`` leaves the header member out."""
    members = {} if header is None else {HEADER: np.array(json.dumps(header))}
    with open(path, "wb") as fh:
        np.savez(fh, **members, **arrays)
