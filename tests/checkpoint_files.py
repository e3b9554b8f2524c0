"""Test helpers that write checkpoint files by hand: a file in the old v1
JSON layout, which the package refuses, v2 archives with an edited header
or edited members, and copies of an archive with one zip field edited."""

import json
import struct
from pathlib import Path

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


# zip fields (APPNOTE 4.3.12, 4.3.16) as (record, byte offset in it, struct
# format, value): each edit leaves a file that starts with the zip signature
ZIP_EDITS = {
    # compression method of the first central-directory entry: unknown
    "compression_method_99": ("central", 10, "<H", 99),
    # version needed to extract of that entry: 13.9, above zipfile's 6.3
    "version_needed_139": ("central", 6, "<H", 139),
    # offset of the central directory in the end record
    "central_directory_offset_ffffffff": ("end", 16, "<I", 0xFFFFFFFF),
}


def write_zip_edit(path, source, edit: str) -> None:
    """A copy of the archive ``source`` with the field ``ZIP_EDITS[edit]``
    overwritten. The end record is the last 22 bytes, as in every archive
    that ``np.savez`` or the package writes (no comment, no zip64 end)."""
    record, offset, fmt, value = ZIP_EDITS[edit]
    data = bytearray(Path(source).read_bytes())
    end = len(data) - 22
    assert data[end:end + 4] == b"PK\x05\x06", "no end-of-central-directory record"
    central = struct.unpack_from("<I", data, end + 16)[0]
    assert data[central:central + 4] == b"PK\x01\x02", "no central-directory entry"
    struct.pack_into(fmt, data, (central if record == "central" else end) + offset, value)
    Path(path).write_bytes(data)
