"""Span tracer for the benchmark's traced run.

It wraps public functions and methods of the dancegen modules from
outside, without touching the program's source: a function is replaced in
every dancegen module namespace that holds it (so ``from .x import f``
copies are caught too), a method is replaced on its class. Each call
records a span (name, start, end, parent span) in memory; ``write`` dumps
them at the end and ``layer_metrics`` turns them into per-function call
counts and self times. Spans are recorded only while ``active`` is set,
so that a workload can leave its input preparation and its checks out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute) pairs; a dotted attribute names a method.
TRACED = (
    ("tensor", "conv1d"),
    ("tensor", "conv1d_transpose"),
    ("tensor", "matmul"),
    ("tensor", "backward"),
    ("tensor", "linear_recurrence"),
    ("tensor", "parallel_linear_recurrence"),
    ("tensor", "expm1_over"),
    ("tensor", "embedding"),
    ("tensor", "softmax_lastdim"),
    ("nn", "Adam.step"),
    ("motion", "forward_kinematics"),
    ("motion", "split_body"),
    ("motion", "merge_body"),
    ("motion", "read_motion_file"),
    ("motion", "write_motion_file"),
    ("music", "read_music_file"),
    ("codec", "CodecModel.reconstruct"),
    ("codec", "CodecModel.encode"),
    ("codec", "CodecModel.decode"),
    ("codec", "read_codes_file"),
    ("codec", "write_codes_file"),
    ("generator", "MambaBlock.__call__"),
    ("generator", "MultiheadAttention.__call__"),
    ("generator", "GadgModel.forward"),
    ("generator", "cross_entropy"),
    ("generator", "generate"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("metrics", "extract_features"),
    ("metrics", "frechet_distance"),
    ("metrics", "diversity"),
    ("metrics", "beat_align_score"),
)

NAMES = tuple(f"{module}.{attr.removesuffix('.__call__')}" for module, attr in TRACED)


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on
    ``uninstall``. Not reentrant across threads: the benchmark has one
    caller."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self._stack: list[int] = []
        self._undo: list = []
        self.rows = 0  # generator forward rows inside generate()
        self.codes = 0  # code steps returned by generate()
        self.bytes_written = 0
        self.bytes_read = 0

    def _hooks(self, name: str):
        """(before, after) callbacks that keep the counts for one function."""
        generate_id = NAMES.index("generator.generate")

        def forward_rows(args, kwargs):
            if any(self.spans[i][0] == generate_id for i in self._stack[:-1]):
                self.rows += len(args[3] if len(args) > 3 else kwargs["upper_in"])

        def generated(args, kwargs, result):
            self.codes += result.latent_len

        def written(args, kwargs, result):
            self.bytes_written += os.path.getsize(args[0])

        def read(args, kwargs):
            if os.path.exists(args[0]):
                self.bytes_read += os.path.getsize(args[0])

        return {
            "generator.GadgModel.forward": (forward_rows, None),
            "generator.generate": (None, generated),
            "checkpoint.save_checkpoint": (None, written),
            "checkpoint.load_checkpoint": (read, None),
        }.get(name, (None, None))

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._hooks(NAMES[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            me = len(spans)
            spans.append((index, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(me)
            if before is not None:
                before(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, spans[me][3])
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "dancegen" or name.startswith("dancegen."))]
        for index, (module, attr) in enumerate(TRACED):
            owner = sys.modules[f"dancegen.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(index, original))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """``<name>.calls`` and ``<name>.self_s`` for every traced function,
        plus the generator's forward rows per emitted code step, the
        checkpoint bytes written and read, and the number of spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i, (index, start, end, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += (end - start) - child[i]
        out = {}
        for index, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[index], "count")
            out[f"{name}.self_s"] = (self_s[index], "s")
        out["generator.rows_per_code"] = (self.rows / self.codes if self.codes else 0.0, "rows")
        out["checkpoint.bytes_written"] = (self.bytes_written, "bytes")
        out["checkpoint.bytes_read"] = (self.bytes_read, "bytes")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        """One JSON header line with the span names, then one line per span:
        [name index, start s, end s, parent span index]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": list(NAMES), "spans": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
