#!/usr/bin/env python3
"""Entry point of the dancegen benchmark.

    python3 perfbench/run.py --workload {train,generate,roundtrip} \
        --seed N --seconds S --trace {0,1}

Runs one workload of bench.py in a fresh child process, so that its
set-up time and peak memory are its own, with BLAS held to one thread:
one caller, one operation at a time. Passes the child's output through;
its last line is the JSON result. Exits non-zero, without a result, when
the checkout holds no dancegen sources or the child fails or overruns.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170  # a run must end within 180 s
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "dancegen" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/dancegen; run from a dancegen checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "bench.py"), *argv],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print(f"error: workload overran {TIMEOUT_S} s", file=sys.stderr)
        sys.stderr.write((e.stdout or b"").decode(errors="replace"))
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"error: workload exited {proc.returncode}", file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
