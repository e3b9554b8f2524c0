#!/usr/bin/env python3
"""Fail a benchmark run whose result line reports wrong output.

    python3 perfbench/run.py --workload W --seed 0 --seconds 1 --trace 1 \\
        | python3 scripts/check_bench_result.py --workload W

``perfbench/run.py`` exits 0 whenever the workload ran, also when its
checks found wrong output, so a CI step needs this gate. It copies its
input to stdout, parses the last line as the run's JSON result and exits 1
unless ``correct`` is true and ``failed`` is 0. On the ``generate``
workload it also needs the traced count ``generator.rows_per_code`` to be
1: generation runs one generator row per emitted code.
"""

import argparse
import json
import sys


def problems(result: dict, workload: str) -> list[str]:
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        found.append(f"{result.get('failed')!r} operations failed")
    if workload == "generate":
        rows = result.get("metrics", {}).get("generator.rows_per_code", {}).get("value")
        if rows != 1:
            found.append(f"generator.rows_per_code is {rows!r}, not 1 (needs --trace 1)")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    print("\n".join(lines))
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        print("error: the last line of the input is not a JSON result", file=sys.stderr)
        return 1
    found = problems(result, args.workload)
    for problem in found:
        print(f"error: {args.workload}: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
