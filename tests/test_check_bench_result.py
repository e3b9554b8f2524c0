"""The CI gate on benchmark result lines: scripts/check_bench_result.py."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_bench_result.py"
spec = importlib.util.spec_from_file_location("check_bench_result", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def result(correct=True, failed=0, rows=1.0):
    metrics = {} if rows is None else {"generator.rows_per_code": {"value": rows, "unit": "rows"}}
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics})


def run(monkeypatch, workload, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return gate.main(["--workload", workload])


@pytest.mark.parametrize("workload, line", [
    ("generate", result()),
    ("train", result(rows=0.0)),
    ("roundtrip", result(rows=None)),
])
def test_good_result_passes(monkeypatch, workload, line):
    assert run(monkeypatch, workload, f"generate gen_clip_s = 0.4 s\n{line}\n") == 0


@pytest.mark.parametrize("workload, text", [
    ("train", result(correct=False)),
    ("train", result(failed=1)),
    ("generate", result(rows=16.5)),
    ("generate", result(rows=None)),
    ("roundtrip", "error: workload exited 1"),
    ("roundtrip", ""),
])
def test_bad_result_fails(monkeypatch, capsys, workload, text):
    assert run(monkeypatch, workload, text) == 1
    assert "error:" in capsys.readouterr().err
