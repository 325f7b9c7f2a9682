"""Smoke test of the benchmark command at its tiny size. It is not part of the
tier-1 suite (pytest's testpaths is tests/); run it from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in emitted.items()}
    for name, m in emitted.items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] != 0, name


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench(tmp_path, "identify", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
