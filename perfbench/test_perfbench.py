"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs in its own process, as the benchmark is meant to be
run. The tests check that each run prints exactly the metric names and
units BENCHMARK.json declares, that a deliberately corrupted answer is
counted as a failure rather than dropped, and that the benchmark refuses
to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_injected_fault(workload):
    proc = bench("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", 0,
                 "--tiny", "--inject-fault")
    result = result_of(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the corrupted first answer is the one failure, and it is reported
    assert result["failed"] == 1 and result["correct"] is False
    attempted = result["attempted"]
    assert f"fail_frac {1 / attempted:.6g} (1/{attempted} runs of an op)" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_of(bench("--workload", workload, "--seed", 3, "--seconds", 1,
                             "--trace", 1, "--tiny"))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert result["failed"] == 0 and result["correct"] is True


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1, "--trace", 0,
                     cwd=bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
