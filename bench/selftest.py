"""Self-tests of the benchmark at the tiny size (periods <= 2, 10^3 samples).

    python3 -m pytest bench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert "error_rate: 0 fraction" in proc.stdout
        assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])


def _tasks(workload, reference):
    return workloads.build(workload, "tiny", reference)


def test_gate_rejects_corrupted_fingerprint():
    reference = workloads.load_reference("tiny")
    task = _tasks("spectra_exceptional", reference)[0]
    record, problems = task.check(task.run(0))
    assert problems == []
    corrupted = json.loads(json.dumps(reference))
    periods = corrupted["spectra_exceptional"][task.name]["periods"]
    periods["2"] = "0" * 64
    bad_task = _tasks("spectra_exceptional", corrupted)[0]
    _record, problems = bad_task.check(bad_task.run(0))
    assert len(problems) == 1 and "fingerprint differs at periods ['2']" in problems[0]


def test_gate_counts_nonzero_cli_exit():
    # a degree cap below d^n + 1 makes the CLI exit with code 4
    task = workloads._cli_task(
        "capped cycles", ["cycles", "--map", "z^2-1", "--period", "2", "--cap", "2"],
        lambda results: [],
    )
    _walls, _cpus, raws = run.run_iteration([task], seed=0)
    problems = run.check_iteration([task], raws, {})
    assert len(problems) == 1 and "exit code 4" in problems[0]


def test_gate_counts_output_that_changes_between_iterations():
    outputs = iter(["first", "second"])
    task = workloads.Task("drifting", lambda seed: next(outputs), lambda raw: (raw, []))
    first = {}
    assert run.check_iteration([task], {"drifting": task.run(0)}, first) == []
    problems = run.check_iteration([task], {"drifting": task.run(0)}, first)
    assert problems == ["drifting: output differs from the first iteration"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "spectra_exceptional", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
