"""End-to-end tests of the benchmark command (each starts real clusters).

A ``--quick`` pass of every workload must emit exactly the metric names
``BENCHMARK.json`` declares; the simulator rungs must repeat exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    MANIFEST = json.load(handle)

WORKLOAD_NAMES = [entry["name"] for entry in MANIFEST["workloads"]]


def _run(*flags: str) -> dict:
    """Run the manifest's own command from the repo root; the result is
    the last line of its standard output."""
    completed = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in declared}
    for spec in declared:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_quick_pass_emits_every_end_to_end_metric(name):
    result = _run("--workload", name, "--seed", "5", "--quick", "--trace", "0")
    _check_result(result, MANIFEST["end_to_end"])
    for entry in result["metrics"].values():
        assert entry["value"] > 0  # the contract: never zero


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_quick_traced_pass_emits_every_per_layer_metric(name):
    result = _run("--workload", name, "--seed", "5", "--quick", "--trace", "1")
    _check_result(result, MANIFEST["per_layer"])
    trace_file = os.path.join(ROOT, "bench", "out", f"trace-{name}.jsonl")
    with open(trace_file, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {span["proc"] for span in spans} == {"child", "generator"}
    assert {"gateway.post", "commit.wait", "delta.remote"} <= {span["name"] for span in spans}
    assert result["metrics"]["runtime.executions_per_op_max"]["value"] <= 3
    durable = name == "durable-doc"
    for metric in ("runtime.outage_ms", "runtime.rejoin_ms", "storage.recover_ms"):
        assert (result["metrics"][metric]["value"] > 0) == durable


def test_manifest_workloads_are_the_ones_the_generator_knows():
    from bench import workloads

    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_two_sim_runs_of_one_seed_are_identical():
    import repro.apps  # noqa: F401
    from bench import ladder

    counts = ("rounds", "committed", "msgs_per_round", "op_batches_per_round",
              "executions_per_op")
    first, second = ladder.sim_run(3, 5), ladder.sim_run(3, 5)
    assert [first[key] for key in counts] == [second[key] for key in counts]
    assert first["committed"] > 0


def test_exits_non_zero_without_a_result_when_there_is_no_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the
    benchmark must fail, not report numbers."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload", "interactive",
         "--seed", "1", "--seconds", "3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
