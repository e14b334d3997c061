"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (it sits
outside the tier-1 ``testpaths``).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def _cli(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _cli("--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert f" {m['name']} " in out.stdout  # printed by name too


def test_spans_restore_the_identical_functions():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.site_owners()]
    with pytest.raises(RuntimeError):
        with spans.traced(spans.SpanRecorder()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("restore on the error path too")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_results_and_costs(workload):
    w = workloads.build(workload, 0, smoke=True)
    inputs = w.inputs(1)  # fault schedules are single-use: fresh inputs per run
    plain = w.check(inputs, w.execute(inputs))
    recorder = spans.SpanRecorder()
    inputs = w.inputs(1)
    with spans.traced(recorder):
        outcome = w.execute(inputs)
    traced = w.check(inputs, outcome)
    assert plain.ok and traced.ok, (plain.detail, traced.detail)
    assert traced.cost == plain.cost
    assert {s.layer for s in recorder.spans} >= {"machine.run", spans.RANK_LAYER}


def test_corrupted_golden_fails_every_op():
    golden = copy.deepcopy(run.load_golden())
    golden["smoke"]["ft_mul"] = [[0, 0, 0]] * len(golden["smoke"]["ft_mul"])
    record = run.run_workload("ft_mul", 0, 0, trace=False, smoke=True, golden=golden)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "ft_mul", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
