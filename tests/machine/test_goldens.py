"""The simulator's golden reference: products, costs, graphs, fault logs.

``goldens.json`` (next to this file) pins everything the project measures
on the in-process simulator, in canonical JSON (sorted keys, fixed
separators):

- **variants** — for each of the eight ``COMMCHECK_VARIANTS`` run
  fault-free at the conformance config (seed 3, 240 bits, timeout 20):
  the exact product, and for every machine run the variant made, the
  per-rank ``(F, BW, L)`` vector clocks, the per-phase cost maxima in
  ledger key order, the critical path and the peak memory per rank;
- **graphs** — the sha256 of each variant's commcheck canonical graph;
- **faults** — for three within-budget kill scenarios, the recovered
  product, the fired events and the machine fault-log entry sets;
- **loud** — the error class of an over-budget kill on ``parallel``;
- **campaign** — the sha256 of the seed-1 campaign report over
  ``parallel`` and ``ft_linear``.

Virtual time is a function of the program, not of the scheduler, so none
of these may move unless the algorithms change.  Regenerate the file only
with the explicit bless command, and review its diff like code::

    PYTHONPATH=src python tests/machine/test_goldens.py --bless
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator
from unittest import mock

import pytest

from repro.campaign.registry import get_variant
from repro.campaign.report import to_json
from repro.campaign.runner import CampaignConfig, _workload_rng, run_campaign
from repro.commcheck.extract import COMMCHECK_VARIANTS, extract_variant, make_config
from repro.machine.backends.demo import restartable_slice_multiply
from repro.machine.engine import Machine, RunResult
from repro.machine.fault import FaultEvent, FaultSchedule

GOLDENS = Path(__file__).with_name("goldens.json")

_CFG = CampaignConfig(seed=3, trials=1, bits=240, timeout=20.0, minimize=False)

_X = 0xDEADBEEF_CAFEF00D_0123456789ABCDEF
_Y = 0xFEEDFACE_8BADF00D_FEDCBA9876543210

#: Within-budget kill scenarios: (variant or ``None`` for the bare
#: restartable-slice program on a 3-rank machine, fault events).
_FAULT_SCENARIOS: dict[str, tuple[str | None, list[FaultEvent]]] = {
    "ft_linear-mid-work-kill": (
        "ft_linear",
        [FaultEvent(rank=1, phase="work", op_index=2)],
    ),
    "ft_linear-first-work-op-kill": (
        "ft_linear",
        [FaultEvent(rank=0, phase="work", op_index=0)],
    ),
    "slice-multiply-kill": (
        None,
        [FaultEvent(rank=2, phase="multiplication", op_index=0)],
    ),
}

#: Two kills on a variant that tolerates none: must fail loudly.
_OVER_BUDGET = [
    FaultEvent(rank=0, phase="*", op_index=0),
    FaultEvent(rank=1, phase="*", op_index=0),
]

_CAMPAIGN_CFG = CampaignConfig(
    seed=1, trials=3, variants=("parallel", "ft_linear"), bits=240, timeout=20.0
)

_SECTIONS = ("config", "variants", "graphs", "faults", "loud", "campaign")


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _triple(c: Any) -> list[int]:
    return [c.f, c.bw, c.l]


def _value(actual: Any) -> Any:
    """A product as JSON: hex for integers, nested lists for state tuples."""
    if isinstance(actual, int):
        return hex(actual)
    return json.loads(json.dumps(actual))


def _events(events: Any) -> list[dict[str, Any]]:
    return sorted(
        (dataclasses.asdict(e) for e in events),
        key=lambda d: json.dumps(d, sort_keys=True),
    )


def _fault_log(run: RunResult) -> list[list[Any]]:
    return sorted(
        [e.rank, e.phase, e.op_index, e.incarnation, e.kind]
        for e in run.fault_log.entries
    )


@contextmanager
def _capture_runs() -> Iterator[list[RunResult]]:
    """Record every :class:`RunResult` a call tree produces — variants
    build their machines internally and return only the product."""
    runs: list[RunResult] = []
    original = Machine.run

    def run(self: Machine, *args: Any, **kwargs: Any) -> RunResult:
        result = original(self, *args, **kwargs)
        runs.append(result)
        return result

    with mock.patch.object(Machine, "run", run):
        yield runs


def _costs(run: RunResult) -> dict[str, Any]:
    return {
        "per_rank": [_triple(c) for c in run.per_rank],
        "critical_path": _triple(run.critical_path),
        # A list, not a mapping: the ledger key order is part of the pin.
        "phase_costs": [[name, _triple(c)] for name, c in run.phase_costs.items()],
        "peak_memory": list(run.peak_memory),
    }


def _execute(name: str, events: list[FaultEvent]) -> tuple[Any, FaultSchedule, list[RunResult]]:
    spec = get_variant(name)
    workload = spec.make_workload(_workload_rng(_CFG.seed, name), _CFG)
    schedule = FaultSchedule(list(events))
    with _capture_runs() as runs:
        execution = spec.execute(workload, schedule, _CFG)
    return execution, schedule, runs


def observe_config() -> dict[str, Any]:
    return {
        "seed": _CFG.seed,
        "bits": _CFG.bits,
        "timeout": _CFG.timeout,
        "campaign": {
            "seed": _CAMPAIGN_CFG.seed,
            "trials": _CAMPAIGN_CFG.trials,
            "variants": list(_CAMPAIGN_CFG.variants or ()),
        },
    }


def observe_variant(name: str) -> dict[str, Any]:
    execution, _, runs = _execute(name, [])
    assert execution.error is None, f"{name} failed: {execution.error!r}"
    assert execution.actual == execution.expected, f"{name}: wrong product"
    return {"product": _value(execution.actual), "runs": [_costs(r) for r in runs]}


def observe_graph(name: str) -> str:
    cfg = make_config(bits=_CFG.bits, timeout=_CFG.timeout)
    return _sha256(extract_variant(name, cfg).canonical_json())


def observe_fault(scenario: str) -> dict[str, Any]:
    name, events = _FAULT_SCENARIOS[scenario]
    if name is None:
        schedule = FaultSchedule(list(events))
        machine = Machine(3, timeout=_CFG.timeout, fault_schedule=schedule)
        run = machine.run(restartable_slice_multiply, args=(_X, _Y))
        assert run.results[0] == _X * _Y
        product, runs = run.results[0], [run]
    else:
        execution, schedule, runs = _execute(name, events)
        assert execution.error is None, f"{scenario} failed: {execution.error!r}"
        assert execution.actual == execution.expected
        product = execution.actual
    assert schedule.fired, f"{scenario}: the injected fault never fired"
    return {
        "product": _value(product),
        "fired": _events(schedule.fired),
        "fault_logs": [_fault_log(r) for r in runs],
    }


def observe_loud() -> dict[str, Any]:
    execution, _, _ = _execute("parallel", _OVER_BUDGET)
    assert execution.error is not None, "over-budget kill returned a product"
    return {
        "variant": "parallel",
        "events": _events(_OVER_BUDGET),
        "error_class": type(execution.error).__name__,
    }


def observe_campaign() -> str:
    return _sha256(to_json(run_campaign(_CAMPAIGN_CFG)))


def observe() -> dict[str, Any]:
    return {
        "config": observe_config(),
        "variants": {name: observe_variant(name) for name in COMMCHECK_VARIANTS},
        "graphs": {name: observe_graph(name) for name in COMMCHECK_VARIANTS},
        "faults": {s: observe_fault(s) for s in _FAULT_SCENARIOS},
        "loud": observe_loud(),
        "campaign": observe_campaign(),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDENS.read_text())


class TestGoldenFile:
    def test_file_is_canonical(self, golden):
        """Byte-level pin: any edit that is not a re-bless shows up here
        (a value edit also fails the section test that reads it)."""
        assert GOLDENS.read_text() == canonical(golden)

    def test_sections_and_config(self, golden):
        assert sorted(golden) == sorted(_SECTIONS)
        assert golden["config"] == observe_config()


class TestVariants:
    @pytest.mark.parametrize("name", COMMCHECK_VARIANTS)
    def test_product_and_costs(self, golden, name):
        assert observe_variant(name) == golden["variants"][name]

    @pytest.mark.parametrize("name", COMMCHECK_VARIANTS)
    def test_comm_graph_hash(self, golden, name):
        assert observe_graph(name) == golden["graphs"][name]

    def test_no_stray_entries(self, golden):
        assert sorted(golden["variants"]) == sorted(COMMCHECK_VARIANTS)
        assert sorted(golden["graphs"]) == sorted(COMMCHECK_VARIANTS)


class TestFaults:
    @pytest.mark.parametrize("scenario", sorted(_FAULT_SCENARIOS))
    def test_recovery_and_fault_log(self, golden, scenario):
        assert observe_fault(scenario) == golden["faults"][scenario]

    def test_no_stray_scenarios(self, golden):
        assert sorted(golden["faults"]) == sorted(_FAULT_SCENARIOS)

    def test_over_budget_kill_is_loud(self, golden):
        assert observe_loud() == golden["loud"]


class TestCampaign:
    def test_report_hash(self, golden):
        assert observe_campaign() == golden["campaign"]


def main(argv: list[str]) -> int:
    if argv != ["--bless"]:
        print(f"usage: {Path(__file__).name} --bless", file=sys.stderr)
        return 2
    GOLDENS.write_text(canonical(observe()))
    print(f"blessed {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
