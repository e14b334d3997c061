"""Trace determinism: identical fault campaigns export byte-identical
artifacts, and tracing never perturbs the measured costs.

Virtual timestamps come from logical clocks and per-rank streams are
appended in program order, so no event's timestamp or a rank's event
order depends on the host.  The simulator's scheduler runs one rank at a
time in a fixed order, so the whole schedule — including when a
surviving rank notices a death — is a function of the program and the
fault schedule.  Every campaign therefore exports byte-identical files,
hard faults through the full FT algorithm included (see
docs/OBSERVABILITY.md).
"""

import pytest

from repro.core.api import multiply_fault_tolerant, multiply_parallel
from repro.machine.engine import Machine
from repro.machine.errors import HardFault
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.obs.events import EV_FAULT, EV_REPLACEMENT
from repro.obs.export import dump_chrome_trace, dump_jsonl

A = (1 << 2000) - 17
B = (1 << 1999) + 3


def dump_pair(tmp_path, fmt, runs):
    dump = dump_chrome_trace if fmt == "chrome" else dump_jsonl
    paths = []
    for i, run in enumerate(runs):
        path = tmp_path / f"run{i}.{fmt}"
        dump(run.trace, str(path))
        paths.append(path)
    return paths


class TestMachineLevelHardFaultCampaign:
    """A hard-fault campaign with synchronous recovery is byte-identical."""

    @staticmethod
    def campaign_run():
        def program(comm):
            with comm.phase("evaluation"):
                if comm.rank == 0:
                    comm.send(1, [1, 2, 3, 4])
                else:
                    comm.recv(0)
            try:
                with comm.phase("multiplication"):
                    comm.charge_flops(100)
            except HardFault:
                comm.begin_replacement()
                with comm.phase("recovery"):
                    comm.charge_flops(10)
            return comm.incarnation

        sched = FaultSchedule(
            [FaultEvent(rank=1, phase="multiplication", op_index=0)]
        )
        res = Machine(2, fault_schedule=sched, trace=True).run(program)
        assert res.results == [0, 1]
        return res

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_byte_identical_exports(self, tmp_path, fmt):
        a, b = dump_pair(
            tmp_path, fmt, [self.campaign_run(), self.campaign_run()]
        )
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

    def test_identical_events_and_metrics(self):
        first, second = self.campaign_run(), self.campaign_run()
        assert [e.as_dict() for e in first.trace.events()] == [
            e.as_dict() for e in second.trace.events()
        ]
        assert first.metrics.as_dict() == second.metrics.as_dict()


class TestDelayCampaignThroughFullAlgorithm:
    """Delay faults never kill a rank, so the full fault-tolerant
    multiply is schedule-independent end to end."""

    @staticmethod
    def campaign_run():
        sched = FaultSchedule(
            [
                FaultEvent(
                    rank=2, phase="multiplication", op_index=0,
                    kind="delay", factor=8.0,
                )
            ]
        )
        out = multiply_fault_tolerant(
            A, B, p=9, k=2, f=1, word_bits=32, fault_schedule=sched, trace=True
        )
        assert out.product == A * B
        return out.run

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_byte_identical_exports(self, tmp_path, fmt):
        a, b = dump_pair(
            tmp_path, fmt, [self.campaign_run(), self.campaign_run()]
        )
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

    def test_identical_events_and_metrics(self):
        first, second = self.campaign_run(), self.campaign_run()
        assert [e.as_dict() for e in first.trace.events()] == [
            e.as_dict() for e in second.trace.events()
        ]
        assert first.metrics.as_dict() == second.metrics.as_dict()
        assert first.metrics.counter("faults_total", kind="delay") == 1


class TestHardFaultCampaignForensics:
    """Hard faults through the full algorithm: costs, fault and recovery
    events, and whole exports are reproducible."""

    @staticmethod
    def campaign():
        # A fresh schedule each time: schedules are consumed as they fire.
        return FaultSchedule(
            [FaultEvent(rank=4, phase="multiplication", op_index=0)]
        )

    def test_tracing_is_cost_neutral(self):
        plain = multiply_fault_tolerant(
            A, B, p=9, k=2, f=1, word_bits=32, fault_schedule=self.campaign()
        )
        traced = multiply_fault_tolerant(
            A, B, p=9, k=2, f=1, word_bits=32, fault_schedule=self.campaign(),
            trace=True,
        )
        assert traced.product == plain.product == A * B
        assert traced.run.critical_path == plain.run.critical_path
        assert traced.run.phase_costs == plain.run.phase_costs
        assert plain.run.trace is None and traced.run.trace is not None

    def test_fault_and_recovery_events_present(self):
        out = multiply_fault_tolerant(
            A, B, p=9, k=2, f=1, word_bits=32, fault_schedule=self.campaign(),
            trace=True,
        )
        events = out.run.trace.events()
        (fault,) = [e for e in events if e.kind == EV_FAULT]
        assert fault.rank == 4 and fault.phase == "multiplication"
        assert any(e.kind == EV_REPLACEMENT and e.rank == 4 for e in events)
        assert any(e.phase == "recovery" for e in events)
        assert out.run.metrics.counter("recovery_words_total") > 0
        assert out.run.trace.recovery_words_per_fault() > 0

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_byte_identical_exports(self, tmp_path, fmt):
        runs = [
            multiply_fault_tolerant(
                A, B, p=9, k=2, f=1, word_bits=32,
                fault_schedule=self.campaign(), trace=True,
            ).run
            for _ in range(2)
        ]
        a, b = dump_pair(tmp_path, fmt, runs)
        assert a.read_bytes() == b.read_bytes()
        assert len(runs[0].trace) > 0

    def test_same_run_exports_are_byte_stable(self, tmp_path):
        run = multiply_fault_tolerant(
            A, B, p=9, k=2, f=1, word_bits=32, fault_schedule=self.campaign(),
            trace=True,
        ).run
        a, b = dump_pair(tmp_path, "chrome", [run, run])
        assert a.read_bytes() == b.read_bytes()


class TestTracingIsCostNeutralWithoutFaults:
    def test_parallel_critical_path_unchanged_by_tracing(self):
        plain = multiply_parallel(A, B, p=9, k=2, word_bits=32)
        traced = multiply_parallel(A, B, p=9, k=2, word_bits=32, trace=True)
        assert traced.product == plain.product == A * B
        assert traced.run.critical_path == plain.run.critical_path
        assert traced.run.phase_costs == plain.run.phase_costs
