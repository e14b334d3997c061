"""The SPMD execution engine.

:class:`Machine` owns the shared state (router, memories, clocks, fault
schedule) and runs a rank program — an ordinary Python function
``program(comm, *args) -> result`` — one logical processor per rank.  Ranks
are scheduled by :class:`~repro.machine.engines.event.EventEngine`
(docs/MACHINE.md "Scheduler"), a deterministic cooperative scheduler (one
runnable rank at a time, virtual-time quiescence for hang detection) that
scales to thousands of ranks.  The GIL is irrelevant to the model: we
measure operation *counts*, not wall time.

:class:`RunResult` carries per-rank return values, the critical-path cost
triple (element-wise max of the per-rank vector clocks — see
:mod:`repro.machine.costs`), per-phase breakdowns, peak memory, and the
fault log.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.machine.comm import Communicator, _SharedState
from repro.machine.costs import Counts, CostModel, PhaseLedger
from repro.machine.engines.event import EventEngine
from repro.machine.errors import HardFault, MachineError
from repro.machine.fault import FaultLog, FaultSchedule
from repro.machine.memory import LocalMemory
from repro.machine.network import Router
from repro.obs.tracer import Tracer, make_tracer
from repro.util.env import backend as backend_choice
from repro.util.env import scaled_timeout

__all__ = ["Machine", "RunResult", "merge_phase_costs", "raise_run_errors"]


def merge_phase_costs(ledgers: Sequence[PhaseLedger]) -> dict[str, Counts]:
    """Per-phase cost maxima over all ranks, in first-seen ledger order.

    Shared by the simulator and the process backend so both assemble
    ``RunResult.phase_costs`` with identical keys *and* key order.
    """
    phase_names: list[str] = []
    for ledger in ledgers:
        for name in ledger.phases():
            if name not in phase_names:
                phase_names.append(name)
    return {
        name: PhaseLedger.max_over(list(ledgers), name) for name in phase_names
    }


def raise_run_errors(errors: dict[int, BaseException]) -> None:
    """Raise the canonical run failure for collected per-rank errors.

    A single uncaught :class:`HardFault` is re-raised raw (callers pattern
    match on it); anything else folds into one :class:`MachineError`
    enumerating every failed rank.  Shared by both backends so error
    surfaces are bit-compatible.
    """
    failed = sorted(errors.items())
    _, exc = failed[0]
    if isinstance(exc, HardFault) and len(errors) == 1:
        raise exc
    detail = "; ".join(f"rank {r}: {e!r}" for r, e in failed)
    raise MachineError(f"{len(errors)} rank(s) failed: {detail}") from exc


@dataclass
class RunResult:
    """Outcome of one SPMD run."""

    results: list[Any]
    critical_path: Counts
    per_rank: list[Counts]
    phase_costs: dict[str, Counts]
    peak_memory: list[int]
    fault_log: FaultLog
    errors: dict[int, BaseException] = field(default_factory=dict)
    #: The tracer the run executed under (None when tracing was off).
    trace: Tracer | None = None
    #: The tracer's aggregate metrics (None when tracing was off).
    metrics: Any = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def runtime(self, model: CostModel) -> float:
        """Modeled runtime ``C = alpha*L + beta*BW + gamma*F``."""
        return model.runtime(self.critical_path)

    def max_peak_memory(self) -> int:
        return max(self.peak_memory) if self.peak_memory else 0


class Machine:
    """A simulated machine of ``size`` processors.

    Parameters
    ----------
    size:
        Number of processors ``P`` (plus any code processors the caller
        includes — the machine does not distinguish).
    memory_words:
        Local memory capacity ``M`` per processor in words
        (``math.inf`` = the unlimited-memory regime of Table 1).
    word_bits:
        Machine word width; a product of two words fits hardware, i.e. the
        ``s`` of Algorithm 1 is ``2**word_bits``.
    fault_schedule:
        Hard-fault injection plan (empty by default).
    timeout:
        Per-receive deadlock timeout in seconds.  The effective value is
        ``timeout * REPRO_TIMEOUT_SCALE`` (default scale 1.0): the
        watchdog is host-level wall-clock slack, not part of the modeled
        execution, so loaded CI hosts stretch it via the environment
        without touching any virtual-time quantity
        (:func:`repro.util.env.timeout_scale`).
    trace:
        Observability switch (off by default — a no-op tracer that adds
        one branch per machine op and never snapshots a clock).  Pass
        ``True`` for a :class:`~repro.obs.tracer.RecordingTracer` under
        the unit cost model, a :class:`~repro.machine.costs.CostModel`
        to pick the virtual-time weights, or a
        :class:`~repro.obs.tracer.Tracer` instance — among them a
        :class:`~repro.machine.record.ScheduleRecorder` for
        ``commcheck`` schedule extraction, the one tracer the ``proc``
        backend accepts.  Tracing never charges costs:
        ``RunResult.critical_path`` is identical with and without it.
    backend:
        Execution backend: ``"sim"`` (in-process simulator),
        ``"proc"`` (one OS process per rank over localhost sockets — see
        docs/MACHINE.md "Backends"), or ``None`` (default) to defer to
        ``REPRO_BACKEND`` at each :meth:`run`.  Both backends are
        conformance-gated to produce identical results and communication
        schedules.
    """

    def __init__(
        self,
        size: int,
        memory_words: float = math.inf,
        word_bits: int = 64,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
        topology: Any = None,
        trace: Any = None,
        backend: str | None = None,
    ):
        if size <= 0:
            raise ValueError("size must be positive")
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if topology is not None and topology.size != size:
            raise ValueError(
                f"topology covers {topology.size} nodes, machine has {size}"
            )
        if backend not in (None, "sim", "proc"):
            raise ValueError(f"backend must be sim or proc, got {backend!r}")
        self.size = size
        self.memory_words = memory_words
        self.word_bits = word_bits
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.fault_schedule = fault_schedule or FaultSchedule()
        self.timeout = scaled_timeout(timeout)
        self.topology = topology
        self.tracer = make_tracer(trace)
        #: Explicit backend override; None defers to ``REPRO_BACKEND`` at
        #: each :meth:`run` (so scoping the variable around code that
        #: builds machines internally selects the backend for all of them).
        self.backend = backend

    def run(
        self,
        program: Callable[..., Any],
        args: Sequence[Any] = (),
        rank_args: Sequence[Sequence[Any]] | None = None,
        raise_on_error: bool = True,
    ) -> RunResult:
        """Run ``program(comm, *args)`` SPMD on all ranks.

        ``rank_args`` optionally gives per-rank argument tuples instead of
        the shared ``args``.  Uncaught rank exceptions are collected into
        ``RunResult.errors`` (and re-raised unless ``raise_on_error`` is
        False — deliberately-failing runs, e.g. a non-fault-tolerant
        algorithm under fault injection, pass False and inspect the
        result).
        """
        if rank_args is not None and len(rank_args) != self.size:
            raise ValueError("rank_args must have one tuple per rank")
        choice = self.backend if self.backend is not None else backend_choice()
        if choice == "proc":
            from repro.machine.backends.proc import ProcBackend

            return ProcBackend(self).run(
                program, args, rank_args, raise_on_error
            )
        router = Router(self.size)
        memories = [
            LocalMemory(self.memory_words, rank=r) for r in range(self.size)
        ]
        tracer = self.tracer
        state = _SharedState(
            size=self.size,
            router=router,
            word_bits=self.word_bits,
            memories=memories,
            fault_schedule=self.fault_schedule,
            fault_log=FaultLog(),
            timeout=self.timeout,
            topology=self.topology,
            tracer=tracer,
        )
        if tracer.enabled:
            self._wire_tracer(state, memories)
        results: list[Any] = [None] * self.size
        errors: dict[int, BaseException] = {}
        lock = threading.Lock()

        def runner(rank: int) -> None:
            comm = Communicator(state, rank)
            try:
                a = rank_args[rank] if rank_args is not None else args
                out = program(comm, *a)
                with lock:
                    results[rank] = out
            except BaseException as exc:  # noqa: BLE001 - collected and reported
                with lock:
                    errors[rank] = exc
                # A rank that dies outside the fault protocol is dead for
                # everyone: flip the liveness flag so peers unblock fast.
                state.die(rank)
            finally:
                # Finished (returned or raised) means no further sends will
                # ever be posted: receivers still blocked on this rank fail
                # over to PeerDead instead of waiting out the deadlock
                # detector.
                state.finish(rank)

        EventEngine(state).execute(runner)

        # Engine completion is a happens-before edge, but take the same
        # lock the runners write under anyway: the snapshot must be safe
        # even if a deadlocked straggler thread is still limping along.
        with lock:
            results = list(results)
            errors = dict(errors)
        per_rank = [c.snapshot() for c in state.clocks]
        critical = Counts()
        for c in per_rank:
            critical = critical.merge(c)
        phase_costs = merge_phase_costs(state.ledgers)
        result = RunResult(
            results=results,
            critical_path=critical,
            per_rank=per_rank,
            phase_costs=phase_costs,
            peak_memory=[m.peak for m in memories],
            fault_log=state.fault_log,
            errors=errors,
            trace=tracer if tracer.enabled else None,
            metrics=getattr(tracer, "metrics", None) if tracer.enabled else None,
        )
        if errors and raise_on_error:
            raise_run_errors(errors)
        return result

    def _wire_tracer(self, state: _SharedState, memories: list[LocalMemory]) -> None:
        """Attach the fault-log and memory high-water observers.

        Both callbacks fire on the observed rank's own thread, so reading
        that rank's clock/ledger/incarnation is race-free."""
        tracer = state.tracer

        def on_fault(entry: FaultLog.Entry) -> None:
            tracer.on_fault(
                entry.rank,
                entry.phase,
                state.clocks[entry.rank].snapshot(),
                entry.incarnation,
                entry.kind,
                entry.op_index,
            )

        state.fault_log.on_record = on_fault
        for rank, memory in enumerate(memories):

            def on_peak(mem: LocalMemory, rank: int = rank) -> None:
                tracer.on_mem_peak(
                    rank,
                    state.ledgers[rank].current_phase,
                    state.clocks[rank].snapshot(),
                    # Lock-free on purpose: the callback runs on rank's own
                    # thread, and a rank's incarnation slot is only written
                    # from that thread (begin_replacement).
                    state.incarnations[rank],  # repro-lint: disable=LOCK001
                    mem.in_use,
                    mem.peak,
                )

            memory.on_peak = on_peak
