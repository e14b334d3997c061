"""Hard-fault injection.

The paper's fault model (Section 2.1): upon a fault the processor ceases
operation, loses its data, and is replaced by an alternative processor.  We
inject faults deterministically with a :class:`FaultSchedule` — each
:class:`FaultEvent` names a victim rank, the algorithm *phase* in which it
dies, and the index of the machine operation within that phase at which the
fault triggers.  Rank programs hit fault points automatically on every
machine operation (send, receive, charged arithmetic), so a schedule entry
pins the failure to a reproducible spot in the execution.

:class:`RandomFaultModel` draws schedules from an exponential
mean-time-between-failures model for randomized fault campaigns, and
:class:`ProbingFaultSchedule` is the campaign subsystem's dry-run probe:
it records every fault point a run visits (without ever firing) so random
op indices can be sampled from the *measured* per-phase op space instead
of a guessed constant (see :mod:`repro.campaign`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.util.rng import DeterministicRNG

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "ProbingFaultSchedule",
    "RandomFaultModel",
    "FaultLog",
]


@dataclass(frozen=True)
class FaultEvent:
    """Kill ``rank`` at the ``op_index``-th machine op of phase ``phase``.

    ``phase`` may be ``"*"`` to match any phase.  ``incarnation`` restricts
    the event to a given incarnation of the rank (0 = original processor),
    so replacement processors are not immediately re-killed unless the
    schedule says so.

    ``kind`` selects the failure mode: ``"hard"`` (fail-stop with data
    loss — the paper's main model), ``"soft"`` (the processor
    *miscalculates*: the value computed at the matching soft-check point
    is silently corrupted; Section 7 notes the algorithm adapts to these)
    or ``"delay"`` (the paper's third category: the processor's average
    time per operation increases — every subsequent arithmetic charge on
    the victim is multiplied by ``factor``).
    """

    rank: int
    phase: str
    op_index: int = 0
    incarnation: int = 0
    kind: str = "hard"
    factor: float = 8.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        if self.op_index < 0:
            raise ValueError(f"op_index must be non-negative, got {self.op_index}")
        if self.incarnation < 0:
            raise ValueError(
                f"incarnation must be non-negative, got {self.incarnation}"
            )
        if self.kind not in ("hard", "soft", "delay"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "delay" and self.factor <= 1:
            raise ValueError("delay factor must exceed 1")


def _by_key(
    events: Sequence[FaultEvent],
) -> dict[tuple[str, int, int], list[FaultEvent]]:
    """Group ``events`` by ``(kind, rank, incarnation)``, keeping order."""
    index: dict[tuple[str, int, int], list[FaultEvent]] = {}
    for ev in events:
        index.setdefault((ev.kind, ev.rank, ev.incarnation), []).append(ev)
    return index


class FaultSchedule:
    """A deterministic set of fault events, consumed as ranks execute."""

    def __init__(self, events: list[FaultEvent] | None = None):
        self._lock = threading.Lock()
        self._events: list[FaultEvent] = list(events or [])  # guarded-by: _lock
        self._fired: list[FaultEvent] = []  # guarded-by: _lock
        #: ``(kind, rank, incarnation)`` -> that key's pending events in
        #: ``_events`` order, so a fault point scans only its own events.
        self._index = _by_key(self._events)  # guarded-by: _lock

    @property
    def events(self) -> list[FaultEvent]:
        with self._lock:
            return list(self._events)

    @property
    def fired(self) -> list[FaultEvent]:
        with self._lock:
            return list(self._fired)

    def add(self, event: FaultEvent) -> None:
        with self._lock:
            self._events.append(event)
            self._index.setdefault(
                (event.kind, event.rank, event.incarnation), []
            ).append(event)

    def should_fail(
        self,
        rank: int,
        phase: str,
        op_index: int,
        incarnation: int,
        kind: str = "hard",
    ) -> bool:
        """Check (and consume) a matching fault event of ``kind``."""
        return self.take(rank, phase, op_index, incarnation, kind) is not None

    def take(
        self,
        rank: int,
        phase: str,
        op_index: int,
        incarnation: int,
        kind: str = "hard",
    ) -> FaultEvent | None:
        """Consume and return the first pending event matching ``kind``,
        ``rank``, ``incarnation``, ``phase`` (or ``"*"``) and ``op_index``
        (None if no match)."""
        return self._take((kind,), rank, phase, op_index, incarnation)[0]

    def take_machine_op(
        self, rank: int, phase: str, op_index: int, incarnation: int
    ) -> tuple[FaultEvent | None, FaultEvent | None]:
        """The ``(delay, hard)`` events matching one machine op, consumed
        in one locked pass: the same events, in the same order, as
        ``take(kind="delay")`` followed by ``take(kind="hard")``."""
        delay, hard = self._take(("delay", "hard"), rank, phase, op_index, incarnation)
        return delay, hard

    def _take(
        self,
        kinds: tuple[str, ...],
        rank: int,
        phase: str,
        op_index: int,
        incarnation: int,
    ) -> list[FaultEvent | None]:
        """For each of ``kinds`` in order, consume the first matching
        pending event (or None), all under one acquisition of the lock."""
        out: list[FaultEvent | None] = []
        with self._lock:
            for kind in kinds:
                key = (kind, rank, incarnation)
                bucket = self._index.get(key, [])
                match = None
                for ev in bucket:
                    if ev.op_index == op_index and (ev.phase == "*" or ev.phase == phase):
                        match = ev
                        bucket.remove(ev)
                        if not bucket:
                            del self._index[key]
                        self._events.remove(ev)
                        self._fired.append(ev)
                        break
                out.append(match)
        return out

    def absorb_fired(self, fired: Sequence[FaultEvent]) -> None:
        """Reconcile fires observed in another process into this schedule.

        The process backend consumes events from per-rank *copies* of the
        schedule; the coordinator replays each copy's fired list here so
        the parent-side schedule's ``events``/``fired`` views match what a
        simulator run would show.  Events already fired (or absent) are
        skipped, making the replay idempotent.
        """
        with self._lock:
            for ev in fired:
                if ev in self._events:
                    self._events.remove(ev)
                    self._fired.append(ev)
                    key = (ev.kind, ev.rank, ev.incarnation)
                    bucket = self._index[key]
                    bucket.remove(ev)
                    if not bucket:
                        del self._index[key]

    def __getstate__(self) -> dict[str, Any]:
        # Locks do not pickle; rank processes rebuild their own.
        with self._lock:
            return {"events": list(self._events), "fired": list(self._fired)}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._events = list(state["events"])  # guarded-by: _lock
        self._fired = list(state["fired"])  # guarded-by: _lock
        self._index = _by_key(self._events)  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __bool__(self) -> bool:
        """Always truthy: a schedule with no pending events is still a
        schedule (callers use ``schedule or FaultSchedule()`` for the
        None default, and a drained — or probing — schedule must not be
        silently swapped out by that idiom)."""
        return True


class ProbingFaultSchedule(FaultSchedule):
    """A schedule that never fires but records every fault point visited.

    Installed for a *dry probe run*, it measures the op-index space a rank
    program actually exposes: for every ``(rank, phase)`` it accumulates
    the set of op indices at which a fault event *could* have matched.
    Hard and delay events share the machine-op counter
    (:meth:`Communicator.fault_point` checks both at every op, in one
    lookup), so the op is recorded once under the ``"machine"`` domain;
    soft checks run on their own counter and land under ``"soft"``.

    :meth:`observed` returns the measured space in a deterministic order;
    :mod:`repro.campaign.probe` turns it into an :class:`~repro.campaign.probe.OpSpace`
    for guaranteed-to-land schedule sampling.
    """

    def __init__(self) -> None:
        super().__init__()
        # (rank, phase, domain) -> op indices seen at that fault point.
        self._observed: dict[tuple[int, str, str], set[int]] = {}  # guarded-by: _lock

    def _take(
        self,
        kinds: tuple[str, ...],
        rank: int,
        phase: str,
        op_index: int,
        incarnation: int,
    ) -> list[FaultEvent | None]:
        domain = "soft" if kinds == ("soft",) else "machine"
        with self._lock:
            self._observed.setdefault((rank, phase, domain), set()).add(op_index)
        return [None for _ in kinds]

    def observed(self) -> dict[tuple[int, str, str], tuple[int, ...]]:
        """Measured op space: ``(rank, phase, domain) -> sorted op tuple``."""
        with self._lock:
            return {
                key: tuple(sorted(ops))
                for key, ops in sorted(self._observed.items())
            }

    def __getstate__(self) -> dict[str, Any]:
        state = super().__getstate__()
        with self._lock:
            state["observed"] = {k: set(v) for k, v in self._observed.items()}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        super().__setstate__(state)
        self._observed = {  # guarded-by: _lock
            k: set(v) for k, v in state["observed"].items()
        }


class RandomFaultModel:
    """Draws fault schedules from an exponential MTBF model.

    Each rank independently fails when its operation count crosses an
    exponentially distributed threshold with mean ``mtbf_ops`` — the
    discrete analogue of a Poisson failure process over machine operations.
    ``max_faults`` caps the total number of injected faults (the paper's
    ``f``).  ``default_phase_ops`` is the assumed op count per phase when
    :meth:`draw_schedule` is not given measured counts.
    """

    def __init__(
        self,
        mtbf_ops: float,
        rng: DeterministicRNG,
        max_faults: int = 1,
        default_phase_ops: int = 8,
    ):
        if mtbf_ops <= 0:
            raise ValueError("mtbf_ops must be positive")
        if max_faults < 0:
            raise ValueError("max_faults must be non-negative")
        if default_phase_ops <= 0:
            raise ValueError("default_phase_ops must be positive")
        self.mtbf_ops = mtbf_ops
        self.max_faults = max_faults
        self.default_phase_ops = default_phase_ops
        self._rng = rng

    def _phase_ops(
        self, phases: Sequence[str], op_counts: Mapping[str, int] | int | None
    ) -> list[int]:
        if op_counts is None:
            return [self.default_phase_ops] * len(phases)
        if isinstance(op_counts, int):
            if op_counts <= 0:
                raise ValueError("op_counts must be positive")
            return [op_counts] * len(phases)
        counts = []
        for phase in phases:
            count = op_counts.get(phase, self.default_phase_ops)
            if count <= 0:
                raise ValueError(f"op count for phase {phase!r} must be positive")
            counts.append(count)
        return counts

    def draw_schedule(
        self,
        ranks: list[int],
        phases: list[str],
        op_counts: Mapping[str, int] | int | None = None,
    ) -> FaultSchedule:
        """Sample a schedule hitting at most ``max_faults`` distinct ranks.

        Each candidate victim draws an exponential failure threshold
        ``T ~ Exp(mtbf_ops)`` — the machine-op count at which it dies —
        and the op is located by walking ``phases`` in order against their
        op counts (``op_counts``: a per-phase mapping, one count for all
        phases, or None for ``default_phase_ops``).  A threshold beyond
        the total op budget means the victim survives the run (the tail of
        the exponential), so fewer than ``max_faults`` events may be
        returned; the distribution of op indices is the exponential
        restricted to the run, not a wrapped-around artefact.
        """
        if not ranks or not phases:
            raise ValueError("ranks and phases must be non-empty")
        counts = self._phase_ops(phases, op_counts)
        total = sum(counts)
        events: list[FaultEvent] = []
        victims: set[int] = set()
        while len(events) < self.max_faults and len(victims) < len(ranks):
            victim = self._rng.choice([r for r in ranks if r not in victims])
            victims.add(victim)
            threshold = int(self._rng.exponential(self.mtbf_ops))
            if threshold >= total:
                continue  # this rank outlives the run
            cumulative = 0
            for phase, count in zip(phases, counts):
                if threshold < cumulative + count:
                    events.append(
                        FaultEvent(
                            rank=victim, phase=phase, op_index=threshold - cumulative
                        )
                    )
                    break
                cumulative += count
        return FaultSchedule(events)


class FaultLog:
    """Record of faults that actually occurred during a run.

    ``on_record`` is an optional observer called with each new entry from
    the faulting rank's own thread — the engine wires it to the tracer so
    every injected fault (hard, soft or delay) lands in the event stream
    at exactly one choke point.  Ranks record concurrently, so the entry
    list is lock-guarded; ``on_record`` itself is invoked outside the lock
    (the tracer takes its own) and must be set before the run starts.
    """

    @dataclass(frozen=True)
    class Entry:
        rank: int
        phase: str
        op_index: int
        incarnation: int
        kind: str = "hard"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[FaultLog.Entry] = []  # guarded-by: _lock
        self.on_record: Any = None

    @property
    def entries(self) -> list["FaultLog.Entry"]:
        with self._lock:
            return list(self._entries)

    def record(
        self,
        rank: int,
        phase: str,
        op_index: int,
        incarnation: int,
        kind: str = "hard",
    ) -> None:
        entry = FaultLog.Entry(rank, phase, op_index, incarnation, kind)
        with self._lock:
            self._entries.append(entry)
        if self.on_record is not None:
            self.on_record(entry)

    def ranks(self) -> set[int]:
        with self._lock:
            return {e.rank for e in self._entries}

    def by_kind(self, kind: str) -> list["FaultLog.Entry"]:
        with self._lock:
            return [e for e in self._entries if e.kind == kind]

    def absorb(self, entries: Sequence["FaultLog.Entry"]) -> None:
        """Append entries recorded in another process (coordinator merge).

        Observers are *not* re-fired: a remote rank already traced the
        fault locally, and the parent-side tracer (if any) never saw the
        rank's thread, so replaying through ``on_record`` would fabricate
        events.
        """
        with self._lock:
            self._entries.extend(entries)

    def __getstate__(self) -> dict[str, Any]:
        # Locks and the tracer observer do not cross process boundaries;
        # rank-side logs record locally and the coordinator absorbs them.
        with self._lock:
            return {"entries": list(self._entries)}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._entries = list(state["entries"])  # guarded-by: _lock
        self.on_record = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
