"""Tracers: the machine-facing recording API.

A machine has one observer slot, ``Machine(trace=...)``, and three
implementations share its interface:

- :data:`NULL_TRACER` (a plain :class:`Tracer`) — ``enabled`` is False and
  every hook is a no-op.  Machine hot paths guard each hook call with
  ``if tracer.enabled:``, so a disabled machine pays one attribute load
  and one branch per operation and never snapshots a clock.
- :class:`RecordingTracer` — appends :class:`~repro.obs.events.TraceEvent`
  records to **per-rank streams** (each stream is written only by its own
  rank's thread, so event order within a rank is deterministic and
  lock-free) and mirrors the aggregate view into a
  :class:`~repro.obs.metrics.MetricsRegistry`.
- :class:`~repro.machine.record.ScheduleRecorder` — the ``commcheck``
  extraction layer: it records the communication schedule through the
  shared hooks (``on_send``, ``on_abort``, ``on_replacement``) and the
  schedule hooks that only it implements (``on_deliver``,
  ``on_modeled_send``, ``on_modeled_charge``, ``on_gate``,
  ``on_agree_dead``, ``on_vote``, ``on_sub``).

Virtual timestamps come from the rank's (F, BW, L) clock snapshot under
the tracer's :class:`~repro.machine.costs.CostModel`:
``vt = alpha*L + beta*BW + gamma*F``.  Because clocks are logical, the
same program under the same fault schedule produces the same timestamps
on every run — thread scheduling cannot leak in.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.machine.costs import CostModel, Counts
from repro.obs.events import (
    EV_ABORT,
    EV_COLLECTIVE,
    EV_FAULT,
    EV_MEM_PEAK,
    EV_PHASE_BEGIN,
    EV_PHASE_END,
    EV_RECV,
    EV_REPLACEMENT,
    EV_SEND,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry

__all__ = ["Tracer", "RecordingTracer", "NULL_TRACER", "make_tracer"]


class Tracer:
    """No-op tracer; the base of every observer.

    Event hooks take the rank's clock *snapshot* (an immutable
    :class:`~repro.machine.costs.Counts`) so the recording tracer never
    reads mutable machine state off-thread.  The schedule hooks at the
    end carry no clock: the schedule records structure, not time.
    """

    #: Hot paths check this before snapshotting a clock or calling a hook.
    enabled: bool = False

    def on_send(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        dest: int, tag: int, words: int, hops: int,
    ) -> None:
        pass

    def on_recv(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        source: int, tag: int, words: int,
    ) -> None:
        pass

    def on_collective(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        op: str, group_size: int, fan_in: int, words: int,
        modeled: bool = False,
    ) -> None:
        pass

    def on_phase_begin(
        self, rank: int, phase: str, clock: Counts, incarnation: int
    ) -> None:
        pass

    def on_phase_end(
        self, rank: int, phase: str, clock: Counts, incarnation: int
    ) -> None:
        pass

    def on_mem_peak(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        in_use: int, peak: int,
    ) -> None:
        pass

    def on_fault(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        fault_kind: str, op_index: int,
    ) -> None:
        pass

    def on_replacement(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        purge: bool = True,
    ) -> None:
        pass

    def on_abort(
        self, rank: int, phase: str, clock: Counts, incarnation: int, task: int
    ) -> None:
        pass

    # -- schedule hooks (implemented by the ScheduleRecorder) --------------
    def on_deliver(
        self, rank: int, phase: str, incarnation: int, source: int, tag: int,
        words: int, hops: int, modeled: bool, raw: bool,
    ) -> None:
        """A receive matched a message (before any charge; ``on_recv``
        fires when it is charged)."""

    def on_modeled_send(
        self, rank: int, phase: str, incarnation: int, dest: int, tag: int
    ) -> None:
        """An uncharged transport leg of ``t_reduce``/``t_broadcast``."""

    def on_modeled_charge(
        self, rank: int, phase: str, incarnation: int, name: str,
        group: Sequence[int], bw: int, l: int,
    ) -> None:
        """The Lemma 2.5 charge of a modeled collective (``on_collective``
        is its marker event)."""

    def on_gate(
        self, rank: int, phase: str, incarnation: int, key: Hashable,
        participants: Iterable[int],
    ) -> None:
        pass

    def on_agree_dead(
        self, rank: int, phase: str, incarnation: int, key: Hashable,
        candidates: Iterable[int], dead: Iterable[int],
    ) -> None:
        pass

    def on_vote(
        self, rank: int, phase: str, incarnation: int, key: Hashable,
        value: Any,
    ) -> None:
        pass

    def on_sub(
        self, rank: int, phase: str, incarnation: int, ranks: Sequence[int]
    ) -> None:
        pass


#: The shared disabled tracer (stateless, safe to reuse across machines).
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Records structured events in virtual time plus aggregate metrics."""

    enabled = True

    def __init__(
        self,
        model: CostModel | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.model = model or CostModel()
        self.metrics = metrics or MetricsRegistry()
        self._streams: dict[int, list[TraceEvent]] = {}

    # -- event plumbing ----------------------------------------------------
    def _record(
        self,
        kind: str,
        rank: int,
        phase: str,
        clock: Counts,
        incarnation: int,
        **attrs: Any,
    ) -> TraceEvent:
        # Per-rank streams are only ever appended to by the owning rank's
        # thread; dict insertion is GIL-atomic, so no lock is needed.
        stream = self._streams.get(rank)
        if stream is None:
            stream = self._streams.setdefault(rank, [])
        event = TraceEvent(
            kind=kind,
            rank=rank,
            seq=len(stream),
            phase=phase,
            vt=self.model.runtime(clock),
            clock=clock,
            incarnation=incarnation,
            attrs=attrs,
        )
        stream.append(event)
        return event

    # -- reading -----------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """All events, deterministically ordered by (vt, rank, seq)."""
        merged: list[TraceEvent] = []
        for rank in sorted(self._streams):
            merged.extend(self._streams[rank])
        merged.sort(key=TraceEvent.sort_key)
        return merged

    def events_for(self, rank: int) -> list[TraceEvent]:
        """One rank's stream in its own (program) order."""
        return list(self._streams.get(rank, ()))

    def ranks(self) -> list[int]:
        return sorted(self._streams)

    def __len__(self) -> int:
        return sum(len(s) for s in self._streams.values())

    # -- hooks -------------------------------------------------------------
    def on_send(self, rank, phase, clock, incarnation, dest, tag, words, hops):
        self._record(
            EV_SEND, rank, phase, clock, incarnation,
            dest=dest, tag=tag, words=words, hops=hops,
        )
        m = self.metrics
        m.inc("messages_total")
        m.inc("phase_words", words, phase=phase)
        m.observe("message_size_words", words)
        if phase == "recovery":
            m.inc("recovery_words_total", words)

    def on_recv(self, rank, phase, clock, incarnation, source, tag, words):
        self._record(
            EV_RECV, rank, phase, clock, incarnation,
            source=source, tag=tag, words=words,
        )

    def on_collective(
        self, rank, phase, clock, incarnation, op, group_size, fan_in, words,
        modeled=False,
    ):
        self._record(
            EV_COLLECTIVE, rank, phase, clock, incarnation,
            op=op, group_size=group_size, fan_in=fan_in, words=words,
        )
        m = self.metrics
        m.inc("collectives_total", op=op)
        # fan_in is 0 on ranks that only contribute (leaves of the tree);
        # the fan-in distribution tracks the aggregating ends.
        if fan_in > 0:
            m.observe("collective_fan_in", fan_in)
        # Counted collectives move their words through traced sends, which
        # already feed the word metrics; modeled ones (Lemma 2.5 transport)
        # bypass send/recv, so their words are accounted here instead.
        if modeled and words:
            m.inc("phase_words", words, phase=phase)
            if phase == "recovery":
                m.inc("recovery_words_total", words)

    def on_phase_begin(self, rank, phase, clock, incarnation):
        self._record(EV_PHASE_BEGIN, rank, phase, clock, incarnation)

    def on_phase_end(self, rank, phase, clock, incarnation):
        self._record(EV_PHASE_END, rank, phase, clock, incarnation)

    def on_mem_peak(self, rank, phase, clock, incarnation, in_use, peak):
        self._record(
            EV_MEM_PEAK, rank, phase, clock, incarnation,
            in_use=in_use, peak=peak,
        )
        self.metrics.gauge_max("peak_memory_words", peak, rank=rank)

    def on_fault(self, rank, phase, clock, incarnation, fault_kind, op_index):
        self._record(
            EV_FAULT, rank, phase, clock, incarnation,
            fault_kind=fault_kind, op_index=op_index,
        )
        self.metrics.inc("faults_total", kind=fault_kind)

    def on_replacement(self, rank, phase, clock, incarnation, purge=True):
        self._record(EV_REPLACEMENT, rank, phase, clock, incarnation)
        self.metrics.inc("replacements_total")

    def on_abort(self, rank, phase, clock, incarnation, task):
        self._record(EV_ABORT, rank, phase, clock, incarnation, task=task)
        self.metrics.inc("aborts_total")

    # -- forensics ---------------------------------------------------------
    def recovery_words_per_fault(self) -> float:
        """Recovery traffic attributed per hard fault (0 when faultless)."""
        hard = self.metrics.counter("faults_total", kind="hard")
        if not hard:
            return 0.0
        return self.metrics.counter("recovery_words_total") / hard


def make_tracer(trace) -> Tracer:
    """Normalize the ``Machine(trace=...)`` argument.

    ``None``/``False`` → the shared no-op tracer; ``True`` → a fresh
    :class:`RecordingTracer` with the unit cost model; a
    :class:`~repro.machine.costs.CostModel` → a fresh recorder under that
    model; a :class:`Tracer` instance → itself.
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return RecordingTracer()
    if isinstance(trace, CostModel):
        return RecordingTracer(model=trace)
    if isinstance(trace, Tracer):
        return trace
    raise TypeError(f"trace must be None, bool, CostModel or Tracer, not {trace!r}")
