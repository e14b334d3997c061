"""Communication-schedule recording (the ``commcheck`` extraction layer).

A :class:`ScheduleRecorder` is a :class:`~repro.obs.tracer.Tracer`:
installed with ``Machine(trace=recorder)`` (or ``trace=`` on an algorithm
or campaign variant), it appends every communication operation —
point-to-point sends/receives, Lemma 2.5 collective transport and
charges, ``gate`` / ``agree_dead`` / ``vote`` synchronization,
sub-communicator creation, aborts and replacements — to a per-rank
operation list in **program order**.  It implements the tracer hooks
that observe those operations and leaves the event hooks (phases,
charged receives, collective markers, memory, faults) as no-ops.

Program order per rank is deterministic for a fault-free run (the
algorithms draw no entropy and the scheduler never reorders a single
rank's own calls), so the recorded schedule for a given ``(P, k, f)`` is
byte-for-byte reproducible.  No global interleaving order and no
virtual-clock values are recorded — only the structure the
communication checker needs.

The recorder observes; it never alters costs, matching, or control flow.
It is the one tracer the process backend accepts: each rank process
records its own ops and ships them home in its census.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Iterable, Sequence

from repro.machine.costs import Counts
from repro.obs.tracer import Tracer

__all__ = ["ScheduleRecorder"]


def _key_repr(key: Hashable) -> str:
    """Canonical string form for gate/vote keys (tuples of str/int)."""
    return repr(key)


class ScheduleRecorder(Tracer):
    """Thread-safe per-rank recorder of communication operations.

    Each operation is a plain dict (JSON-ready) with at least ``op``,
    ``phase`` and ``inc`` (the acting rank's incarnation number); the
    remaining keys depend on the operation kind:

    ``send`` / ``recv``
        ``peer``, ``tag``, ``words``, ``hops``; transport legs of modeled
        collectives carry ``modeled: True`` (their words are charged via a
        ``collective`` op instead), raw physical deliveries that are
        absorbed later carry ``raw: True``.
    ``collective``
        ``name``, ``group``, ``bw``, ``l`` — a Lemma 2.5 cost charge
        shared by every member of ``group``.
    ``gate`` / ``agree_dead`` / ``vote``
        ``key`` plus ``participants`` / ``candidates`` + ``dead`` /
        ``value`` respectively.
    ``sub``
        ``ranks`` — global ranks of a created sub-communicator.
    ``abort`` / ``replacement``
        fault-path markers (``task`` / ``purge``).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: rank -> ops in that rank's program order.
        # guarded-by: _lock
        self._ops: dict[int, list[dict[str, Any]]] = {}

    # -- low-level append ---------------------------------------------------
    def _append(self, rank: int, op: dict[str, Any]) -> None:
        with self._lock:
            self._ops.setdefault(rank, []).append(op)

    # -- point-to-point -----------------------------------------------------
    def on_send(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        dest: int, tag: int, words: int, hops: int,
    ) -> None:
        self._append(
            rank,
            {
                "op": "send",
                "phase": phase,
                "peer": dest,
                "tag": tag,
                "words": words,
                "hops": hops,
                "inc": incarnation,
            },
        )

    def on_modeled_send(
        self, rank: int, phase: str, incarnation: int, dest: int, tag: int
    ) -> None:
        self._append(
            rank,
            {
                "op": "send",
                "phase": phase,
                "peer": dest,
                "tag": tag,
                "words": 0,
                "hops": 0,
                "inc": incarnation,
                "modeled": True,
            },
        )

    def on_deliver(
        self, rank: int, phase: str, incarnation: int, source: int, tag: int,
        words: int, hops: int, modeled: bool, raw: bool,
    ) -> None:
        op: dict[str, Any] = {
            "op": "recv",
            "phase": phase,
            "peer": source,
            "tag": tag,
            "words": words,
            "hops": hops,
            "inc": incarnation,
        }
        if modeled:
            op["modeled"] = True
        if raw:
            op["raw"] = True
        self._append(rank, op)

    # -- collectives --------------------------------------------------------
    def on_modeled_charge(
        self, rank: int, phase: str, incarnation: int, name: str,
        group: Sequence[int], bw: int, l: int,
    ) -> None:
        self._append(
            rank,
            {
                "op": "collective",
                "phase": phase,
                "name": name,
                "group": sorted(group),
                "bw": bw,
                "l": l,
                "inc": incarnation,
            },
        )

    # -- synchronization ----------------------------------------------------
    def on_gate(
        self, rank: int, phase: str, incarnation: int, key: Hashable,
        participants: Iterable[int],
    ) -> None:
        self._append(
            rank,
            {
                "op": "gate",
                "phase": phase,
                "key": _key_repr(key),
                "participants": sorted(participants),
                "inc": incarnation,
            },
        )

    def on_agree_dead(
        self, rank: int, phase: str, incarnation: int, key: Hashable,
        candidates: Iterable[int], dead: Iterable[int],
    ) -> None:
        self._append(
            rank,
            {
                "op": "agree_dead",
                "phase": phase,
                "key": _key_repr(key),
                "candidates": sorted(candidates),
                "dead": sorted(dead),
                "inc": incarnation,
            },
        )

    def on_vote(
        self, rank: int, phase: str, incarnation: int, key: Hashable,
        value: Any,
    ) -> None:
        self._append(
            rank,
            {
                "op": "vote",
                "phase": phase,
                "key": _key_repr(key),
                "value": repr(value),
                "inc": incarnation,
            },
        )

    # -- topology / fault path ---------------------------------------------
    def on_sub(
        self, rank: int, phase: str, incarnation: int, ranks: Sequence[int]
    ) -> None:
        self._append(
            rank,
            {"op": "sub", "phase": phase, "ranks": list(ranks), "inc": incarnation},
        )

    def on_abort(
        self, rank: int, phase: str, clock: Counts, incarnation: int, task: int
    ) -> None:
        self._append(
            rank, {"op": "abort", "phase": phase, "task": task, "inc": incarnation}
        )

    def on_replacement(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        purge: bool = True,
    ) -> None:
        self._append(
            rank,
            {"op": "replacement", "phase": phase, "purge": purge, "inc": incarnation},
        )

    # -- extraction ---------------------------------------------------------
    def ops(self) -> dict[int, list[dict[str, Any]]]:
        """Snapshot of all recorded operations, rank -> program order."""
        with self._lock:
            return {rank: [dict(op) for op in ops] for rank, ops in self._ops.items()}

    # -- process-backend transport ------------------------------------------
    def absorb(self, rank_ops: dict[int, list[dict[str, Any]]]) -> None:
        """Merge per-rank op lists recorded in another process.

        Each rank executes in exactly one process, so the merge is an
        append per rank: remote program order is preserved and never
        interleaves with ops this recorder saw for other ranks.
        """
        with self._lock:
            for rank, ops in rank_ops.items():
                self._ops.setdefault(rank, []).extend(dict(op) for op in ops)

    def __getstate__(self) -> dict[str, Any]:
        return {"ops": self.ops()}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._ops = {  # guarded-by: _lock
            rank: [dict(op) for op in ops] for rank, ops in state["ops"].items()
        }
