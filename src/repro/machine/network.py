"""Peer-to-peer message transport.

A :class:`Router` holds one mailbox per destination rank.  Messages are
matched MPI-style by ``(source, tag)``; :meth:`Router.take` never
blocks — it returns ``None`` when nothing matches, and the receiving
:class:`~repro.machine.comm.Communicator` parks on its scheduler until a
post or liveness change makes a re-check worthwhile.

Messages carry the sender's :class:`~repro.machine.costs.Counts` clock
snapshot (for critical-path accounting), the payload's size in words, and
the sender's incarnation number.  Messages addressed to a dead rank are
accepted and dropped when the replacement incarnation purges its mailbox —
modeling loss of in-flight data on a hard fault.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.machine.costs import Counts
from repro.machine.errors import CommError

__all__ = ["Message", "Router"]


@dataclass(frozen=True)
class Message:
    source: int
    dest: int
    tag: int
    payload: Any
    words: int
    clock: Counts
    incarnation: int


class Router:
    """Mailboxes for ``size`` ranks with (source, tag) matching."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        # One lock for every mailbox: the simulator runs one rank at a
        # time, and the process backend's socket thread posts into the
        # only mailbox its rank process reads.
        self._lock = threading.Lock()
        self._queues: list[list[Message]] = [[] for _ in range(size)]  # guarded-by: _lock

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise CommError(f"rank {rank} out of range [0, {self.size})")

    def post(self, msg: Message) -> None:
        """Deposit a message in the destination's mailbox."""
        self._check_rank(msg.dest)
        self._check_rank(msg.source)
        with self._lock:
            self._queues[msg.dest].append(msg)

    def take(self, dest: int, source: int, tag: int) -> Message | None:
        """Remove and return the oldest message for ``dest`` from
        ``source`` with ``tag``, or ``None`` if none is queued."""
        self._check_rank(dest)
        self._check_rank(source)
        with self._lock:
            queue = self._queues[dest]
            for i, msg in enumerate(queue):
                if msg.source == source and msg.tag == tag:
                    return queue.pop(i)
        return None

    def purge(self, rank: int) -> int:
        """Discard every pending message for ``rank`` (fault data loss).
        Returns the number of dropped messages."""
        self._check_rank(rank)
        with self._lock:
            dropped = len(self._queues[rank])
            self._queues[rank].clear()
        return dropped

    def pending(self, rank: int) -> int:
        """Number of queued messages for ``rank`` (for tests/diagnostics)."""
        self._check_rank(rank)
        with self._lock:
            return len(self._queues[rank])
