"""Checkpoint-restart baseline (the other general-purpose alternative the
paper's introduction contrasts against).

Classic diskless checkpointing with global rollback: every processor
replicates its input state to ``f`` buddies up front (degree-``f``
neighbour checkpointing — any state survives ``f`` faults because the
owner plus ``f`` holders can lose at most ``f`` members), and any hard
fault aborts the *whole* multiplication, which restarts from the
checkpoint after the replacement processor has fetched its state from a
surviving holder.

The measured contrast with the paper's algorithm is the point of this
module: CR pays a full recomputation of everything done since the
checkpoint on every fault, where fault-tolerant Toom-Cook pays nothing in
the multiplication phase and one ``O(f*M)`` reduce elsewhere.
"""

from __future__ import annotations

import math
from typing import Any

from repro.bigint.limbs import LimbVector
from repro.core.ft_polynomial import FaultToleranceExceeded
from repro.core.layout import ROLE_STANDARD, TRAVERSAL_PHASES, CodeFamily, Cover, FaultGeometry
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.plan import ExecutionPlan
from repro.machine.errors import HardFault, MachineError
from repro.machine.fault import FaultSchedule

__all__ = ["CheckpointedToomCook"]

# Re-exported from the tag registry for existing importers.
from repro.machine.tags import TAG_CKPT, TAG_CKPT_RESTORE  # noqa: E402

MAX_RESTARTS = 16


class CheckpointedToomCook(ParallelToomCook):
    """Parallel Toom-Cook under global checkpoint-restart."""

    def __init__(
        self,
        plan: ExecutionPlan,
        f: int,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
    ):
        if f < 1:
            raise ValueError("f must be at least 1")
        super().__init__(
            plan,
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
        )
        self.f = f

    def holders(self, rank: int) -> list[int]:
        """The ``f`` neighbours storing ``rank``'s checkpoint."""
        return [(rank + i) % self.plan.p for i in range(1, self.f + 1)]

    def fault_geometry(self) -> FaultGeometry:
        """Any ``f`` standard ranks restore from their holders' checkpoints."""
        # A fault while the checkpoint itself is taken is not covered.
        restored = Cover(ROLE_STANDARD, "restored from the last checkpoint", TRAVERSAL_PHASES)
        rollback = CodeFamily(
            "rollback", "trivial", 1, self.f, (restored,),
            units=tuple(f"rank-{r}" for r in range(self.plan.p)),
            mechanism="checkpointed-rank",
        )
        return super().fault_geometry()._replace(f_eff=self.f, families=(rollback,))

    # -- rank program ------------------------------------------------------------
    def _rank_main(self, comm, va: LimbVector, vb: LimbVector):
        p = self.plan.p
        all_ranks = list(range(p))
        # Checkpoint phase: replicate my state to f buddies; hold theirs.
        with comm.phase("checkpoint"):
            for h in self.holders(comm.rank):
                comm.send(h, (va, vb), tag=TAG_CKPT)
            held: dict[int, tuple] = {}
            for owner in sorted(
                r for r in all_ranks if comm.rank in self.holders(r)
            ):
                held[owner] = comm.recv(owner, tag=TAG_CKPT)
            comm.memory.allocate(
                "checkpoints",
                sum(
                    s[0].words(comm.word_bits) + s[1].words(comm.word_bits)
                    for s in held.values()
                ),
            )
        dead_ever: set[int] = set()
        attempt = 0
        while True:
            lost = False
            result: LimbVector | None = None
            try:
                result = self._level(
                    comm, all_ranks, va, vb, 0, {"scope": attempt}
                )
            except HardFault:
                va = vb = None
                held.clear()  # a hard fault loses the held copies too
                lost = True
            except MachineError:
                # A peer died: abandon this attempt (and say so, so peers
                # blocked on us fail fast into their own restart path).
                comm.mark_aborted(attempt)
                result = None
            if not lost:
                comm.vote(("ckpt-vote", attempt), result is not None)
            comm.gate(("ckpt-gate", attempt), all_ranks)
            dead = comm.agree_dead(("ckpt-dead", attempt), all_ranks)
            if lost:
                comm.begin_replacement(purge=False)
            dead_ever |= dead
            votes = comm.poll_votes(("ckpt-vote", attempt))
            success = bool(votes) and all(votes.values())
            if dead:
                va, vb, held = self._restore(
                    comm, attempt, dead, dead_ever, va, vb, held, lost
                )
            if success:
                return result
            attempt += 1
            if attempt >= MAX_RESTARTS:
                raise FaultToleranceExceeded(
                    f"{attempt} consecutive restarts failed"
                )

    def _restore(self, comm, attempt, dead, dead_ever, va, vb, held, lost):
        """Ship checkpoints to replacements (rollback recovery).

        The first holder that has never died sends; holders that were ever
        replaced lost their copies (heap wipe) and are skipped by every
        rank consistently (``dead_ever`` accumulates agreed failures).
        """
        with comm.phase("recovery"):
            for d in sorted(r for r in dead if r < self.plan.p):
                candidates = [
                    h for h in self.holders(d) if h not in dead_ever
                ]
                if not candidates:
                    raise MachineError(
                        f"rank {d}'s checkpoint lost on every holder "
                        f"(more than f={self.f} cumulative faults)"
                    )
                sender = candidates[0]
                if comm.rank == sender:
                    comm.send(d, held[d], tag=TAG_CKPT_RESTORE + attempt)
                if comm.rank == d:
                    # Bounded wait (COMM003): the sender may die before its
                    # restore send, so the replacement must not block past
                    # the deadlock budget waiting for a checkpoint that
                    # will never arrive.
                    va, vb = comm.recv(
                        sender,
                        tag=TAG_CKPT_RESTORE + attempt,
                        timeout=self.timeout,
                    )
        return va, vb, held

    def _assemble(self, results: list[Any]) -> int:
        from repro.core.layout import CyclicLayout

        slices = results[: self.plan.p]
        if any(s is None for s in slices):
            raise MachineError("checkpoint-restart run did not converge")
        return CyclicLayout(self.plan.p).collect(slices).to_int()
