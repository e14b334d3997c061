"""Polynomial-coded Toom-Cook (paper Section 4.2, Figure 2).

The first BFS step evaluates at ``2k-1+f`` points instead of ``2k-1``; the
``f`` extra evaluations go to ``f`` *code columns* of ``P/(2k-1)`` extra
processors appended at the right of the grid.  Every column — standard or
code — then runs the standard parallel recursion on its (sub-)product.

**Fault recovery is free**: a fault anywhere in the multiplication window
(at or below the coded step) kills the faulty processor's entire column
("we halt the execution of the remaining processors of its column"); the
interpolation at the coded step simply uses *any* ``2k-1`` surviving
columns, computing the interpolation matrix on the fly from their
evaluation points.  No recomputation, no data movement beyond the normal
ascent — this is the paper's headline improvement over Birnbaum et al.

Each parent rank may even pick a *different* surviving subset: any
``2k-1`` columns determine the product polynomial exactly, so no consensus
round is needed.

This class covers the unlimited-memory regime (``l_dfs == 0``); the
combined algorithm (:mod:`repro.core.ft_toomcook`) layers the linear code
on top for the limited-memory task loop and for evaluation/interpolation
faults.
"""

from __future__ import annotations

import math
from typing import Any

from repro.bigint.blockops import apply_matrix_to_blocks, matrix_apply_flops
from repro.bigint.evalpoints import extended_toom_points
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import interpolation_matrix_for_points
from repro.core.parallel_toomcook import (
    TAG_BFS_DOWN,
    TAG_BFS_UP,
    MultiplyOutcome,
    ParallelToomCook,
)
from repro.core.plan import ExecutionPlan
from repro.machine.errors import MachineError, PeerDead
from repro.machine.fault import FaultSchedule

__all__ = ["PolynomialCodedToomCook", "ColumnKilled", "FaultToleranceExceeded"]


class ColumnKilled(Exception):
    """Internal control flow: this rank's column lost a member."""


class FaultToleranceExceeded(MachineError):
    """More columns died than the ``f`` redundant evaluation points cover."""


class PolynomialCodedToomCook(ParallelToomCook):
    """Fault-tolerant parallel Toom-Cook via redundant evaluation points.

    Parameters
    ----------
    plan:
        Must be a pure-BFS plan (``l_dfs == 0``) with at least one BFS
        step; the combined algorithm handles the limited-memory case.
    f:
        Number of tolerated hard faults = redundant evaluation points =
        code columns of ``P/(2k-1)`` processors each.
    """

    #: Class default; instances override via the ``eager`` constructor
    #: argument.  Subclasses that bypass this constructor inherit False.
    eager = False

    def __init__(
        self,
        plan: ExecutionPlan,
        f: int,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
        eager: bool = False,
    ):
        """``eager=True`` turns the coded interpolation into a straggler
        mitigator: parents poll all columns round-robin and interpolate
        from whichever ``2k-1`` arrive first, so a *delayed* processor
        (the paper's third fault category) never lands on the critical
        path — the classic latency benefit of coded computation."""
        if f < 1:
            raise ValueError("f must be at least 1 (use ParallelToomCook for f=0)")
        if plan.l_dfs != 0:
            raise ValueError(
                "PolynomialCodedToomCook requires an unlimited-memory plan "
                "(l_dfs == 0); use FaultTolerantToomCook for the general case"
            )
        if plan.l_bfs < 1:
            raise ValueError("need at least one BFS step to apply the code")
        points = extended_toom_points(plan.k, f)
        super().__init__(
            plan,
            points=points,
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
        )
        self.f = f
        self.g2 = plan.p // plan.q  # processors per column at the coded step
        # Global rank at which the poly-code columns start (the combined
        # algorithm moves this past its linear-code rows).
        self._poly_code_base = plan.p
        # How many ways the coded step fans out to standard columns (the
        # multi-step variant raises this to (2k-1)**l).
        self._coded_fanout = plan.q
        self.eager = eager

    # -- machine geometry ---------------------------------------------------
    def machine_size(self) -> int:
        """``P`` standard plus ``f * P/(2k-1)`` code processors."""
        return self.plan.p + self.f * self.g2

    def n_columns(self) -> int:
        return self.plan.q + self.f

    def column_members(self, j: int) -> list[int]:
        """Global ranks of column ``j`` at the coded step (class-ordered)."""
        if not (0 <= j < self.n_columns()):
            raise ValueError(f"column {j} out of range")
        if j < self.plan.q:
            return list(range(j * self.g2, (j + 1) * self.g2))
        return [
            self._poly_code_base + (j - self.plan.q) * self.g2 + c
            for c in range(self.g2)
        ]

    def _rank_args(self, slices_a, slices_b) -> list[tuple]:
        args: list[tuple] = [
            (slices_a[r], slices_b[r]) for r in range(self.plan.p)
        ]
        args.extend([(None, None)] * (self.f * self.g2))
        return args

    # -- rank program ---------------------------------------------------------
    def _rank_main(self, comm, va, vb):
        from repro.machine.errors import HardFault

        try:
            if comm.rank < self.plan.p:
                return self._standard_main(comm, va, vb)
            return self._code_main(comm)
        except HardFault:
            # Hard fault: the replacement processor takes over this grid
            # position.  Its column is dead (no recovery mechanism in the
            # polynomial code — Section 4.2), but a standard slot still
            # owes its parent role at the coded-step interpolation, whose
            # inputs arrive from *other* ranks.
            comm.mark_aborted(0)
            comm.begin_replacement(purge=False)
            if comm.rank < self.plan.p:
                return self._coded_interpolation(comm)
            return None
        except (ColumnKilled, PeerDead):
            # A column-mate died or withdrew: halt the column (Section 4.2
            # "we halt the execution of the remaining processors of its
            # column") and fall through to the parent role.
            comm.mark_aborted(0)
            if comm.rank < self.plan.p:
                return self._coded_interpolation(comm)
            return None

    def _my_column(self, comm) -> int:
        if comm.rank < self.plan.p:
            return comm.rank // self.g2
        return self.plan.q + (comm.rank - self._poly_code_base) // self.g2

    def _make_guard(self, task: int = 0):
        members_by_rank = {}
        for j in range(self.n_columns()):
            for r in self.column_members(j):
                members_by_rank[r] = self.column_members(j)

        def guard(comm):
            members = members_by_rank[comm.rank]
            if comm.withdrawn_ranks(members, task=task):
                raise ColumnKilled()

        return guard

    def _standard_main(self, comm, va: LimbVector, vb: LimbVector):
        plan = self.plan
        comm.memory.allocate(
            "operands", va.words(comm.word_bits) + vb.words(comm.word_bits)
        )
        ctx = {"scope": 0, "guard": self._make_guard()}
        # Coded step: evaluate at all 2k-1+f points, repartition to q+f
        # columns, then standard recursion inside the column.
        with comm.phase("evaluation"):
            evals_a = apply_matrix_to_blocks(self.U.rows, va.split_blocks(plan.k))
            evals_b = apply_matrix_to_blocks(self.V.rows, vb.split_blocks(plan.k))
            comm.charge_flops(2 * matrix_apply_flops(self.U.rows, len(va) // plan.k))
            payload = list(zip(evals_a, evals_b))
            new_group, parts = self._coded_exchange_down(comm, payload, ctx)
        from repro.core.layout import cyclic_merge

        ta = cyclic_merge([p[0] for p in parts])
        tb = cyclic_merge([p[1] for p in parts])
        sub_result = self._level(comm, new_group, ta, tb, level=1, ctx=ctx)
        self._send_ascent_parts(comm, new_group, sub_result, ctx)
        return self._coded_interpolation(comm)

    def _code_main(self, comm):
        """Code-column processors: join at the coded step's exchange, run
        the standard recursion on the redundant sub-product, ship it back."""
        ctx = {"scope": 0, "guard": self._make_guard()}
        my_col = self._my_column(comm)
        new_group = self.column_members(my_col)
        my_class = new_group.index(comm.rank)
        parts = []
        with comm.phase("evaluation"):
            for jp in range(self._coded_fanout):
                src = my_class + jp * self.g2  # standard rank (old class)
                parts.append(
                    comm.recv(
                        src,
                        tag=self._tag(TAG_BFS_DOWN, 0, ctx),
                        abort_check=ctx.get("scope", 0),
                    )
                )
        from repro.core.layout import cyclic_merge

        ta = cyclic_merge([p[0] for p in parts])
        tb = cyclic_merge([p[1] for p in parts])
        sub_result = self._level(comm, new_group, ta, tb, level=1, ctx=ctx)
        self._send_ascent_parts(comm, new_group, sub_result, ctx)
        return None

    # -- coded-step exchanges ----------------------------------------------------
    # repro-lint: in-phase -- runs inside the caller's phase context
    def _coded_exchange_down(self, comm, payload: list, ctx: dict):
        """Like the base descent exchange, but targets span all q+f columns
        (payload has q+f evaluation slices)."""
        g2 = self.g2
        my_class = comm.rank  # top-level group is [0..P-1] in class order
        kept: dict[int, Any] = {}
        for j in range(self.n_columns()):
            target = self.column_members(j)[my_class % g2]
            if target == comm.rank:
                kept[j] = payload[j]
            else:
                comm.send(target, payload[j], tag=self._tag(TAG_BFS_DOWN, 0, ctx))
        my_col = self._my_column(comm)
        new_group = self.column_members(my_col)
        my_new_class = new_group.index(comm.rank)
        parts = []
        for jp in range(self._coded_fanout):
            src = my_new_class + jp * g2
            if src == comm.rank:
                parts.append(kept[my_col])
            else:
                parts.append(
                    comm.recv(
                        src,
                        tag=self._tag(TAG_BFS_DOWN, 0, ctx),
                        abort_check=ctx.get("scope", 0),
                    )
                )
        return new_group, parts

    def _send_ascent_parts(self, comm, new_group, sub_result: LimbVector, ctx):
        """Deinterleave my column's result and send the parts back to the
        parent (standard) classes."""
        from repro.core.layout import cyclic_deinterleave

        with comm.phase("interpolation"):
            task = ctx.get("scope", 0)
            my_new_class = new_group.index(comm.rank)
            parts = cyclic_deinterleave(sub_result, self._coded_fanout)
            sent: dict[int, LimbVector] = {}
            for jp in range(self._coded_fanout):
                target = my_new_class + jp * self.g2  # parent standard rank
                if target == comm.rank:
                    comm.heap[f"_kept_ascent.{task}"] = parts[jp]
                else:
                    comm.send(target, parts[jp], tag=self._tag(TAG_BFS_UP, 0, ctx))
                sent[target] = parts[jp]
            # Cached for possible resends to a replacement parent (the
            # combined algorithm's boundary protocol).
            comm.heap[f"_ascent_sent.{task}"] = sent

    def _coded_interpolation(
        self, comm, ctx: dict | None = None, tag_base: int = TAG_BFS_UP
    ) -> LimbVector:
        """Collect result slices from any 2k-1 surviving columns and
        interpolate with the on-the-fly matrix (Section 4.2 correctness)."""
        plan = self.plan
        ctx = ctx or {"scope": 0}
        task = ctx.get("scope", 0)
        my_class = comm.rank
        with comm.phase("interpolation"):
            if self.eager:
                collected = self._collect_eager(comm, ctx, tag_base, task, my_class)
            else:
                collected = self._collect_in_order(
                    comm, ctx, tag_base, task, my_class
                )
            if len(collected) < plan.q:
                raise FaultToleranceExceeded(
                    f"only {len(collected)} columns survived; "
                    f"{plan.q} needed (f={self.f} exceeded)"
                )
            chosen = sorted(collected)[: plan.q]
            points = [self.points[j] for j in chosen]
            w_t = interpolation_matrix_for_points(points, plan.q)
            blocks = [collected[j] for j in chosen]
            out = self._interpolate_with(comm, w_t, blocks, len(blocks[0]) // 2)
        return out

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _collect_in_order(self, comm, ctx, tag_base, task, my_class):
        """Blocking collection, columns visited in index order (the
        fault-free fast path: the first 2k-1 columns are the standard
        evaluation points, so interpolation uses the precomputed W^T
        structure whenever possible)."""
        collected: dict[int, LimbVector] = {}
        for j in range(self.n_columns()):
            if len(collected) == self.plan.q:
                break
            members = self.column_members(j)
            if comm.withdrawn_ranks(members, task=task):
                continue
            src = members[my_class % self.g2]
            if src == comm.rank:
                block = comm.heap.get(f"_kept_ascent.{task}")
                if block is not None:
                    collected[j] = block
                continue
            try:
                collected[j] = comm.recv(
                    src, tag=self._tag(tag_base, 0, ctx), abort_check=task
                )
            except PeerDead:
                continue
        return collected

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _collect_eager(self, comm, ctx, tag_base, task, my_class):
        """Straggler-mitigating collection: physically drain every live
        column's result, then *absorb* (wait for, in virtual time) only
        the ``2k-1`` with the earliest attached clocks.  A delayed column
        (the paper's third fault category) is simply never waited on —
        the classic latency benefit of coded computation."""
        from repro.machine.errors import DeadlockError

        raw: dict[int, object] = {}
        kept_block = comm.heap.get(f"_kept_ascent.{task}")
        my_col = self._my_column(comm)
        pending = set(range(self.n_columns()))
        if my_col in pending:
            pending.discard(my_col)
        while pending:
            j = min(pending)
            members = self.column_members(j)
            if comm.withdrawn_ranks(members, task=task):
                pending.discard(j)
                continue
            src = members[my_class % self.g2]
            if src == comm.rank:
                pending.discard(j)
                continue
            try:
                raw[j] = comm.recv_raw(
                    src, tag=self._tag(tag_base, 0, ctx), abort_check=task
                )
                pending.discard(j)
            except (PeerDead, DeadlockError):
                pending.discard(j)
        # Rank the physical arrivals by virtual readiness and absorb the
        # earliest 2k-1 (the kept local block is free).
        collected: dict[int, LimbVector] = {}
        if kept_block is not None:
            collected[my_col] = kept_block
        order = sorted(
            raw, key=lambda j: (raw[j].clock.f + raw[j].clock.bw + raw[j].clock.l)
        )
        for j in order:
            if len(collected) == self.plan.q:
                break
            collected[j] = comm.absorb(raw[j])
        return collected

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _interpolate_with(self, comm, w_t, result_blocks, child_offset):
        coeffs = apply_matrix_to_blocks(w_t.rows, result_blocks)
        comm.charge_flops(matrix_apply_flops(w_t.rows, len(result_blocks[0])))
        out = [0] * (2 * self.plan.k * child_offset)
        for m, block in enumerate(coeffs):
            off = m * child_offset
            for t, v in enumerate(block):
                out[off + t] += v
        comm.charge_flops(len(coeffs) * len(coeffs[0]))
        return LimbVector(out, result_blocks[0].base_bits)

    # -- assembly ------------------------------------------------------------------
    def multiply(self, a: int, b: int, raise_on_error: bool = True) -> MultiplyOutcome:
        """As the base class, but rank errors are expected (hard faults
        are part of normal operation) — only standard ranks' results
        matter, and a missing one is an error.

        A fatal rank error (anything but a tolerated hard fault) or a
        missing standard slice raises a :class:`MachineError`, like the
        base class.  ``raise_on_error=False`` instead returns the failed
        outcome (``product == 0``, ``run.ok`` False) for inspection."""
        outcome = super().multiply(a, b, raise_on_error=False)
        fatal = {
            r: e
            for r, e in outcome.run.errors.items()
            if not self._is_tolerated(r, e)
        }
        if fatal and raise_on_error:
            rank, exc = sorted(fatal.items())[0]
            raise MachineError(f"rank {rank} failed fatally: {exc!r}") from exc
        if outcome.run.errors and not fatal:
            # Every error is a tolerated hard fault, but the base class
            # skipped assembly (it only assembles clean runs).  The
            # product is still owed: assemble from the standard slices,
            # surfacing FaultToleranceExceeded when one is missing — never
            # return a silent zero for a run the code claims to cover.
            try:
                product = self._assemble(outcome.run.results)
            except MachineError:
                if raise_on_error:
                    raise
            else:
                sign = -1 if (a < 0) != (b < 0) else 1
                outcome = MultiplyOutcome(
                    product=sign * product, run=outcome.run, plan=outcome.plan
                )
        return outcome

    def _is_tolerated(self, rank: int, exc: BaseException) -> bool:
        from repro.machine.errors import HardFault

        return isinstance(exc, HardFault)

    def _assemble(self, results: list[Any]) -> int:
        slices = results[: self.plan.p]
        if any(s is None for s in slices):
            missing = [r for r, s in enumerate(slices) if s is None]
            raise FaultToleranceExceeded(
                f"standard ranks {missing} produced no result slice"
            )
        from repro.core.layout import CyclicLayout

        return CyclicLayout(self.plan.p).collect(slices).to_int()
