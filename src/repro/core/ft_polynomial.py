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

from repro.bigint.blockops import (
    BlockOperator,
    apply_matrix_to_blocks,
    interpolation_operator,
)
from repro.bigint.evalpoints import extended_toom_points
from repro.bigint.limbs import LimbVector
from repro.core.layout import (
    ROLE_POLY,
    ROLE_STANDARD,
    CodeFamily,
    Cover,
    CyclicLayout,
    ErasureUnit,
    FaultGeometry,
    cyclic_deinterleave,
    cyclic_merge,
)
from repro.core.parallel_toomcook import (
    TAG_BFS_DOWN,
    TAG_BFS_UP,
    MultiplyOutcome,
    ParallelToomCook,
)
from repro.core.plan import ExecutionPlan
from repro.machine.errors import DeadlockError, HardFault, MachineError, PeerDead
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

    This class owns the coded step that the multi-step, soft-fault and
    combined variants re-parametrize (:meth:`_configure_code`): an
    operator evaluating ``split`` operand blocks for the ``need + f``
    columns, a recursion ``levels`` deep inside each column, and a
    decoder (:meth:`_interpolate_columns`) over the collected columns.
    """

    #: Class default; instances override via the ``eager`` constructor
    #: argument.  Subclasses that bypass this constructor inherit False.
    eager = False
    #: Erasure decoding stops collecting at ``need`` columns; soft-fault
    #: decoding collects every live column.
    collect_all = False
    #: Phases whose hard faults the redundant columns absorb.  Top-level
    #: evaluation exchange ops are not covered: losing a rank there kills
    #: every column it feeds, and only the combined algorithm's linear
    #: code covers evaluation.  Multiplication and interpolation ops always
    #: land inside one column, which the redundant points do cover.
    recovery_phases = ("multiplication", "interpolation")

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
        super().__init__(
            plan,
            points=extended_toom_points(plan.k, f),
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
        )
        self._configure_code(f, self.U, levels=1)
        self.eager = eager

    def _configure_code(self, f: int, operator: BlockOperator, levels: int) -> None:
        """Install the coded step: ``operator`` maps ``k**levels`` operand
        blocks to the evaluations of the ``need = (2k-1)**levels``
        standard plus ``f`` code columns, and each column then runs the
        standard recursion from level ``l_dfs + levels``."""
        plan = self.plan
        self.f = f
        self.coded_op = operator
        self.levels = levels
        self.split = plan.k**levels
        self.need = plan.q**levels
        self.g2 = plan.p // self.need  # processors per column at the coded step
        # Global rank at which the poly-code columns start (the combined
        # algorithm moves this past its linear-code rows).
        self._poly_code_base = plan.p

    # -- machine geometry ---------------------------------------------------
    def machine_size(self) -> int:
        """``P`` standard plus ``f * P/need`` code processors."""
        return self.plan.p + self.f * self.g2

    def n_columns(self) -> int:
        return self.need + self.f

    def column_members(self, j: int) -> list[int]:
        """Global ranks of column ``j`` at the coded step (class-ordered)."""
        if not (0 <= j < self.n_columns()):
            raise ValueError(f"column {j} out of range")
        if j < self.need:
            return list(range(j * self.g2, (j + 1) * self.g2))
        return [
            self._poly_code_base + (j - self.need) * self.g2 + c
            for c in range(self.g2)
        ]

    def fault_geometry(self) -> FaultGeometry:
        """One erasure unit per column; any ``f`` lost columns decode."""
        columns = [tuple(self.column_members(j)) for j in range(self.n_columns())]
        units = tuple(
            ErasureUnit(ROLE_STANDARD if j < self.need else ROLE_POLY, column)
            for j, column in enumerate(columns)
        )
        lost = "kills the rank's coded column"
        family = CodeFamily(
            "poly-columns", "points", self.need, self.f,
            (
                Cover(ROLE_STANDARD, lost, self.recovery_phases),
                Cover(ROLE_POLY, lost, self.recovery_phases),
            ),
            points=tuple(self.points),
            soft=self.collect_all,
        )
        code_ranks = tuple(r for column in columns[self.need :] for r in column)
        return FaultGeometry(self.plan, self.machine_size(), self.f, units, code_ranks, (family,))

    def _rank_args(self, slices_a, slices_b) -> list[tuple]:
        args: list[tuple] = [
            (slices_a[r], slices_b[r]) for r in range(self.plan.p)
        ]
        args.extend([(None, None)] * (self.machine_size() - self.plan.p))
        return args

    # -- rank program ---------------------------------------------------------
    def _rank_main(self, comm, va, vb):
        ctx = {"scope": 0, "guard": self._make_guard()}
        try:
            if comm.rank < self.plan.p:
                comm.memory.allocate(
                    "operands", va.words(comm.word_bits) + vb.words(comm.word_bits)
                )
                return self._coded_step(comm, va, vb, ctx)
            return self._coded_column(comm, ctx)
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
        return self.need + (comm.rank - self._poly_code_base) // self.g2

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

    # -- the coded step ----------------------------------------------------------
    def _coded_step(self, comm, va: LimbVector, vb: LimbVector, ctx: dict) -> LimbVector:
        """A standard rank's coded step: evaluate at every column's point,
        repartition onto the ``need + f`` columns, run the column's
        recursion, then interpolate from the surviving columns."""
        with comm.phase("evaluation"):
            va, vb = self._coded_operands(comm, va, vb, ctx)
            evals_a, flops_a = apply_matrix_to_blocks(
                self.coded_op, va.split_blocks(self.split)
            )
            evals_b, flops_b = apply_matrix_to_blocks(
                self.coded_op, vb.split_blocks(self.split)
            )
            comm.charge_flops(flops_a + flops_b)
            payload = list(zip(evals_a, evals_b))
            new_group, parts = self._coded_exchange_down(comm, payload, ctx)
        self._column_product(comm, new_group, parts, ctx)
        return self._coded_interpolation(comm, ctx)

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _coded_operands(self, comm, va, vb, ctx: dict) -> tuple[LimbVector, LimbVector]:
        """The operands the coded step evaluates (the combined algorithm
        first walks its DFS task path)."""
        return va, vb

    def _coded_column(self, comm, ctx: dict) -> None:
        """A code rank's coded step: receive the redundant evaluations,
        run the column's recursion, ship the result back."""
        new_group = self.column_members(self._my_column(comm))
        my_class = new_group.index(comm.rank)
        with comm.phase("evaluation"):
            parts = [
                comm.recv(
                    my_class + jp * self.g2,  # standard rank (old class)
                    tag=self._tag(TAG_BFS_DOWN, 0, ctx),
                    abort_check=ctx["scope"],
                )
                for jp in range(self.need)
            ]
        self._column_product(comm, new_group, parts, ctx)

    def _column_product(self, comm, new_group, parts, ctx: dict) -> None:
        """Standard recursion on the column's sub-product, then the ascent
        parts back to the parent classes."""
        ta = cyclic_merge([p[0] for p in parts])
        tb = cyclic_merge([p[1] for p in parts])
        level = self.plan.l_dfs + self.levels
        sub_result = self._level(comm, new_group, ta, tb, level=level, ctx=ctx)
        self._send_ascent_parts(comm, new_group, sub_result, ctx)

    # -- coded-step exchanges ----------------------------------------------------
    # repro-lint: in-phase -- runs inside the caller's phase context
    def _coded_exchange_down(self, comm, payload: list, ctx: dict):
        """Like the base descent exchange, but targets span all
        ``need + f`` columns (payload has one evaluation slice each)."""
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
        for jp in range(self.need):
            src = my_new_class + jp * g2
            if src == comm.rank:
                parts.append(kept[my_col])
            else:
                parts.append(
                    comm.recv(
                        src,
                        tag=self._tag(TAG_BFS_DOWN, 0, ctx),
                        abort_check=ctx["scope"],
                    )
                )
        return new_group, parts

    def _send_ascent_parts(self, comm, new_group, sub_result: LimbVector, ctx):
        """Deinterleave my column's result and send the parts back to the
        parent (standard) classes."""
        with comm.phase("interpolation"):
            task = ctx["scope"]
            my_new_class = new_group.index(comm.rank)
            parts = cyclic_deinterleave(sub_result, self.need)
            sent: dict[int, LimbVector] = {}
            for jp in range(self.need):
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
        """Collect result slices from the surviving columns and decode
        them (Section 4.2 correctness: any ``need`` columns determine the
        product polynomial)."""
        ctx = ctx or {"scope": 0}
        with comm.phase("interpolation"):
            collect = self._collect_eager if self.eager else self._collect_in_order
            collected = collect(comm, ctx, tag_base)
            if len(collected) < self.need:
                raise self._shortfall(len(collected))
            chosen = sorted(collected)
            return self._interpolate_columns(
                comm, chosen, [collected[j] for j in chosen]
            )

    def _shortfall(self, survivors: int) -> MachineError:
        """The loud error when fewer than ``need`` columns survive."""
        return FaultToleranceExceeded(
            f"only {survivors} columns survived; "
            f"{self.need} needed (f={self.f} exceeded)"
        )

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _collect_in_order(self, comm, ctx, tag_base):
        """Blocking collection, columns visited in index order (the
        fault-free fast path: the first ``need`` columns are the standard
        evaluation points, so interpolation uses the precomputed W^T
        structure whenever possible)."""
        task = ctx["scope"]
        limit = self.n_columns() if self.collect_all else self.need
        collected: dict[int, LimbVector] = {}
        for j in range(self.n_columns()):
            if len(collected) == limit:
                break
            members = self.column_members(j)
            if comm.withdrawn_ranks(members, task=task):
                continue
            src = members[comm.rank % self.g2]
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
    def _collect_eager(self, comm, ctx, tag_base):
        """Straggler-mitigating collection: physically drain every live
        column's result, then *absorb* (wait for, in virtual time) only
        the ``need`` with the earliest attached clocks.  A delayed column
        (the paper's third fault category) is simply never waited on —
        the classic latency benefit of coded computation."""
        task = ctx["scope"]
        raw: dict[int, object] = {}
        kept_block = comm.heap.get(f"_kept_ascent.{task}")
        my_col = self._my_column(comm)
        pending = set(range(self.n_columns()))
        pending.discard(my_col)
        while pending:
            j = min(pending)
            members = self.column_members(j)
            if comm.withdrawn_ranks(members, task=task):
                pending.discard(j)
                continue
            src = members[comm.rank % self.g2]
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
        # earliest ``need`` (the kept local block is free).
        collected: dict[int, LimbVector] = {}
        if kept_block is not None:
            collected[my_col] = kept_block
        order = sorted(
            raw, key=lambda j: (raw[j].clock.f + raw[j].clock.bw + raw[j].clock.l)
        )
        for j in order:
            if len(collected) == self.need:
                break
            collected[j] = comm.absorb(raw[j])
        return collected

    # -- decoding ------------------------------------------------------------------
    # repro-lint: in-phase -- runs inside the caller's phase context
    def _interpolate_columns(
        self, comm, chosen: list[int], blocks: list[LimbVector]
    ) -> LimbVector:
        """Erasure decoding: interpolate the ``need`` chosen columns with
        the on-the-fly ``W^T`` of their points, then overlap-add."""
        return self._interpolate(comm, self._decoder(chosen), blocks)

    def _decoder(self, chosen) -> BlockOperator:
        """The compiled inverse evaluation matrix of the chosen columns'
        points, from the process-wide geometry cache keyed by those
        points: fault-free runs always choose the same columns, and every
        instance with the same points shares one decoder."""
        points = tuple(self.points[j] for j in chosen)
        return interpolation_operator(points, self.plan.q)

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
        return isinstance(exc, HardFault)

    def _assemble(self, results: list[Any]) -> int:
        slices = results[: self.plan.p]
        if any(s is None for s in slices):
            missing = [r for r, s in enumerate(slices) if s is None]
            raise FaultToleranceExceeded(
                f"standard ranks {missing} produced no result slice"
            )
        return CyclicLayout(self.plan.p).collect(slices).to_int()
