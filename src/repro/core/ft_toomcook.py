"""The combined fault-tolerant parallel Toom-Cook (paper Section 4,
Theorem 5.2).

Two codes cooperate, exactly as the paper prescribes:

- the **linear (Vandermonde) column code** (Section 4.1) protects every
  processor's *persistent state* — its operand slices and partially
  combined results — through the evaluation and interpolation phases.  It
  is (re)created with an ``f``-reduce at every protocol checkpoint and a
  dead processor's state is rebuilt on its replacement with one more
  reduce (``O(f*M)`` each, Lemma 2.5);
- the **polynomial code** (Section 4.2) — ``f`` redundant evaluation
  points feeding ``f`` code columns — protects the *multiplication
  window*: a fault there kills the faulty column and costs nothing,
  because interpolation needs only ``2k-1`` surviving columns.

Limited memory (Lemma 3.1) is handled by a **task loop**: the first
``l_dfs`` levels run as ``(2k-1)^l_dfs`` sequential tasks, each descending
through the coded BFS step; between tasks sits a *boundary* — the
checkpoint where failures are agreed on (the runtime provides ULFM-style
agreement), dead states are rebuilt, ascent slices owed to a replacement
are resent from their senders' caches, and the code is re-created.

Processor budget: ``P`` standard + ``f*(2k-1)`` linear-code +
``f*P/(2k-1)`` polynomial-code processors.  (The paper's headline
``f*(2k-1)`` extra-processor figure corresponds to multi-step traversal
collapsing the polynomial columns — see :mod:`repro.core.multistep`.)
"""

from __future__ import annotations

import math

from repro.bigint.blockops import apply_matrix_to_blocks
from repro.bigint.evalpoints import extended_toom_points
from repro.bigint.limbs import LimbVector
from repro.core.ft_linear import ColumnCode, LinearCodedState
from repro.core.ft_polynomial import (
    ColumnKilled,
    FaultToleranceExceeded,
    PolynomialCodedToomCook,
)
from repro.core.layout import (
    ROLE_LINEAR,
    ROLE_POLY,
    ROLE_STANDARD,
    TRAVERSAL_PHASES,
    Cover,
    FaultGeometry,
)
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.plan import ExecutionPlan
from repro.machine.errors import HardFault, MachineError, PeerDead
from repro.machine.fault import FaultSchedule

__all__ = ["FaultTolerantToomCook", "TAG_RESEND"]

# Re-exported from the tag registry for existing importers.
from repro.machine.tags import TAG_RESEND  # noqa: E402


class FaultTolerantToomCook(PolynomialCodedToomCook):
    """Linear + polynomial coded parallel Toom-Cook (Theorem 5.2)."""

    def __init__(
        self,
        plan: ExecutionPlan,
        f: int,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
        trace=None,
    ):
        if f < 1:
            raise ValueError("f must be at least 1")
        if plan.l_bfs < 1:
            raise ValueError("need at least one BFS step to apply the codes")
        # Bypass the poly-only l_dfs==0 restriction: replicate its setup.
        ParallelToomCook.__init__(
            self,
            plan,
            points=extended_toom_points(plan.k, f),
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
            trace=trace,
        )
        self._configure_code(f, self.U, levels=1)
        # Rank geometry: [standard | linear-code rows | poly-code columns].
        self._linear_code_base = plan.p
        self._poly_code_base = plan.p + f * plan.q
        self._column_codes = [
            ColumnCode(
                column=list(range(j * self.g2, (j + 1) * self.g2)),
                code_ranks=[plan.p + i * plan.q + j for i in range(f)],
            )
            for j in range(plan.q)
        ]

    # -- geometry ------------------------------------------------------------
    def machine_size(self) -> int:
        """``P + f*(2k-1) + f*P/(2k-1)`` processors (Figures 1 + 2)."""
        return self.plan.p + self.f * self.plan.q + self.f * self.g2

    def fault_geometry(self) -> FaultGeometry:
        """The poly code's columns plus one unit per linear-code row."""
        geometry = super().fault_geometry()
        window = (
            "multiplication window: poly code covers the column, "
            "linear code rebuilds persistent state at the boundary"
        )
        poly_window = Cover(ROLE_POLY, window, TRAVERSAL_PHASES)
        columns = geometry.families[0]._replace(
            covers=(Cover(ROLE_STANDARD, window, ("multiplication",)), poly_window),
        )
        rebuilt = (
            "traversal fault: state rebuilt from the column code at the "
            "task boundary (Section 4.1)"
        )
        re_encoded = "re-encoded at the next task boundary (code row loss)"
        codes = [code.fault_geometry() for code in self._column_codes]
        rows = tuple(u for code in codes for u in code.units if u.role == ROLE_LINEAR)
        # Code rows only run the boundary protocol.
        covers = (
            Cover(ROLE_LINEAR, re_encoded, ("code-creation", "recovery")),
            Cover(ROLE_STANDARD, rebuilt, TRAVERSAL_PHASES),
            poly_window,
        )
        linear = codes[0].families[0]._replace(name="linear-column", covers=covers)
        return geometry._replace(units=geometry.units + rows, families=(columns, linear))

    def n_tasks(self) -> int:
        return self.plan.q**self.plan.l_dfs

    def _linear_column_of(self, rank: int) -> int:
        """Linear-code column of a standard rank (class block of P/q)."""
        return rank // self.g2

    def _task_path(self, t: int) -> list[int]:
        """Child indices (level 0 first) of DFS task ``t`` — equally, the
        entries per DFS stack level after ``t`` completed tasks."""
        return [
            (t // self.plan.q ** (self.plan.l_dfs - 1 - j)) % self.plan.q
            for j in range(self.plan.l_dfs)
        ]

    # -- rank dispatch -------------------------------------------------------------
    def _rank_main(self, comm, va, vb):
        if comm.rank < self._linear_code_base:
            return self._standard_main(comm, va, vb)
        if comm.rank < self._poly_code_base:
            return self._linear_code_main(comm)
        return self._poly_code_main(comm)

    # -- standard processors -----------------------------------------------------------
    MAX_ATTEMPTS = 8

    def _scope(self, t: int, attempt: int) -> int:
        """Unique id for (task, attempt): scopes tags, abort markers,
        gates, agreements and votes."""
        return t * self.MAX_ATTEMPTS + attempt

    def _standard_main(self, comm, va: LimbVector, vb: LimbVector):
        plan = self.plan
        stack: list[list[LimbVector]] | None = [[] for _ in range(plan.l_dfs)]
        self._encode_state(comm, va, vb, stack, epoch=0)
        final: LimbVector | None = None
        all_ranks = list(range(self.machine_size()))
        stale_codes: set[int] = set()
        t = 0
        while t < self.n_tasks():
            attempt = 0
            while True:
                scope = self._scope(t, attempt)
                lost = False
                result_t: LimbVector | None = None
                try:
                    result_t = self._run_task(comm, va, vb, t, scope)
                except HardFault:
                    # Hard fault: this slot's data is gone.  Stay "dead"
                    # until the boundary agreement has recorded us; the
                    # replacement comes up there and the linear code
                    # rebuilds its state.
                    va = vb = None
                    stack = None
                    final = None
                    lost = True
                except (ColumnKilled, PeerDead):
                    # Column halted (Section 4.2); still owed the parent
                    # role at the coded-step interpolation.
                    comm.mark_aborted(scope)
                    try:
                        result_t = self._coded_interpolation(
                            comm, ctx={"scope": scope}
                        )
                    except FaultToleranceExceeded:
                        result_t = None
                except FaultToleranceExceeded:
                    result_t = None

                # Boundary: agree on the attempt's outcome and failures.
                if not lost:
                    comm.vote(("vote", scope), result_t is not None)
                comm.gate(("gate", scope), all_ranks)
                dead = comm.agree_dead(("boundary", scope), all_ranks)
                if lost:
                    if comm.rank not in dead:  # pragma: no cover
                        raise MachineError("lost state but not agreed dead")
                    comm.begin_replacement(purge=False)
                votes = comm.poll_votes(("vote", scope))
                success = bool(votes) and all(votes.values())
                stale_codes |= {
                    r
                    for r in dead
                    if self._linear_code_base <= r < self._poly_code_base
                }
                dead_standard = sorted(r for r in dead if r < self.plan.p)
                if dead_standard:
                    va, vb, stack = self._linear_recovery(
                        comm, t, scope, dead_standard, va, vb, stack, lost,
                        stale_codes,
                    )
                if success:
                    if dead_standard:
                        self._resend_ascent(comm, scope, dead_standard)
                    if result_t is None:
                        result_t = self._coded_interpolation(
                            comm, ctx={"scope": scope}, tag_base=TAG_RESEND
                        )
                    break
                attempt += 1
                if attempt >= self.MAX_ATTEMPTS:
                    raise FaultToleranceExceeded(
                        f"task {t} failed {attempt} consecutive attempts"
                    )
            final = self._push_and_combine(comm, stack, result_t)
            self._encode_state(comm, va, vb, stack, epoch=t + 1)
            stale_codes.clear()  # every code word is fresh again
            t += 1
        return final

    def _run_task(
        self, comm, va: LimbVector, vb: LimbVector, t: int, scope: int
    ) -> LimbVector:
        ctx = {"scope": scope, "task": t, "guard": self._make_guard(task=scope)}
        return self._coded_step(comm, va, vb, ctx)

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _coded_operands(self, comm, va, vb, ctx: dict) -> tuple[LimbVector, LimbVector]:
        """Evaluate the DFS path of task ``ctx["task"]`` (local;
        prefix-cached so shared path prefixes are not recomputed — the
        classic DFS walk)."""
        cache = comm.heap.setdefault("_dfs_prefix", {})
        ta, tb = va, vb
        prefix: tuple[int, ...] = ()
        for digit in self._task_path(ctx["task"]):
            prefix = prefix + (digit,)
            hit = cache.get(prefix)
            if hit is None:
                row_u = self.U.row(digit)
                (ta2,), flops_a = apply_matrix_to_blocks(row_u, ta.split_blocks(self.plan.k))
                (tb2,), flops_b = apply_matrix_to_blocks(row_u, tb.split_blocks(self.plan.k))
                comm.charge_flops(flops_a + flops_b)
                # Drop stale siblings: only the current path stays cached.
                for key in [k for k in cache if len(k) >= len(prefix)]:
                    del cache[key]
                cache[prefix] = (ta2, tb2)
                hit = cache[prefix]
            ta, tb = hit
        return ta, tb

    def _push_and_combine(
        self, comm, stack: list[list[LimbVector]], result: LimbVector
    ) -> LimbVector | None:
        """Post-order combine: push the task result, collapsing any full
        DFS level with local interpolation + overlap-add."""
        if not stack:  # l_dfs == 0: the single task result is final
            return result
        with comm.phase("interpolation"):
            stack[-1].append(result)
            level = len(stack) - 1
            while level >= 0 and len(stack[level]) == self.plan.q:
                combined = self._interpolate(comm, self.W_T, stack[level])
                stack[level] = []
                if level == 0:
                    return combined
                stack[level - 1].append(combined)
                level -= 1
        return None

    # -- boundary protocol -----------------------------------------------------------------
    def _linear_recovery(
        self, comm, t, scope, dead_standard, va, vb, stack, lost, stale_codes=()
    ):
        """Rebuild every dead standard rank's persistent state from the
        last encode (Section 4.1 fault recovery: one reduce per fault)."""
        my_col = self._linear_column_of(comm.rank)
        cc = self._column_codes[my_col]
        dead_mine = [d for d in dead_standard if self._linear_column_of(d) == my_col]
        if not dead_mine:
            return va, vb, stack
        with comm.phase("recovery"):
            my_state = None
            if not lost:
                my_state = LinearCodedState.flatten(
                    [va, vb] + [v for level in stack for v in level]
                ).data
            recovered = cc.recover(
                comm,
                dead=dead_mine,
                my_state=my_state,
                my_code_word=None,
                epoch=scope,
                excluded=sorted(stale_codes),
            )
            if lost:
                schema = self._state_schema(t)
                vectors = LinearCodedState(recovered, schema).unflatten()
                va, vb = vectors[0], vectors[1]
                stack = []
                idx = 2
                for count in self._task_path(t):
                    stack.append(vectors[idx : idx + count])
                    idx += count
        return va, vb, stack

    def _state_schema(self, t: int) -> tuple[int, ...]:
        """Flattened-state shape after ``t`` completed tasks (deterministic,
        so replacements rebuild without metadata exchange)."""
        plan = self.plan
        local = plan.local_words
        schema = [local, local]  # va, vb
        for j, count in enumerate(self._task_path(t)):
            child_local = 2 * plan.n_words // plan.k ** (j + 1) // plan.p
            schema.extend([child_local] * count)
        return tuple(schema)

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _resend_ascent(self, comm, scope: int, dead_standard: list[int]) -> None:
        """Senders that owed this attempt's ascent slices to a dead parent
        resend them from cache (the replacement's mailbox survives)."""
        sent: dict[int, LimbVector] = comm.heap.get(f"_ascent_sent.{scope}", {})
        ctx = {"scope": scope}
        for d in dead_standard:
            if d in sent and d != comm.rank:
                comm.send(d, sent[d], tag=self._tag(TAG_RESEND, 0, ctx))

    def _encode_state(self, comm, va, vb, stack, epoch: int) -> None:
        """Code creation (Section 4.1): one f-reduce per column."""
        my_col = self._linear_column_of(comm.rank)
        cc = self._column_codes[my_col]
        with comm.phase("code-creation"):
            state = LinearCodedState.flatten(
                [va, vb] + [v for level in stack for v in level]
            ).data
            cc.encode(comm, state, epoch=epoch)

    # -- linear-code processors -------------------------------------------------------------
    def _linear_code_main(self, comm):
        """Code-row processors: hold the column's weighted state sum,
        refresh it at every task boundary, contribute to recoveries."""
        idx = comm.rank - self._linear_code_base
        my_col = idx % self.plan.q
        cc = self._column_codes[my_col]
        all_ranks = list(range(self.machine_size()))
        word: LimbVector | None = None
        stale_codes: set[int] = set()
        try:
            with comm.phase("code-creation"):
                word = cc.encode(comm, None, epoch=0)
        except HardFault:
            # Stay dead until the first boundary's agreement records the
            # failure; the replacement comes up there with no code word.
            pass
        t = 0
        while t < self.n_tasks():
            attempt = 0
            while True:
                scope = self._scope(t, attempt)
                try:
                    comm.gate(("gate", scope), all_ranks)
                    dead = comm.agree_dead(("boundary", scope), all_ranks)
                    if not comm.is_alive(comm.rank):
                        # Come up as the replacement now that the failure
                        # is recorded; the stale code word is lost and the
                        # next encode refreshes it.
                        comm.begin_replacement(purge=False)
                        word = None
                    votes = comm.poll_votes(("vote", scope))
                    success = bool(votes) and all(votes.values())
                    stale_codes |= {
                        r
                        for r in dead
                        if self._linear_code_base <= r < self._poly_code_base
                    }
                    dead_mine = sorted(
                        d
                        for d in dead
                        if d < self.plan.p and self._linear_column_of(d) == my_col
                    )
                    if dead_mine:
                        with comm.phase("recovery"):
                            cc.recover(
                                comm,
                                dead=dead_mine,
                                my_state=None,
                                my_code_word=word,
                                epoch=scope,
                                excluded=sorted(stale_codes),
                            )
                    if success:
                        with comm.phase("code-creation"):
                            word = cc.encode(comm, None, epoch=t + 1)
                        stale_codes.clear()
                        break
                except HardFault:
                    comm.gate(("gate", scope), all_ranks)
                    comm.agree_dead(("boundary", scope), all_ranks)
                    comm.begin_replacement(purge=False)
                    word = None
                    votes = comm.poll_votes(("vote", scope))
                    if bool(votes) and all(votes.values()):
                        break
                attempt += 1
                if attempt >= self.MAX_ATTEMPTS:
                    raise FaultToleranceExceeded(
                        f"task {t} failed {attempt} consecutive attempts"
                    )
            t += 1
        return None

    # -- polynomial-code processors ------------------------------------------------------------
    def _poly_code_main(self, comm):
        """Redundant-column processors: join each task attempt's coded
        step, run the standard recursion on the redundant sub-product,
        ship the result back.  Stateless between tasks."""
        all_ranks = list(range(self.machine_size()))
        t = 0
        while t < self.n_tasks():
            attempt = 0
            while True:
                scope = self._scope(t, attempt)
                ctx = {"scope": scope, "guard": self._make_guard(task=scope)}
                crashed = False
                try:
                    self._coded_column(comm, ctx)
                except HardFault:
                    crashed = True  # replacement comes up after agreement
                except (ColumnKilled, PeerDead):
                    comm.mark_aborted(scope)
                comm.gate(("gate", scope), all_ranks)
                dead = comm.agree_dead(("boundary", scope), all_ranks)
                if crashed:
                    comm.begin_replacement(purge=False)
                votes = comm.poll_votes(("vote", scope))
                success = bool(votes) and all(votes.values())
                dead_standard = sorted(r for r in dead if r < self.plan.p)
                if success:
                    if dead_standard:
                        self._resend_ascent(comm, scope, dead_standard)
                    break
                attempt += 1
                if attempt >= self.MAX_ATTEMPTS:
                    raise FaultToleranceExceeded(
                        f"task {t} failed {attempt} consecutive attempts"
                    )
            t += 1
        return None
