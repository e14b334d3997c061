"""Parallel Toom-Cook-k (paper Section 3).

The BFS-DFS traversal over the simulated machine:

- **DFS levels** (first ``l_dfs``, Lemma 3.1): all processors of the
  current group walk the ``2k-1`` sub-problems *sequentially*; evaluation
  and interpolation are purely local (the cyclic layout aligns block
  slices), so DFS steps cost no communication.
- **BFS levels** (the last ``log_(2k-1) P``): the group's evaluated
  sub-problem slices repartition onto ``2k-1`` disjoint sub-groups — each
  rank exchanges with a fixed set of ``2k-1`` peers (the grid "row"), then
  recursion continues independently per column.  The mirrored exchange
  happens on the way up, followed by local interpolation (``W^T``) and
  overlap-add.
- **Leaves**: one rank holds one sub-problem outright and multiplies it
  with the sequential lazy algorithm (Algorithm 2).  The leaf computes
  the exact product polynomial with one native multiply
  (``LimbVector.convolve``) and charges the closed-form flop count of
  Algorithm 2's recursion to word granularity.

The product is returned in *distributed lazy-digit form* (each rank holds
the cyclic slice of the 2n-word product polynomial, carries unresolved);
:meth:`ParallelToomCook.multiply` assembles and resolves carries outside
the machine for verification — the paper's cost analysis likewise does not
charge a parallel carry stage (its output is distributed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.bigint.blockops import (
    BlockOperator,
    apply_matrix_to_blocks,
    overlap_add,
    toom_block_operators,
)
from repro.bigint.evalpoints import EvalPoint, toom_points
from repro.bigint.lazy import LazyToomCook
from repro.bigint.limbs import LimbVector
from repro.core.layout import (
    ROLE_STANDARD,
    CyclicLayout,
    ErasureUnit,
    FaultGeometry,
    cyclic_deinterleave,
    cyclic_merge,
)
from repro.core.plan import ExecutionPlan
from repro.machine.engine import Machine, RunResult
from repro.machine.fault import FaultSchedule
from repro.machine.grid import ProcessorGrid

# Re-exported from the tag registry: the traversal subclasses
# (ft_polynomial, ft_toomcook, soft_faults, multistep) import them here.
from repro.machine.tags import TAG_BFS_DOWN, TAG_BFS_UP
from repro.util.words import int_to_digits

__all__ = ["ParallelToomCook", "MultiplyOutcome", "TAG_BFS_DOWN", "TAG_BFS_UP"]


@dataclass
class MultiplyOutcome:
    """Product plus the machine-level evidence of how it was computed."""

    product: int
    run: RunResult
    plan: ExecutionPlan


class ParallelToomCook:
    """Parallel Toom-Cook-k on a simulated ``P``-processor machine.

    Parameters
    ----------
    plan:
        The BFS/DFS schedule (see :func:`repro.core.plan.make_plan`).
    points:
        Optional custom evaluation points (``>= 2k-1``); the polynomial-
        coded subclass passes the extended set here.
    memory_words:
        Per-processor capacity ``M`` enforced by the machine
        (``math.inf`` = unlimited).
    trace:
        Observability switch forwarded to ``Machine(trace=...)`` — a
        :class:`~repro.obs.tracer.Tracer`, ``True`` or a
        :class:`~repro.machine.costs.CostModel` (None = no tracing).
    """

    #: Default for subclasses whose __init__ predates the trace parameter;
    #: callers can also set ``algo.trace = tracer`` after construction.
    trace = None

    def __init__(
        self,
        plan: ExecutionPlan,
        points: Sequence[EvalPoint] | None = None,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
        topology=None,
        trace=None,
    ):
        self.plan = plan
        self.topology = topology
        if trace is not None:
            self.trace = trace
        self.points = list(points) if points else toom_points(plan.k)
        self.U, self.W_T = toom_block_operators(plan.k, tuple(self.points))
        self.V = self.U
        self.grid = ProcessorGrid(plan.p, plan.q)
        self.memory_words = memory_words
        self.fault_schedule = fault_schedule
        self.timeout = timeout
        self._leaf = LazyToomCook(plan.k, threshold_bits=plan.word_bits)

    # -- machine construction ------------------------------------------------
    def machine_size(self) -> int:
        """Total processors (standard only for the base algorithm)."""
        return self.plan.p

    def fault_geometry(self) -> FaultGeometry:
        """``P`` standard ranks, each its own erasure unit, and no code."""
        units = tuple(ErasureUnit(ROLE_STANDARD, (r,)) for r in range(self.plan.p))
        return FaultGeometry(self.plan, self.machine_size(), 0, units)

    def _make_machine(self) -> Machine:
        return Machine(
            self.machine_size(),
            memory_words=self.memory_words,
            word_bits=self.plan.word_bits,
            fault_schedule=self.fault_schedule or FaultSchedule(),
            timeout=self.timeout,
            topology=self.topology,
            trace=self.trace,
        )

    # -- public ---------------------------------------------------------------
    def multiply(self, a: int, b: int, raise_on_error: bool = True) -> MultiplyOutcome:
        """Run the parallel machine and return the verified product."""
        sign = -1 if (a < 0) != (b < 0) else 1
        a, b = abs(a), abs(b)
        plan = self.plan
        if max(a, b).bit_length() > plan.n_words * plan.word_bits:
            raise ValueError("operands exceed the plan's padded size")
        layout = CyclicLayout(plan.p)
        va = LimbVector(int_to_digits(a, plan.word_bits, count=plan.n_words), plan.word_bits)
        vb = LimbVector(int_to_digits(b, plan.word_bits, count=plan.n_words), plan.word_bits)
        slices_a = layout.distribute(va)
        slices_b = layout.distribute(vb)
        rank_args = self._rank_args(slices_a, slices_b)
        machine = self._make_machine()
        run = machine.run(self._rank_main, rank_args=rank_args, raise_on_error=raise_on_error)
        product = 0
        if run.ok:
            product = sign * self._assemble(run.results)
        return MultiplyOutcome(product=product, run=run, plan=plan)

    def _rank_args(self, slices_a, slices_b) -> list[tuple]:
        return [(slices_a[r], slices_b[r]) for r in range(self.plan.p)]

    def _assemble(self, results: list[Any]) -> int:
        """Collect distributed result slices and resolve carries."""
        slices = results[: self.plan.p]
        layout = CyclicLayout(self.plan.p)
        return layout.collect(slices).to_int()

    # -- rank program -----------------------------------------------------------
    def _rank_main(self, comm, va: LimbVector, vb: LimbVector) -> LimbVector:
        comm.memory.allocate("operands", va.words(comm.word_bits) + vb.words(comm.word_bits))
        group = list(range(self.plan.p))
        result = self._level(comm, group, va, vb, level=0, ctx={})
        comm.memory.free("operands")
        return result

    def _level(
        self,
        comm,
        group: list[int],
        va: LimbVector,
        vb: LimbVector,
        level: int,
        ctx: dict,
    ) -> LimbVector:
        """One traversal level.  ``ctx`` carries fault-tolerance context:
        ``scope`` (task/attempt id, scoping message tags and abort checks)
        and ``guard`` (a callable raising when this rank's polynomial-code
        column has been killed — Section 4.2 column halt)."""
        plan = self.plan
        if level == plan.levels:
            return self._leaf_multiply(comm, va, vb, ctx)
        if plan.is_bfs_level(level):
            return self._bfs_level(comm, group, va, vb, level, ctx)
        return self._dfs_level(comm, group, va, vb, level, ctx)

    @staticmethod
    def _guard(comm, ctx: dict) -> None:
        guard = ctx.get("guard")
        if guard is not None:
            guard(comm)

    @staticmethod
    def _tag(base: int, step: int, ctx: dict) -> int:
        """Message tag scoped by BFS step and the fault-tolerance *scope*
        (task/attempt id) so that aborted attempts' stale messages can
        never be mismatched."""
        scope = ctx.get("scope", 0)
        if 64 * scope + step >= 100_000:  # pragma: no cover - absurd sizes
            raise ValueError("tag space exhausted")
        return base + step + 64 * scope

    # -- DFS ---------------------------------------------------------------------
    def _dfs_level(
        self,
        comm,
        group: list[int],
        va: LimbVector,
        vb: LimbVector,
        level: int,
        ctx: dict,
    ) -> LimbVector:
        """Sequential walk over the 2k-1 sub-problems; no communication."""
        k, q = self.plan.k, self.plan.q
        blocks_a = va.split_blocks(k)
        blocks_b = vb.split_blocks(k)
        results: list[LimbVector] = []
        for i in range(q):
            self._guard(comm, ctx)
            with comm.phase("evaluation"):
                (ta,), flops_a = apply_matrix_to_blocks(self.U.row(i), blocks_a)
                (tb,), flops_b = apply_matrix_to_blocks(self.V.row(i), blocks_b)
                comm.charge_flops(flops_a + flops_b)
                comm.memory.allocate(f"dfs{level}.child", 2 * ta.words(comm.word_bits))
            results.append(self._level(comm, group, ta, tb, level + 1, ctx))
        comm.memory.free(f"dfs{level}.child")
        with comm.phase("interpolation"):
            out = self._interpolate(comm, self.W_T, results)
        comm.memory.allocate(f"dfs{level}.result", out.words(comm.word_bits))
        comm.memory.free(f"dfs{level}.result")
        return out

    # -- BFS -------------------------------------------------------------------
    def _bfs_level(
        self,
        comm,
        group: list[int],
        va: LimbVector,
        vb: LimbVector,
        level: int,
        ctx: dict,
    ) -> LimbVector:
        plan = self.plan
        step = level - plan.l_dfs  # BFS step index (grid digit)
        self._guard(comm, ctx)
        with comm.phase("evaluation"):
            evals_a, flops_a = apply_matrix_to_blocks(self.U, va.split_blocks(plan.k))
            evals_b, flops_b = apply_matrix_to_blocks(self.V, vb.split_blocks(plan.k))
            comm.charge_flops(flops_a + flops_b)
            payload = list(zip(evals_a, evals_b))
            comm.memory.allocate(
                f"bfs{step}.evals",
                sum(x.words(comm.word_bits) + y.words(comm.word_bits) for x, y in payload),
            )
            new_group, parts = self._exchange_down(comm, group, payload, step, ctx)
            ta = cyclic_merge([p[0] for p in parts])
            tb = cyclic_merge([p[1] for p in parts])
            comm.memory.free(f"bfs{step}.evals")
            comm.memory.allocate(
                f"bfs{step}.sub", ta.words(comm.word_bits) + tb.words(comm.word_bits)
            )
        sub_result = self._level(comm, new_group, ta, tb, level + 1, ctx)
        comm.memory.free(f"bfs{step}.sub")
        with comm.phase("interpolation"):
            self._guard(comm, ctx)
            result_blocks = self._exchange_up(
                comm, group, new_group, sub_result, step, ctx
            )
            out = self._interpolate(comm, self.W_T, result_blocks)
        return out

    # -- exchanges ----------------------------------------------------------------
    def _columns(self, comm, group: list[int], step: int) -> tuple[list[list[int]], int]:
        """Partition the class-ordered group into per-column member lists
        (contiguous class blocks), and this rank's column index.

        With class-block columns a rank's send targets and receive sources
        at a BFS step are the same fixed set of ``2k-1`` ranks — the grid
        "row" of Section 3 (the ranks sharing ``class mod g'``)."""
        q = self.plan.q
        g2 = len(group) // q
        columns = [group[j * g2 : (j + 1) * g2] for j in range(q)]
        my_col = group.index(comm.rank) // g2
        return columns, my_col

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _exchange_down(
        self, comm, group: list[int], payload: list, step: int, ctx: dict
    ) -> tuple[list[int], list]:
        """Repartition: my slice of evaluated sub-problem ``j`` goes to the
        class-``(my_class mod g')`` member of column ``j``.  Returns the new
        group (class-ordered) and my ``q`` received parts, interleave-ready."""
        q = self.plan.q
        g = len(group)
        g2 = g // q
        my_class = group.index(comm.rank)
        columns, my_col = self._columns(comm, group, step)
        kept: dict[int, Any] = {}
        for j in range(q):
            target = columns[j][my_class % g2]
            if target == comm.rank:
                kept[j] = payload[j]
            else:
                comm.send(target, payload[j], tag=self._tag(TAG_BFS_DOWN, step, ctx))
        new_group = columns[my_col]
        my_new_class = new_group.index(comm.rank)
        parts = []
        for jp in range(q):
            src = group[my_new_class + jp * g2]
            if src == comm.rank:
                parts.append(kept[my_col])
            else:
                parts.append(
                    comm.recv(
                        src,
                        tag=self._tag(TAG_BFS_DOWN, step, ctx),
                        abort_check=ctx.get("scope"),
                    )
                )
        return new_group, parts

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _exchange_up(
        self,
        comm,
        group: list[int],
        new_group: list[int],
        result: LimbVector,
        step: int,
        ctx: dict,
    ) -> list[LimbVector]:
        """Inverse repartition: deinterleave my column's result slice back to
        the parent classes; receive my slice of every column's result."""
        q = self.plan.q
        g = len(group)
        g2 = g // q
        my_class = group.index(comm.rank)
        my_new_class = new_group.index(comm.rank)
        columns, my_col = self._columns(comm, group, step)
        parts = cyclic_deinterleave(result, q)
        kept: LimbVector | None = None
        for jp in range(q):
            target = group[my_new_class + jp * g2]
            if target == comm.rank:
                kept = parts[jp]
            else:
                comm.send(target, parts[jp], tag=self._tag(TAG_BFS_UP, step, ctx))
        out: list[LimbVector] = []
        for j in range(q):
            src = columns[j][my_class % g2]
            if src == comm.rank:
                assert kept is not None
                out.append(kept)
            else:
                out.append(
                    comm.recv(
                        src,
                        tag=self._tag(TAG_BFS_UP, step, ctx),
                        abort_check=ctx.get("scope"),
                    )
                )
        return out

    # -- local math ------------------------------------------------------------------
    # repro-lint: in-phase -- runs inside the caller's phase context
    def _interpolate(
        self, comm, w_t: BlockOperator, result_blocks: list[LimbVector]
    ) -> LimbVector:
        """Apply the interpolation operator ``w_t`` blockwise, then
        overlap-add the coefficient blocks."""
        coeffs, flops = apply_matrix_to_blocks(w_t, result_blocks)
        comm.charge_flops(flops)
        return self._overlap_add(comm, coeffs)

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _overlap_add(self, comm, coeffs: list[LimbVector]) -> LimbVector:
        """Overlap-add coefficient block ``m`` at local offset
        ``m * half``: each block is a child product padded to twice the
        ``half`` local words of an unpadded child block."""
        half = len(coeffs[0]) // 2
        out, flops = overlap_add(
            coeffs, range(0, len(coeffs) * half, half), 2 * self.plan.k * half
        )
        comm.charge_flops(flops)
        return out

    def _leaf_multiply(
        self, comm, va: LimbVector, vb: LimbVector, ctx: dict
    ) -> LimbVector:
        """Sequential lazy Toom on the leaf (padded up to a power of k),
        truncated to the exact product-polynomial length and padded to
        ``2 * len(va)`` for the ascent's cyclic layout."""
        self._guard(comm, ctx)
        with comm.phase("multiplication"):
            k = self.plan.k
            width = len(va)
            padded = 1
            depth = 0
            while padded < width:
                padded *= k
                depth += 1
            pa = va.pad_to(padded)
            pb = vb.pad_to(padded)
            prod, flops = self._leaf.multiply_blocks(pa, pb, depth)
            comm.charge_flops(flops)
            comm.memory.allocate("leaf.product", prod.words(comm.word_bits))
            out = prod.take(0, 2 * width - 1).pad_to(2 * width)
            comm.memory.free("leaf.product")
            return out
