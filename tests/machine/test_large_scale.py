"""Large-P scale tests: thousands of ranks under the event engine.

Free-running OS threads top out around a few hundred ranks (contending
for the GIL and one lock); the event engine runs exactly one rank at a
time, so P is bounded by memory, not scheduling.
These tests pin that headline at the geometries the paper cares about:

- a 1024-column linear-code grid (P = 4096) running the Section 4.1
  encode -> work -> boundary protocol fault-free,
- the ft_polynomial machine layout (P = 2187 = 3^7 standard ranks plus
  729 trailing code ranks, machine size 2916) running per-column encode
  epochs, and
- a depth-3 multi-step traversal (Sections 4.3/6.1: ``l = 3`` combined
  BFS steps on p = 27 = (2k-1)^3), the deepest combined step the smallest
  grid admits — a full multiplication, product checked exactly.

Each test carries a generous wall-clock ceiling — not a perf target but
a liveness tripwire: a quadratic-in-P regression in the scheduler's wake
paths (the gate index, the liveness broadcast) shows up here as a
timeout long before anyone tries P = 10^5.  ``perf``-marked but not
deselected, so tier-1 runs it (the P = 4096 run is an acceptance
criterion).
"""

from __future__ import annotations

import time

import pytest

from repro.bigint.limbs import LimbVector
from repro.core.api import multiply_multistep
from repro.core.ft_linear import ColumnCode
from repro.machine.engine import Machine

pytestmark = pytest.mark.perf

_WORD_BITS = 16


class _ColumnGridProgram:
    """Per-column Section 4.1 protocol on an interleaved column grid.

    Column ``c`` owns ranks ``[c*(w+f), (c+1)*(w+f))`` — ``w`` standard
    members followed by ``f`` code members.  Every column independently
    encodes, runs a work window, and passes its own boundary gate; gates
    are per-column (4 participants each), which is both the realistic
    grid pattern and the shape that exercises thousands of concurrent
    gate keys in the scheduler's index.

    A module-level class so rank programs stay picklable (backend glue
    convention), though these runs stay on the simulator.
    """

    def __init__(self, columns: int, width: int, f: int) -> None:
        self.stride = width + f
        self.width = width
        self.codes = [
            ColumnCode(
                column=[c * self.stride + i for i in range(width)],
                code_ranks=[c * self.stride + width + j for j in range(f)],
            )
            for c in range(columns)
        ]

    def __call__(self, comm, limbs):
        col = comm.rank // self.stride
        code = self.codes[col]
        state = (
            LimbVector(list(limbs), _WORD_BITS) if limbs is not None else None
        )
        with comm.phase("code creation"):
            code.encode(comm, state, epoch=0)
        with comm.phase("work"):
            for _ in range(4):
                comm.charge_flops(4)
        comm.gate(("boundary", col, 0), code.column + code.code_ranks)
        return tuple(state.limbs) if state is not None else None


class _TrailingCodeProgram(_ColumnGridProgram):
    """Same protocol on the ft_polynomial machine layout: ``P`` standard
    ranks up front, all code ranks trailing (``[P standard | f code
    columns]``, see the campaign registry's geometry map)."""

    def __init__(self, p: int, q: int, f: int) -> None:
        columns = p // q
        self.stride = q  # standard ranks only; code ranks trail
        self.width = q
        self.codes = [
            ColumnCode(
                column=[c * q + i for i in range(q)],
                code_ranks=[p + j * columns + c for j in range(f)],
            )
            for c in range(columns)
        ]
        self._p = p
        self._columns = columns

    def __call__(self, comm, limbs):
        if comm.rank < self._p:
            col = comm.rank // self.stride
        else:
            col = (comm.rank - self._p) % self._columns
        code = self.codes[col]
        state = (
            LimbVector(list(limbs), _WORD_BITS) if limbs is not None else None
        )
        with comm.phase("code creation"):
            code.encode(comm, state, epoch=0)
        with comm.phase("work"):
            comm.charge_flops(8)
        comm.gate(("boundary", col, 0), code.column + code.code_ranks)
        return tuple(state.limbs) if state is not None else None


def test_ft_linear_grid_p4096_completes():
    """Acceptance headline: P = 4096 (1024 linear-code columns) runs
    fault-free under the event engine, every standard rank keeps its
    state, inside a hard wall-clock ceiling."""
    columns, width, f = 1024, 3, 1
    program = _ColumnGridProgram(columns, width, f)
    size = columns * (width + f)
    rank_args = []
    for rank in range(size):
        if rank % (width + f) < width:
            rank_args.append(((rank * 7 + 1, rank * 11 + 3, rank % 251),))
        else:
            rank_args.append((None,))

    start = time.monotonic()
    machine = Machine(size, word_bits=_WORD_BITS, timeout=60.0)
    res = machine.run(program, rank_args=rank_args)
    elapsed = time.monotonic() - start

    for rank in range(size):
        if rank % (width + f) < width:
            assert res.results[rank] == rank_args[rank][0]
        else:
            assert res.results[rank] is None
    assert not res.fault_log.entries
    assert elapsed < 120.0, f"P=4096 grid took {elapsed:.1f}s (ceiling 120s)"


def test_ft_polynomial_layout_p2187_completes():
    """P = 2187 = 3^7 standard ranks with 729 trailing code ranks — the
    ft_polynomial machine layout at the scale the paper's asymptotics
    start to mean something."""
    p, q, f = 2187, 3, 1
    program = _TrailingCodeProgram(p, q, f)
    size = p + f * (p // q)
    rank_args = [
        ((rank * 13 + 5, rank % 509),) if rank < p else (None,)
        for rank in range(size)
    ]

    start = time.monotonic()
    machine = Machine(size, word_bits=_WORD_BITS, timeout=60.0)
    res = machine.run(program, rank_args=rank_args)
    elapsed = time.monotonic() - start

    for rank in range(p):
        assert res.results[rank] == rank_args[rank][0]
    assert elapsed < 120.0, f"P=2916 layout took {elapsed:.1f}s (ceiling 120s)"


def test_multistep_depth3_traversal_exact():
    """Depth-3 combined BFS (l = 3 on p = 27 = (2k-1)^3): the deepest
    multi-step traversal the smallest grid admits, run as a full
    multiplication with the product checked exactly."""
    a = (1 << 1200) - 987654321
    b = (1 << 1200) - 123456789

    start = time.monotonic()
    out = multiply_multistep(a, b, p=27, k=2, l=3, f=1, word_bits=_WORD_BITS)
    elapsed = time.monotonic() - start

    assert out.plan.l_bfs == 3, "p=27, k=2 must give exactly 3 BFS steps"
    assert out.product == a * b
    assert elapsed < 60.0, f"depth-3 traversal took {elapsed:.1f}s (ceiling 60s)"
