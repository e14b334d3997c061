"""Toom operators compiled for vectors of limb blocks, and overlap-add.

Interpolation matrices ``W^T`` have rational entries whose *row
combinations* are integral on valid inputs even though single terms are
not (a ``1/2`` entry hitting an odd block).  A :class:`BlockOperator`
therefore stores each row scaled by its denominator LCM, compiled once
(the precomputed-operator view of Kronenburg, "Toom-Cook Multiplication:
Some Theoretical and Practical Aspects"): :func:`apply_matrix_to_blocks`
forms the integer combination, then divides exactly by the LCM.  Both
kernels return their word-operation cost beside the result, so the flop
model has one source.  The sequential lazy algorithm
(:mod:`repro.bigint.lazy`) and the parallel algorithms in
:mod:`repro.core` share them.

Every exact-rational object an algorithm derives from its geometry — the
Toom operators of a point set, a polynomial code's decoders, the
Section 6.2 redundant points, the column code's erasure coefficients —
is built once per process through :class:`GeometryCache`: one dict,
keyed by the builder and its (hashable, immutable) geometry arguments,
filled on first use and emptied only by :func:`clear_operator_cache`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Generic, Hashable, Iterable, Sequence, TypeVar

from repro.bigint.evalpoints import EvalPoint
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import (
    evaluation_matrix,
    interpolation_matrix_for_points,
    toom_operators,
)

__all__ = [
    "BlockOperator",
    "GeometryCache",
    "apply_matrix_to_blocks",
    "clear_operator_cache",
    "evaluation_operator",
    "interpolation_operator",
    "overlap_add",
    "toom_block_operators",
]

T = TypeVar("T")

#: The one geometry cache: ``(builder, key) -> value``.  Values are
#: immutable, so concurrent builders at worst compute one twice and the
#: first stored copy is the one everybody gets.
_GEOMETRY: dict[tuple[Callable[..., Any], tuple], Any] = {}


class GeometryCache(Generic[T]):
    """``build`` memoized in the process-wide geometry cache.

    Calls are keyed by the positional arguments, which must be hashable
    and describe the geometry completely (``k``, point tuples, survivor
    tuples, ...); ``build`` must return an immutable value.  A build
    that raises stores nothing, so invalid geometry raises every time.
    """

    def __init__(self, build: Callable[..., T]):
        self.build = build
        functools.update_wrapper(self, build)

    def lookup(self, *key: Hashable) -> tuple[T, bool]:
        """The value for ``key`` and whether it was already cached."""
        entry = (self.build, key)
        try:
            return _GEOMETRY[entry], True
        except KeyError:
            return _GEOMETRY.setdefault(entry, self.build(*key)), False

    def __call__(self, *key: Hashable) -> T:
        return self.lookup(*key)[0]


def clear_operator_cache() -> None:
    """Empty the geometry cache (test isolation: the next use rebuilds)."""
    _GEOMETRY.clear()


@dataclass(frozen=True)
class BlockOperator:
    """A rational matrix compiled for blockwise application.

    ``rows[i]`` is row ``i`` times ``lcms[i]``, the LCM of its
    denominators, so every stored coefficient is an integer.  ``cost`` is
    the per-limb word-operation count of one application: two ops
    (multiply + accumulate) per nonzero coefficient, plus one for each
    row needing a final exact division.
    """

    rows: tuple[tuple[int, ...], ...]
    lcms: tuple[int, ...]
    width: int
    cost: int

    @classmethod
    def compile(cls, matrix: Iterable[Sequence]) -> "BlockOperator":
        """Compile a matrix given as rows of ints or Fractions."""
        rows, lcms, cost = [], [], 0
        for row in matrix:
            fracs = [Fraction(v) for v in row]
            d = lcm(*(v.denominator for v in fracs))
            rows.append(tuple(int(v * d) for v in fracs))
            lcms.append(d)
            cost += _row_cost(rows[-1], d)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"rows must be non-empty and of one width, got {widths}")
        return cls(tuple(rows), tuple(lcms), widths.pop(), cost)

    def row(self, i: int) -> "BlockOperator":
        """The one-row operator of row ``i`` (a DFS step's evaluation)."""
        row, d = self.rows[i], self.lcms[i]
        return BlockOperator((row,), (d,), self.width, _row_cost(row, d))

    def apply(self, values: Sequence[int]) -> list[int]:
        """``op @ values`` for a vector of integers: each row's integer
        combination divided exactly by its LCM (``ValueError`` when a
        row is not integral, as in :func:`apply_matrix_to_blocks`)."""
        out = []
        for row, d in zip(self.rows, self.lcms):
            q, r = divmod(sum(c * v for c, v in zip(row, values)), d)
            if r:
                raise ValueError(f"row combination is not divisible by {d}")
            out.append(q)
        return out

    def nonzeros(self) -> int:
        """Nonzero coefficients over all rows (the same as the rational
        matrix's: scaling a row by its LCM keeps its zeros)."""
        return sum(1 for row in self.rows for c in row if c)


def _row_cost(row: tuple[int, ...], d: int) -> int:
    return 2 * sum(1 for c in row if c) + (d != 1)


@GeometryCache
def toom_block_operators(
    k: int, points: tuple[EvalPoint, ...]
) -> tuple[BlockOperator, BlockOperator]:
    """Compiled ``U`` (= ``V``) and ``W^T`` of Toom-Cook-``k`` at
    ``points`` (:func:`~repro.bigint.matrices.toom_operators`)."""
    u, _, w_t = toom_operators(k, list(points))
    return BlockOperator.compile(u.rows), BlockOperator.compile(w_t.rows)


@GeometryCache
def interpolation_operator(
    points: tuple[EvalPoint, ...], width: int
) -> BlockOperator:
    """Compiled inverse evaluation matrix of ``width`` points: the
    polynomial code's decoder for the columns evaluated there."""
    return BlockOperator.compile(
        interpolation_matrix_for_points(list(points), width).rows
    )


@GeometryCache
def evaluation_operator(points: tuple[EvalPoint, ...], width: int) -> BlockOperator:
    """Compiled evaluation matrix of ``points`` for polynomials of degree
    below ``width`` (the soft-fault decoder's re-evaluation)."""
    return BlockOperator.compile(evaluation_matrix(list(points), width).rows)


def apply_matrix_to_blocks(
    op: BlockOperator, blocks: Sequence[LimbVector]
) -> tuple[list[LimbVector], int]:
    """Compute ``op @ blocks`` and its flop count ``op.cost * len(block)``.

    Each output row is an *integer* linear combination of the blocks
    followed by one exact division by the row's LCM — raising
    ``ValueError`` if the result is not integral (which on valid
    Toom-Cook data never happens and otherwise indicates corruption, e.g.
    an undetected soft fault).
    """
    if not blocks:
        raise ValueError("blocks must be non-empty")
    if op.width != len(blocks):
        raise ValueError(f"row width {op.width} does not match {len(blocks)} blocks")
    length = len(blocks[0])
    base_bits = blocks[0].base_bits
    limbs = [b.limbs for b in blocks]
    if any(len(b) != length or b.base_bits != base_bits for b in blocks):
        raise ValueError("blocks differ in length or radix")
    out: list[LimbVector] = []
    for row, d in zip(op.rows, op.lcms):
        acc = [0] * length
        for c, src in zip(row, limbs):
            if c == 1:
                acc = [a + x for a, x in zip(acc, src)]
            elif c == -1:
                acc = [a - x for a, x in zip(acc, src)]
            elif c:
                acc = [a + c * x for a, x in zip(acc, src)]
        if d != 1:
            quotients = []
            for a in acc:
                q, r = divmod(a, d)
                if r:
                    raise ValueError(f"{a} is not divisible by {d}")
                quotients.append(q)
            acc = quotients
        out.append(LimbVector(acc, base_bits))
    return out, op.cost * length


def overlap_add(
    coeffs: Sequence[LimbVector], offsets: Iterable[int], length: int
) -> tuple[LimbVector, int]:
    """Sum each coefficient block into a ``length``-limb zero vector at
    its offset — the reassembly after interpolation — charging one
    operation per added limb."""
    out = [0] * length
    flops = 0
    for block, off in zip(coeffs, offsets):
        end = off + len(block)
        if off < 0 or end > length:
            raise ValueError(f"block [{off}, {end}) exceeds {length} limbs")
        out[off:end] = [a + v for a, v in zip(out[off:end], block.limbs)]
        flops += len(block)
    return LimbVector(out, coeffs[0].base_bits), flops
