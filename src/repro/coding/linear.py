"""Systematic ``(n, k, d)`` linear erasure codes (Definition 2.7).

A systematic code keeps the ``k`` data words and appends ``n - k``
redundant words ``y_{k+i} = sum_j E[i][j] * x_j``.  With a Vandermonde
``E`` whose every minor is invertible, the code is MDS: distance
``d = n - k + 1``, i.e. any ``n - k`` erasures are recoverable — the
property Section 4.1 uses with ``n - k = f`` code processors per grid
column.

Data words may be numbers *or* limb blocks: anything supporting ``+`` and
integer scalar ``*`` encodes, which is how entire processor memories are
encoded in one shot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.coding.vandermonde import every_minor_invertible, vandermonde_matrix
from repro.util.rational import FractionMatrix
from repro.util.validation import check_positive

__all__ = ["SystematicCode"]


class SystematicCode:
    """A systematic ``(k + f, k, f + 1)`` erasure code over the rationals.

    Parameters
    ----------
    k:
        Number of data coordinates.
    f:
        Number of redundant coordinates (faults tolerated).
    nodes:
        Optional distinct Vandermonde nodes (default ``1..f``).
    """

    def __init__(self, k: int, f: int, nodes: list[int] | None = None):
        check_positive("k", k)
        check_positive("f", f)
        self.k = k
        self.f = f
        self.E = vandermonde_matrix(f, k, nodes)
        #: ``E`` as integer rows (a Vandermonde matrix over integer nodes
        #: is integral), computed once per code for encoding.
        self.weights = tuple(tuple(int(c) for c in row) for row in self.E.rows)

    def __eq__(self, other: object) -> bool:
        # The weights fix k, f and E, so equal weights mean equal codes
        # (the erasure-coefficient cache keys on the code's value).
        if isinstance(other, SystematicCode):
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.weights)

    @property
    def n(self) -> int:
        return self.k + self.f

    @property
    def distance(self) -> int:
        """MDS distance ``f + 1``."""
        return self.f + 1

    def generator_matrix(self) -> FractionMatrix:
        """``G = [I_k; E]`` (Section 2.5)."""
        ident = [[Fraction(int(i == j)) for j in range(self.k)] for i in range(self.k)]
        return FractionMatrix(ident + [list(row) for row in self.E.rows])

    def is_mds(self) -> bool:
        """Verify the MDS property (every minor of ``E`` invertible) —
        exhaustive, for test-sized codes."""
        return every_minor_invertible(self.E)

    # -- encoding ------------------------------------------------------------
    def encode(self, data: Sequence) -> list:
        """The ``f`` redundant words for ``data`` (length ``k``).

        Entries may be numbers or limb blocks; each redundant word is
        ``sum_j E[i][j] * data[j]`` with integer coefficients.
        """
        if len(data) != self.k:
            raise ValueError(f"expected {self.k} data words, got {len(data)}")
        out = []
        for row in self.weights:
            acc = None
            for c, x in zip(row, data):
                if c == 0:
                    continue
                term = x * c
                acc = term if acc is None else acc + term
            if acc is None:
                acc = data[0] * 0
            out.append(acc)
        return out

    def codeword(self, data: Sequence) -> list:
        """Full codeword: the data followed by the redundancy."""
        return list(data) + self.encode(data)

    def encode_flops(self, word_len: int) -> int:
        """Arithmetic cost model of :meth:`encode`: one multiply-accumulate
        per nonzero coefficient per word."""
        nnz = sum(1 for row in self.weights for v in row if v)
        return 2 * nnz * word_len

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SystematicCode(k={self.k}, f={self.f})"
