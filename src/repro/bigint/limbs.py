"""Signed limb vectors with lazy carries.

A :class:`LimbVector` is a little-endian vector of integer "limbs" with an
implicit radix ``2**base_bits`` fixed at creation.  Entries may be negative
or exceed the radix — carries are *lazy*, resolved only by :meth:`to_int`.
This is exactly what the lazy-interpolation Toom-Cook of Algorithm 2 (and
its parallel version) needs: evaluation applies small signed linear
combinations to digit blocks, interpolation applies rational ones, and the
single carry-resolution pass happens at the very end (line 16).

LimbVectors support the vector-space operations the evaluation and
interpolation matrices require (``+``, ``-``, scalar ``*`` by ``int`` or
``Fraction``), convolution (polynomial product), block splitting/joining
for the recursive algorithms, and ``words()`` so the simulated network can
charge their true bandwidth.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.util.words import digits_to_int, int_to_digits

__all__ = ["LimbVector"]


class LimbVector:
    """An immutable signed limb vector over radix ``2**base_bits``."""

    __slots__ = ("limbs", "base_bits")

    def __init__(self, limbs: Iterable[int | Fraction], base_bits: int):
        if base_bits <= 0:
            raise ValueError("base_bits must be positive")
        entries = tuple(limbs)
        # One C-level scan covers the common case of exact ints; anything
        # else (bool, Fraction, an int subclass, a stray float) takes the
        # per-limb checks.
        if not {*map(type, entries)} <= {int}:
            entries = tuple(map(_checked_limb, entries))
        object.__setattr__(self, "limbs", entries)
        object.__setattr__(self, "base_bits", base_bits)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LimbVector is immutable")

    def __reduce__(self) -> tuple:
        # The immutability guard defeats pickle's default slot
        # restoration (it re-enters __setattr__); rebuild through
        # __init__ instead — the process backend ships limb vectors in
        # rank-program arguments and messages.
        return (LimbVector, (self.limbs, self.base_bits))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, base_bits: int, count: int | None = None) -> "LimbVector":
        """Split a non-negative integer into limbs (zero-padded to ``count``)."""
        return cls(int_to_digits(value, base_bits, count=count), base_bits)

    @classmethod
    def zeros(cls, count: int, base_bits: int) -> "LimbVector":
        return cls([0] * count, base_bits)

    # -- conversions -------------------------------------------------------
    def to_int(self) -> int:
        """Resolve carries: ``sum(limb_i * radix**i)`` (Algorithm 1 line 16)."""
        return digits_to_int(list(self.limbs), self.base_bits)

    def words(self, word_bits: int) -> int:
        """Size in machine words (for bandwidth accounting): the sum of
        ``bits_to_words`` over the limbs, inlined."""
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        return sum([-(-v.bit_length() // word_bits) or 1 for v in self.limbs]) or 1

    # -- vector space -------------------------------------------------------
    def _check_compatible(self, other: "LimbVector") -> None:
        if self.base_bits != other.base_bits:
            raise ValueError("mismatched limb radices")
        if len(self.limbs) != len(other.limbs):
            raise ValueError(
                f"mismatched lengths {len(self.limbs)} vs {len(other.limbs)}"
            )

    def __add__(self, other: "LimbVector") -> "LimbVector":
        if not isinstance(other, LimbVector):
            return NotImplemented
        self._check_compatible(other)
        return LimbVector(
            [a + b for a, b in zip(self.limbs, other.limbs)], self.base_bits
        )

    def __sub__(self, other: "LimbVector") -> "LimbVector":
        if not isinstance(other, LimbVector):
            return NotImplemented
        self._check_compatible(other)
        return LimbVector(
            [a - b for a, b in zip(self.limbs, other.limbs)], self.base_bits
        )

    def __neg__(self) -> "LimbVector":
        return LimbVector([-a for a in self.limbs], self.base_bits)

    def __mul__(self, scalar) -> "LimbVector":
        if isinstance(scalar, Fraction):
            scaled = []
            for a in self.limbs:
                v = a * scalar
                if v.denominator != 1:
                    raise ValueError(
                        f"scalar {scalar} does not divide limb {a} exactly"
                    )
                scaled.append(int(v))
            return LimbVector(scaled, self.base_bits)
        if isinstance(scalar, int) and not isinstance(scalar, bool):
            return LimbVector([a * scalar for a in self.limbs], self.base_bits)
        return NotImplemented

    __rmul__ = __mul__

    def exact_div(self, divisor: int) -> "LimbVector":
        """Divide every limb by ``divisor``, requiring exactness (the
        exact divisions of Toom interpolation sequences)."""
        if divisor == 0:
            raise ZeroDivisionError("exact_div by zero")
        out = []
        for a in self.limbs:
            q, r = divmod(a, divisor)
            if r:
                raise ValueError(f"{a} is not divisible by {divisor}")
            out.append(q)
        return LimbVector(out, self.base_bits)

    # -- polynomial ---------------------------------------------------------
    def convolve(self, other: "LimbVector") -> "LimbVector":
        """Polynomial product of the two limb vectors; the result has
        ``len(a)+len(b)-1`` limbs.

        Kronecker substitution (Chen et al., "Parallel Integer Polynomial
        Multiplication"): each vector is packed into one integer with a
        byte-aligned slot per limb, wide enough that no product coefficient
        overflows its slot, so one native multiply computes every
        coefficient at once.
        """
        if self.base_bits != other.base_bits:
            raise ValueError("mismatched limb radices")
        a, b = self.limbs, other.limbs
        n = max(len(a) + len(b) - 1, 0)
        # |c_j| <= min(len) * max|a| * max|b| < 2**(slot - 1).
        slot = (
            max(map(abs, a), default=0).bit_length()
            + max(map(abs, b), default=0).bit_length()
            + min(len(a), len(b)).bit_length()
            + 1
        )
        width = -(-slot // 8)
        c = _pack(a, width) * _pack(b, width)
        # Plus half a slot each, every coefficient is non-negative and
        # below a full slot, so no slot borrows from the next; the XOR
        # then leaves each slot in two's complement.
        bias = _slot_bias(width, n)
        data = ((c + bias) ^ bias).to_bytes(n * width, "little")
        return LimbVector(
            [
                int.from_bytes(data[i : i + width], "little", signed=True)
                for i in range(0, n * width, width)
            ],
            self.base_bits,
        )

    # -- blocks ------------------------------------------------------------
    def split_blocks(self, nblocks: int) -> list["LimbVector"]:
        """Split into ``nblocks`` equal contiguous blocks (little-endian:
        block ``j`` holds limbs ``j*m .. (j+1)*m-1``)."""
        n = len(self.limbs)
        if nblocks <= 0 or n % nblocks:
            raise ValueError(f"cannot split {n} limbs into {nblocks} blocks")
        m = n // nblocks
        return [
            LimbVector(self.limbs[j * m : (j + 1) * m], self.base_bits)
            for j in range(nblocks)
        ]

    @staticmethod
    def concat(blocks: Sequence["LimbVector"]) -> "LimbVector":
        if not blocks:
            raise ValueError("concat of no blocks")
        base_bits = blocks[0].base_bits
        limbs: list[int] = []
        for b in blocks:
            if b.base_bits != base_bits:
                raise ValueError("mismatched limb radices")
            limbs.extend(b.limbs)
        return LimbVector(limbs, base_bits)

    def take(self, start: int, count: int) -> "LimbVector":
        """Contiguous sub-vector ``[start, start+count)``."""
        if start < 0 or count < 0 or start + count > len(self.limbs):
            raise ValueError("take out of range")
        return LimbVector(self.limbs[start : start + count], self.base_bits)

    def pad_to(self, count: int) -> "LimbVector":
        """Zero-extend to ``count`` limbs."""
        if count < len(self.limbs):
            raise ValueError("pad_to cannot shrink")
        return LimbVector(
            self.limbs + (0,) * (count - len(self.limbs)), self.base_bits
        )

    # -- cost helpers -------------------------------------------------------
    def flops_linear(self) -> int:
        """Cost charged for one scalar-multiply-accumulate over this vector."""
        return 2 * len(self.limbs)

    # -- container ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.limbs)

    def __getitem__(self, idx: int) -> int:
        return self.limbs[idx]

    def __iter__(self):
        return iter(self.limbs)

    def __eq__(self, other) -> bool:
        if isinstance(other, LimbVector):
            return self.limbs == other.limbs and self.base_bits == other.base_bits
        return NotImplemented

    def __hash__(self):
        return hash((self.limbs, self.base_bits))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.limbs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = list(self.limbs[:6])
        suffix = "..." if len(self.limbs) > 6 else ""
        return f"LimbVector({shown}{suffix}, base_bits={self.base_bits})"


def _checked_limb(v) -> int:
    """One limb as an exact ``int``: integral Fractions and int
    subclasses normalize; bools and non-integers are rejected."""
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise ValueError(f"non-integral limb {v}")
    elif not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"limb must be an integer, got {type(v).__name__}")
    return int(v)


def _slot_bias(width: int, count: int) -> int:
    """``2**(8*width-1)`` in each of ``count`` ``width``-byte slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(limbs: Sequence[int], width: int) -> int:
    """``sum(v << (8*width*i))`` over signed limbs with
    ``|v| < 2**(8*width - 1)``, built from ``width``-byte slots."""
    twos = int.from_bytes(
        b"".join([v.to_bytes(width, "little", signed=True) for v in limbs]), "little"
    )
    # Flipping each slot's top bit turns two's complement v into
    # v + 2**(8*width-1); subtracting that bias leaves the signed sum.
    bias = _slot_bias(width, len(limbs))
    return (twos ^ bias) - bias
