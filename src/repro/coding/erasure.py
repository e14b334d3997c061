"""Erasure decoding: reconstruct lost data coordinates exactly.

Given a systematic codeword with up to ``f`` erased coordinates, the
survivors determine the data uniquely (MDS).  The reconstruction solves a
small exact linear system over the rationals and scales limb blocks with
the resulting coefficients, so block data reconstructs with one linear
combination per lost word — the cost the paper charges as an ``f``-reduce
(Section 4.1 "fault recovery").
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.bigint.blockops import GeometryCache
from repro.coding.linear import SystematicCode
from repro.util.rational import mat_inverse

__all__ = ["reconstruct_erasures", "recovery_coefficients"]

Coefficients = Mapping[int, Mapping[int, Fraction]]


def recovery_coefficients(
    code: SystematicCode, survivors: Sequence[int], lost: Sequence[int]
) -> Coefficients:
    """Exact coefficients expressing each lost *data* coordinate as a
    linear combination of surviving codeword coordinates.

    ``survivors``/``lost`` index codeword positions (``0..k-1`` data,
    ``k..k+f-1`` redundancy).  Exactly ``k`` survivors must be supplied;
    returns ``{lost_data_index: {survivor_index: coefficient}}``.  The
    solve runs once per ``(code, survivors, lost)`` and process; the
    read-only result is shared by every caller.
    """
    return _recovery_coefficients(code, tuple(survivors), tuple(lost))


@GeometryCache
def _recovery_coefficients(
    code: SystematicCode, survivors: tuple[int, ...], lost: tuple[int, ...]
) -> Coefficients:
    k = code.k
    if len(survivors) != k:
        raise ValueError(f"need exactly {k} survivors, got {len(survivors)}")
    if set(survivors) & set(lost):
        raise ValueError("survivor and lost sets overlap")
    g = code.generator_matrix()
    for idx in list(survivors) + list(lost):
        if not (0 <= idx < code.n):
            raise ValueError(f"codeword index {idx} out of range")
    # Rows of G for the survivors: survivor values = G_s @ data.
    g_s = [list(g[i]) for i in survivors]
    inv = mat_inverse(g_s)  # data = inv @ survivor values
    out: dict[int, Mapping[int, Fraction]] = {}
    for idx in lost:
        if idx >= k:
            continue  # lost redundancy is re-encoded, not solved for
        out[idx] = MappingProxyType(
            {survivors[j]: inv[idx][j] for j in range(k) if inv[idx][j] != 0}
        )
    return MappingProxyType(out)


def reconstruct_erasures(
    code: SystematicCode,
    known: Mapping[int, object],
    lost: Sequence[int],
) -> dict[int, object]:
    """Reconstruct the lost *data* coordinates from surviving ones.

    ``known`` maps codeword index → value (numbers or limb blocks).  Any
    ``k`` of the survivors are used.  Raises ``ValueError`` when fewer
    than ``k`` survive (more than ``f`` faults — beyond the code's
    distance).
    """
    if len(known) < code.k:
        raise ValueError(
            f"only {len(known)} survivors, need {code.k}: "
            f"more than f={code.f} faults cannot be recovered"
        )
    survivors = sorted(known)[: code.k]
    coeff_map = recovery_coefficients(code, survivors, lost)
    out: dict[int, object] = {}
    for idx, coeffs in coeff_map.items():
        # Clear denominators row-wide first: individual terms of a block
        # combination may be non-integral even when the sum is.
        d = 1
        for c in coeffs.values():
            d = d * c.denominator // math.gcd(d, c.denominator)
        acc = None
        for s, c in coeffs.items():
            scaled = Fraction(c) * d
            value = known[s]
            term = value * int(scaled)
            acc = term if acc is None else acc + term
        if acc is None:
            acc = next(iter(known.values())) * 0
        elif d != 1:
            if hasattr(acc, "exact_div"):
                acc = acc.exact_div(d)
            else:
                q = Fraction(acc, d)
                acc = int(q) if q.denominator == 1 else q
        out[idx] = acc
    return out
