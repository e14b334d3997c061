"""Finding redundant evaluation points in general position (Section 6.2).

The paper's heuristic is recursive: given a set ``S`` in
``(2k-1, l)``-general position, a candidate ``x`` extends it iff
``q_P(x) != 0`` for every ``(|S| choose r^l - 1)``-subset ``P``
(Claim 6.2), where ``q_P(x) = det(A_P(x))`` is the determinant of the
evaluation matrix of ``P ∪ {x}``.  Claims 6.3-6.5 prove an integer
candidate always exists, so a bounded scan over small integer grid points
terminates.

Testing ``q_P(x) != 0`` for one candidate is exactly "is
``S ∪ {x}`` still in general position?", so the implementation reuses the
exhaustive :func:`~repro.coding.general_position.is_general_position`
check per candidate — same asymptotics, simpler code.

The search depends only on ``(k, l, f, limit)``, so
:func:`multistep_evaluation_points` runs it once per process through the
geometry cache (:class:`~repro.bigint.blockops.GeometryCache`) and hands
every caller the same immutable tuple.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.bigint.blockops import GeometryCache
from repro.bigint.evalpoints import EvalPoint, toom_points
from repro.bigint.multivariate import evaluation_matrix_multivariate, grid_points
from repro.coding.general_position import is_general_position
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "candidate_grid_points",
    "extend_general_position",
    "find_redundant_points",
    "multistep_evaluation_points",
]

MultiPoint = tuple[EvalPoint, ...]


def candidate_grid_points(l: int, limit: int = 12) -> Iterator[MultiPoint]:
    """Small-magnitude finite candidates in ``Z^l``, ordered by size.

    Claim 6.5 guarantees an integer extension exists; scanning 0, 1, -1,
    2, -2, ... coordinatewise finds it quickly in practice.
    """
    check_positive("l", l)
    values = [0]
    for v in range(1, limit + 1):
        values.extend([v, -v])
    # Enumerate by maximum coordinate magnitude so small points come first.
    seen: set[MultiPoint] = set()
    for radius in range(limit + 1):
        pool = [v for v in values if abs(v) <= radius]
        stack: list[list[int]] = [[]]
        for _ in range(l):
            stack = [s + [v] for s in stack for v in pool]
        for coords in stack:
            if max((abs(c) for c in coords), default=0) != radius:
                continue
            pt = tuple((c, 1) for c in coords)
            if pt not in seen:
                seen.add(pt)
                yield pt


def candidate_extends(
    points: Sequence[MultiPoint], candidate: MultiPoint, r: int, l: int
) -> bool:
    """Claim 6.2 test: ``q_P(candidate) != 0`` for every subset ``P`` of
    ``points`` with ``|P| = r**l - 1`` — i.e. every evaluation matrix of
    ``P ∪ {candidate}`` is invertible.  Assumes ``points`` is already in
    general position, so only subsets containing the candidate need
    checking."""
    n = r**l
    pts = list(points)
    if len(pts) < n - 1:
        # Not enough points to form any full-size subset: full row rank of
        # the extended evaluation matrix is the whole condition.
        return is_general_position(pts + [candidate], r, l)
    from itertools import combinations

    from repro.util.rational import mat_det

    for subset in combinations(pts, n - 1):
        matrix = evaluation_matrix_multivariate(list(subset) + [candidate], r, l)
        if mat_det(matrix.rows) == 0:
            return False
    return True


def extend_general_position(
    points: Sequence[MultiPoint], r: int, l: int, limit: int = 12
) -> MultiPoint:
    """One new integer point keeping ``(r, l)``-general position
    (the Section 6.2 heuristic step, justified by Claim 6.2)."""
    current = list(points)
    for candidate in candidate_grid_points(l, limit):
        if candidate in current:
            continue
        if candidate_extends(current, candidate, r, l):
            return candidate
    raise RuntimeError(
        f"no candidate within coordinate magnitude {limit} extends the set "
        "(raise `limit`; Claim 6.5 guarantees one exists)"
    )


def find_redundant_points(
    points: Sequence[MultiPoint], r: int, l: int, f: int, limit: int = 12
) -> list[MultiPoint]:
    """``f`` additional points, added one at a time (Section 6.2)."""
    check_non_negative("f", f)
    out = list(points)
    added: list[MultiPoint] = []
    for _ in range(f):
        p = extend_general_position(out, r, l, limit)
        out.append(p)
        added.append(p)
    return added


def multistep_evaluation_points(
    k: int, l: int, f: int, limit: int = 12
) -> tuple[MultiPoint, ...]:
    """The ``(2k-1)**l + f`` evaluation points of fault-tolerant
    ``l``-step Toom-Cook-k (Section 6.1).

    The base grid is ``S^l`` for the standard univariate points ``S``
    (in ``(2k-1, l)``-general position by Claim 2.2, since the grid's
    evaluation matrix is the Kronecker power of an invertible one); the
    ``f`` extras come from the search heuristic.  The search runs once
    per ``(k, l, f, limit)`` and process; the tuple is shared.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    check_positive("l", l)
    check_non_negative("f", f)
    return _multistep_points(k, l, f, limit)


@GeometryCache
def _multistep_points(k: int, l: int, f: int, limit: int) -> tuple[MultiPoint, ...]:
    base = grid_points(toom_points(k), l)
    return tuple(base + find_redundant_points(base, 2 * k - 1, l, f, limit))
