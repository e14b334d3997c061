"""The geometry cache: every setup object equals a fresh computation.

The Section 6.2 points, the Toom operators, the polynomial codes'
decoders and the column code's erasure coefficients depend only on the
geometry, so each is built once per process
(:class:`repro.bigint.blockops.GeometryCache`).  The uncached arithmetic
stays here as the reference: every cached value must equal it, a warm
construction plus a decode must do no determinant or inverse work, a
caller must not be able to change what the next caller sees, and
``clear_operator_cache()`` must forget everything.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest

from repro.bigint import blockops
from repro.bigint.blockops import (
    BlockOperator,
    clear_operator_cache,
    evaluation_operator,
    interpolation_operator,
    toom_block_operators,
)
from repro.bigint.evalpoints import extended_toom_points, toom_points
from repro.bigint.lazy import LazyToomCook
from repro.bigint.matrices import (
    evaluation_matrix,
    interpolation_matrix_for_points,
    toom_operators,
)
from repro.bigint.multivariate import evaluation_matrix_multivariate, grid_points
from repro.bigint.toomcook import ToomCook
from repro.coding.erasure import recovery_coefficients
from repro.coding.linear import SystematicCode
from repro.coding.point_search import find_redundant_points, multistep_evaluation_points
from repro.core.ft_polynomial import PolynomialCodedToomCook
from repro.core.ft_toomcook import FaultTolerantToomCook
from repro.core.multistep import MultiStepToomCook, _digit_reverse
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.plan import make_plan
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.obs.kernels import KernelCounters
from repro.util import rational

GEOMETRIES = [(k, l, f) for k in (2, 3) for l in (1, 2) for f in (1, 2)]
#: One Section 6.2 search at (k, l, f) = (3, 2, 2) takes ~21 s on a
#: 2-vCPU host (the other geometries at most ~1.8 s), and the reference
#: would repeat it: it stays outside this sweep's time budget.
SEARCH_BUDGET = [g for g in GEOMETRIES if g != (3, 2, 2)]


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_operator_cache()
    yield
    clear_operator_cache()


# -- the uncached references ---------------------------------------------


def fresh_points(k, l, f):
    base = grid_points(toom_points(k), l)
    return tuple(base + find_redundant_points(base, 2 * k - 1, l, f))


def fresh_coded_operator(k, l, points):
    rows = evaluation_matrix_multivariate(list(points), k, l).rows
    perm = [_digit_reverse(j, k, l) for j in range(k**l)]
    return BlockOperator.compile([[row[perm.index(b)] for b in range(k**l)] for row in rows])


def fresh_multivariate_decoder(points, r, l):
    return BlockOperator.compile(evaluation_matrix_multivariate(list(points), r, l).inv().rows)


def fresh_toom_operators(k, points):
    u, _, w_t = toom_operators(k, list(points))
    return BlockOperator.compile(u.rows), BlockOperator.compile(w_t.rows)


def fresh_coefficients(code, survivors, lost):
    g = code.generator_matrix()
    inv = rational.mat_inverse([list(g[i]) for i in survivors])
    return {
        i: {s: inv[i][j] for j, s in enumerate(survivors) if inv[i][j]}
        for i in lost
        if i < code.k
    }


def _plan(k, p, extra_dfs=0):
    return make_plan(600, p=p, k=k, word_bits=16, extra_dfs=extra_dfs)


def _watch_rational_work(monkeypatch, forbid):
    """Route every binding of ``mat_det`` and ``mat_inverse`` in the
    package through a recorder; ``forbid`` makes each call fail."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("repro") and m]
    for name in ("mat_det", "mat_inverse"):
        original = getattr(rational, name)

        def watched(*args, _name=name, _original=original):
            calls.append(_name)
            if forbid:
                raise AssertionError(f"{_name} ran on a warm geometry cache")
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, watched)
    return calls


# -- cached equals fresh ---------------------------------------------------


@pytest.mark.parametrize("k, l, f", SEARCH_BUDGET)
def test_multistep_points_operator_and_decoders_match_fresh(k, l, f):
    q = 2 * k - 1
    algo = MultiStepToomCook(_plan(k, q**l), l=l, f=f)
    points = fresh_points(k, l, f)
    assert multistep_evaluation_points(k, l, f) == points
    assert algo.multi_points == points
    assert algo.coded_op == fresh_coded_operator(k, l, points)
    need = q**l
    for chosen in (range(need), range(f, need + f), range(1, need + 1)):
        expected = fresh_multivariate_decoder([points[j] for j in chosen], q, l)
        assert algo._decoder(list(chosen)) == expected


@pytest.mark.parametrize("k, f", [(k, f) for k in (2, 3) for f in (0, 1, 2)])
def test_toom_operators_and_decoders_match_fresh(k, f):
    q = 2 * k - 1
    points = tuple(extended_toom_points(k, f))
    expected = fresh_toom_operators(k, points)
    assert toom_block_operators(k, points) == expected
    if f == 0:
        assert (ParallelToomCook(_plan(k, q)).U, ParallelToomCook(_plan(k, q)).W_T) == expected
        assert (LazyToomCook(k).U, LazyToomCook(k).W_T) == expected
        assert (ToomCook(k).U, ToomCook(k).W_T) == expected
        return
    algo = PolynomialCodedToomCook(_plan(k, q), f=f)
    assert (algo.U, algo.W_T) == expected
    for chosen in combinations(range(q + f), q):
        pts = [points[j] for j in chosen]
        decoder = BlockOperator.compile(interpolation_matrix_for_points(pts, q).rows)
        assert algo._decoder(list(chosen)) == decoder
        assert interpolation_operator(tuple(pts), q) == decoder
    assert evaluation_operator(points, q) == BlockOperator.compile(
        evaluation_matrix(list(points), q).rows
    )


@pytest.mark.parametrize("column, f", [(c, f) for c in (3, 5) for f in (1, 2)])
def test_recovery_coefficients_match_fresh(column, f):
    code = SystematicCode(column, f)
    n = column + f
    for erased in range(f + 1):
        for lost in combinations(range(n), erased):
            survivors = [i for i in range(n) if i not in lost][:column]
            cached = recovery_coefficients(code, survivors, list(lost))
            assert cached == fresh_coefficients(code, survivors, lost)
            # Codes compare by value: an equal code shares the entry.
            assert recovery_coefficients(SystematicCode(column, f), survivors, lost) is cached


# -- a warm cache does no rational work ----------------------------------


def _poly(schedule):
    return PolynomialCodedToomCook(_plan(2, 9), f=1, fault_schedule=schedule)


def _multistep(schedule):
    return MultiStepToomCook(_plan(2, 9), l=2, f=1, fault_schedule=schedule)


def _combined(schedule):
    return FaultTolerantToomCook(_plan(2, 9, extra_dfs=1), f=1, fault_schedule=schedule)


@pytest.mark.parametrize(
    "build, phase",
    [
        (_poly, "multiplication"),  # decoder of a surviving set with a code column
        (_multistep, "multiplication"),  # multivariate decoder
        (_combined, "evaluation"),  # column-code erasure coefficients
    ],
)
def test_warm_construction_and_decode_do_no_rational_work(build, phase, monkeypatch):
    rng = random.Random(7)
    a, b = rng.getrandbits(600), rng.getrandbits(590)

    def run():
        schedule = FaultSchedule([FaultEvent(rank=0, phase=phase, op_index=0)])
        product = build(schedule).multiply(a, b).product
        assert len(schedule.fired) == 1
        return product

    cold = _watch_rational_work(monkeypatch, forbid=False)
    assert run() == a * b
    assert "mat_inverse" in cold  # the cold run built what the decode needs
    _watch_rational_work(monkeypatch, forbid=True)
    assert run() == a * b


# -- read-only values and clearing ----------------------------------------


def test_callers_cannot_change_what_the_next_instance_sees():
    plan = _plan(2, 9)
    algo = MultiStepToomCook(plan, l=2, f=1)
    with pytest.raises(AttributeError):
        algo.multi_points.append(((7, 1), (7, 1)))
    with pytest.raises(TypeError):
        algo.multi_points[0] = ((7, 1), (7, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        algo.coded_op.rows = ()
    assert MultiStepToomCook(plan, l=2, f=1).multi_points == fresh_points(2, 2, 1)

    # An instance's own point list is a copy; the cache keys on its value.
    par = ParallelToomCook(plan)
    par.points.append((3, 1))
    assert ParallelToomCook(plan).points == toom_points(2)
    assert ParallelToomCook(plan).U == fresh_toom_operators(2, toom_points(2))[0]

    code = SystematicCode(3, 1)
    coeffs = recovery_coefficients(code, [1, 2, 3], [0])
    with pytest.raises(TypeError):
        coeffs[0] = {}
    with pytest.raises(TypeError):
        coeffs[0][1] = Fraction(5)
    assert recovery_coefficients(code, [1, 2, 3], [0]) == fresh_coefficients(
        code, [1, 2, 3], [0]
    )


def test_clear_operator_cache_empties_every_cache(monkeypatch):
    def warm():
        MultiStepToomCook(_plan(2, 9), l=2, f=1)._decoder(list(range(1, 10)))
        poly = PolynomialCodedToomCook(_plan(2, 9), f=1)
        poly._decoder([1, 2, 3])
        evaluation_operator(tuple(poly.points), 3)
        recovery_coefficients(SystematicCode(3, 1), [1, 2, 3], [0])
        ToomCook(3)

    warm()
    assert blockops._GEOMETRY
    calls = _watch_rational_work(monkeypatch, forbid=False)
    warm()
    assert calls == []
    clear_operator_cache()
    assert not blockops._GEOMETRY
    warm()
    assert {"mat_det", "mat_inverse"} <= set(calls)
    clear_operator_cache()
    counters = KernelCounters()
    ToomCook(2, counters=counters)
    assert (counters.eval_cache_hits, counters.eval_cache_misses) == (0, 1)


def test_racing_first_uses_all_get_the_stored_value():
    # More threads than cores race on one cold entry with a tiny switch
    # interval: some may build it twice, but every caller gets the one
    # value the cache stored.
    points = tuple(extended_toom_points(3, 2))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(toom_block_operators(3, points)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    stored = toom_block_operators(3, points)
    assert len(results) == 8 and all(r is stored for r in results)
    assert stored == fresh_toom_operators(3, points)
