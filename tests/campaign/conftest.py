"""Shared fixtures for the fault-campaign tests.

``broken_variant`` registers a deliberately defective test-only variant:
a tiny pure-Python "machine" whose rank 1 silently corrupts the result
when any fault fires on it.  The campaign must catch it as a
wrong-product defect, and the minimizer must shrink any failing schedule
down to the single rank-1 event.
"""

import pytest

from repro.campaign.registry import (
    Execution,
    VariantSpec,
    register_variant,
    unregister_variant,
)
from repro.core.layout import ROLE_STANDARD, CodeFamily, Cover, ErasureUnit, FaultGeometry

BROKEN_NAME = "test_broken"
BROKEN_RANKS = 3
BROKEN_OPS = 4


def _broken_execute(workload, schedule, cfg, trace=None):
    # A miniature fault-point loop: every (rank, op) consults the schedule
    # exactly like Communicator.fault_point does, so both the probing
    # schedule and real injection work against it.
    corrupted = 0
    for rank in range(BROKEN_RANKS):
        for op in range(BROKEN_OPS):
            ev = schedule.take(rank, "work", op, 0)
            if ev is not None and rank == 1:
                # The planted defect: rank 1 swallows the fault and
                # silently corrupts the result instead of failing loudly.
                corrupted += 1
    return Execution(
        actual=workload + corrupted,
        expected=workload,
        error=None,
        fired=tuple(schedule.fired),
    )


class _BrokenAlgorithm:
    """Claims that any one hard fault on any of its ranks is recovered."""

    def fault_geometry(self):
        units = tuple(ErasureUnit(ROLE_STANDARD, (r,)) for r in range(BROKEN_RANKS))
        family = CodeFamily("claimed", "trivial", 1, 1, (Cover(ROLE_STANDARD, "claimed"),))
        return FaultGeometry(None, BROKEN_RANKS, 1, units, families=(family,))


@pytest.fixture
def broken_variant():
    spec = VariantSpec(
        name=BROKEN_NAME,
        description="test-only: rank 1 silently corrupts on any fault",
        make_workload=lambda rng, cfg: rng.integer_bits(16),
        execute=_broken_execute,
        factory=lambda cfg, schedule: _BrokenAlgorithm(),
    )
    register_variant(spec)
    try:
        yield spec
    finally:
        unregister_variant(BROKEN_NAME)
