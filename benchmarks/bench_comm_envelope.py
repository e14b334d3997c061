"""Communication envelope — measured BW/L vs. the commcheck certifier.

Runs every core algorithm variant once, reads its measured bandwidth and
latency back from the published ``phase_cost`` gauges (the same series
the traced view consumes), and holds the totals to the *same* per-variant
tolerance envelope the ``python -m repro commcheck`` CI gate enforces.
One PASS/FAIL line per variant: if a change pushes any variant's
communication volume past its certified envelope, this benchmark and the
commcheck gate fail together.
"""

from _common import comm_envelope_line, emit, once, operands, plan_for

from repro.core.checkpoint import CheckpointedToomCook
from repro.core.ft_polynomial import PolynomialCodedToomCook
from repro.core.ft_toomcook import FaultTolerantToomCook
from repro.core.multistep import MultiStepToomCook
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.replication import ReplicatedToomCook
from repro.core.soft_faults import SoftTolerantToomCook

N_BITS = 1200
P, K, F = 9, 2, 1

VARIANTS = [
    ("parallel", lambda plan: ParallelToomCook(plan)),
    ("ft_polynomial", lambda plan: PolynomialCodedToomCook(plan, f=F)),
    ("ft_toomcook", lambda plan: FaultTolerantToomCook(plan, f=F)),
    ("replication", lambda plan: ReplicatedToomCook(plan, f=F)),
    ("checkpoint", lambda plan: CheckpointedToomCook(plan, f=F)),
    ("multistep", lambda plan: MultiStepToomCook(plan, l=1, f=F)),
    ("soft_faults", lambda plan: SoftTolerantToomCook(plan, f=F)),
]


def test_measured_costs_within_certifier_envelope(benchmark):
    a, b = operands(N_BITS, seed=21)
    plan = plan_for(N_BITS, P, K)

    def run():
        rows = []
        for name, build in VARIANTS:
            algo = build(plan)
            out = algo.multiply(a, b)
            assert out.product == a * b
            # Each row is priced at the redundancy its algorithm ran with.
            f_eff = algo.fault_geometry().f_eff
            rows.append(comm_envelope_line(name, out, plan.n_words, P, K, f_eff))
        return rows
    rows = once(benchmark, run)
    lines = [line for _passed, line in rows]
    emit(
        "comm_envelope",
        "Communication envelope (commcheck certifier bounds, "
        f"n={N_BITS} bits, P={P}, k={K}, f={F})\n" + "\n".join(lines),
        cells={
            f"{name}/envelope_ok": int(passed)
            for (name, _fn), (passed, _line) in zip(VARIANTS, rows)
        },
    )
    failed = [line for passed, line in rows if not passed]
    assert not failed, "measured communication exceeded the certified envelope:\n" + "\n".join(failed)
