"""The four end-to-end workloads.

Each workload splits one operation into three steps so that only the
library call is timed:

- ``inputs(i)`` derives op ``i``'s inputs from the run seed (untimed),
- ``execute(inputs)`` makes the library call (timed),
- ``check(inputs, outcome)`` verifies the result and returns an
  :class:`OpResult` whose ``cost`` is the deterministic fingerprint that
  ``golden.json`` pins (untimed).

The workloads load different layers on purpose (see README.md): the
fault-free FT multiply is ~95% rank-local Toom kernel, the Toom-3 fault
workload adds task boundaries and recovery, the 4096-rank grid runs the
Section 4.1 column-code protocol with no bigint work at all, and the
campaign weighs per-run construction, probing and oracle costs.

``build`` constructs everything a workload reuses across ops; the
benchmark times it in fresh interpreters as ``setup_s``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

DEFAULT_SEED = 0
WORKLOADS = ("ft_mul", "ft_k3_faults", "grid_4096", "campaign")


@dataclass
class OpResult:
    """Verdict of one op.  ``cost`` is JSON-serialisable; ``fired`` and
    ``scheduled`` count fault events (trials, for the campaign)."""

    ok: bool
    cost: Any
    detail: str = ""
    fired: int = 0
    scheduled: int = 0


def _operands(tag: str, bits: int) -> tuple[int, int]:
    rng = random.Random(tag)
    top = 1 << (bits - 1)
    return rng.getrandbits(bits) | top, rng.getrandbits(bits) | top


def _costs(run: Any) -> list[int]:
    cp = run.critical_path
    return [cp.f, cp.bw, cp.l]


def _check_multiply(a: int, b: int, out: Any, schedule: Any = None) -> OpResult:
    # run.ok must be checked: a run that fails without raising (for
    # example MemoryExceeded under m_words) returns product=0.
    cost = _costs(out.run)
    scheduled = len(schedule.events) + len(schedule.fired) if schedule else 0
    fired = len(schedule.fired) if schedule else 0
    if not out.run.ok:
        return OpResult(False, cost, f"run failed: {out.run.errors!r}", fired, scheduled)
    if out.product != a * b:
        return OpResult(False, cost, "product is not a*b", fired, scheduled)
    if fired != scheduled:
        return OpResult(False, cost, f"{scheduled - fired} fault(s) did not fire", fired, scheduled)
    return OpResult(True, cost, "", fired, scheduled)


class FtMul:
    """``multiply_fault_tolerant`` at k=2, f=1, fault-free: the paper's
    headline operation at the ROADMAP reference size."""

    name = "ft_mul"

    def __init__(self, seed: int, smoke: bool):
        from repro.core.api import multiply_fault_tolerant

        self._multiply = multiply_fault_tolerant
        self.seed = seed
        self.bits, self.p = (2000, 9) if smoke else (20000, 27)
        self.standard_ranks = self.p

    def inputs(self, i: int) -> tuple[int, int]:
        return _operands(f"{self.name}:{self.seed}:{i}", self.bits)

    def execute(self, inputs: tuple[int, int]) -> Any:
        a, b = inputs
        return self._multiply(a, b, p=self.p, k=2, f=1, word_bits=64)

    def check(self, inputs: tuple[int, int], out: Any) -> OpResult:
        return _check_multiply(*inputs, out)

    def reference(self, inputs: tuple[int, int]) -> bool:
        """Plain single-threaded multiply of the same operands (the
        ``bigint.seq_ref_frac`` baseline); True when it is exact."""
        from repro.bigint.lazy import LazyToomCook

        a, b = inputs
        return LazyToomCook(2, threshold_bits=64).multiply(a, b)[0] == a * b


# (role, index within role, phase, op index).  The ranks cover standard
# ranks in all three traversal phases, the polynomial-code columns in
# multiplication and the linear-code rows in code creation; every op
# index exists in both profiles' op spaces.
_K3_EVENTS = (
    ("std", 0, "evaluation", 0),
    ("std", 6, "evaluation", 5),
    ("std", 12, "evaluation", 10),
    ("std", 3, "multiplication", 0),
    ("std", 17, "multiplication", 0),
    ("std", 9, "interpolation", 0),
    ("std", 24, "interpolation", 5),
    ("poly", 0, "multiplication", 0),
    ("poly", 2, "multiplication", 0),
    ("poly", 4, "multiplication", 0),
    ("lin", 0, "code-creation", 0),
    ("lin", 4, "code-creation", 0),
)


class FtK3Faults:
    """Toom-3 ``FaultTolerantToomCook`` with one DFS step (5 task
    boundaries) and one hard fault per op from ``_K3_EVENTS``."""

    name = "ft_k3_faults"

    def __init__(self, seed: int, smoke: bool):
        from repro.core.ft_toomcook import FaultTolerantToomCook
        from repro.core.plan import make_plan

        self.seed = seed
        self.bits, self.p = (1500, 5) if smoke else (20000, 25)
        self.standard_ranks = self.p
        self.algo = FaultTolerantToomCook(
            make_plan(self.bits, p=self.p, k=3, extra_dfs=1), f=1
        )

    def event(self, i: int) -> Any:
        from repro.machine.fault import FaultEvent

        role, index, phase, op = _K3_EVENTS[i % len(_K3_EVENTS)]
        p, q = self.p, self.algo.plan.q
        base, span = {"std": (0, p), "lin": (p, q), "poly": (p + q, p // q)}[role]
        return FaultEvent(rank=base + index % span, phase=phase, op_index=op)

    def inputs(self, i: int) -> tuple[int, int, Any]:
        from repro.machine.fault import FaultSchedule

        a, b = _operands(f"{self.name}:{self.seed}:{i}", self.bits)
        return a, b, FaultSchedule([self.event(i)])

    def execute(self, inputs: tuple[int, int, Any]) -> Any:
        a, b, schedule = inputs
        self.algo.fault_schedule = schedule
        return self.algo.multiply(a, b)

    def check(self, inputs: tuple[int, int, Any], out: Any) -> OpResult:
        a, b, schedule = inputs
        return _check_multiply(a, b, out, schedule)

    def reference(self, inputs: tuple[int, int, Any]) -> bool:
        from repro.bigint.lazy import LazyToomCook

        a, b, _ = inputs
        return LazyToomCook(3, threshold_bits=64).multiply(a, b)[0] == a * b


_GRID_WORD_BITS = 16
_GRID_STATE_LIMBS = 64
_GRID_WIDTH = 3  # standard ranks per column; one code rank follows them
_GRID_WORK_OPS = 4


class GridProgram:
    """Section 4.1 column-code protocol on an interleaved grid.

    Column ``c`` owns ranks ``[4c, 4c+4)``: three standard ranks then one
    code rank.  Each column encodes, runs a work window, passes its own
    gate and failure agreement, and rebuilds a lost standard rank's state
    with ``ColumnCode.recover``.  Module-level and plain-data so the
    program stays picklable like the repo's other rank programs.
    """

    def __init__(self, columns: int):
        from repro.core.ft_linear import ColumnCode

        self.stride = _GRID_WIDTH + 1
        self.codes = [
            ColumnCode(
                column=[c * self.stride + i for i in range(_GRID_WIDTH)],
                code_ranks=[c * self.stride + _GRID_WIDTH],
            )
            for c in range(columns)
        ]

    def __call__(self, comm: Any, limbs: tuple[int, ...] | None) -> Any:
        from repro.bigint.limbs import LimbVector
        from repro.machine.errors import HardFault

        col = comm.rank // self.stride
        code = self.codes[col]
        members = code.column + code.code_ranks
        state = LimbVector(list(limbs), _GRID_WORD_BITS) if limbs is not None else None
        with comm.phase("code-creation"):
            word = code.encode(comm, state, epoch=0)
        lost = False
        try:
            with comm.phase("work"):
                for _ in range(_GRID_WORK_OPS):
                    comm.charge_flops(4)
        except HardFault:
            state, lost = None, True
        comm.gate(("boundary", col), members)
        dead = comm.agree_dead(("boundary", col), members)
        if lost:
            comm.begin_replacement(purge=False)
        if dead:
            with comm.phase("recovery"):
                rebuilt = code.recover(
                    comm, dead=sorted(dead), my_state=state, my_code_word=word, epoch=1
                )
            if lost:
                state = rebuilt
        return tuple(state.limbs) if state is not None else None


class Grid4096:
    """``Machine(4096)``: 1024 columns of 3 standard + 1 code rank, 128
    seeded columns lose one standard rank in ``work``."""

    name = "grid_4096"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.columns, self.faults = (32, 4) if smoke else (1024, 128)
        self.size = self.columns * (_GRID_WIDTH + 1)
        self.standard_ranks = 0  # ranks below this run useful leaves; the grid runs none
        self.program = GridProgram(self.columns)

    def inputs(self, i: int) -> tuple[list, Any]:
        from repro.machine.fault import FaultEvent, FaultSchedule

        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        stride = _GRID_WIDTH + 1
        rank_args = [
            (tuple(rng.getrandbits(_GRID_WORD_BITS) for _ in range(_GRID_STATE_LIMBS)),)
            if r % stride < _GRID_WIDTH
            else (None,)
            for r in range(self.size)
        ]
        events = [
            FaultEvent(
                rank=col * stride + rng.randrange(_GRID_WIDTH),
                phase="work",
                op_index=rng.randrange(_GRID_WORK_OPS),
            )
            for col in sorted(rng.sample(range(self.columns), self.faults))
        ]
        return rank_args, FaultSchedule(events)

    def execute(self, inputs: tuple[list, Any]) -> Any:
        from repro.machine.engine import Machine

        rank_args, schedule = inputs
        machine = Machine(self.size, word_bits=_GRID_WORD_BITS, fault_schedule=schedule)
        return machine.run(self.program, rank_args=rank_args, raise_on_error=False)

    def check(self, inputs: tuple[list, Any], run: Any) -> OpResult:
        rank_args, schedule = inputs
        cost = _costs(run)
        fired = len(schedule.fired)
        if not run.ok:
            return OpResult(False, cost, f"run failed: {run.errors!r}", fired, self.faults)
        if fired != self.faults:
            return OpResult(False, cost, f"{self.faults - fired} fault(s) did not fire",
                            fired, self.faults)
        stride = _GRID_WIDTH + 1
        lost = [r for r in range(self.size)
                if r % stride < _GRID_WIDTH and run.results[r] != rank_args[r][0]]
        if lost:
            return OpResult(False, cost, f"state not restored on ranks {lost[:8]}",
                            fired, self.faults)
        return OpResult(True, cost, "", fired, self.faults)


_CAMPAIGN_VARIANTS = ("parallel", "ft_linear", "ft_polynomial", "ft_toomcook", "checkpoint",
                      "replication", "multistep")
_SMOKE_VARIANTS = ("ft_linear", "ft_toomcook")


class Campaign:
    """``run_campaign`` over the fault-tolerance variants, serial, one
    trial each: the CI fault-campaign workflow, dominated by many small
    ``Machine.run`` calls.  One trial keeps the op near 3.5 s, so a run
    takes its median over several ops.

    ``soft_faults`` is left out: beyond its budget (two soft faults with
    f=2) it can return a wrong product silently, which the oracle reports
    as a defect for some seeds (campaign seed 909274423, for one), and an
    op must not fail on a defect the benchmark did not introduce.
    """

    name = "campaign"

    def __init__(self, seed: int, smoke: bool):
        from repro.campaign import CampaignConfig, run_campaign
        from repro.campaign.report import to_json

        self._config, self._run, self._to_json = CampaignConfig, run_campaign, to_json
        self.seed = seed
        self.smoke = smoke
        self.standard_ranks = CampaignConfig().p

    def inputs(self, i: int) -> Any:
        campaign_seed = random.Random(f"{self.name}:{self.seed}:{i}").getrandbits(31)
        variants = _SMOKE_VARIANTS if self.smoke else _CAMPAIGN_VARIANTS
        return self._config(seed=campaign_seed, trials=1, variants=variants)

    def execute(self, cfg: Any) -> Any:
        return self._run(cfg)

    def check(self, cfg: Any, result: Any) -> OpResult:
        digest = hashlib.sha256(self._to_json(result).encode()).hexdigest()
        trials = [t for v in result.variants for t in v.trials]
        fired = sum(1 for t in trials if t.fired)
        detail = "" if result.ok else f"{result.defects} campaign defect(s)"
        return OpResult(result.ok, digest, detail, fired, len(trials))


_CLASSES = {cls.name: cls for cls in (FtMul, FtK3Faults, Grid4096, Campaign)}


def build(name: str, seed: int, smoke: bool = False) -> Any:
    """Construct workload ``name`` with everything its ops reuse."""
    return _CLASSES[name](seed, smoke)
