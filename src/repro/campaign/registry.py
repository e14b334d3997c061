"""The campaign's variant registry.

Every fault-tolerant (and deliberately non-tolerant) algorithm in the
repo registers here as a :class:`VariantSpec` so a campaign can enumerate
them uniformly: build a seeded workload, execute it under an arbitrary
:class:`~repro.machine.fault.FaultSchedule`, and build the algorithm
object a trial runs.  That object's
:class:`~repro.core.layout.FaultGeometry` is the variant's *tolerance
contract*: its code families say which faults it survives (the roles and
phases each covers) and how many (each family's redundancy).  The oracle
turns that contract into verdicts (:mod:`repro.campaign.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.machine.fault import FaultEvent, FaultSchedule
from repro.util.rng import DeterministicRNG

__all__ = [
    "CostContract",
    "Execution",
    "VariantSpec",
    "register_variant",
    "registered_variants",
    "get_variant",
]


@dataclass(frozen=True)
class Execution:
    """Outcome of running one variant under one fault schedule.

    ``actual``/``expected`` are opaque comparables (the product for the
    multiplication variants, the recovered state tuple for the protocol
    variants).  ``error`` is the escaped exception, if any; ``fired`` is
    the snapshot of schedule events that actually triggered (available
    even when the run raised, because the caller owns the schedule).
    """

    actual: Any
    expected: Any
    error: BaseException | None
    fired: tuple[FaultEvent, ...]


class CostContract(NamedTuple):
    """What commcheck holds a variant's fault-free communication to:
    ``formula(formulas, n_words, p, k, f_eff)`` picks its Theorem 5.1-5.3
    or Lemma 2.5 prediction, and the measured max-rank BW and L may reach
    ``tol_bw`` and ``tol_l`` times it (calibrated at P=9, k=2, f=1 and 600
    bits with ~2x headroom)."""

    formula: Callable[..., Any]
    tol_bw: float
    tol_l: float

    def predict(self, n_words: int, p: int, k: int, f_eff: int) -> Any:
        # The formulas load on first use: campaign setup never needs them.
        from repro.analysis import formulas

        return self.formula(formulas, n_words, p, k, f_eff)


@dataclass(frozen=True)
class VariantSpec:
    """One campaign-runnable algorithm variant.

    ``execute(workload, schedule, cfg, trace=None)`` runs one trial; the
    optional ``trace`` is a :class:`~repro.obs.tracer.Tracer` — the
    forensic re-run of a minimized failure passes a recording one, and
    the ``commcheck`` extractor and faultcheck's schedule prover a
    :class:`~repro.machine.record.ScheduleRecorder`.

    ``factory(cfg, schedule)`` builds the algorithm object a trial runs,
    whose ``fault_geometry()`` is the variant's one layout record and
    tolerance contract; ``cost`` is its :class:`CostContract`.
    """

    name: str
    description: str
    make_workload: Callable[[DeterministicRNG, Any], Any]
    execute: Callable[..., Execution]
    factory: Callable[[Any, FaultSchedule], Any]
    cost: CostContract | None = None

    def fault_geometry(self, cfg: Any) -> Any:
        """The algorithm's :class:`~repro.core.layout.FaultGeometry`."""
        return self.factory(cfg, FaultSchedule()).fault_geometry()


_REGISTRY: dict[str, VariantSpec] = {}


def register_variant(spec: VariantSpec) -> VariantSpec:
    """Register ``spec`` (replacing any previous spec of the same name —
    tests register throwaway broken variants under fresh names)."""
    _REGISTRY[spec.name] = spec
    return spec


def registered_variants() -> list[VariantSpec]:
    """All registered variants in registration order (deterministic: the
    built-ins register at import time, in source order)."""
    return list(_REGISTRY.values())


def get_variant(name: str) -> VariantSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown variant {name!r} (registered: {known})") from None


def unregister_variant(name: str) -> None:
    """Remove a variant (test clean-up for throwaway registrations)."""
    _REGISTRY.pop(name, None)


# -- workload / execution helpers -------------------------------------------


def _operand_workload(rng: DeterministicRNG, cfg: Any) -> tuple[int, int]:
    return rng.integer_bits(cfg.bits), rng.integer_bits(max(1, cfg.bits - 10))


def _multiply_execution(
    algo: Any, a: int, b: int, schedule: FaultSchedule
) -> Execution:
    try:
        # raise_on_error=True is the loud-failure convention the oracle
        # relies on: beyond-tolerance runs must raise, never return a
        # placeholder product.
        out = algo.multiply(a, b, raise_on_error=True)
    except Exception as exc:  # noqa: BLE001 - the oracle classifies it
        return Execution(
            actual=None, expected=a * b, error=exc, fired=tuple(schedule.fired)
        )
    return Execution(
        actual=out.product, expected=a * b, error=None, fired=tuple(schedule.fired)
    )


def _multiply_variant(
    name: str,
    description: str,
    factory: Callable[[Any, FaultSchedule], Any],
    cost: CostContract,
) -> VariantSpec:
    def execute(
        workload: Any,
        schedule: FaultSchedule,
        cfg: Any,
        trace: Any = None,
    ) -> Execution:
        a, b = workload
        try:
            algo = factory(cfg, schedule)
        except Exception as exc:  # noqa: BLE001 - surfaced as a trial error
            return Execution(actual=None, expected=a * b, error=exc, fired=())
        if trace is not None:
            algo.trace = trace
        return _multiply_execution(algo, a, b, schedule)

    return register_variant(
        VariantSpec(
            name=name,
            description=description,
            make_workload=_operand_workload,
            execute=execute,
            factory=factory,
            cost=cost,
        )
    )


def _plan(cfg: Any, extra_dfs: int = 0) -> Any:
    from repro.core.plan import make_plan

    return make_plan(
        cfg.bits, p=cfg.p, k=cfg.k, word_bits=cfg.word_bits, extra_dfs=extra_dfs
    )


# -- built-in variants -------------------------------------------------------


def _register_builtins() -> None:
    from repro.core.checkpoint import CheckpointedToomCook
    from repro.core.ft_polynomial import PolynomialCodedToomCook
    from repro.core.ft_toomcook import FaultTolerantToomCook
    from repro.core.multistep import MultiStepToomCook
    from repro.core.parallel_toomcook import ParallelToomCook
    from repro.core.replication import ReplicatedToomCook
    from repro.core.soft_faults import SoftTolerantToomCook

    _multiply_variant(
        "parallel",
        "plain Parallel Toom-Cook — tolerates nothing; every fault must fail loudly",
        lambda cfg, sched: ParallelToomCook(
            _plan(cfg), fault_schedule=sched, timeout=cfg.timeout
        ),
        CostContract(lambda fm, n, p, k, f: fm.parallel_toomcook_costs(n, p, k), 35.0, 11.0),
    )

    register_variant(_ft_linear_spec())

    _multiply_variant(
        "ft_polynomial",
        "polynomial code: f redundant evaluation columns cover the "
        "multiplication window (Section 4.2)",
        lambda cfg, sched: PolynomialCodedToomCook(
            _plan(cfg), f=cfg.f, fault_schedule=sched, timeout=cfg.timeout
        ),
        CostContract(lambda fm, n, p, k, f: fm.ft_toomcook_costs(n, p, k, f), 27.0, 8.0),
    )

    _multiply_variant(
        "ft_toomcook",
        "combined linear+polynomial coded algorithm with task boundaries "
        "(Section 4, Theorem 5.2)",
        lambda cfg, sched: FaultTolerantToomCook(
            _plan(cfg, extra_dfs=1), f=cfg.f, fault_schedule=sched, timeout=cfg.timeout
        ),
        CostContract(lambda fm, n, p, k, f: fm.ft_toomcook_costs(n, p, k, f), 50.0, 30.0),
    )

    _multiply_variant(
        "soft_faults",
        "soft-fault hardened interpolation: detects f, corrects floor(f/2) "
        "silent miscalculations (Section 7)",
        # The soft variant runs with doubled redundancy.
        lambda cfg, sched: SoftTolerantToomCook(
            _plan(cfg), f=2 * cfg.f, fault_schedule=sched, timeout=cfg.timeout
        ),
        CostContract(lambda fm, n, p, k, f: fm.ft_toomcook_costs(n, p, k, f), 25.0, 8.0),
    )

    _multiply_variant(
        "checkpoint",
        "diskless checkpoint-restart baseline with global rollback",
        lambda cfg, sched: CheckpointedToomCook(
            _plan(cfg), f=cfg.f, fault_schedule=sched, timeout=cfg.timeout
        ),
        CostContract(lambda fm, n, p, k, f: fm.parallel_toomcook_costs(n, p, k), 38.0, 12.0),
    )

    _multiply_variant(
        "replication",
        "f+1 independent copies baseline (Theorem 5.3) — any f faults anywhere",
        lambda cfg, sched: ReplicatedToomCook(
            _plan(cfg), f=cfg.f, fault_schedule=sched, timeout=cfg.timeout
        ),
        CostContract(lambda fm, n, p, k, f: fm.replication_costs(n, p, k, f), 35.0, 11.0),
    )

    def _multistep_factory(cfg: Any, sched: FaultSchedule) -> Any:
        plan = _plan(cfg)
        return MultiStepToomCook(
            plan,
            l=min(2, plan.l_bfs),
            f=cfg.f,
            fault_schedule=sched,
            timeout=cfg.timeout,
        )

    _multiply_variant(
        "multistep",
        "l combined BFS steps with multivariate polynomial coding "
        "(Sections 4.3/6.1)",
        _multistep_factory,
        CostContract(lambda fm, n, p, k, f: fm.ft_toomcook_costs(n, p, k, f), 21.0, 16.0),
    )


# -- the ft_linear protocol variant ------------------------------------------

#: Standard processors in the ft_linear variant's probed column, and the
#: words of state each one holds.
FT_LINEAR_COLUMN = 3
FT_LINEAR_STATE_WORDS = 8
_FT_LINEAR_WORK_OPS = 6


class _FtLinearProgram:
    """The ft_linear rank program (encode -> work -> boundary -> recover).

    A module-level class (not a closure) so the process backend can
    pickle it into rank processes; instances carry only plain data."""

    def __init__(self, code: Any, word_bits: int, size: int) -> None:
        self.code = code
        self.word_bits = word_bits
        self.size = size

    def fault_geometry(self) -> Any:
        """The column code's record, its cover narrowed to the work
        window: the program rebuilds only state lost between encoding
        and the boundary."""
        geometry = self.code.fault_geometry()
        family = geometry.families[0]
        covers = tuple(cover._replace(phases=("work",)) for cover in family.covers)
        return geometry._replace(families=(family._replace(covers=covers),))

    def __call__(
        self, comm: Any, limbs: tuple[int, ...] | None
    ) -> tuple[int, ...] | None:
        from repro.bigint.limbs import LimbVector
        from repro.machine.errors import HardFault, MachineError

        code = self.code
        all_ranks = list(range(self.size))
        state = (
            LimbVector(list(limbs), self.word_bits) if limbs is not None else None
        )
        word = None
        lost = False
        try:
            with comm.phase("code-creation"):
                if comm.rank < FT_LINEAR_COLUMN:
                    code.encode(comm, state, epoch=0)
                else:
                    word = code.encode(comm, None, epoch=0)
            # A member that died mid-encode never casts this vote, so
            # the poll below detects a half-built code deterministically
            # (votes land before the gate; later deaths already voted).
            comm.vote(("encode-ok", 0), True)
            with comm.phase("work"):
                for _ in range(_FT_LINEAR_WORK_OPS):
                    comm.charge_flops(4)
        except HardFault:
            state = None
            word = None
            lost = True
        comm.gate(("boundary", 0), all_ranks)
        votes = comm.poll_votes(("encode-ok", 0))
        if len(votes) < self.size:
            # The code epoch is invalid — there is no earlier epoch to
            # fall back to, so recovery is impossible: fail loudly
            # rather than decode garbage from a partial reduce.
            raise MachineError(
                "fault during code creation: epoch 0 is incomplete"
            )
        dead = comm.agree_dead(("dead", 0), all_ranks)
        if lost:
            comm.begin_replacement(purge=False)
        dead_standard = sorted(r for r in dead if r < FT_LINEAR_COLUMN)
        stale_codes = sorted(r for r in dead if r >= FT_LINEAR_COLUMN)
        if dead_standard:
            with comm.phase("recovery"):
                recovered = code.recover(
                    comm,
                    dead=dead_standard,
                    my_state=state,
                    my_code_word=word,
                    epoch=1,
                    excluded=stale_codes,
                )
            if comm.rank in dead_standard:
                state = recovered
        if comm.rank >= FT_LINEAR_COLUMN or state is None:
            return None
        return tuple(state.limbs)


def _ft_linear_spec() -> VariantSpec:
    """The Section 4.1 column code exercised as a standalone protocol.

    One grid column of 3 standard processors plus ``f`` code rows runs
    encode -> work window -> boundary agreement -> recovery; the oracle
    checks that every standard rank ends the run holding its original
    state (replacements must have it rebuilt by the code)."""
    from repro.core.ft_linear import ColumnCode

    def factory(cfg: Any, schedule: FaultSchedule) -> _FtLinearProgram:
        size = FT_LINEAR_COLUMN + cfg.f
        code = ColumnCode(
            column=list(range(FT_LINEAR_COLUMN)),
            code_ranks=list(range(FT_LINEAR_COLUMN, size)),
        )
        return _FtLinearProgram(code, cfg.word_bits, size)

    def make_workload(rng: DeterministicRNG, cfg: Any) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(
                rng.integer_range(0, (1 << cfg.word_bits) - 1)
                for _ in range(FT_LINEAR_STATE_WORDS)
            )
            for _ in range(FT_LINEAR_COLUMN)
        )

    def execute(
        workload: Any,
        schedule: FaultSchedule,
        cfg: Any,
        trace: Any = None,
    ) -> Execution:
        from repro.machine.engine import Machine

        program = factory(cfg, schedule)
        machine = Machine(
            program.size,
            word_bits=cfg.word_bits,
            fault_schedule=schedule,
            timeout=cfg.timeout,
            trace=trace,
        )
        rank_args = [(w,) for w in workload] + [(None,)] * cfg.f
        try:
            run = machine.run(program, rank_args=rank_args)
        except Exception as exc:  # noqa: BLE001 - the oracle classifies it
            return Execution(
                actual=None,
                expected=tuple(workload),
                error=exc,
                fired=tuple(schedule.fired),
            )
        return Execution(
            actual=tuple(run.results[: FT_LINEAR_COLUMN]),
            expected=tuple(workload),
            error=None,
            fired=tuple(schedule.fired),
        )

    return VariantSpec(
        name="ft_linear",
        description="linear (Vandermonde) column code protecting persistent "
        "state (Section 4.1), run as a standalone protocol",
        make_workload=make_workload,
        execute=execute,
        factory=factory,
        cost=CostContract(
            lambda fm, n, p, k, f: fm.t_reduce_costs(
                f, FT_LINEAR_STATE_WORDS, FT_LINEAR_COLUMN + f
            ),
            4.0,
            4.0,
        ),
    )


_register_builtins()
