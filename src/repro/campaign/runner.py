"""Campaign orchestration: probe, sample, execute, classify, minimize.

:func:`run_campaign` drives the full loop for every selected variant and
returns a :class:`CampaignResult` ready for the text/JSON reporters.
:func:`run_trial` is the public replay entry point that minimized-failure
repro snippets call — same workload derivation, same oracle, one
schedule.

Determinism: all randomness flows from ``CampaignConfig.seed`` through
per-variant spawned :class:`~repro.util.rng.DeterministicRNG` streams
(keyed by a CRC of the variant name, so adding a variant never perturbs
another's draws), executions are virtual-time deterministic, and every
aggregate goes through :class:`~repro.obs.metrics.MetricsRegistry`'s
sorted read-out — two same-seed campaigns render byte-identical reports.

Parallelism: because each variant's streams are independent, variants
fan out across worker processes (``run_campaign(cfg, jobs=N)``, CLI
``--jobs N``) with no effect on the report: every worker runs the same
per-variant code against the same derived seeds, reports come back in
registry order, and worker metrics are folded into the campaign registry
variant by variant, so ``--jobs 4`` output is byte-identical to
``--jobs 1``.  At ``jobs=1`` the pool starts no process — it is the
exact serial code path.  Pool-level host metrics (task durations,
retries) are wall-clock and therefore deliberately kept out of the
report; pass ``pool_metrics=`` to collect them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.campaign.minimize import minimize_schedule
from repro.campaign.oracle import DEFECT_VERDICTS, classify, schedule_budget
from repro.campaign.probe import ProbeFailure, probe_variant
from repro.campaign.registry import Execution, VariantSpec, get_variant, registered_variants
from repro.campaign.sampler import ScheduleSampler
from repro.core.layout import FaultGeometry
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.obs.forensics import fault_timeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.util.env import backend_scope
from repro.util.rng import DeterministicRNG

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "FailureReport",
    "ReplayOutcome",
    "TrialRecord",
    "VariantReport",
    "run_campaign",
    "run_trial",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign run (also the workload/geometry context the
    variant factories read)."""

    seed: int = 0
    trials: int = 25
    variants: tuple[str, ...] | None = None
    bits: int = 600
    word_bits: int = 16
    p: int = 9
    k: int = 2
    f: int = 1
    timeout: float = 15.0
    minimize: bool = True
    max_minimize: int = 3  # defects minimized per variant
    minimize_probes: int = 48  # re-executions allowed per minimization


@dataclass(frozen=True)
class TrialRecord:
    """One classified trial."""

    variant: str
    index: int
    shape: str
    budget: str  # "must" | "may"
    verdict: str
    events: tuple[FaultEvent, ...]
    # Whether any scheduled event actually triggered.  A boolean, not a
    # count: when one hard fault's abort cascade races another event's
    # rank to its fault point, the exact count is scheduling-dependent,
    # but "at least one fired" is decided on the deterministic
    # fault-free prefix of the run.
    fired: bool


@dataclass(frozen=True)
class FailureReport:
    """A defect, minimized and ready to reproduce."""

    variant: str
    trial_index: int
    verdict: str
    error: str  # "ExceptionType: message" or "" for silent defects
    events: tuple[FaultEvent, ...]
    minimized: tuple[FaultEvent, ...]
    minimize_probes: int
    minimize_exhausted: bool
    forensics: tuple[str, ...]
    snippet: str


@dataclass(frozen=True)
class VariantReport:
    """All campaign output for one variant."""

    name: str
    description: str
    probe_error: str | None
    cells: int  # measured fault-point cells
    phases: tuple[str, ...]
    trials: tuple[TrialRecord, ...]
    failures: tuple[FailureReport, ...]

    @property
    def verdict_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.trials:
            out[t.verdict] = out.get(t.verdict, 0) + 1
        return {k: out[k] for k in sorted(out)}

    @property
    def defects(self) -> int:
        return sum(1 for t in self.trials if t.verdict in DEFECT_VERDICTS)


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    variants: tuple[VariantReport, ...]
    metrics: MetricsRegistry = field(compare=False)

    @property
    def defects(self) -> int:
        return sum(v.defects for v in self.variants) + sum(
            1 for v in self.variants if v.probe_error is not None
        )

    @property
    def ok(self) -> bool:
        return self.defects == 0


@dataclass(frozen=True)
class ReplayOutcome:
    """What :func:`run_trial` returns — enough to assert a verdict and dig
    into the raw execution."""

    variant: str
    budget: str
    verdict: str
    events: tuple[FaultEvent, ...]
    execution: Execution = field(compare=False)


def _stream(name: str) -> int:
    """Stable per-variant RNG stream id (``hash()`` is salted per
    process, so a CRC keeps streams reproducible across runs)."""
    return zlib.crc32(name.encode("ascii")) & 0xFFFF


def _workload_rng(seed: int, variant: str) -> DeterministicRNG:
    return DeterministicRNG(seed).spawn(2 * _stream(variant))


def _sampler_rng(seed: int, variant: str) -> DeterministicRNG:
    return DeterministicRNG(seed).spawn(2 * _stream(variant) + 1)


def _error_string(exc: BaseException | None) -> str:
    if exc is None:
        return ""
    return f"{type(exc).__name__}: {exc}"


def _render_snippet(
    variant: str, cfg: CampaignConfig, events: Sequence[FaultEvent], verdict: str
) -> str:
    """A copy-pasteable reproduction of a minimized failure."""
    lines = [
        "from repro.campaign import run_trial",
        "from repro.machine.fault import FaultEvent",
        "",
        "out = run_trial(",
        f"    {variant!r},",
        f"    seed={cfg.seed},",
        "    events=[",
    ]
    for ev in events:
        args = [f"rank={ev.rank}", f"phase={ev.phase!r}", f"op_index={ev.op_index}"]
        if ev.incarnation:
            args.append(f"incarnation={ev.incarnation}")
        if ev.kind != "hard":
            args.append(f"kind={ev.kind!r}")
        lines.append(f"        FaultEvent({', '.join(args)}),")
    lines += [
        "    ],",
        f"    bits={cfg.bits}, word_bits={cfg.word_bits}, p={cfg.p}, "
        f"k={cfg.k}, f={cfg.f}, timeout={cfg.timeout},",
        ")",
        f"assert out.verdict == {verdict!r}, out.verdict",
    ]
    return "\n".join(lines)


def _minimize_failure(
    spec: VariantSpec,
    geometry: FaultGeometry,
    workload: object,
    cfg: CampaignConfig,
    trial_index: int,
    events: Sequence[FaultEvent],
    verdict: str,
    execution: Execution,
    metrics: MetricsRegistry,
) -> FailureReport:
    """Shrink a failing schedule, then re-run it traced for forensics."""

    def is_failing(candidate: list[FaultEvent]) -> bool:
        schedule = FaultSchedule(list(candidate))
        ex = spec.execute(workload, schedule, cfg)
        return classify(ex, schedule_budget(candidate, geometry)) == verdict

    if cfg.minimize and events:
        result = minimize_schedule(
            events, is_failing, max_probes=cfg.minimize_probes
        )
        minimized = tuple(result.events)
        probes, exhausted = result.probes, result.exhausted
    else:
        minimized, probes, exhausted = tuple(events), 0, False
    metrics.inc("campaign_minimize_probes_total", probes, variant=spec.name)
    metrics.gauge_max(
        "campaign_minimized_events", len(minimized), variant=spec.name
    )
    tracer = RecordingTracer()
    # Forensic replays always run on the simulator: tracing is sim-only
    # (the proc backend refuses a tracer), and the minimized schedule is
    # backend-independent, so the traced timeline is valid either way.
    with backend_scope("sim"):
        spec.execute(workload, FaultSchedule(list(minimized)), cfg, tracer)
    return FailureReport(
        variant=spec.name,
        trial_index=trial_index,
        verdict=verdict,
        error=_error_string(execution.error),
        events=tuple(events),
        minimized=minimized,
        minimize_probes=probes,
        minimize_exhausted=exhausted,
        forensics=tuple(fault_timeline(tracer.events())),
        snippet=_render_snippet(spec.name, cfg, minimized, verdict),
    )


def _run_variant(
    spec: VariantSpec, cfg: CampaignConfig, metrics: MetricsRegistry
) -> VariantReport:
    workload = spec.make_workload(_workload_rng(cfg.seed, spec.name), cfg)
    try:
        opspace, _ = probe_variant(spec, workload, cfg)
    except ProbeFailure as exc:
        metrics.inc("campaign_probe_failures_total", variant=spec.name)
        return VariantReport(
            name=spec.name,
            description=spec.description,
            probe_error=str(exc),
            cells=0,
            phases=(),
            trials=(),
            failures=(),
        )
    metrics.gauge_set("campaign_op_cells", len(opspace), variant=spec.name)
    geometry = spec.fault_geometry(cfg)
    sampler = ScheduleSampler(_sampler_rng(cfg.seed, spec.name), geometry, opspace)
    trials: list[TrialRecord] = []
    failures: list[FailureReport] = []
    for index in range(cfg.trials):
        shape, events = sampler.draw()
        schedule = FaultSchedule(list(events))
        execution = spec.execute(workload, schedule, cfg)
        budget = schedule_budget(events, geometry)
        verdict = classify(execution, budget)
        metrics.inc("campaign_trials_total", variant=spec.name, verdict=verdict)
        metrics.inc(
            "campaign_fault_counts_total", variant=spec.name, faults=len(events)
        )
        for ev in events:
            metrics.inc(
                "campaign_injected_total",
                variant=spec.name,
                phase=ev.phase,
                kind=ev.kind,
            )
        trials.append(
            TrialRecord(
                variant=spec.name,
                index=index,
                shape=shape,
                budget=budget,
                verdict=verdict,
                events=tuple(events),
                fired=bool(execution.fired),
            )
        )
        if verdict in DEFECT_VERDICTS and len(failures) < cfg.max_minimize:
            failures.append(
                _minimize_failure(
                    spec, geometry, workload, cfg, index, events, verdict, execution, metrics
                )
            )
    return VariantReport(
        name=spec.name,
        description=spec.description,
        probe_error=None,
        cells=len(opspace),
        phases=tuple(opspace.phases()),
        trials=tuple(trials),
        failures=tuple(failures),
    )


def _run_variant_task(
    name: str, cfg: CampaignConfig
) -> tuple[VariantReport, MetricsRegistry]:
    """Worker-side unit of the parallel campaign: one variant, its own
    registry (module-level so the worker pool can pickle it)."""
    metrics = MetricsRegistry()
    report = _run_variant(get_variant(name), cfg, metrics)
    return report, metrics


def run_campaign(
    cfg: CampaignConfig,
    jobs: int = 1,
    pool_metrics: MetricsRegistry | None = None,
) -> CampaignResult:
    """Run the campaign over ``cfg.variants`` (default: all registered).

    ``jobs`` fans the variants out over that many worker processes
    (``1`` = the pool's exact serial path, no process).  The report is
    byte-identical either way; a worker crash or abandoned variant
    surfaces as a loud :class:`~repro.parallel.WorkerPoolError`, never a
    silently missing variant.  ``pool_metrics`` optionally receives the
    pool's host-side series (task durations, retries) — kept out of the
    returned result so its JSON stays deterministic.
    """
    if cfg.trials < 1:
        raise ValueError("trials must be positive")
    names = (
        list(cfg.variants)
        if cfg.variants
        else [s.name for s in registered_variants()]
    )
    from repro.parallel import Task, WorkerPool

    metrics = MetricsRegistry()
    outcomes = WorkerPool(jobs=jobs, metrics=pool_metrics).run(
        [Task(fn=_run_variant_task, args=(n, cfg), key=n) for n in names]
    )
    reports = []
    for _name, (report, variant_metrics) in zip(names, outcomes):
        reports.append(report)
        # Per-variant series are disjoint (every series is labeled with
        # the variant name), so folding in submission order reproduces
        # the serial registry exactly.
        metrics.merge(variant_metrics)
    return CampaignResult(config=cfg, variants=tuple(reports), metrics=metrics)


def run_trial(
    variant: str,
    seed: int = 0,
    events: Sequence[FaultEvent] = (),
    *,
    bits: int = 600,
    word_bits: int = 16,
    p: int = 9,
    k: int = 2,
    f: int = 1,
    timeout: float = 15.0,
    trace: object = None,
) -> ReplayOutcome:
    """Replay one schedule against one variant — the entry point used by
    minimized-failure repro snippets.  The workload is derived exactly as
    :func:`run_campaign` derives it, so a snippet reproduces the campaign
    trial bit-for-bit."""
    cfg = CampaignConfig(
        seed=seed, bits=bits, word_bits=word_bits, p=p, k=k, f=f, timeout=timeout
    )
    spec = get_variant(variant)
    workload = spec.make_workload(_workload_rng(seed, variant), cfg)
    schedule = FaultSchedule(list(events))
    execution = spec.execute(workload, schedule, cfg, trace)
    budget = schedule_budget(events, spec.fault_geometry(cfg))
    return ReplayOutcome(
        variant=variant,
        budget=budget,
        verdict=classify(execution, budget),
        events=tuple(events),
        execution=execution,
    )
