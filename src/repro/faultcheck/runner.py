"""Drive the four faultcheck provers and emit the certificate.

Per variant: enumerate the fault space (:mod:`repro.faultcheck.space`),
prove decodability per erasure family (:mod:`repro.faultcheck.decode`),
replay every tolerated/delay class through the commcheck checker on
fault-annotated graphs (:mod:`repro.faultcheck.schedule`), push every
class one fault past its budget (:mod:`repro.faultcheck.exhaust`), and
cross-check the campaign sampler against the enumerated space
(:mod:`repro.faultcheck.coverage`).

The certificate is byte-deterministic: no wall-clock times, no absolute
paths, canonical JSON (sorted keys, fixed separators) — the CI artifact
can be diffed across runs and any change is a real behavioural change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.runner import CampaignConfig
from repro.commcheck.extract import make_config
from repro.faultcheck.coverage import (
    DEFAULT_COVERAGE_TRIALS,
    CoverageReport,
    check_coverage,
)
from repro.faultcheck.decode import DecodeReport, prove_decodability
from repro.faultcheck.exhaust import ExhaustReport, prove_exhaustion
from repro.faultcheck.schedule import ScheduleReport, prove_schedules
from repro.faultcheck.space import (
    FAULTCHECK_VARIANTS,
    FaultSpace,
    enumerate_space,
)

__all__ = [
    "VariantCertificate",
    "FaultCheckResult",
    "run_faultcheck",
    "render_text",
    "to_json",
    "certificate_json",
]


@dataclass
class VariantCertificate:
    """Everything proven about one variant's fault space."""

    variant: str
    error: str | None = None
    space: FaultSpace | None = None
    decode: DecodeReport | None = None
    schedule: ScheduleReport | None = None
    exhaust: ExhaustReport | None = None
    coverage: CoverageReport | None = None

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        return all(
            part is not None and part.ok
            for part in (self.decode, self.schedule, self.exhaust, self.coverage)
        )

    @property
    def warnings(self) -> list[str]:
        out: list[str] = []
        if self.coverage is not None:
            for cid in self.coverage.never_sampled:
                out.append(
                    f"class {cid} never sampled in "
                    f"{self.coverage.trials} campaign draws — covered only "
                    "by the static certifier"
                )
        return out

    def as_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "variant": self.variant,
            "ok": self.ok,
            "error": self.error,
            "warnings": self.warnings,
        }
        if self.space is not None:
            entry["space"] = self.space.summary()
            entry["classes"] = [c.as_dict() for c in self.space.classes]
        entry["decode"] = self.decode.as_dict() if self.decode else None
        entry["schedule"] = self.schedule.as_dict() if self.schedule else None
        entry["exhaust"] = self.exhaust.as_dict() if self.exhaust else None
        entry["coverage"] = self.coverage.as_dict() if self.coverage else None
        return entry


@dataclass
class FaultCheckResult:
    config: CampaignConfig
    coverage_trials: int
    certificates: list[VariantCertificate] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cert.ok for cert in self.certificates)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _variant_task(
    name: str,
    cfg: CampaignConfig,
    coverage_trials: int,
    tolerance_scale: float,
) -> VariantCertificate:
    """Worker-side unit: the full prover pipeline for one variant.

    Prover failures travel back as data so one broken variant does not
    mask the others' certificates; any bug in faultcheck itself still
    propagates loudly.
    """
    cert = VariantCertificate(variant=name)
    try:
        cert.space = enumerate_space(name, cfg)
        cert.decode = prove_decodability(cert.space)
        cert.schedule = prove_schedules(
            cert.space, tolerance_scale=tolerance_scale
        )
        cert.exhaust = prove_exhaustion(cert.space)
        cert.coverage = check_coverage(cert.space, trials=coverage_trials)
    except RuntimeError as exc:
        cert.error = f"{type(exc).__name__}: {exc}"
    return cert


def run_faultcheck(
    variants: list[str] | tuple[str, ...] | None = None,
    cfg: CampaignConfig | None = None,
    coverage_trials: int = DEFAULT_COVERAGE_TRIALS,
    tolerance_scale: float = 1.0,
    jobs: int = 1,
) -> FaultCheckResult:
    """Certify each requested variant's complete fault space.

    ``jobs`` fans the per-variant pipelines (dozens of machine replays
    each) across worker processes; every prover is seeded and replayed
    deterministically, so the certificate is byte-identical for any
    ``jobs``.  The pool's ``jobs=1`` is the exact serial path.
    """
    from repro.parallel import Task, WorkerPool

    cfg = cfg or make_config()
    names = list(variants) if variants else list(FAULTCHECK_VARIANTS)
    result = FaultCheckResult(config=cfg, coverage_trials=coverage_trials)
    certs = WorkerPool(jobs=jobs).run(
        [
            Task(
                fn=_variant_task,
                args=(name, cfg, coverage_trials, tolerance_scale),
                key=name,
            )
            for name in names
        ]
    )
    result.certificates = list(certs)
    return result


def render_text(result: FaultCheckResult) -> str:
    """Human-readable certificate summary: one block per variant."""
    lines: list[str] = []
    cfg = result.config
    lines.append(
        f"faultcheck: P={cfg.p} k={cfg.k} f={cfg.f} bits={cfg.bits} "
        f"word_bits={cfg.word_bits} coverage_trials={result.coverage_trials}"
    )
    for cert in result.certificates:
        if cert.error is not None:
            lines.append(f"[FAIL] {cert.variant}: {cert.error}")
            continue
        assert cert.space is not None
        summary = cert.space.summary()
        status = "PASS" if cert.ok else "FAIL"
        assert cert.schedule is not None
        assert cert.exhaust is not None
        assert cert.coverage is not None
        assert cert.decode is not None
        loud = sum(1 for c in cert.exhaust.checks if c.loud)
        survived = sum(
            1 for c in cert.exhaust.checks if c.verdict == "exact-beyond-budget"
        )
        lines.append(
            f"[{status}] {cert.variant}: points={summary['points']} "
            f"classes={summary['classes']} "
            f"families={len(cert.decode.families)} "
            f"replays={len(cert.schedule.replays)} "
            f"exhaust={len(cert.exhaust.checks)} "
            f"(loud={loud} survived={survived}) "
            f"coverage={cert.coverage.events} events"
        )
        for part_name, part in (
            ("decode", cert.decode),
            ("schedule", cert.schedule),
            ("exhaust", cert.exhaust),
        ):
            for problem in part.problems:
                lines.append(f"    ERROR {part_name}: {problem}")
        for alien in cert.coverage.aliens:
            lines.append(f"    ERROR coverage: {alien}")
        for warning in cert.warnings:
            lines.append(f"    WARN coverage: {warning}")
    verdict = "PASS" if result.ok else "FAIL"
    total_points = sum(
        cert.space.total_points
        for cert in result.certificates
        if cert.space is not None
    )
    lines.append(
        f"faultcheck {verdict}: "
        f"{sum(1 for c in result.certificates if c.ok)}"
        f"/{len(result.certificates)} variants certified, "
        f"{total_points} fault points enumerated"
    )
    return "\n".join(lines)


def to_json(result: FaultCheckResult) -> dict[str, Any]:
    """Machine-readable certificate (CI artifact)."""
    cfg = result.config
    return {
        "config": {
            "p": cfg.p,
            "k": cfg.k,
            "f": cfg.f,
            "bits": cfg.bits,
            "word_bits": cfg.word_bits,
            "seed": cfg.seed,
        },
        "coverage_trials": result.coverage_trials,
        "ok": result.ok,
        "variants": [cert.as_dict() for cert in result.certificates],
    }


def certificate_json(result: FaultCheckResult) -> str:
    """Canonical byte-deterministic serialization of the certificate."""
    return json.dumps(
        to_json(result), sort_keys=True, separators=(",", ":"), indent=None
    )
