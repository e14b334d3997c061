"""Drive extraction -> checking -> certification across variants."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.campaign.runner import CampaignConfig
from repro.commcheck.certify import Certification, certify
from repro.commcheck.checker import Finding, check_graph
from repro.commcheck.extract import (
    COMMCHECK_VARIANTS,
    ExtractionError,
    extract_variant,
    make_config,
)
from repro.commcheck.graph import CommGraph

__all__ = ["CommCheckResult", "run_commcheck", "render_text", "to_json"]


@dataclass
class VariantReport:
    variant: str
    graph: CommGraph | None
    findings: list[Finding]
    certification: Certification | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        if any(f.severity == "error" for f in self.findings):
            return False
        return self.certification is None or self.certification.passed


@dataclass
class CommCheckResult:
    config: CampaignConfig
    phase: str | None
    reports: list[VariantReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _extract_task(name: str, cfg: CampaignConfig) -> tuple[Any, str | None]:
    """Worker-side unit of the parallel extractor: run one variant's
    recorded fault-free execution.  Extraction failures travel back as
    data — the gate reports them per variant instead of aborting the
    sweep — while any *other* exception propagates and fails loudly.
    """
    try:
        return extract_variant(name, cfg), None
    except ExtractionError as exc:
        return None, str(exc)


def run_commcheck(
    variants: list[str] | tuple[str, ...] | None = None,
    cfg: CampaignConfig | None = None,
    phase: str | None = None,
    tolerance_scale: float = 1.0,
    jobs: int = 1,
) -> CommCheckResult:
    """Extract, check, and certify each requested variant.

    An extraction failure is reported (and fails the gate) rather than
    raised, so one broken variant does not mask the others' reports.

    ``jobs`` fans the per-variant extraction runs (the expensive part —
    each is a full threaded-machine execution) across worker processes;
    checking and certification stay in-process.  Extraction is
    fault-free and deterministic, so the canonical graph JSON is
    byte-identical for any ``jobs``; the pool's ``jobs=1`` is the exact
    serial path.
    """
    from repro.parallel import Task, WorkerPool

    cfg = cfg or make_config()
    names = list(variants) if variants else list(COMMCHECK_VARIANTS)
    result = CommCheckResult(config=cfg, phase=phase)
    extracted = WorkerPool(jobs=jobs).run(
        [Task(fn=_extract_task, args=(name, cfg), key=name) for name in names]
    )
    for name, (graph, error) in zip(names, extracted):
        if error is not None:
            result.reports.append(
                VariantReport(
                    variant=name,
                    graph=None,
                    findings=[],
                    certification=None,
                    error=error,
                )
            )
            continue
        findings = check_graph(graph, phase=phase)
        certification = certify(graph, tolerance_scale=tolerance_scale)
        result.reports.append(
            VariantReport(
                variant=name,
                graph=graph,
                findings=findings,
                certification=certification,
            )
        )
    return result


def render_text(result: CommCheckResult) -> str:
    """Human-readable report: one block per variant, one verdict line."""
    lines: list[str] = []
    cfg = result.config
    lines.append(
        f"commcheck: P={cfg.p} k={cfg.k} f={cfg.f} bits={cfg.bits} "
        f"word_bits={cfg.word_bits}"
        + (f" phase={result.phase}" if result.phase else "")
    )
    for report in result.reports:
        if report.error is not None:
            lines.append(f"[FAIL] {report.variant}: extraction failed: {report.error}")
            continue
        graph = report.graph
        assert graph is not None
        counts = {"error": 0, "warning": 0, "info": 0}
        for finding in report.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        status = "PASS" if report.ok else "FAIL"
        lines.append(
            f"[{status}] {report.variant}: ranks={len(graph.ranks)} "
            f"ops={graph.op_count()} messages={graph.message_count()} "
            f"errors={counts['error']} warnings={counts['warning']} "
            f"info={counts['info']}"
        )
        for finding in report.findings:
            if finding.severity == "info":
                continue
            lines.append(
                f"    {finding.severity.upper()} {finding.check}: "
                f"{finding.message}"
            )
        cert = report.certification
        if cert is not None:
            verdict = "PASS" if cert.passed else "FAIL"
            lines.append(f"    cost [{verdict}]: {cert.detail}")
    verdict = "PASS" if result.ok else "FAIL"
    lines.append(
        f"commcheck {verdict}: "
        f"{sum(1 for r in result.reports if r.ok)}/{len(result.reports)} "
        "variants clean"
    )
    return "\n".join(lines)


def to_json(result: CommCheckResult, include_graphs: bool = True) -> dict[str, Any]:
    """Machine-readable report / CI artifact."""
    cfg = result.config
    payload: dict[str, Any] = {
        "config": {
            "p": cfg.p,
            "k": cfg.k,
            "f": cfg.f,
            "bits": cfg.bits,
            "word_bits": cfg.word_bits,
            "seed": cfg.seed,
        },
        "phase": result.phase,
        "ok": result.ok,
        "variants": [],
    }
    for report in result.reports:
        entry: dict[str, Any] = {
            "variant": report.variant,
            "ok": report.ok,
            "error": report.error,
            "findings": [f.as_dict() for f in report.findings],
            "certification": (
                report.certification.as_dict() if report.certification else None
            ),
        }
        if include_graphs and report.graph is not None:
            entry["graph"] = {
                "meta": report.graph.meta,
                "ranks": {
                    str(r): report.graph.ranks[r]
                    for r in sorted(report.graph.ranks)
                },
            }
        payload["variants"].append(entry)
    return payload
