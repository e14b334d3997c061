"""``python -m repro check`` — the one-stop static-analysis gate.

Runs all three analyzers in their CI configuration, in dependency-light
order, with a per-analyzer wall-time summary at the end:

1. **lint** — AST rules over the source tree (``repro.lint``);
2. **commcheck** — fault-free schedule extraction, structural checks,
   cost certification (``repro.commcheck``);
3. **faultcheck** — exhaustive fault-space certification
   (``repro.faultcheck``), optionally writing the byte-deterministic
   certificate artifact.

CI calls this entry point so the gate wiring lives in one place: adding
an analyzer here adds it to every CI pipeline and to every developer's
pre-push habit simultaneously.  Each analyzer runs even when an earlier
one fails — one red gate must not hide another's findings — and the
meta-runner's exit code is the OR of all three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["AnalyzerRun", "CheckResult", "ANALYZERS", "run_check", "render_summary"]

#: Analyzer names in execution order.
ANALYZERS = ("lint", "commcheck", "faultcheck")


@dataclass
class AnalyzerRun:
    """One analyzer's outcome inside the meta-gate."""

    name: str
    exit_code: int
    seconds: float
    summary: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "exit_code": self.exit_code,
            "seconds": round(self.seconds, 2),
            "summary": self.summary,
        }


@dataclass
class CheckResult:
    runs: list[AnalyzerRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _run_lint(jobs: int, emit: Callable[[str], None]) -> tuple[int, str]:
    from repro.lint.cli import run_lint

    # Same scope as the CI gate: the source tree (tests are covered by
    # ruff and by being executed).
    code, report = run_lint(["src"])
    if report:
        emit(report)
    return code, "clean" if code == 0 else "violations"


def _run_commcheck(jobs: int, emit: Callable[[str], None]) -> tuple[int, str]:
    from repro.commcheck import render_text, run_commcheck

    result = run_commcheck(jobs=jobs)
    emit(render_text(result))
    clean = sum(1 for r in result.reports if r.ok)
    return result.exit_code, f"{clean}/{len(result.reports)} variants clean"


def _make_faultcheck(
    cert_path: str | None,
) -> Callable[[int, Callable[[str], None]], tuple[int, str]]:
    def _run_faultcheck(
        jobs: int, emit: Callable[[str], None]
    ) -> tuple[int, str]:
        from repro.faultcheck import certificate_json, render_text, run_faultcheck

        result = run_faultcheck(jobs=jobs)
        emit(render_text(result))
        if cert_path:
            with open(cert_path, "w") as fh:
                fh.write(certificate_json(result))
            emit(f"faultcheck certificate written to {cert_path}")
        certified = sum(1 for c in result.certificates if c.ok)
        points = sum(
            c.space.total_points
            for c in result.certificates
            if c.space is not None
        )
        return (
            result.exit_code,
            f"{certified}/{len(result.certificates)} variants, "
            f"{points} fault points",
        )

    return _run_faultcheck


def run_check(
    jobs: int = 1,
    only: list[str] | None = None,
    faultcheck_cert: str | None = None,
    emit: Callable[[str], None] = print,
) -> CheckResult:
    """Run the requested analyzers (default: all three) and time each.

    ``jobs`` fans the machine-replay-heavy analyzers (commcheck,
    faultcheck) across worker processes.  ``emit`` receives each
    analyzer's full report as it completes, so progress is visible on
    long runs.
    """
    runners: dict[str, Callable[[int, Callable[[str], None]], tuple[int, str]]] = {
        "lint": _run_lint,
        "commcheck": _run_commcheck,
        "faultcheck": _make_faultcheck(faultcheck_cert),
    }
    names = [n for n in ANALYZERS if only is None or n in only]
    if only is not None:
        unknown = set(only) - set(ANALYZERS)
        if unknown:
            raise SystemExit(
                f"unknown analyzer(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(ANALYZERS)})"
            )
    result = CheckResult()
    for name in names:
        emit(f"=== {name} ===")
        start = time.monotonic()
        code, summary = runners[name](jobs, emit)
        elapsed = time.monotonic() - start
        result.runs.append(
            AnalyzerRun(
                name=name, exit_code=code, seconds=elapsed, summary=summary
            )
        )
    return result


def render_summary(result: CheckResult) -> str:
    """The per-analyzer timing table and the overall verdict."""
    lines = ["", "analyzer    status  seconds  summary"]
    for run in result.runs:
        status = "PASS" if run.ok else "FAIL"
        lines.append(
            f"{run.name:<11} {status:<7} {run.seconds:>6.1f}  {run.summary}"
        )
    verdict = "PASS" if result.ok else "FAIL"
    lines.append(
        f"check {verdict}: {sum(1 for r in result.runs if r.ok)}"
        f"/{len(result.runs)} analyzers clean"
    )
    return "\n".join(lines)
