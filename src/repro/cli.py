"""Command-line interface.

::

    python -m repro multiply 123456789 987654321 --k 3
    python -m repro multiply 0x1p500 12345 --parallel 9 --ft 1 --fault 4:multiplication:0
    python -m repro multiply 0x1p4000 0x1p4000 --parallel 9 --ft 1 --trace-out /tmp/t.json
    python -m repro trace 0x1p4000 0x1p4000 --parallel 9 --ft 1 --fault 4:multiplication:0
    python -m repro plan --bits 100000 --p 27 --k 2 --memory 500
    python -m repro predict --bits 100000 --p 27 --k 2
    python -m repro demo
    python -m repro lint src --format json
    python -m repro lint --list-rules
    python -m repro campaign --seed 1 --trials 25
    python -m repro campaign --jobs 4 --seed 1 --trials 100
    python -m repro campaign --variants ft_toomcook,soft_faults --json
    python -m repro commcheck --all-variants
    python -m repro commcheck --all-variants --jobs 4
    python -m repro commcheck --variants ft_polynomial --phase interpolation
    python -m repro faultcheck --all-variants --jobs 4
    python -m repro faultcheck --variants ft_linear --json
    python -m repro faultcheck --all-variants --cert-out /tmp/faultcert.json
    python -m repro check --jobs 4
    python -m repro check --only lint,faultcheck --faultcheck-cert /tmp/cert.json
    python -m repro perf list
    python -m repro perf compare --advisory-wall
    python -m repro perf report --last 8
    python -m repro perf bless --suite collectives

Numbers accept decimal, ``0x...`` hex, or ``0b...`` binary, plus the
shorthand ``0x1pN`` for ``2**N``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

__all__ = ["main", "build_parser", "parse_number", "parse_fault"]


def parse_number(text: str) -> int:
    """Parse an integer literal (decimal/hex/binary, or ``0x1pN``)."""
    text = text.strip()
    if "p" in text.lower() and text.lower().startswith("0x1p"):
        return 1 << int(text[4:])
    try:
        return int(text, 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer literal: {text!r}") from exc


def parse_fault(text: str):
    """Parse ``rank:phase:op[:kind[:factor]]`` into a FaultEvent."""
    from repro.machine.fault import FaultEvent

    parts = text.split(":")
    if len(parts) < 3:
        raise argparse.ArgumentTypeError(
            "fault must be rank:phase:op[:kind[:factor]]"
        )
    rank, phase, op = int(parts[0]), parts[1], int(parts[2])
    kind = parts[3] if len(parts) > 3 else "hard"
    factor = float(parts[4]) if len(parts) > 4 else 8.0
    try:
        return FaultEvent(rank=rank, phase=phase, op_index=op, kind=kind, factor=factor)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def parse_gantt_width(text: str) -> int:
    try:
        width = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if width < 10:
        raise argparse.ArgumentTypeError("width must be at least 10")
    return width


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-Tolerant Parallel Integer Multiplication (SPAA 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mul = sub.add_parser("multiply", help="multiply two integers")
    mul.add_argument("a", type=parse_number)
    mul.add_argument("b", type=parse_number)
    mul.add_argument("--k", type=int, default=2, help="Toom-Cook split factor")
    mul.add_argument("--word-bits", type=int, default=32)
    mul.add_argument(
        "--parallel", type=int, metavar="P", default=0,
        help="run on a simulated P-processor machine (P a power of 2k-1)",
    )
    mul.add_argument(
        "--ft", type=int, metavar="F", default=0,
        help="tolerate F hard faults (implies --parallel)",
    )
    mul.add_argument(
        "--fault", type=parse_fault, action="append", default=[],
        metavar="RANK:PHASE:OP[:KIND[:FACTOR]]",
        help="inject a fault (repeatable)",
    )
    mul.add_argument("--json", action="store_true", help="machine-readable output")
    mul.add_argument(
        "--backend", choices=("sim", "proc"), default=None,
        help="machine backend: sim (in-process) or proc (one OS process per "
        "rank); default: the REPRO_BACKEND environment variable",
    )
    mul.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record a virtual-time trace and write it to PATH "
        "(.jsonl for JSON-lines, anything else for Chrome/Perfetto JSON); "
        "implies --parallel",
    )

    trace = sub.add_parser(
        "trace",
        help="run a traced multiplication and print the virtual-time report",
    )
    trace.add_argument("a", type=parse_number)
    trace.add_argument("b", type=parse_number)
    trace.add_argument("--k", type=int, default=2, help="Toom-Cook split factor")
    trace.add_argument("--word-bits", type=int, default=32)
    trace.add_argument(
        "--parallel", type=int, metavar="P", default=9,
        help="simulated processor count (a power of 2k-1)",
    )
    trace.add_argument(
        "--ft", type=int, metavar="F", default=0,
        help="tolerate F hard faults",
    )
    trace.add_argument(
        "--fault", type=parse_fault, action="append", default=[],
        metavar="RANK:PHASE:OP[:KIND[:FACTOR]]",
        help="inject a fault (repeatable)",
    )
    trace.add_argument(
        "--out", metavar="PATH", default=None,
        help="also export the trace (.jsonl or Chrome/Perfetto JSON)",
    )
    trace.add_argument(
        "--width", type=parse_gantt_width, default=72, help="Gantt chart width"
    )
    trace.add_argument("--alpha", type=float, default=1.0, help="cost per message")
    trace.add_argument("--beta", type=float, default=1.0, help="cost per word")
    trace.add_argument("--gamma", type=float, default=1.0, help="cost per flop")

    plan = sub.add_parser("plan", help="show the BFS/DFS execution plan")
    plan.add_argument("--bits", type=int, required=True)
    plan.add_argument("--p", type=int, required=True)
    plan.add_argument("--k", type=int, default=2)
    plan.add_argument("--word-bits", type=int, default=64)
    plan.add_argument("--memory", type=float, default=math.inf, help="M in words")
    plan.add_argument("--json", action="store_true")

    predict = sub.add_parser(
        "predict", help="predicted Theta-costs (Theorems 5.1-5.3)"
    )
    predict.add_argument("--bits", type=int, required=True)
    predict.add_argument("--p", type=int, required=True)
    predict.add_argument("--k", type=int, default=2)
    predict.add_argument("--f", type=int, default=1)
    predict.add_argument("--word-bits", type=int, default=64)
    predict.add_argument("--memory", type=float, default=math.inf)
    predict.add_argument("--json", action="store_true")

    sub.add_parser("demo", help="one-minute fault-tolerance demonstration")

    lint = sub.add_parser(
        "lint", help="project-specific static analysis (see docs/STATIC_ANALYSIS.md)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "github"], default="text",
        help="report format (github emits ::error workflow annotations)",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULE",
        help="run only the named rule id (repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )

    camp = sub.add_parser(
        "campaign",
        help="randomized fault-injection campaign (see docs/FAULT_CAMPAIGNS.md)",
    )
    camp.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    camp.add_argument(
        "--trials", type=int, default=25, help="trials per variant (default 25)"
    )
    camp.add_argument(
        "--variants", default=None, metavar="NAMES",
        help="comma-separated variant names (default: all registered)",
    )
    camp.add_argument(
        "--list-variants", action="store_true",
        help="print the variant registry and exit",
    )
    camp.add_argument("--bits", type=int, default=600, help="operand bits (default 600)")
    camp.add_argument(
        "--word-bits", type=int, default=16, help="machine word width (default 16)"
    )
    camp.add_argument(
        "--timeout", type=float, default=15.0,
        help="per-receive deadlock timeout in seconds (default 15)",
    )
    camp.add_argument(
        "--no-minimize", action="store_true",
        help="skip delta-debugging of failing schedules",
    )
    camp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan variants out over N worker processes (default 1 = serial; "
        "the report is byte-identical either way, see docs/PARALLELISM.md)",
    )
    camp.add_argument(
        "--json", action="store_true", help="print the JSON report instead of text"
    )
    camp.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="also write the JSON report to PATH",
    )
    camp.add_argument(
        "--backend", choices=("sim", "proc"), default=None,
        help="machine backend for trial runs: sim (in-process) or proc (one "
        "OS process per rank); default: the REPRO_BACKEND environment "
        "variable",
    )

    cc = sub.add_parser(
        "commcheck",
        help="static communication-protocol analysis (see docs/STATIC_ANALYSIS.md)",
    )
    cc.add_argument(
        "--all-variants", action="store_true",
        help="check every registered variant (the CI gate)",
    )
    cc.add_argument(
        "--variants", default=None, metavar="NAMES",
        help="comma-separated variant names (default: all)",
    )
    cc.add_argument(
        "--list-variants", action="store_true",
        help="print the checkable variants and exit",
    )
    cc.add_argument("--p", type=int, default=9, help="processor count (default 9)")
    cc.add_argument("--k", type=int, default=2, help="Toom-Cook split factor")
    cc.add_argument("--f", type=int, default=1, help="fault budget (default 1)")
    cc.add_argument("--bits", type=int, default=600, help="operand bits (default 600)")
    cc.add_argument(
        "--word-bits", type=int, default=16, help="machine word width (default 16)"
    )
    cc.add_argument(
        "--timeout", type=float, default=15.0,
        help="per-receive deadlock timeout in seconds (default 15)",
    )
    cc.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    cc.add_argument(
        "--phase", default=None, metavar="NAME",
        help="restrict reported findings to one phase (triage)",
    )
    cc.add_argument(
        "--tolerance-scale", type=float, default=1.0,
        help="multiply every certifier tolerance by this factor",
    )
    cc.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="extract variants in N worker processes (default 1 = serial; "
        "graphs are byte-identical either way)",
    )
    cc.add_argument(
        "--json", action="store_true", help="print the JSON report instead of text"
    )
    cc.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the JSON report (with comm graphs) to PATH",
    )
    cc.add_argument(
        "--backend", choices=("sim", "proc"), default=None,
        help="machine backend for extraction runs: sim (in-process) or proc "
        "(one OS process per rank; the conformance gate byte-compares the "
        "two); default: the REPRO_BACKEND environment variable",
    )

    fc = sub.add_parser(
        "faultcheck",
        help="exhaustive static fault-space certifier (see docs/STATIC_ANALYSIS.md)",
    )
    fc.add_argument(
        "--all-variants", action="store_true",
        help="certify every registered variant (the CI gate)",
    )
    fc.add_argument(
        "--variants", default=None, metavar="NAMES",
        help="comma-separated variant names (default: all)",
    )
    fc.add_argument(
        "--list-variants", action="store_true",
        help="print the certifiable variants and exit",
    )
    fc.add_argument("--p", type=int, default=9, help="processor count (default 9)")
    fc.add_argument("--k", type=int, default=2, help="Toom-Cook split factor")
    fc.add_argument("--f", type=int, default=1, help="fault budget (default 1)")
    fc.add_argument("--bits", type=int, default=600, help="operand bits (default 600)")
    fc.add_argument(
        "--word-bits", type=int, default=16, help="machine word width (default 16)"
    )
    fc.add_argument(
        "--timeout", type=float, default=15.0,
        help="per-receive deadlock timeout in seconds (default 15)",
    )
    fc.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    fc.add_argument(
        "--coverage-trials", type=int, default=200, metavar="N",
        help="campaign draws to re-derive for the coverage cross-check "
        "(default 200; pure RNG, no machine runs)",
    )
    fc.add_argument(
        "--tolerance-scale", type=float, default=1.0,
        help="multiply the fault-mode cost envelopes by this factor",
    )
    fc.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="certify variants in N worker processes (default 1 = serial; "
        "the certificate is byte-identical either way)",
    )
    fc.add_argument(
        "--json", action="store_true",
        help="print the JSON certificate instead of text",
    )
    fc.add_argument(
        "--cert-out", metavar="PATH", default=None,
        help="write the canonical byte-deterministic certificate to PATH "
        "(the CI artifact)",
    )

    chk = sub.add_parser(
        "check",
        help="run all three static analyzers (lint, commcheck, faultcheck) "
        "with a timing summary — the one-stop CI gate",
    )
    chk.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated analyzer subset (lint,commcheck,faultcheck); "
        "default: all",
    )
    chk.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the replay-heavy analyzers (default 1)",
    )
    chk.add_argument(
        "--faultcheck-cert", metavar="PATH", default=None,
        help="write the faultcheck certificate artifact to PATH",
    )

    perf = sub.add_parser(
        "perf",
        help="benchmark telemetry store: trajectories, regression gate, "
        "trend dashboard (see docs/OBSERVABILITY.md)",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    def _perf_common(p):
        p.add_argument(
            "--dir", metavar="PATH", default=None,
            help="trajectory directory holding BENCH_<suite>.json files "
            "(default: REPRO_PERF_DIR, else the current directory)",
        )
        p.add_argument(
            "--baseline", metavar="PATH", default=None,
            help="pinned-baseline directory (default: REPRO_PERF_BASELINE, "
            "else benchmarks/baselines)",
        )
        p.add_argument(
            "--suite", action="append", default=[], metavar="NAME",
            help="restrict to one suite (repeatable; default: all)",
        )

    perf_list = perf_sub.add_parser("list", help="suites and record counts")
    _perf_common(perf_list)

    perf_cmp = perf_sub.add_parser(
        "compare",
        help="diff each suite's newest record against its pinned baseline; "
        "exact cells must match bit-for-bit, wall-clock gets a tolerance band",
    )
    _perf_common(perf_cmp)
    perf_cmp.add_argument(
        "--wall-tolerance", type=float, default=0.25, metavar="FRAC",
        help="wall-clock tolerance band as a fraction of baseline (default 0.25)",
    )
    perf_cmp.add_argument(
        "--advisory-wall", action="store_true",
        help="report wall-clock drift without failing the gate (CI default)",
    )
    perf_cmp.add_argument(
        "--json", action="store_true", help="machine-readable findings"
    )

    perf_rep = perf_sub.add_parser(
        "report", help="ASCII trend dashboard (sparkline per cell)"
    )
    _perf_common(perf_rep)
    perf_rep.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the newest N records per suite",
    )

    perf_bless = perf_sub.add_parser(
        "bless",
        help="pin each suite's newest trajectory record as its new baseline",
    )
    _perf_common(perf_bless)
    return parser


def _cmd_multiply(args) -> int:
    from repro.core.api import multiply, multiply_fault_tolerant, multiply_parallel
    from repro.machine.fault import FaultSchedule

    expected = args.a * args.b
    if args.trace_out and args.parallel == 0 and args.ft == 0:
        args.parallel = 9
    if args.parallel == 0 and args.ft == 0:
        product = multiply(args.a, args.b, k=args.k, word_bits=args.word_bits)
        payload = {"product": str(product), "exact": product == expected}
        if args.json:
            print(json.dumps(payload))
        else:
            print(product)
        return 0 if product == expected else 1

    p = args.parallel or 9
    schedule = FaultSchedule(args.fault)
    trace = True if args.trace_out else None
    if args.ft:
        out = multiply_fault_tolerant(
            args.a, args.b, p=p, k=args.k, f=args.ft,
            word_bits=args.word_bits, fault_schedule=schedule, trace=trace,
        )
    else:
        out = multiply_parallel(
            args.a, args.b, p=p, k=args.k,
            word_bits=args.word_bits, fault_schedule=schedule, trace=trace,
        )
    if args.trace_out:
        from repro.obs.export import write_trace

        fmt = write_trace(out.run.trace, args.trace_out)
        if not args.json:
            print(f"trace   : {len(out.run.trace)} events -> {args.trace_out} ({fmt})")
    c = out.run.critical_path
    payload = {
        "product": str(out.product),
        "exact": out.product == expected,
        "critical_path": {"F": c.f, "BW": c.bw, "L": c.l},
        "faults_fired": len(out.run.fault_log),
        "phases": {
            name: {"F": pc.f, "BW": pc.bw, "L": pc.l}
            for name, pc in out.run.phase_costs.items()
        },
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"product = {out.product}")
        print(f"exact   = {payload['exact']}")
        print(f"costs   : F={c.f} BW={c.bw} L={c.l}")
        print(f"faults  : {payload['faults_fired']} fired, product still exact")
    return 0 if payload["exact"] else 1


def _cmd_trace(args) -> int:
    from repro.analysis.report import (
        render_critical_path_attribution,
        render_gantt,
        render_metrics,
    )
    from repro.core.api import multiply_fault_tolerant, multiply_parallel
    from repro.machine.costs import CostModel
    from repro.machine.fault import FaultSchedule
    from repro.obs.export import write_trace

    model = CostModel(alpha=args.alpha, beta=args.beta, gamma=args.gamma)
    schedule = FaultSchedule(args.fault)
    if args.ft:
        out = multiply_fault_tolerant(
            args.a, args.b, p=args.parallel, k=args.k, f=args.ft,
            word_bits=args.word_bits, fault_schedule=schedule, trace=model,
        )
    else:
        out = multiply_parallel(
            args.a, args.b, p=args.parallel, k=args.k,
            word_bits=args.word_bits, fault_schedule=schedule, trace=model,
        )
    exact = out.product == args.a * args.b
    run = out.run
    print(render_gantt(run.trace, width=args.width, title="virtual-time Gantt"))
    print()
    print(
        render_critical_path_attribution(
            run, model, title="critical-path attribution"
        )
    )
    print()
    print(render_metrics(run.metrics, title="metrics"))
    print()
    print(f"exact   = {exact}")
    print(f"faults  = {len(run.fault_log)} fired")
    if args.out:
        fmt = write_trace(run.trace, args.out)
        print(f"trace   : {len(run.trace)} events -> {args.out} ({fmt})")
    return 0 if exact else 1


def _cmd_plan(args) -> int:
    from repro.core.plan import make_plan

    plan = make_plan(
        args.bits, p=args.p, k=args.k, word_bits=args.word_bits, m_words=args.memory
    )
    payload = {
        "k": plan.k,
        "p": plan.p,
        "word_bits": plan.word_bits,
        "n_words": plan.n_words,
        "l_dfs": plan.l_dfs,
        "l_bfs": plan.l_bfs,
        "local_words": plan.local_words,
        "leaf_words": plan.leaf_words(),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key:12s} {value}")
    return 0


def _cmd_predict(args) -> int:
    from repro.analysis.formulas import (
        extra_processors,
        ft_toomcook_costs,
        parallel_toomcook_costs,
    )

    n_words = max(1, -(-args.bits // args.word_bits))
    base = parallel_toomcook_costs(n_words, args.p, args.k, args.memory)
    ft = ft_toomcook_costs(n_words, args.p, args.k, args.f, args.memory)
    payload = {
        "parallel": {"F": base.f, "BW": base.bw, "L": base.l},
        "fault_tolerant": {"F": ft.f, "BW": ft.bw, "L": ft.l},
        "extra_processors": {
            "replication": extra_processors("replication", args.p, args.k, args.f),
            "ft_combined": extra_processors("ft", args.p, args.k, args.f),
        },
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for scheme, costs in payload.items():
            print(f"{scheme}: {costs}")
    return 0


def _cmd_demo(args) -> int:
    from repro.core.api import multiply_fault_tolerant
    from repro.machine.fault import FaultEvent, FaultSchedule

    a, b = 2**401 - 1, 10**120 + 7
    sched = FaultSchedule([FaultEvent(4, "multiplication", 0)])
    out = multiply_fault_tolerant(a, b, p=9, k=2, f=1, word_bits=32, fault_schedule=sched)
    ok = out.product == a * b
    print("killed processor 4 mid-multiplication on a 9-processor machine;")
    print(f"product exact: {ok}; faults survived: {len(out.run.fault_log)}")
    c = out.run.critical_path
    print(f"critical-path costs: F={c.f} BW={c.bw} L={c.l}")
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    from repro.lint.cli import list_rules_text, run_lint

    if args.list_rules:
        print(list_rules_text())
        return 0
    code, report = run_lint(args.paths, fmt=args.format, select=args.select)
    if report:
        print(report)
    return code


def _cmd_campaign(args) -> int:
    from repro.campaign import registered_variants
    from repro.campaign.report import render_text, to_json
    from repro.campaign.runner import CampaignConfig, run_campaign

    if args.list_variants:
        for spec in registered_variants():
            print(f"{spec.name:<14} {spec.description}")
        return 0
    variants = (
        tuple(name for name in args.variants.split(",") if name)
        if args.variants
        else None
    )
    cfg = CampaignConfig(
        seed=args.seed,
        trials=args.trials,
        variants=variants,
        bits=args.bits,
        word_bits=args.word_bits,
        timeout=args.timeout,
        minimize=not args.no_minimize,
    )
    result = run_campaign(cfg, jobs=args.jobs)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(to_json(result))
    print(to_json(result) if args.json else render_text(result), end="")
    return 0 if result.ok else 1


def _cmd_commcheck(args) -> int:
    from repro.commcheck import (
        COMMCHECK_VARIANTS,
        make_config,
        render_text,
        run_commcheck,
        to_json,
    )

    if args.list_variants:
        for name in COMMCHECK_VARIANTS:
            print(name)
        return 0
    variants = (
        [name for name in args.variants.split(",") if name]
        if args.variants and not args.all_variants
        else None
    )
    cfg = make_config(
        p=args.p,
        k=args.k,
        f=args.f,
        bits=args.bits,
        word_bits=args.word_bits,
        timeout=args.timeout,
        seed=args.seed,
    )
    result = run_commcheck(
        variants,
        cfg,
        phase=args.phase,
        tolerance_scale=args.tolerance_scale,
        jobs=args.jobs,
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(to_json(result), fh)
    if args.json:
        print(json.dumps(to_json(result, include_graphs=False)))
    else:
        print(render_text(result))
    return result.exit_code


def _cmd_faultcheck(args) -> int:
    from repro.commcheck.extract import make_config
    from repro.faultcheck import (
        FAULTCHECK_VARIANTS,
        certificate_json,
        render_text,
        run_faultcheck,
        to_json,
    )

    if args.list_variants:
        for name in FAULTCHECK_VARIANTS:
            print(name)
        return 0
    variants = (
        [name for name in args.variants.split(",") if name]
        if args.variants and not args.all_variants
        else None
    )
    cfg = make_config(
        p=args.p,
        k=args.k,
        f=args.f,
        bits=args.bits,
        word_bits=args.word_bits,
        timeout=args.timeout,
        seed=args.seed,
    )
    result = run_faultcheck(
        variants,
        cfg,
        coverage_trials=args.coverage_trials,
        tolerance_scale=args.tolerance_scale,
        jobs=args.jobs,
    )
    if args.cert_out:
        with open(args.cert_out, "w") as fh:
            fh.write(certificate_json(result))
    if args.json:
        print(json.dumps(to_json(result)))
    else:
        print(render_text(result))
    return result.exit_code


def _cmd_check(args) -> int:
    from repro.check import render_summary, run_check

    only = (
        [name for name in args.only.split(",") if name] if args.only else None
    )
    result = run_check(
        jobs=args.jobs, only=only, faultcheck_cert=args.faultcheck_cert
    )
    print(render_summary(result))
    return result.exit_code


def _cmd_perf(args) -> int:
    from repro.obs.perf.cli import cmd_bless, cmd_compare, cmd_list, cmd_report

    handlers = {
        "list": cmd_list,
        "compare": cmd_compare,
        "report": cmd_report,
        "bless": cmd_bless,
    }
    return handlers[args.perf_command](args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "multiply": _cmd_multiply,
        "trace": _cmd_trace,
        "plan": _cmd_plan,
        "predict": _cmd_predict,
        "demo": _cmd_demo,
        "lint": _cmd_lint,
        "campaign": _cmd_campaign,
        "commcheck": _cmd_commcheck,
        "faultcheck": _cmd_faultcheck,
        "check": _cmd_check,
        "perf": _cmd_perf,
    }
    handler = handlers[args.command]
    backend = getattr(args, "backend", None)
    if backend is None:
        return handler(args)
    from repro.util.env import backend_scope

    # Scoping the environment variable (rather than threading a parameter
    # through every handler) also reaches machines built inside worker
    # processes, which inherit the environment.
    with backend_scope(backend):
        return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
