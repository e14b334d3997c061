#!/usr/bin/env python3
"""End-to-end benchmark of the fault-tolerant parallel multiply.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--out F]
    python3 benchmarks/e2e/run.py --bless [--workload W] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

One ``--workload`` is one closed loop with one client and no worker
pool: a discarded warm-up op, then ops back to back until ``--seconds``
have been measured.  Without ``--workload`` every workload runs in its
own fresh interpreter, one at a time, untraced and then traced (unless
``--trace`` picks one).  Every metric is printed by name with its unit;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer
metrics from a run that alternates untraced and traced ops.

An op fails (and is counted, not raised) when its result is wrong, a
scheduled fault did not fire, or, at the default seed, its modeled cost
drifts from ``golden.json``.  ``--bless`` regenerates the goldens.  The
runner writes only ``--out`` and, under ``--bless``, ``golden.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

#: Knobs that would change what is measured; unset for every run.
PINNED_ENV = ("REPRO_ENGINE", "REPRO_BACKEND", "REPRO_RACECHECK", "REPRO_TIMEOUT_SCALE",
              "REPRO_JOBS")
SETUP_SAMPLES = 5
GOLDEN_OPS = 12
#: Layers reported with calls and self-time share; wait is reported for
#: the layers where a rank parks.
LAYERS = ("bigint.leaf", "bigint.blockops", "coding.encode", "coding.recover",
          "coding.coefficients", "machine.send", "machine.recv", "machine.collective",
          "machine.sync", "machine.run", "core.layout", "campaign.probe", "campaign.classify")
WAIT_LAYERS = ("machine.recv", "machine.collective", "machine.sync")
SETUP_CODE = "import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; " \
             "workloads.build({name!r}, {seed}, {smoke})"


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def profile(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def manifest(seed: int) -> dict:
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def time_setup(name: str, seed: int, smoke: bool) -> float:
    """Wall time of one fresh interpreter importing ``repro`` and building
    the workload's reused objects."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name, seed=seed, smoke=smoke)
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child in steps of up to
    # 50 ms and the measured time snaps to that grid.
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 golden: dict | None = None) -> dict:
    """Measure one workload; returns the run record (metrics + samples)."""
    import spans
    import workloads

    golden = load_golden() if golden is None else golden
    pinned = golden.get(profile(smoke), {}).get(name, [])
    expected = pinned if seed == workloads.DEFAULT_SEED else []
    setup = [] if trace else [time_setup(name, seed, smoke) for _ in range(SETUP_SAMPLES)]
    w = workloads.build(name, seed, smoke)
    warm = w.inputs(0)
    w.check(warm, w.execute(warm))

    seq_ref = 0.0
    if trace:
        spans.site_owners()  # import every traced module before timing
        reference = getattr(w, "reference", None)
        if reference is not None:
            t0 = time.perf_counter()
            if not reference(warm):
                raise RuntimeError(f"{name}: sequential reference product is wrong")
            seq_ref = time.perf_counter() - t0

    ops: list[dict] = []
    recorders: list[Any] = []

    def one(i: int, inputs: Any, recorder: Any = None) -> dict:
        if recorder is None:
            t0, c0 = time.perf_counter(), time.process_time()
            out = w.execute(inputs)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        else:
            with spans.traced(recorder):
                t0, c0 = time.perf_counter(), time.process_time()
                out = w.execute(inputs)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        res = w.check(inputs, out)
        if res.ok and i < len(expected) and res.cost != expected[i]:
            res.ok, res.detail = False, f"cost {res.cost} drifted from golden {expected[i]}"
        return {"i": i, "wall": wall, "cpu": cpu, "ok": res.ok, "detail": res.detail,
                "cost": res.cost, "fired": res.fired, "scheduled": res.scheduled,
                "traced": recorder is not None}

    start = time.perf_counter()
    i = 0
    while True:
        inputs = w.inputs(i)
        try:
            ops.append(one(i, inputs))
            if trace:
                recorder = spans.SpanRecorder()
                traced_op = one(i, w.inputs(i), recorder)
                if traced_op["ok"] and traced_op["cost"] != ops[-1]["cost"]:
                    traced_op["ok"] = False
                    traced_op["detail"] = "tracing changed the modeled cost"
                ops.append(traced_op)
                recorders.append(recorder)
        except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
            ops.append({"i": i, "ok": False, "detail": f"{type(exc).__name__}: {exc}",
                        "traced": False})
        i += 1
        if time.perf_counter() - start >= seconds:
            break

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "setup_s": setup, "ops": ops,
              "attempted": len(ops), "failed": sum(1 for op in ops if not op["ok"])}
    plain = [op for op in ops if not op["traced"] and "wall" in op]
    if trace:
        traced = [op for op in ops if op["traced"]]
        record["metrics"] = layer_metrics(w, recorders, plain, traced, seq_ref)
        # The first traced op's raw spans: [rank, layer, parent, start, wall, cpu, self].
        record["spans"] = [dataclasses.astuple(s) for s in recorders[0].spans] if recorders else []
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(op["wall"] for op in plain),
            "ops_per_s": len(plain) / sum(op["wall"] for op in plain),
            "cpu_per_op_s": statistics.median(op["cpu"] for op in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return record


def layer_metrics(w: Any, recorders: list, plain: list, traced: list, seq_ref: float) -> dict:
    """Per-op counts and shares of traced op wall time, by layer."""
    from spans import RANK_LAYER

    n = len(traced)
    total_wall = sum(op["wall"] for op in traced)
    tot: dict[str, float] = defaultdict(float)
    for rec in recorders:
        for s in rec.spans:
            tot[s.layer + ".calls"] += 1
            tot[s.layer + ".self"] += s.self_cpu
            if s.layer in WAIT_LAYERS:
                tot[s.layer + ".wait"] += s.wall - s.cpu
            if s.layer == "machine.run":
                tot["handoff"] += s.wall - s.cpu
            elif s.layer == RANK_LAYER:
                tot["handoff"] -= s.cpu
            elif s.layer == "bigint.leaf":
                tot["leaf.cpu"] += s.cpu
                if 0 <= s.rank < w.standard_ranks:
                    tot["leaf.useful"] += s.cpu
        for run in rec.runs:
            tot["ranks"] += run.size
            tot["words"] += run.words
            tot["messages"] += run.messages
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = tot[f"{layer}.calls"] / n
        m[f"{layer}.self_frac"] = tot[f"{layer}.self"] / total_wall
    for layer in WAIT_LAYERS:
        m[f"{layer}.wait_frac"] = tot[f"{layer}.wait"] / total_wall
    m["core.rank.self_frac"] = tot[f"{RANK_LAYER}.self"] / total_wall
    m["machine.handoff_frac"] = tot["handoff"] / total_wall
    for key in ("ranks", "words", "messages"):
        m[f"machine.{key}"] = tot[key] / n
    m["bigint.leaf.useful_frac"] = tot["leaf.useful"] / tot["leaf.cpu"] if tot["leaf.cpu"] else 0.0
    plain_p50 = statistics.median(op["wall"] for op in plain)
    m["bigint.seq_ref_frac"] = seq_ref / plain_p50
    scheduled = sum(op.get("scheduled", 0) for op in plain + traced)
    fired = sum(op.get("fired", 0) for op in plain + traced)
    m["campaign.fired_frac"] = fired / scheduled if w.name == "campaign" and scheduled else 0.0
    m["trace.overhead_frac"] = statistics.median(op["wall"] for op in traced) / plain_p50 - 1
    attributed = sum(tot[f"{layer}.self"] for layer in LAYERS + (RANK_LAYER,)) + tot["handoff"]
    m["trace.unattributed_frac"] = 1 - attributed / total_wall
    return m


def result_line(record: dict, spec: dict) -> dict:
    """The last-line JSON object for one run record."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }


def print_record(record: dict, spec: dict) -> None:
    name = record["workload"]
    ops = sum(1 for op in record["ops"] if op["traced"] == record["trace"])
    n = {"setup_s": len(record["setup_s"]), "peak_rss_mb": 1}
    for m in spec["per_layer" if record["trace"] else "end_to_end"]:
        samples = n.get(m["name"], ops)
        print(f"{name:13s} {m['name']:28s} {record['metrics'][m['name']]:12.6g} "
              f"{m['unit']:6s} n={samples}")
    for op in record["ops"]:
        if not op["ok"]:
            print(f"{name:13s} op {op['i']} FAILED: {op['detail']}")


def append_out(path: Path, record: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append({**record, "manifest": manifest(record["seed"])})
    path.write_text(json.dumps(doc) + "\n")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload (untraced, then traced) in its own interpreter."""
    import workloads

    modes = [args.trace] if args.trace is not None else [0, 1]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(mode)]
            cmd += ["--smoke"] if args.smoke else []
            cmd += ["--out", str(args.out)] if args.out else []
            child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if child.returncode not in (0, 1):
                return child.returncode
            line = json.loads(child.stdout.strip().splitlines()[-1])
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            for metric, value in line["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def bless(names: list[str], smoke: bool) -> int:
    import workloads

    golden = load_golden()
    for name in names:
        w = workloads.build(name, workloads.DEFAULT_SEED, smoke)
        costs = []
        for i in range(GOLDEN_OPS):
            inputs = w.inputs(i)
            res = w.check(inputs, w.execute(inputs))
            if not res.ok:
                print(f"{name} op {i} failed ({res.detail}); not blessed", file=sys.stderr)
                return 1
            costs.append(res.cost)
        golden.setdefault(profile(smoke), {})[name] = costs
        print(f"blessed {GOLDEN_OPS} ops of {name} ({profile(smoke)})")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """PASS / REGRESSED / UNRESOLVED per workload and end-to-end metric,
    B (the change) against A (the parent)."""
    sides = []
    for path in (path_a, path_b):
        runs = [r for r in json.loads(Path(path).read_text())["runs"] if not r["trace"]]
        sides.append(runs)
    verdicts = []
    for name in sorted({r["workload"] for r in sides[0]} | {r["workload"] for r in sides[1]}):
        for m in spec["end_to_end"]:
            values = [[r["metrics"][m["name"]] for r in runs if r["workload"] == name]
                      for runs in sides]
            if not all(values):
                print(f"{name:13s} {m['name']:13s} MISSING")
                verdicts.append("MISSING")
                continue
            (a1, a2, a3), (b1, b2, b3) = (quartiles(v) for v in values)
            spread = max((a3 - a1) / a2, (b3 - b1) / b2)
            worse = (b2 - a2) / a2 if m["better"] == "lower" else (a2 - b2) / a2
            verdict = ("UNRESOLVED" if spread > m["bound"] else
                       "REGRESSED" if worse > m["bound"] else "PASS")
            verdicts.append(verdict)
            print(f"{name:13s} {m['name']:13s} A {a2:.6g} [{a1:.6g}, {a3:.6g}] n={len(values[0])}"
                  f"  B {b2:.6g} [{b1:.6g}, {b3:.6g}] n={len(values[1])}"
                  f"  {worse:+.1%} (bound {m['bound']:.0%})  {verdict}")
    return 0 if all(v == "PASS" for v in verdicts) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="small sizes for the self-test")
    parser.add_argument("--out", type=Path, help="append the run records to this JSON file")
    parser.add_argument("--bless", action="store_true", help="regenerate golden.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    if hasattr(os, "sched_setaffinity"):
        # One core: the event engine runs one rank at a time, and thread
        # handoffs that cross cores made run-to-run spread twice as wide.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.compare:
        return compare(*args.compare, spec)
    if args.bless:
        return bless([args.workload] if args.workload else list(workloads.WORKLOADS), args.smoke)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)

    print(f"# manifest {json.dumps(manifest(args.seed))}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_record(record, spec)
    if args.out:
        append_out(args.out, record)
    line = result_line(record, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
