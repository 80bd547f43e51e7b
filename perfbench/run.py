"""eptkit benchmark: one command, four workloads.

Run from the root of an eptkit checkout:

    python3 perfbench/run.py --budget-secs 60 --workload corpus7 \\
        --seed 1 --seconds 18 --trace 0

Workloads: corpus7, wide-chordal, gates12, cli (see README.md). With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
instead. The lines before it state every metric with its unit, the raw
times beside the speed-scaled ones (speed.py), which percentile the
tail latency is and how many samples it rests on. The exit code is 0
when every answer matched the committed references and 1 otherwise; 2
means the checkout holds no eptkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from quantile import harrell_davis
from speed import Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus7", "wide-chordal", "gates12", "cli")
CLI_SUBCOMMANDS = (
    "recognize", "cheapest", "atoms", "gen-gate", "catalog", "oracle", "verify-rep", "corpus",
)
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
TRACE_COVERAGE_MIN = 0.9
CHILD_TIMEOUT_SECS = 170
# keeps a run of a much slower program inside the 180 s a run may take
MAX_LOOP_SECS = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--budget-secs", type=float, required=True,
                   help="wall-clock budget passed to every budgeted eptkit call")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="seed of the workload's inputs")
    p.add_argument("--seconds", type=float, required=True,
                   help="run length; sets the number of passes over the inputs")
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    # internal: the untraced replay that trace_overhead_share compares against
    p.add_argument("--replay-items", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(cmd: list[str]) -> dict:
    """Run a helper process to completion and return its last stdout line as JSON."""
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=os.environ, timeout=CHILD_TIMEOUT_SECS)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe(workload: str, speed: Speedometer) -> list[tuple[dict, float]]:
    """Import and set-up times from SETUP_SAMPLES fresh interpreters,
    each with the speed factor around it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        k = len(speed.points) - 1
        times = child([sys.executable, str(BENCH / "probe.py"), workload])
        speed.point()
        out.append((times, speed.factor(k)))
    return out


def measure(workload, seed: int, seconds: float, max_items: int | None) -> dict:
    """The closed loop over the run's passes. It stops early only after
    MAX_LOOP_SECS, or for a replay after `max_items` items."""
    speed = Speedometer(spawn=workload.spawns)
    timed: list[tuple[float, int]] = []
    statuses: Counter = Counter()
    wrong: list[str] = []
    uncertified: set[str] = set()
    items = 0
    setup_spent = speed.spent_s
    start = time.perf_counter()
    for item in workload.items(seed, workload.passes(seconds)):
        if items == max_items or time.perf_counter() - start > MAX_LOOP_SECS:
            break
        k = speed.due()
        for latency, status, detail in workload.run(item):
            timed.append((latency, k))
            statuses[status] += 1
            if status == "wrong":
                wrong.append(detail)
            elif status == "uncertified":
                uncertified.add(detail)
        items += 1
    speed.point()
    return {
        "raw": [latency for latency, _ in timed],
        "scaled": [latency * speed.factor(k) for latency, k in timed],
        "speed": speed,
        "failed": statuses["failed"] + statuses["wrong"],
        "wrong": wrong,
        "uncertified": (statuses["uncertified"], sorted(uncertified)),
        "items": items,
        "wall_s": time.perf_counter() - start - (speed.spent_s - setup_spent),
    }


def latency_metrics(lat: list[float]) -> tuple[float, float, float, float]:
    """ops/s, p50 and tail in ms, and the tail's percentile: the highest
    with at least TAIL_BEYOND samples beyond it. Both percentiles are
    Harrell-Davis estimates."""
    n = len(lat)
    tail_p = (n - min(TAIL_BEYOND, n - 1)) / n
    return (n / sum(lat), harrell_davis(lat, 0.5) * 1e3,
            harrell_davis(lat, tail_p) * 1e3, 100.0 * tail_p)


def end_to_end(loop: dict, probes: list[tuple[dict, float]], workload) -> tuple[dict, list[str]]:
    n = len(loop["scaled"])
    ops, p50, tail, pct = latency_metrics(loop["scaled"])
    raw_ops, raw_p50, raw_tail, _ = latency_metrics(loop["raw"])
    setup = statistics.median(t["setup_s"] * f for t, f in probes)
    raw_setup = statistics.median(t["setup_s"] for t, _ in probes)
    rss = workload.peak_rss_mb()
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        f"ops_per_s {ops:.6g} 1/s  (raw {raw_ops:.6g}; {n} operations,"
        f" {sum(loop['raw']):.3f} s inside them)",
        f"latency_p50_ms {p50:.6g} ms  (raw {raw_p50:.6g})",
        f"latency_tail_ms {tail:.6g} ms  (raw {raw_tail:.6g}; p{pct:.2f},"
        f" {min(TAIL_BEYOND, n - 1)} of {n} samples lie beyond it)",
        f"setup_s {setup:.6g} s  (raw {raw_setup:.6g}; median of {len(probes)} fresh interpreters)",
        f"peak_rss_mb {rss:.6g} MB",
        f"failed_share {loop['failed'] / n:.6g} share  ({loop['failed']} of {n} failed)",
        f"speed factor {loop['speed'].mean_factor():.4f}"
        f" (mean over {len(loop['speed'].points)} reference points)",
    ]
    count, gids = loop["uncertified"]
    if count:
        lines.append(f"note: {count} member answers carried no certificate"
                     f" (graphs {' '.join(gids)})")
    return metrics, lines


def layer_metrics(tracer, loop: dict, probes, workload, replay_op_s: float) -> dict:
    """Per-layer metrics of a traced run; times scaled by the run's mean
    speed factor."""
    factor = loop["speed"].mean_factor()
    metrics = {
        name: (value * factor if unit == "s" else value, unit)
        for name, (value, unit) in tracer.layer_metrics().items()
    }
    cli = workload.name == "cli"
    metrics["cli.import_s"] = (
        statistics.median(t["import_s"] * f for t, f in probes) if cli else 0.0, "s")
    for sub in CLI_SUBCOMMANDS:
        times = workload.process_s.get(sub) if cli else None
        metrics[f"cli.{sub}.process_s"] = (
            statistics.median(times) * factor if times else 0.0, "s")
    metrics["trace_overhead_share"] = (sum(loop["scaled"]) / replay_op_s - 1, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "eptkit" / "__init__.py").is_file():
        print(f"error: no eptkit sources under {SRC}; run from the root of an eptkit checkout",
              file=sys.stderr)
        return 2
    # one CPU for the run and its children, so that the reference points
    # describe the CPU the measured code runs on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # results must not depend on the caller's environment
    os.environ.pop("EPTKIT_BUDGET_SECS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.budget_secs, tracer)
    need_probes = args.replay_items is None and (not args.trace or args.workload == "cli")
    probes = probe(args.workload, Speedometer(spawn=True)) if need_probes else []
    workload.setup()

    top_before = tracer.top_s if tracer is not None else 0.0
    loop = measure(workload, args.seed, args.seconds, args.replay_items)
    if args.replay_items is not None:
        print(json.dumps({"op_s": sum(loop["scaled"])}))
        return 0

    correct = not loop["wrong"] and not workload.setup_error
    for detail in ([workload.setup_error] if workload.setup_error else []) + loop["wrong"][:20]:
        print(f"wrong: {detail}", file=sys.stderr)
    n = len(loop["scaled"])
    print(f"workload {args.workload} seed {args.seed}: {n} operations, "
          f"{loop['items']} items, loop {loop['wall_s']:.3f} s, trace {args.trace}")

    if tracer is None:
        metrics, lines = end_to_end(loop, probes, workload)
    else:
        coverage = (tracer.top_s - top_before) / loop["wall_s"]
        replay = child([sys.executable, str(BENCH / "run.py"),
                        "--budget-secs", str(args.budget_secs), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "0", "--replay-items", str(loop["items"])])
        metrics = layer_metrics(tracer, loop, probes, workload, replay["op_s"])
        lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines.append(f"top-level spans cover {coverage:.4f} of the traced loop's wall time")
        if coverage < TRACE_COVERAGE_MIN:
            print(f"wrong: top-level spans cover only {coverage:.4f} of the traced wall time",
                  file=sys.stderr)
            correct = False

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
