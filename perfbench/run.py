"""towerforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/towerforge``. Every pass
runs in a fresh single-threaded worker process (worker.py), so module-global
caches start cold as they do for a CLI run.

``--trace 0`` runs passes one after another, at least MIN_PASSES and then
while another still fits in ``--seconds``, with SETUP_PER_PASS set-up-only
workers before each and more after the last until there are SETUP_SAMPLES.
It reports the end-to-end metrics:

- ``wall_s``: the sum over operations of each operation's fastest time
  across the passes. On a shared machine whose speed drops by about a third
  in bursts of seconds, pass totals of identical work differed by up to
  45 %; the per-operation minimum keeps a burst out of the result whenever
  any pass ran that operation outside one.
- ``setup_s``: the median over every set-up sample, passes included.
- ``peak_rss_mb``: the median over passes of the worker's max RSS.
- ``ok_frac``: 1 - failed/attempted over all passes.

``--trace 1`` alternates TRACE_PAIRS untraced passes with as many passes
that have every layer wrapped (tracer.py). It reports the per-layer metrics
and the tracing overhead (the difference of the two sides' sums of
per-operation minima), and writes the spans to
``.bench_build/perfbench/trace-WORKLOAD-SEED.json``.

Lines before the last describe the run; the last line is one JSON object
with the keys correct, attempted, failed and metrics, whose names and units
come from BENCHMARK.json. ``--workload all`` runs every workload in turn,
prints a table of every metric by name and unit, and ends with one JSON
object that maps each workload to its result; it exits 1 if any answer was
wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep", "crosscheck", "kummer", "queries")
SETUP_PER_PASS = 3
SETUP_SAMPLES = 16  # a single set-up sample varies by about a third
MIN_PASSES = 2
TRACE_PAIRS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s

from tracer import LAYER_MODULES, NAMED_LAYERS  # noqa: E402

COUNT_SUFFIXES = (".calls", ".n3", ".failed", ".hits")


class HarnessError(RuntimeError):
    """The benchmark itself could not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    workdir = tempfile.mkdtemp(dir=WORK)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, workdir],
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} worker for {workload} ran past the {RUN_LIMIT_S} s run limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{mode} worker for {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures_of(passes: list[dict]) -> list[dict]:
    unique = {}
    for result in passes:
        for failure in result["failures"]:
            unique.setdefault((failure["op"], failure["error"]), failure)
    return list(unique.values())


def describe_failures(passes: list[dict]) -> None:
    for failure in sorted(failures_of(passes), key=lambda f: f["op"]):
        kind = "WRONG ANSWER" if failure["wrong"] else "failed"
        print(f"  {kind}: {failure['op']}: {failure['error']}: {failure['detail']}")


def sum_of_minima(passes: list[dict]) -> float:
    """Sum over operations of each operation's fastest time across the passes."""
    return sum(min(times) for times in zip(*(p["op_s"] for p in passes)))


def end_to_end(args, deadline: float) -> tuple[list[dict], dict]:
    setups: list[float] = []
    passes: list[dict] = []
    durations: list[float] = []
    began = time.monotonic()
    while True:
        # set-up samples are spread over the run, like the passes
        setups += [spawn(args.workload, args.seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PER_PASS)]
        start = time.monotonic()
        passes.append(spawn(args.workload, args.seed, "pass", deadline))
        durations.append(time.monotonic() - start)
        next_end = time.monotonic() + max(durations)
        if next_end > deadline or (len(passes) >= MIN_PASSES and next_end - began > args.seconds):
            break
    # workloads with few passes would otherwise have few set-up samples
    setups += [spawn(args.workload, args.seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    fastest = sum_of_minima(passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, pass totals {[round(p['wall_s'], 3) for p in passes]} s, "
          f"sum of per-operation minima {fastest:.3f} s")
    print(f"  setup_s samples {[round(s, 4) for s in setups]}")
    print(f"  failed {len(passes[0]['failures'])} of {passes[0]['attempted']} operations per pass")
    describe_failures(passes)
    metrics = {
        "wall_s": fastest,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1 - failed / attempted,
    }
    return passes, metrics


def per_layer(args, deadline: float) -> tuple[list[dict], dict]:
    # Untraced and traced passes alternate, so a slow stretch of the host
    # falls on both sides; each side is the sum of per-operation minima.
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(spawn(args.workload, args.seed, "pass", deadline))
        traced.append(spawn(args.workload, args.seed, "trace", deadline))
    untraced_wall = sum_of_minima(untraced)
    traced_wall = sum_of_minima(traced)
    # the layer table comes from the faster traced pass; its counts are
    # those of every traced pass (checked below)
    best = min(traced, key=lambda result: result["wall_s"])
    trace = best["trace"]
    layers = trace["layers"]
    repeat = all(
        {name: layer["calls"] for name, layer in result["trace"]["layers"].items()}
        == {name: layer["calls"] for name, layer in layers.items()}
        and result["trace"]["integer_det_n3"] == trace["integer_det_n3"]
        for result in traced
    )
    empty = {"calls": 0, "self_s": 0.0, "raised": 0}
    metrics = {}
    for name in NAMED_LAYERS:
        layer = layers.get(name, empty)
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.self_s"] = layer["self_s"]
    metrics["local.LocalCycloElement.__init__.calls"] = layers.get("local.LocalCycloElement.__init__", empty)["calls"]
    metrics["cyclotomic.integer_det.n3"] = trace["integer_det_n3"]
    metrics["arith.factorize.failed"] = layers.get("arith.factorize", empty)["raised"]
    cached = metrics["pipeline.cached_relative_class_number.calls"]
    metrics["pipeline.cached_relative_class_number.hits"] = trace["hminus_cache_hits"]
    metrics["pipeline.cached_relative_class_number.hit_ratio"] = trace["hminus_cache_hits"] / cached if cached else 0.0
    for module in LAYER_MODULES:
        metrics[f"{module}.self_s"] = trace["modules_self_s"].get(module, 0.0)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_wall
    metrics["trace.noise_frac"] = max(
        (max(totals) - min(totals)) / min(totals)
        for totals in ([r["wall_s"] for r in untraced], [r["wall_s"] for r in traced])
    )
    metrics["trace.named_frac"] = trace["named_frac"]
    metrics["trace.covered_frac"] = trace["covered_frac"]

    wall = best["wall_s"]
    print(f"{args.workload} seed {args.seed}: {TRACE_PAIRS} untraced and {TRACE_PAIRS} traced passes, alternating; "
          f"sum of per-operation minima: traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
          f"tracing overhead {metrics['trace.overhead_s']:+.3f} s ({metrics['trace.overhead_frac']:+.1%})")
    if metrics["trace.overhead_frac"] <= metrics["trace.noise_frac"]:
        print(f"  the overhead is unresolved: the pass totals of one side differ by up to {metrics['trace.noise_frac']:.1%}")
    print(f"  layer table from the faster traced pass ({wall:.3f} s); "
          f"counts repeat exactly across the traced passes: {'yes' if repeat else 'NO'}")
    print(f"  self time in named layers {trace['named_frac']:.1%} of traced wall, in all wrapped layers {trace['covered_frac']:.1%}")
    print("  self time by module: " + ", ".join(
        f"{m} {s / wall:.1%}" for m, s in sorted(trace["modules_self_s"].items(), key=lambda kv: -kv[1])))
    print(f"  {'layer':48s} {'calls':>10s} {'self_s':>9s} {'share':>6s}")
    for name, layer in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:20]:
        if layer["calls"]:
            print(f"  {name:48s} {layer['calls']:10d} {layer['self_s']:9.3f} {layer['self_s'] / wall:6.1%}")
    print(f"  cached_relative_class_number: {metrics['pipeline.cached_relative_class_number.hits']} hits "
          f"of {cached} calls; integer_det sum n^3 = {trace['integer_det_n3']}")
    exact = sorted(name for name in metrics if name.endswith(COUNT_SUFFIXES))
    print("  exact counts (repeat exactly for a fixed seed): every *.calls, "
          + ", ".join(n for n in exact if not n.endswith(".calls")))
    describe_failures(untraced + traced)

    path = WORK / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "exact_counts": exact,
        "metrics": metrics,
        "layers": layers,
        "span_fields": ["id", "name", "parent", "start", "end", "op"],
        "spans": trace["spans"],
    }) + "\n", encoding="utf-8")
    print(f"  spans and layer table written to {path.relative_to(ROOT)}")
    return untraced + traced, metrics


def measure(args, wanted: list[dict]) -> dict | None:
    """Run one workload and return its result object, or None on a harness error."""
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        passes, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return None
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return None
    return {
        "correct": not any(f["wrong"] for f in failures_of(passes)),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="towerforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs every workload in turn and ends with a table of their metrics")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "towerforge" / "__init__.py").is_file():
        print(f"no towerforge sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        result = measure(args, wanted)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for name in WORKLOADS:
        args.workload = name
        results[name] = measure(args, wanted)
        if results[name] is None:
            return 1
    print(f"{'workload':12s} {'metric':52s} {'value':>14s} unit")
    for name, result in results.items():
        print(f"{name:12s} {'correct / attempted / failed':52s} "
              f"{str(result['correct']):>5s} {result['attempted']:4d} {result['failed']:3d}")
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:52s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
