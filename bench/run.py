"""Benchmark of the sumfree prover, stdlib only.

    python3 bench/run.py --workload search --seed 1 --seconds 10 --trace 0

One process runs one workload in one thread, importing the package from
``src/`` beside this directory.  Set-up (import, input generation, cache
file) is repeated and timed; then passes of the workload's task list run
until ``--seconds`` would be exceeded.  Every output is checked exactly
by ``checks``.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are reported; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are reported.  The last
stdout line is the result object; the line before it holds run metadata
and the deterministic counters.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import checks  # the benchmark's own modules, beside this file
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "sumfree")
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
# Counters that must repeat exactly between passes of the same code.
DETERMINISTIC = ("search.nodes", "lp.pivots", "lp.solve.calls", "lp.vertices",
                 "discrete.triples")


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0  # at the reference speed when probed
    cpu: float = 0.0
    raw_wall: float = 0.0  # as measured
    scale: float = 1.0
    elapsed: float = 0.0  # including set-up of the pass and the checks
    p50_ms: float = 0.0
    tail_ms: float = 0.0
    tail_pct: float = 100.0
    samples: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    self_times: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    unwrapped: list = field(default_factory=list)
    cache_bytes: int = 0


def load_package():
    """(Re-)import sumfree from src/ and return its modules by short name."""
    for name in [m for m in sys.modules if m == "sumfree" or m.startswith("sumfree.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sumfree")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != PACKAGE:
        raise ImportError(f"sumfree imported from {pkg.__file__}, not from {PACKAGE}")
    mods = {short: importlib.import_module("sumfree." + short)
            for short in ("rationals", "intervals", "lp", "search", "discrete",
                          "certify", "cache", "cli")}
    return argparse.Namespace(sumfree=pkg, **mods)


def run_pass(plan, tracer, probe) -> tuple[Pass, list]:
    """One pass of the task list, and its (output, error) per task.

    Task times exclude the checks and the probe.  With a probe, each
    task's times are rescaled to the reference speed seen around it.
    """
    start = time.perf_counter()
    result = Pass(traced=tracer is not None)
    plan.before_pass()
    timings = []
    outputs = []
    if tracer:
        tracer.install()
    try:
        for task in plan.tasks:
            before = dict(tracer.counts) if tracer and task.counted else None
            s0, cs0 = (probe.spent, probe.cpu_spent) if probe else (0.0, 0.0)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out, error = task.run(), None
            except Exception as exc:  # a failed task is counted, not fatal
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            w1, c1 = time.perf_counter(), time.process_time()
            wall, cpu = w1 - w0, c1 - c0
            if probe:
                wall -= probe.spent - s0
                cpu -= probe.cpu_spent - cs0
            timings.append((w0, w1, wall, cpu, task.latency))
            if before is not None:
                for key in DETERMINISTIC:
                    if tracer.counts[key] != before.get(key, 0):
                        result.counters[f"{task.label} {key}"] = tracer.counts[key] - before.get(key, 0)
            outputs.append((out, error))
    finally:
        if tracer:
            tracer.uninstall()
    for task, (out, error) in zip(plan.tasks, outputs):
        if error is None:
            try:
                error = task.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and task.counted and hasattr(out, "nodes_explored"):
            result.counters[f"{task.label} search.nodes"] = out.nodes_explored
            result.counters[f"{task.label} lp.pivots"] = out.lp_pivots
        if error is not None:
            result.failures.append(f"{task.label}: {error}")
    if tracer:
        result.self_times = tracer.self_times()
        result.counts = dict(tracer.counts)
        result.unwrapped = tracer.missing
        lookups = tracer.counts["cache.lookup.calls"]
        if lookups:
            result.counters["cache.hit_frac"] = tracer.counts["cache.hits"] / lookups
    if plan.cache_path:
        result.cache_bytes = os.path.getsize(plan.cache_path)
    # After the checks, so the tasks at the end have probe samples after them.
    latencies_ms = []
    for w0, w1, wall, cpu, latency in timings:
        scale = probe.scale(w0, w1) if probe else 1.0
        result.raw_wall += wall
        result.wall += wall * scale
        result.cpu += cpu * scale
        if latency:
            latencies_ms.append(wall * scale * 1000)
    result.scale = result.wall / result.raw_wall if result.raw_wall else 1.0
    result.p50_ms = statistics.median(latencies_ms)
    result.tail_pct, result.tail_ms = tail(latencies_ms)
    result.samples = len(latencies_ms)
    result.elapsed = time.perf_counter() - start
    return result, outputs


def self_test(plan, outputs: list) -> list[str]:
    """Each checker must reject one damaged copy of a good output."""
    errors = checks.self_test_errors()
    for task, (out, error) in zip(plan.tasks, outputs):
        if task.corrupt is None or error is not None:
            continue
        try:
            verdict = task.check(task.corrupt(out))
        except Exception as exc:
            verdict = f"raised {type(exc).__name__}"
        if verdict is None:
            errors.append(f"check of {task.label} accepted a damaged output")
    return errors


def tail(values: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = -(-len(ordered) * pct // 100)  # nearest rank, ceil
        if len(ordered) - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


def end_to_end(passes: list, setup_times: list) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "task_p50_ms": statistics.median(p.p50_ms for p in passes),
        "task_tail_ms": statistics.median(p.tail_ms for p in passes),
    }


def per_layer(traced: list, untraced: list) -> dict:
    counts = traced[0].counts

    def self_s(name):
        return statistics.median(p.self_times.get(name, 0.0) for p in traced)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    lookups = counts.get("cache.lookup.calls", 0)
    return {
        "search.nodes": counts.get("search.nodes", 0),
        "search.self_s": self_s("search.maximize_measure"),
        "search.build_pattern_lp_s": self_s("search.build_pattern_lp"),
        "lp.solve_calls": counts.get("lp.solve.calls", 0),
        "lp.solve_s": self_s("lp.solve"),
        "lp.pivots": counts.get("lp.pivots", 0),
        "lp.pivots_per_solve": ratio("lp.pivots", "lp.solve.calls"),
        "lp.infeasible_frac": ratio("lp.infeasible", "lp.solve.calls"),
        "lp.canonical_rows_s": self_s("lp.canonical_rows"),
        "lp.enumerate_calls": counts.get("lp.enumerate.calls", 0),
        "lp.enumerate_s": self_s("lp.enumerate"),
        "lp.vertices": counts.get("lp.vertices", 0),
        "intervals.is_k_sum_free_calls": counts.get("intervals.is_k_sum_free.calls", 0),
        "intervals.is_k_sum_free_s": self_s("intervals.is_k_sum_free"),
        "intervals.minkowski_sum_s": self_s("intervals.minkowski_sum"),
        "intervals.from_pairs_calls": counts.get("intervals.from_pairs.calls", 0),
        "intervals.from_pairs_s": self_s("intervals.from_pairs"),
        "intervals.parse_union_s": self_s("intervals.parse_union"),
        "rationals.parse_rational_calls": counts.get("rationals.parse_rational.calls", 0),
        "rationals.parse_rational_s": self_s("rationals.parse_rational"),
        "certify.derive_delta_s": self_s("certify.derive_delta"),
        "certify.harness_s": self_s("certify.harness"),
        "certify.random_union_s": self_s("certify.random_union"),
        "discrete.triples": counts.get("discrete.triples", 0),
        "discrete.forbidden_triples_s": self_s("discrete.forbidden_triples"),
        "discrete.solve_s": self_s("discrete.solve"),
        "cache.lookup_calls": lookups,
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.hit_frac": counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "cache.append_s": self_s("cache.append"),
        "cache.bytes": traced[0].cache_bytes,
        "cli.calls": counts.get("cli.main.calls", 0),
        "cli.self_s": self_s("cli.main"),
        "trace_overhead_frac": (statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in untraced) - 1),
    }


def disagreements(passes: list) -> list[str]:
    seen: dict = {}
    bad = set()
    for p in passes:
        for key, value in p.counters.items():
            if seen.setdefault(key, value) != value:
                bad.add(key)
    return sorted(bad)


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def measure(args, spec: dict, workdir: str) -> tuple[dict, dict]:
    build = workloads.BUILDERS[args.workload]
    # The probe's signal handler would run inside traced spans, so the
    # traced run goes without it and reports times as measured.
    probe = None if args.trace else speed.SpeedProbe(workloads.PROBES[args.workload])
    with probe or contextlib.nullcontext():
        raw_setup = []
        for rep in range(SETUP_REPEATS):
            rep_dir = os.path.join(workdir, f"setup{rep}")
            os.mkdir(rep_dir)
            spent0 = probe.spent if probe else 0.0
            t0 = time.perf_counter()
            mods = load_package()
            plan = build(mods, args.seed, rep_dir)
            t1 = time.perf_counter()
            raw_setup.append((t0, t1, t1 - t0 - ((probe.spent if probe else 0.0) - spent0)))

        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            tracer = spans.Tracer() if args.trace and len(passes) % 2 else None
            done, outputs = run_pass(plan, tracer, probe)
            passes.append(done)
            spent = time.perf_counter() - start
            if len(passes) >= 1 + args.trace and spent + passes[-1].elapsed > args.seconds:
                break
        setup_times = [t * (probe.scale(t0, t1) if probe else 1.0) for t0, t1, t in raw_setup]
    self_errors = self_test(plan, outputs)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = [f for p in passes for f in p.failures]
    nondeterministic = disagreements(passes)
    attempted = len(passes) * len(plan.tasks)

    if args.trace:
        values = per_layer(traced, untraced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, setup_times)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    with open(os.path.join(HERE, "seed_counters.json"), encoding="utf-8") as fh:
        seed_counters = json.load(fh)
    counters = passes[-1].counters if not traced else traced[-1].counters
    changed = {key: {"recorded": seed_counters[key], "now": value}
               for key, value in counters.items()
               if key in seed_counters and seed_counters[key] != value}
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(), "src_nonblank_lines": src_lines(),
        "inputs": plan.notes, "passes": len(untraced), "traced_passes": len(traced),
        "tasks_per_pass": len(plan.tasks), "failed_frac": len(failures) / attempted,
        "failures": failures[:10], "self_test_errors": self_errors,
        "task_samples_per_pass": untraced[0].samples, "task_tail_percentile": untraced[0].tail_pct,
        "setup_s_samples": setup_times, "setup_s_as_measured": [t for _, _, t in raw_setup],
        "run_s_samples": [p.wall for p in untraced],
        "run_s_as_measured": [p.raw_wall for p in untraced],
        "speed_scale": [p.scale for p in untraced],
        "counters": counters, "counters_changed_since_recorded": changed,
        "counters_nondeterministic": nondeterministic,
        "trace_unwrapped": sorted({m for p in traced for m in p.unwrapped}),
    }
    result = {
        "correct": not failures and not self_errors and not nondeterministic,
        "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"error: no sumfree package under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    # Isolate the cache: anything that falls back to $SUMFREE_CACHE lands
    # here, and the check below turns that into a failure.
    stray = os.path.join(workdir, "env-cache.jsonl")
    os.environ["SUMFREE_CACHE"] = stray
    default_cache = os.path.join(os.getcwd(), "sumfree-cache.jsonl")
    before = os.path.exists(default_cache) and os.stat(default_cache).st_mtime_ns
    try:
        result, meta = measure(args, spec, workdir)
        after = os.path.exists(default_cache) and os.stat(default_cache).st_mtime_ns
        if os.path.exists(stray) or before != after:
            meta["failures"].append("a cache outside the workload's own path was used")
            result["correct"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
