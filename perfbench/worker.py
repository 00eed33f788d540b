"""One workload process: set-up, then the timed loop or the traced pass.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up, warm up, report), `run` (then the timed closed
loop) or `trace` (then a fixed op list, once untraced and once traced).
The worker prints READY once set-up is done, so the parent can time
set-up from process start, and a JSON result as its last line.

In `run` mode ops are followed by runs of the workload's reference
operation, which involves no posiflag code, timed on their own.  Its times
track how fast this shared machine is at each moment, so the parent can
express op times in units of it.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
HARD_LIMIT_S = 120  # stop a loop that cannot reach MIN_OPS


def attempt(wl, inp):
    """Run one op; returns (seconds, output, error message or None)."""
    start = perf_counter()
    try:
        out, err = wl.run(inp), None
    except Exception as exc:  # a failed op is counted and the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, out, err


def failures(wl, inputs, results) -> list[str]:
    msgs = []
    for inp, (_, out, err) in zip(inputs, results):
        if err is None:
            try:
                err = wl.check(inp, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            msgs.append(err)
    return msgs


def timed_loop(wl, specs, seconds: float):
    """Ops over the specs in order until `seconds` have passed, in whole rotations.

    Each op's input is made just before it and its output checked just
    after, both untimed, and every `reference_every`-th op is followed by
    one timed reference run.  Returns (op seconds, reference seconds or
    None per op, failure messages, wall seconds).
    """
    lat_s, ref_s, fails = [], [], []
    start = perf_counter()
    while True:
        inp = wl.make(specs[len(lat_s) % len(specs)])
        res = attempt(wl, inp)
        lat_s.append(res[0])
        ref_s.append(wl.reference() if len(lat_s) % wl.reference_every == 0 else None)
        fails += failures(wl, [inp], [res])
        elapsed = perf_counter() - start
        if len(lat_s) % wl.cycle == 0:
            if (elapsed >= seconds and len(lat_s) >= MIN_OPS) or elapsed >= HARD_LIMIT_S:
                return lat_s, ref_s, fails, elapsed


def cli_startup(env, reps: int = 5) -> dict[str, float]:
    """Bare interpreter start and `import posiflag.cli` as -X importtime reports it."""
    interp, imp, numpy = [], [], []
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append((perf_counter() - start) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import posiflag.cli"],
                              env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            cells = line.removeprefix("import time:").split("|")
            if len(cells) == 3 and cells[1].strip().isdigit():
                cumulative[cells[2].strip()] = int(cells[1]) / 1e3
        imp.append(cumulative["posiflag.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.interp_ms": statistics.median(interp), "cli.import_ms": statistics.median(imp),
            "cli.import_numpy_ms": statistics.median(numpy)}


def trace_pass(wl, pool, tracer: tracing.Tracer, work: Path, spans_path: Path):
    """The first trace_ops ops, each run untraced and traced; per-layer metrics.

    The two runs of an op are back to back, in alternating order, so that
    their ratio (the tracing overhead) sees the same machine state.
    """
    ops = [pool[i % len(pool)] for i in range(wl.trace_ops)]
    plain, traced = [], []
    for i, inp in enumerate(ops):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                plain.append(attempt(wl, inp))
                continue
            tracer.op = i
            if wl.in_process:
                tracer.install()
            else:
                wl.trace_dir = work
            traced.append(attempt(wl, inp))
            tracer.uninstall()
            wl.trace_dir = None
    plain_s = sum(r[0] for r in plain)
    traced_s = sum(r[0] for r in traced)

    summaries = [tracer.summary()]
    for i in range(wl.traced_calls):
        child = json.loads((work / f"op-{i}.json").read_text())
        summaries.append(child["summary"])
        tracer.extend(child["spans"])
    tracer.write_spans(spans_path)

    merged = tracing.merge(summaries)
    metrics = tracing.layer_metrics(merged)
    metrics["trace.untraced_ops_per_s"] = len(ops) / plain_s
    metrics["trace.ops_per_s"] = len(ops) / traced_s
    metrics["trace.speed_ratio"] = plain_s / traced_s
    return ops + ops, plain + traced, metrics, merged["absent"]


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "click": version("click"),
        "argv": sys.orig_argv,
        "flags": {k: getattr(sys.flags, k) for k in
                  ("optimize", "dev_mode", "no_site", "ignore_environment", "hash_randomization")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    if sys.flags.optimize:
        raise SystemExit("run the benchmark without -O: asserts are part of the measured path")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.mode}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
        tracer = tracing.Tracer() if args.mode == "trace" else None
        if tracer is not None and wl.in_process:
            # set-up is traced too: input generation is where the reps layer works
            workloads.import_posiflag(ROOT)
            tracer.install()
        warm, specs = wl.setup()
        warm = [wl.make(spec) for spec in warm]
        pool = [wl.make(spec) for spec in specs[:wl.trace_ops]] if tracer is not None else []
        if tracer is not None:
            tracer.uninstall()
        warm_failed = failures(wl, warm, [attempt(wl, inp) for inp in warm])
        # the specs live for the whole run: keep the cyclic collector from
        # rescanning them, so that their number does not show in op times
        gc.freeze()
        print("READY", flush=True)

        result = {"warmup_failures": warm_failed, "env": environment()}
        if args.mode == "run":
            lat_s, ref_s, fails, wall = timed_loop(wl, specs, args.seconds)
            result.update(latencies_s=lat_s, reference_s=ref_s, cycle=wl.cycle, wall_s=wall)
            attempted = len(lat_s)
        elif args.mode == "trace":
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            inputs, results, metrics, absent = trace_pass(wl, pool, tracer, work, spans_path)
            metrics.update(cli_startup(workloads.child_env(ROOT)))
            result.update(layer_metrics=metrics, absent=absent, spans_file=str(spans_path))
            fails, attempted = failures(wl, inputs, results), len(results)
        else:
            fails, attempted = [], 0
        usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        result.update(attempted=attempted, failed=len(fails), failures=fails[:5],
                      peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
