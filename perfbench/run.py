"""posiflag benchmark: four closed-loop workloads, one caller each.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
program measured is the posiflag package under its src/.  With --trace 0
every end-to-end metric of BENCHMARK.json is measured with tracing off;
op times are reported in `ref`, the time of one run of the workload's
reference operation measured next to the op (see `op_costs`), and the
wall-clock figures are printed alongside;
with --trace 1 a fixed op list is run untraced and then traced, and the
per-layer metrics are reported.  The last stdout line is one JSON object
(`correct`, `attempted`, `failed`, `metrics`); for `--workload all` it maps
each workload to such an object.  Spans, results and the environment are
written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPS = 7  # set-up is timed in this many fresh processes; the median is reported
REF_WINDOW = 4  # an op is scaled by the reference runs of this many ops either side
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(name: str, seed: int, seconds: int, mode: str) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to READY, its result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=workloads.child_env(ROOT),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0 or not rest:
        raise BenchError(f"{name} worker ({mode}) failed with exit code {code}")
    return setup_s, json.loads(rest[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def src_digest() -> str:
    """Hash of the measured sources, which identifies the code without git."""
    h = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def calibration_ms() -> float:
    """Median time of a fixed pure-Python Fraction loop: the machine's speed right now.

    Recorded with each result, so that a run made while other tenants slow
    this machine down can be told apart from a slower program.
    """
    times = []
    for _ in range(5):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 5000):
            total += Fraction(1, i % 97 + 1)
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def op_costs(lat_s: list[float], ref_s: list[float | None]) -> list[float]:
    """Each op's time in ref: divided by the median reference run around it.

    The reference is pure-Python Fraction arithmetic, run in the worker
    for in-process workloads and in a fresh interpreter for cli-batch
    (workloads.py).  On a shared host whose speed swings by half from one
    minute to the next, with the process on the CPU all along, the
    reference slows down with the ops: their ratio stays within a few
    percent where the times do not, much as a cycle count would.
    """
    costs = []
    for j, t in enumerate(lat_s):
        near = [r for r in ref_s[max(0, j - REF_WINDOW):j + REF_WINDOW + 1] if r is not None]
        costs.append(t / statistics.median(near))
    return costs


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    half = (SETUP_REPS - 1) // 2  # set-up runs before and after the timed one
    setups = [spawn(name, seed, seconds, "setup") for _ in range(half)]
    setup_s, res = spawn(name, seed, seconds, "run")
    setups += [spawn(name, seed, seconds, "setup") for _ in range(SETUP_REPS - 1 - half)]
    lat_ms = [x * 1e3 for x in res["latencies_s"]]
    costs = op_costs(res["latencies_s"], res["reference_s"])
    # the loop ran whole rotations of `cycle` input classes; a class's cost
    # is its median over the run, and the metrics weigh every class alike
    cycle = res["cycle"]
    classes = [statistics.median(costs[k::cycle]) for k in range(cycle)]
    n = res["attempted"]
    fail_ratio = res["failed"] / n
    metrics = {
        "setup_s": (statistics.median([s for s, _ in setups] + [setup_s]), "s"),
        "ops_per_kref": (1e3 * cycle / sum(classes), "ops/kref"),
        "op_p50_ref": (statistics.median(classes), "ref"),
        "op_p90_ref": (percentile(classes, 0.9), "ref"),
        "ok_ratio": (1 - fail_ratio, "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    wall_clock = {
        "ops_per_s": (n / sum(res["latencies_s"]), "ops/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "ref_ms": (statistics.median(r for r in res["reference_s"] if r is not None) * 1e3, "ms"),
        "fail_ratio": (fail_ratio, "1"),
    }
    for key, (value, unit) in wall_clock.items():
        print(f"{name}: {key} {value:.6g} {unit}")
    beyond = sum(c > metrics["op_p90_ref"][0] for c in classes) * n // cycle
    print(f"{name}: {n} ops in {n // cycle} rotations of {cycle} classes, "
          f"{beyond} beyond op_p90_ref")
    res["wall_clock"] = {k: v for k, (v, _) in wall_clock.items()}
    res["warmup_failures"] += [m for _, r in setups for m in r["warmup_failures"]]
    return metrics, res


def _layer_unit(key: str) -> str:
    for suffix, unit in (("ops_per_s", "ops/s"), ("_s", "s"), ("_ms", "ms"),
                         (".max", "bits"), ("_ratio", "1")):
        if key.endswith(suffix):
            return unit
    return "count"


def per_layer(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    _, res = spawn(name, seed, seconds, "trace")
    for absent in res["absent"]:
        print(f"{name}: absent {absent}")
    return {k: (v, _layer_unit(k)) for k, v in res["layer_metrics"].items()}, res


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    env = {"commit": commit(), "src_sha256": src_digest(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
           "calibration_ms_start": calibration_ms(),
           "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    metrics, res = (per_layer if trace else end_to_end)(name, seed, seconds)
    env.update(res.pop("env"), loadavg_end=os.getloadavg(), calibration_ms_end=calibration_ms())
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} {value:.6g} {unit}")
    for msg in res["failures"] + res["warmup_failures"]:
        print(f"{name}: FAILED {msg}")
    print(f"env: {json.dumps(env)}")
    result = {
        "correct": res["failed"] == 0 and not res["warmup_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"env": env, "result": result, "failures": res["failures"],
                                  "wall_clock": res.get("wall_clock"),
                                  "latencies_s": res.get("latencies_s"),
                                  "reference_s": res.get("reference_s")}) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "posiflag" / "__init__.py").is_file():
        print(f"error: no posiflag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
