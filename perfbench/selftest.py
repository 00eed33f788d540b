"""Self-test of the traced run's work counters.

Usage: python3 perfbench/selftest.py [--workload NAME|all] [--seed N]

Runs each workload traced twice with one seed and once with the next seed.
Passes (exit 0) when the work counters of the first two runs are identical
and all three runs pass every correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def traced(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def counters(result: dict) -> dict:
    """Metrics that count work, as opposed to timing it."""
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "bits") or k.endswith("distinct_ratio")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        a, b, other = traced(name, args.seed), traced(name, args.seed), traced(name, args.seed + 1)
        diff = {k: (v, counters(b).get(k)) for k, v in counters(a).items() if counters(b).get(k) != v}
        bad = [s for s, r in ((args.seed, a), (args.seed, b), (args.seed + 1, other))
               if not r["correct"]]
        print(f"{name}: {len(counters(a))} counters, "
              f"{'identical' if not diff else f'differ {diff}'} across two runs of seed {args.seed}; "
              f"{'all checks pass' if not bad else f'checks fail for seeds {bad}'}")
        ok = ok and not diff and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
