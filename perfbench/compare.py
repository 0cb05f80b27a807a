"""Repeat perfbench runs and summarise them; optionally parent vs change.

Usage (from the repository root)::

    # steadiness: ten seeds of one workload in this checkout
    python3 perfbench/compare.py --workload serve_open_loop --runs 10

    # parent vs change: alternate two checkouts, same seeds and seconds
    python3 perfbench/compare.py --workload offline_batch --runs 10 \\
        --baseline ../parent-checkout

Each checkout runs its own ``perfbench/run.py``; pass the same benchmark
code to both sides.  Per metric it prints the median, the quartiles and
their distance as a share of the median (``statistics.quantiles(n=4)``),
and with ``--baseline`` the share of pairs the change won and whether the
median moved by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` invocation in *checkout*; its parsed last line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: seed {seed} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (f"median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
            f"spread {benchlib.quartile_spread(values):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, help="parent checkout to compare against")
    args = parser.parse_args(argv)
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"change": benchlib.ROOT}
    if args.baseline is not None:
        sides = {"parent": args.baseline.resolve(), "change": benchlib.ROOT}
    samples = {side: [] for side in sides}
    for index in range(args.runs):
        seed = args.first_seed + index
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        for side in order:
            samples[side].append(run_once(sides[side], args.workload, seed, seconds))
            print(f"seed {seed} {side}: {json.dumps(samples[side][-1])}", flush=True)
    for entry in spec["end_to_end"]:
        name = entry["name"]
        print(f"\n{name} ({entry['unit']}, {entry['better']} is better, bound {entry['bound']})")
        for side, runs in samples.items():
            print(f"  {side:7s} {describe([run[name] for run in runs])}")
        if args.baseline is not None:
            parent = [run[name] for run in samples["parent"]]
            change = [run[name] for run in samples["change"]]
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            shift = sign * (statistics.median(change) / statistics.median(parent) - 1)
            verdict = "worse than bound" if shift < -entry["bound"] else "within bound"
            print(f"  change won {wins}/{len(parent)} pairs; median moved {shift:+.3f} ({verdict})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
