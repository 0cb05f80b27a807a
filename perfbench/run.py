"""Run one perfbench workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a traced run is added and the metrics are its per-layer
metrics.  The line before it is ``{"detail": ...}``: the provenance block,
raw sample summaries with their counts and every failed check.

Exit codes: 0 when every in-run check passed, 1 when a check failed (the
result is still printed), 2 when the benchmark cannot run at all (no
result is printed).
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_cold", "offline_batch", "serve_open_loop")


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _prepare_imports() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'repro'} not found; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def _metrics(values: dict, declared: list, *, absent: Optional[float] = None) -> dict:
    """Every declared metric, in declared order, with its unit.

    A declared metric the workload did not measure takes the value
    *absent*; when *absent* is None, every declared metric must be there.
    """
    names = [entry["name"] for entry in declared]
    unknown = set(values) - set(names)
    missing = set(names) - set(values)
    if unknown or (missing and absent is None):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: undeclared {sorted(unknown)}, "
            f"missing {sorted(missing)}"
        )
    return {
        entry["name"]: {"value": float(values.get(entry["name"], absent)), "unit": entry["unit"]}
        for entry in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        spec = _load_spec()
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    try:
        _prepare_imports()
    except (SystemExit, ImportError) as error:
        print(error, file=sys.stderr)
        return 2

    import benchlib

    workload = importlib.import_module(args.workload)
    shm_before = benchlib.shm_entries()
    started = time.perf_counter()
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(benchlib.WORK_ROOT, ignore_errors=True)
    leaked = sorted(benchlib.shm_entries() - shm_before)
    failures = list(result["failures"])
    if leaked:
        failures.append(f"/dev/shm entries leaked: {leaked}")
    per_layer = dict(result["per_layer"])
    per_layer[f"{args.workload.split('_')[0]}.shm_leaked"] = len(leaked)
    if args.trace and per_layer.get("trace.ring_fill", 0) >= benchlib.TRACE_CAPACITY:
        failures.append("a span ring filled up; the trace dropped spans")
    attempted = int(result["attempted"])
    failed = max(int(result["failed"]), 1 if failures else 0)
    correct = not failures and failed == 0

    if args.trace:
        # A layer the workload does not exercise did no work: 0.
        metrics = _metrics(per_layer, spec["per_layer"], absent=0.0)
    else:
        metrics = _metrics(result["metrics"], spec["end_to_end"])
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "run_wall_s": time.perf_counter() - started,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures,
        "shm_leaked": leaked,
        "provenance": benchlib.provenance(args.seed),
        **result["detail"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
