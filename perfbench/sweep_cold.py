"""``sweep_cold``: the cold path of a design-space sweep.

Each measured sweep runs in a fresh interpreter on an empty cache
directory, as ``python -m repro sweep`` would: ``SweepRunner(workers=1)``
over small_cnn x {curfe, chgfe} x adc_bits {4, 5} x calibration
{workload, nominal}, 8 images per job.  The first job of each design
characterises the cells and writes the programming cache; the next three
read it.

The parent side (:func:`run`) spawns the children and aggregates; this
file run as a script is the child.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import benchlib
from repro.obs import disable, enable
from repro.sweep import SweepRunner, SweepSpec, deterministic_view, run_job

#: The sweep grid (everything else is the ``SweepSpec`` default).
AXES = {
    "scenarios": ("small_cnn",),
    "designs": ("curfe", "chgfe"),
    "adc_bits": (4, 5),
    "calibrations": ("workload", "nominal"),
    "images": 8,
}

#: Seconds of run time budgeted per cold sweep (one sweep takes 7-11 s on
#: a 2-CPU host); the number of sweeps is fixed by ``--seconds`` alone, so
#: a faster program is measured on the same number of samples.
SECONDS_PER_SWEEP = 7

#: Interpreter start-ups measured per run besides the sweeps' own, so the
#: set-up median rests on several samples.
STARTUP_PROBES = 5

#: Seconds one child may take before the run is abandoned.
CHILD_TIMEOUT_S = 90


def run(seed: int, seconds: float, trace: bool) -> Dict:
    """Run ``seconds // SECONDS_PER_SWEEP`` cold sweeps; return the result."""
    benchlib.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    sweeps: List[Dict] = []
    startups: List[float] = []
    for _ in range(max(1, int(seconds // SECONDS_PER_SWEEP))):
        sweeps.append(_spawn("sweep", seed, trace=False))
        startups.append(sweeps[-1]["startup_s"])
    for _ in range(STARTUP_PROBES):
        startups.append(_spawn("startup", seed, trace=False)["startup_s"])
    traced = _spawn("sweep", seed, trace=True) if trace else None
    children = sweeps + ([traced] if traced is not None else [])
    failed = sum(child["failed"] for child in children)

    jobs = [job for child in sweeps for job in child["jobs"]]
    walls = [child["sweep_wall_s"] for child in sweeps]
    images = AXES["images"] * len(sweeps[0]["jobs"])
    job_walls_ms = [job["wall_s"] * 1e3 for job in jobs]
    # A cold sweep's first record needs characterisation, calibration and
    # a run: the wait before a user sees any result.
    first_job_ms = [child["jobs"][0]["wall_s"] * 1e3 for child in sweeps]
    metrics = {
        "setup_s": benchlib.percentile(startups, 50),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in sweeps),
        "throughput_per_s": benchlib.percentile([images / w for w in walls], 50),
        "latency_p50_ms": benchlib.percentile(first_job_ms, 50),
    }
    last = sweeps[-1]
    lookups = last["cache_totals"]["hits"] + last["cache_totals"]["misses"]
    per_layer = {
        "sweep.job_setup_s.miss": benchlib.percentile(
            [j["setup_s"] for j in jobs if j["programming"] == "miss"], 50),
        "sweep.job_setup_s.hit": benchlib.percentile(
            [j["setup_s"] for j in jobs if j["programming"] == "hit"], 50),
        "sweep.job_run_s": benchlib.percentile([j["run_s"] for j in jobs], 50),
        "sweep.cache_hits": last["cache_totals"]["hits"],
        "sweep.cache_misses": last["cache_totals"]["misses"],
        "sweep.cache_hit_ratio": last["cache_totals"]["hits"] / lookups if lookups else 0.0,
        "sweep.failed": failed,
    }
    for kernel, count in last["kernel_dispatches"].items():
        per_layer[f"engine.kernel_dispatches.{kernel}"] = count
    if traced is not None:
        per_layer.update(traced["rollup"])
        per_layer.update({
            "trace.overhead_ratio": traced["sweep_wall_s"] / benchlib.percentile(walls, 50),
            "trace.coverage": traced["coverage"],
            "trace.spans": traced["spans"],
            "trace.ring_fill": traced["ring_fill"],
        })
    return {
        "attempted": sum(child["attempted"] for child in children),
        "failed": failed,
        "failures": [failure for child in children for failure in child["failures"]],
        "metrics": metrics,
        "per_layer": per_layer,
        "detail": {
            "sweep_wall_s": benchlib.summary(walls),
            "job_wall_ms": benchlib.summary(job_walls_ms),
            "first_job_ms": benchlib.summary(first_job_ms),
            "startup_s": benchlib.summary(startups),
            "cache_totals": last["cache_totals"],
            "traced_sweep_wall_s": None if traced is None else traced["sweep_wall_s"],
        },
    }


def _spawn(mode: str, seed: int, *, trace: bool) -> Dict:
    """Run one child interpreter; its start-up is spawn → ready."""
    cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=benchlib.WORK_ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(benchlib.ROOT / "src"), env.get("PYTHONPATH")])
    )
    args = json.dumps({"seed": seed, "cache_dir": cache_dir, "trace": trace})
    try:
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), mode, args],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"sweep child ({mode}) exited {done.returncode}: {done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["startup_s"] = result["ready_s"] - spawned
    return result


# ----------------------------------------------------------------- the child


def _child(mode: str, seed: int, cache_dir: str, trace: bool) -> Dict:
    """One sweep (or, for ``startup``, just the imports and spec)."""
    spec = SweepSpec(seed=seed, **AXES)
    payloads = [job.to_dict() for job in spec.expand()]
    ready_s = time.perf_counter()
    if mode == "startup":
        return {"ready_s": ready_s}

    failures: List[str] = []
    cache_before = benchlib.counter_totals("repro_sweep_cache_events_total", "outcome")
    kernels_before = benchlib.counter_totals("repro_engine_kernel_dispatch_total", "kernel")
    tracer = enable(capacity=benchlib.TRACE_CAPACITY) if trace else None
    try:
        start = time.perf_counter()
        result = SweepRunner(spec, workers=1, cache_dir=cache_dir).run()
        wall = time.perf_counter() - start
    finally:
        disable()
    spans = tracer.drain() if tracer is not None else []
    cache_delta = benchlib.delta(
        benchlib.counter_totals("repro_sweep_cache_events_total", "outcome"), cache_before
    )
    kernels = benchlib.delta(
        benchlib.counter_totals("repro_engine_kernel_dispatch_total", "kernel"), kernels_before
    )

    for record in result.records:
        calibrated = record["calibrated_layers"]
        if record["calibration"] == "workload" and calibrated <= 0:
            failures.append(f"{record['job_id']}: workload-calibrated job has no calibrated layers")
        if record["calibration"] == "nominal" and calibrated != 0:
            failures.append(f"{record['job_id']}: nominal job reports {calibrated} calibrated layers")
    totals = result.cache_totals()
    lookups = cache_delta.get("hit", 0.0) + cache_delta.get("miss", 0.0)
    if totals["hits"] + totals["misses"] != lookups:
        failures.append(
            f"cache records count {totals['hits']} hits + {totals['misses']} misses, "
            f"the cache counted {lookups:g} lookups"
        )
    # warm == cold: the first job missed every cache; re-run it warm.
    warm = run_job(payloads[0], cache_dir)
    if deterministic_view(warm) != deterministic_view(result.records[0]):
        failures.append(f"{warm['job_id']}: warm-cache re-run differs from its cold record")
    if warm["cache"]["programming"] != "hit":
        failures.append(f"{warm['job_id']}: warm re-run missed the programming cache")

    out = {
        "ready_s": ready_s,
        "sweep_wall_s": wall,
        "attempted": len(payloads) + 1,
        "failed": min(len(failures), len(payloads) + 1),
        "failures": failures,
        "jobs": [
            {
                "programming": record["cache"]["programming"],
                "setup_s": record["timing"]["setup_s"],
                "run_s": record["timing"]["run_s"],
                "wall_s": record["timing"]["wall_s"],
            }
            for record in result.records
        ],
        "cache_totals": totals,
        "kernel_dispatches": kernels,
        "peak_rss_mb": benchlib.peak_rss_mb(),
    }
    if tracer is not None:
        out.update(
            rollup=benchlib.rollup(spans),
            coverage=benchlib.coverage(spans, (start, start + wall)),
            spans=len(spans),
            ring_fill=benchlib.ring_fill(spans),
        )
    return out


if __name__ == "__main__":
    options = json.loads(sys.argv[2])
    print(json.dumps(_child(sys.argv[1], **options)))
