"""``serve_open_loop``: ``ServeRuntime`` under a seeded Poisson open loop.

``ServeConfig`` defaults (``turbo`` kernel, one thread-pool replica,
micro-batches of up to 8) serving small_cnn, driven at three fixed
absolute rates: below, near and beyond what one replica sustains, so the
mean batch grows from about 1 to full.  Each request is timed from its
*due* send time, so a stall also charges the requests it delays, and the
generator's own lateness is reported.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Optional

import numpy as np

import benchlib
from repro.chipsim import get_scenario
from repro.obs import disable, enable
from repro.serve import ChipProgram, ServeConfig, ServeRuntime

SCENARIO = "small_cnn"

#: Offered load per rate, requests/s.  ``low`` keeps one replica about a
#: quarter busy, so its latency reads service time more than queueing:
#: queueing multiplies any slowdown of a shared host (at 15 rps, a host
#: 40 % slower than usual multiplied the median by up to five).  ``mid``
#: approaches saturation with batching; ``high`` is beyond what one
#: replica sustains.
RATES = {"low": 10.0, "mid": 50.0, "high": 200.0}

#: Schedule length of each rate as a share of the run's seconds; most of
#: the time goes to ``low``, whose latency is the noisiest figure.
#: ``high`` is a fixed-size burst: its backlog drains at the pool's own
#: pace, and 300 requests stay under the default 256-deep queue plus what
#: the replica serves meanwhile, so submits do not block.
SHARES = {"low": 1.0, "mid": 0.2}
MIN_REQUESTS = 200
HIGH_REQUESTS = 300

#: Requests submitted at once before measuring: eight full micro-batches
#: warm the replica's batched path before the rates are timed.
WARMUP_REQUESTS = 64

#: A rate is sustained when its p95 stays within this limit and its
#: backlog does not grow.
P95_LIMIT_MS = 250.0

DRAIN_TIMEOUT_S = 60.0


def _counts(seconds: float) -> Dict[str, int]:
    counts = {
        name: max(MIN_REQUESTS, int(RATES[name] * share * seconds))
        for name, share in SHARES.items()
    }
    counts["high"] = HIGH_REQUESTS
    return counts


def open_loop(runtime, images, rate: float, seed: int) -> Dict:
    """Submit *images* on a seeded Poisson schedule; time from due to done."""
    due = benchlib.poisson_schedule(rate, len(images), seed)
    done_at: List[Optional[float]] = [None] * len(images)
    late: List[float] = []
    futures = []
    failures: List[str] = []

    def finished(index: int, _future) -> None:
        done_at[index] = time.perf_counter()

    start = time.perf_counter() + 0.005
    for index, image in enumerate(images):
        target = start + due[index]
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            future = runtime.submit(image)
        except Exception as error:  # refused or invalid: counted, not fatal
            failures.append(f"request {index} refused: {error!r}")
            futures.append(None)
            continue
        late.append(time.perf_counter() - target)
        future.add_done_callback(partial(finished, index))
        futures.append(future)
    backlog_end = sum(1 for f in futures if f is not None and not f.done())
    if not runtime.drain(timeout=DRAIN_TIMEOUT_S):
        failures.append(f"requests still outstanding after {DRAIN_TIMEOUT_S} s")

    latencies, waits, predictions = [], [], []
    batches = {}
    for index, future in enumerate(futures):
        if future is None or not future.done() or future.exception() is not None:
            if future is not None:
                failures.append(f"request {index} failed: {future.exception()!r}")
            predictions.append(-1)
            continue
        response = future.result()
        latencies.append(done_at[index] - (start + due[index]))
        waits.append(response.queue_wait_s)
        predictions.append(response.prediction)
        # Requests of one micro-batch share its measured service time.
        batches[response.service_s] = response.batch_size
    last_done = max((t for t in done_at if t is not None), default=start)
    return {
        "latency_ms": [x * 1e3 for x in latencies],
        "queue_wait_ms": [x * 1e3 for x in waits],
        "service_ms": [x * 1e3 for x in batches],
        "batch_sizes": list(batches.values()),
        "gen_late_ms": [x * 1e3 for x in late],
        "backlog_end": backlog_end,
        "predictions": predictions,
        "failures": failures,
        "wall_s": last_done - start,
        "window": (start, last_done),
        "completed": len(latencies),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict:
    """Serve the three rates (plus a traced ``low`` loop); return the result."""
    config = ServeConfig(scenario=SCENARIO)
    counts = _counts(seconds)
    scenario = get_scenario(SCENARIO)
    pool = scenario.workload(images=WARMUP_REQUESTS + sum(counts.values()), seed=seed).images
    warmup, rest = pool[:WARMUP_REQUESTS], pool[WARMUP_REQUESTS:]
    inputs = {}
    for name, count in counts.items():
        inputs[name], rest = rest[:count], rest[count:]

    start = time.perf_counter()
    program = ChipProgram.build(config)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    runtime = ServeRuntime(config, program=program).start()
    start_s = time.perf_counter() - start

    results = {}
    traced = None
    spans: List[Dict] = []
    try:
        runtime.serve(warmup)
        dispatches_before = benchlib.counter_totals("repro_engine_kernel_dispatch_total", "kernel")
        for offset, name in enumerate(RATES):
            results[name] = open_loop(runtime, inputs[name], RATES[name], seed * 7 + offset)
        dispatches = benchlib.delta(
            benchlib.counter_totals("repro_engine_kernel_dispatch_total", "kernel"),
            dispatches_before,
        )
        if trace:
            tracer = enable(capacity=benchlib.TRACE_CAPACITY)
            try:
                traced = open_loop(runtime, inputs["low"], RATES["low"], seed * 7)
            finally:
                disable()
            spans = tracer.drain()
    finally:
        runtime.stop()
    peak_rss = benchlib.peak_rss_mb()

    # serve == offline: every served prediction, in submission order,
    # equals a fresh replica's offline prediction of the same image.  A
    # refused or failed request has no prediction and counts here too.
    replica = program.instantiate()
    failures: List[str] = []
    attempted = failed = 0
    checked = [(name, name, result) for name, result in results.items()]
    if traced is not None:
        checked.append(("low (traced)", "low", traced))
    for label, name, result in checked:
        failures.extend(result["failures"])
        attempted += len(inputs[name])
        wrong = int(np.sum(np.asarray(result["predictions"]) != replica.predict(inputs[name])))
        if wrong:
            failed += wrong
            failures.append(f"{label}: {wrong} requests without the offline prediction")

    low, high = results["low"], results["high"]
    sustained = [
        RATES[name]
        for name, result in results.items()
        if result["latency_ms"]
        and benchlib.percentile(result["latency_ms"], 95) <= P95_LIMIT_MS
        and result["backlog_end"] <= config.max_batch * config.replicas
    ]
    metrics = {
        "setup_s": build_s + start_s,
        "peak_rss_mb": peak_rss,
        "throughput_per_s": high["completed"] / high["wall_s"],
        # Per-request latency at bs ~1 is mostly per-call overhead, which a
        # slowed shared host inflates twice as much as batched compute; the
        # open-loop latencies per rate are reported per layer instead.
        "latency_p50_ms": benchlib.percentile(high["service_ms"], 50),
    }
    per_layer: Dict[str, float] = {
        "setup.program_build_s": build_s,
        "setup.runtime_start_s": start_s,
        "serve.max_rate_rps": max(sustained, default=0.0),
        "serve.failed": failed,
    }
    for kernel, count in dispatches.items():
        per_layer[f"engine.kernel_dispatches.{kernel}"] = count
    detail: Dict[str, object] = {"requests": counts}
    for name, result in results.items():
        per_layer.update({
            f"serve.latency_p50_ms.{name}": benchlib.percentile(result["latency_ms"], 50),
            f"serve.latency_p95_ms.{name}": benchlib.percentile(result["latency_ms"], 95),
            f"serve.queue_wait_ms.p50.{name}": benchlib.percentile(result["queue_wait_ms"], 50),
            f"serve.service_ms.p50.{name}": benchlib.percentile(result["service_ms"], 50),
            f"serve.batch_size_mean.{name}": float(np.mean(result["batch_sizes"])),
            f"serve.backlog_end.{name}": result["backlog_end"],
            f"serve.gen_late_ms.max.{name}": max(result["gen_late_ms"]),
        })
        detail[f"serve_latency_ms.{name}"] = benchlib.summary(result["latency_ms"])
        detail[f"gen_late_ms.{name}"] = benchlib.summary(result["gen_late_ms"])
    if traced is not None:
        per_layer.update(benchlib.rollup(spans, design=config.design))
        per_layer.update({
            "trace.overhead_ratio": benchlib.percentile(traced["latency_ms"], 50)
            / benchlib.percentile(low["latency_ms"], 50),
            "trace.coverage": benchlib.coverage(spans, traced["window"]),
            "trace.spans": len(spans),
            "trace.ring_fill": benchlib.ring_fill(spans),
        })
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "per_layer": per_layer,
        "detail": detail,
    }
