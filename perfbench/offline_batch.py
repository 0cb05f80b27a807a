"""``offline_batch``: warm ``ChipSimulator.run`` of deep_cnn on both designs.

deep_cnn spans 51 macros (2x2, 3x3 and 6x6 tile grids), so the timed part
is kernel, tiling and quantise work only: set-up builds both chips, runs
one calibrating pass on its own images and one reference pass on the
timed images.  CurFe folds its columns before the GEMM and ChgFe runs one
GEMM per column, so the two designs take different kernel paths.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import benchlib
from repro.chipsim import ChipSimulator, get_scenario
from repro.obs import disable, enable

SCENARIO = "deep_cnn"
DESIGNS = ("curfe", "chgfe")

#: Images of the calibrating first pass (its first batch sets the ADC
#: references).
CALIBRATION_IMAGES = 16

#: Images per timed ``ChipSimulator.run`` call.
BATCH_IMAGES = 16


def run(seed: int, seconds: float, trace: bool) -> Dict:
    """Set up both chips, time passes for *seconds*; return the result."""
    scenario = get_scenario(SCENARIO)
    model = scenario.build(seed=seed)
    calibration = scenario.workload(images=CALIBRATION_IMAGES, seed=seed + 1).images
    images = scenario.workload(images=BATCH_IMAGES, seed=seed + 2).images
    float_predictions = model.predict(images)

    build_s: Dict[str, float] = {}
    first_pass_s: Dict[str, float] = {}
    simulators = {}
    setup_start = time.perf_counter()
    for design in DESIGNS:
        start = time.perf_counter()
        simulators[design] = ChipSimulator(model, design=design, seed=seed)
        build_s[design] = time.perf_counter() - start
        start = time.perf_counter()
        simulators[design].run(calibration)
        first_pass_s[design] = time.perf_counter() - start
    reference = {design: simulators[design].run(images) for design in DESIGNS}
    setup_s = time.perf_counter() - setup_start

    failures: List[str] = []

    def timed_pass(design: str) -> float:
        start = time.perf_counter()
        report = simulators[design].run(images)
        elapsed = time.perf_counter() - start
        if not np.array_equal(report.predictions, reference[design].predictions):
            failures.append(f"{design}: a timed pass differs from the reference pass")
        return elapsed

    dispatches_before = benchlib.counter_totals("repro_engine_kernel_dispatch_total", "kernel")
    passes: List[Dict[str, float]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append({design: timed_pass(design) for design in DESIGNS})
    dispatches = benchlib.delta(
        benchlib.counter_totals("repro_engine_kernel_dispatch_total", "kernel"),
        dispatches_before,
    )
    peak_rss = benchlib.peak_rss_mb()

    pass_walls = [sum(sample.values()) for sample in passes]
    images_per_pass = BATCH_IMAGES * len(DESIGNS)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "throughput_per_s": benchlib.percentile([images_per_pass / w for w in pass_walls], 50),
        "latency_p50_ms": benchlib.percentile(pass_walls, 50) * 1e3,
    }
    per_layer: Dict[str, float] = {"offline.failed": 0}
    detail: Dict[str, object] = {"pass_wall_ms": benchlib.summary([w * 1e3 for w in pass_walls])}
    for design in DESIGNS:
        report = reference[design]
        perf = report.performance
        run_s = benchlib.percentile([sample[design] for sample in passes], 50)
        detail[f"offline_images_per_s.{design}"] = BATCH_IMAGES / run_s
        per_layer.update({
            f"setup.chip_build_s.{design}": build_s[design],
            f"setup.first_pass_s.{design}": first_pass_s[design],
            f"chipsim.run_s.{design}": run_s,
            f"chipsim.tiles_executed.{design}": report.tiles_executed,
            f"modeled.energy_uj_per_image.{design}": perf.total_energy * 1e6,
            f"modeled.latency_us_per_image.{design}": perf.total_latency * 1e6,
            f"modeled.tops_per_watt.{design}": perf.tops_per_watt,
            f"activity.block_macs.{design}": sum(a.block_macs for a in report.activities),
            f"offline.float_agreement.{design}": float(
                np.mean(report.predictions == float_predictions)
            ),
        })
    for kernel, count in dispatches.items():
        per_layer[f"engine.kernel_dispatches.{kernel}"] = count

    attempted = len(passes) * len(DESIGNS)
    if trace:
        tracer = enable(capacity=benchlib.TRACE_CAPACITY)
        traced_s = {}
        windows = []
        try:
            for design in DESIGNS:
                start = time.perf_counter()
                traced_s[design] = timed_pass(design)
                windows.append((start, time.perf_counter()))
                attempted += 1
        finally:
            disable()
        spans = tracer.drain()
        per_layer.update(benchlib.rollup(spans))
        covered = sum(benchlib.coverage(spans, window) * (window[1] - window[0]) for window in windows)
        per_layer.update({
            "trace.overhead_ratio": sum(traced_s.values()) / benchlib.percentile(pass_walls, 50),
            "trace.coverage": covered / sum(b - a for a, b in windows),
            "trace.spans": len(spans),
            "trace.ring_fill": benchlib.ring_fill(spans),
        })
    failed = min(len(failures), attempted)
    per_layer["offline.failed"] = failed
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "per_layer": per_layer,
        "detail": detail,
    }
