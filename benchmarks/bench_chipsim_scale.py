"""Chip-simulator scale: tiled macro-grid execution vs the monolithic path.

Runs the :mod:`repro.chipsim` scenarios through three device-detailed
execution paths — the monolithic single-oversized-macro path
(``tiling="monolithic"``), the tiled macro grid with the bit-identical
per-tile ``fast`` plane kernel, and the tiled grid with the layer-level
``turbo`` throughput kernel — and records images/s, tile matmuls/s, and
the speedups (``speedup_turbo_vs_fast``: the per-tile plane path against
the layer pipeline) to ``BENCH_chipsim.json`` at the repository root,
together with the time of
each scenario's first (cold) chip build.  The modeled chip metrics
(TOPS/W, FPS) of the tiled runs come from the co-report, i.e. from the
counted activity of the timed pass itself.

Set ``REPRO_BENCH_TINY=1`` for a seconds-scale smoke run (CI): fewer
images, variation disabled (broadcast characterisation), and no speedup
assertions.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import BENCH_TINY as TINY, emit, tiny
from repro.chipsim import SCENARIOS, ChipSimulator
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION

DESIGN = "curfe"
INPUT_BITS = 4
WEIGHT_BITS = 8
ADC_BITS = 5
CALIBRATION = "workload"
IMAGES = tiny(16, 2)
REPEATS = tiny(3, 1)
VARIATION = tiny(DEFAULT_VARIATION, NO_VARIATION)
SCENARIO_NAMES = tiny(("small_cnn", "deep_cnn", "wide_mlp"), ("deep_cnn", "wide_mlp"))

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_chipsim.json"

#: The paths benchmarked per scenario: (key, tiling, engine method).
PATHS = (
    ("monolithic", "monolithic", "fast"),
    ("tiled_fast", "tiled", "fast"),
    ("tiled_turbo", "tiled", "turbo"),
)


def median_run_seconds(sim, images, repeats):
    samples = []
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = sim.run(images)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)), report


def bench_scenario(name, rng):
    scenario = SCENARIOS[name]
    model = scenario.build(seed=0)
    images = rng.random((IMAGES, *model.input_shape))

    sims = {}
    build_seconds = []
    for key, tiling, method in PATHS:
        start = time.perf_counter()
        sims[key] = ChipSimulator(
            model,
            design=DESIGN,
            input_bits=INPUT_BITS,
            weight_bits=WEIGHT_BITS,
            adc_bits=ADC_BITS,
            variation=VARIATION,
            seed=0,
            tiling=tiling,
            device_exec=method,
            calibration=CALIBRATION,
            name=name,
        )
        build_seconds.append(time.perf_counter() - start)

    # The tiled "fast" kernel must reproduce the monolithic logits exactly.
    bit_identical = bool(
        np.array_equal(
            sims["monolithic"].inference.forward(images),
            sims["tiled_fast"].inference.forward(images),
        )
    )
    # Warm the turbo sim too, so every timed run starts from the same state
    # (first-batch reference calibration done, like the two above).
    sims["tiled_turbo"].inference.forward(images)

    record = {
        "description": scenario.description,
        "images": IMAGES,
        "bit_identical_fast": bit_identical,
        # The scenario's first chip build: characterise every cell, then
        # program and precompile the layers.
        "cold_build_s": build_seconds[0],
        "cold_builds_per_s": 1.0 / build_seconds[0],
    }
    for key, _tiling, _method in PATHS:
        seconds, report = median_run_seconds(sims[key], images, REPEATS)
        record[f"{key}_s"] = seconds
        record[f"{key}_images_per_s"] = IMAGES / seconds
        if key == "tiled_turbo":
            record["tiles_per_s"] = report.tiles_per_second
            record["total_macros"] = report.performance.total_macros
            record["modeled_tops_per_watt"] = report.performance.tops_per_watt
            record["modeled_fps"] = report.performance.frames_per_second
            record["calibrated_layers"] = sims[key].calibrated_layers()
    record["speedup_tiled_fast"] = record["monolithic_s"] / record["tiled_fast_s"]
    record["speedup_tiled_turbo"] = record["monolithic_s"] / record["tiled_turbo_s"]
    record["speedup_turbo_vs_fast"] = (
        record["tiled_fast_s"] / record["tiled_turbo_s"]
    )
    return record


def run_measurements():
    rng = np.random.default_rng(2024)
    return {
        "benchmark": "chipsim_scale",
        "design": DESIGN,
        "input_bits": INPUT_BITS,
        "weight_bits": WEIGHT_BITS,
        "adc_bits": ADC_BITS,
        "calibration": CALIBRATION,
        "images": IMAGES,
        "tiny": TINY,
        "scenarios": {name: bench_scenario(name, rng) for name in SCENARIO_NAMES},
    }


def test_chipsim_scale(benchmark):
    record = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    lines = []
    for name, result in record["scenarios"].items():
        lines.extend(
            [
                f"{name} ({result['description']}): "
                f"{result['total_macros']} macros, "
                f"bit-identical fast path: {result['bit_identical_fast']}",
                f"  cold build : {result['cold_build_s']:7.3f} s "
                f"({result['cold_builds_per_s']:.3f} builds/s)",
                f"  monolithic : {result['monolithic_s']:7.3f} s "
                f"({result['monolithic_images_per_s']:7.2f} images/s)",
                f"  tiled fast : {result['tiled_fast_s']:7.3f} s "
                f"({result['speedup_tiled_fast']:.2f}x)",
                f"  tiled turbo: {result['tiled_turbo_s']:7.3f} s "
                f"({result['speedup_tiled_turbo']:.2f}x, "
                f"{result['speedup_turbo_vs_fast']:.2f}x vs tiled fast, "
                f"{result['tiles_per_s']:.0f} tiles/s)",
                f"  modeled    : {result['modeled_tops_per_watt']:.2f} TOPS/W, "
                f"{result['modeled_fps']:.0f} FPS "
                f"({result['calibrated_layers']} calibrated layers @ "
                f"{record['adc_bits']}-bit ADC)",
            ]
        )
    lines.append(f"record: {RECORD_PATH}")
    emit("Chip-simulator scale — tiled macro grid vs monolithic path", "\n".join(lines))

    for name, result in record["scenarios"].items():
        assert result["bit_identical_fast"], name
    if not TINY:
        # Acceptance: the tiled turbo path is >=2x the monolithic path on
        # the deeper-CNN scenario, and the layer-level turbo kernel is >=3x
        # the per-tile fast plane kernel on the same workload.
        assert record["scenarios"]["deep_cnn"]["speedup_tiled_turbo"] >= 2.0, record
        assert record["scenarios"]["deep_cnn"]["speedup_turbo_vs_fast"] >= 3.0, record
