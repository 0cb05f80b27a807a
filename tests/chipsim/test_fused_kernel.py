"""Bit-identity gate of the layer-level ``turbo`` kernel.

The golden contract of the kernel-dispatch layer: ``device_exec="turbo"``
(the fused whole-layer pipeline, alias ``"fused"``) must be
``array_equal`` to the frozen per-plane BLAS kernel it replaced — the
``turbo_oracle`` fixture of ``tests/conftest.py`` — everywhere it can run:
both designs, calibrated and uncalibrated, tiled and monolithic, 4- and
8-bit weights, chunked batches, raw engine matmats and full scenario
inference.  A serving deployment built on a turbo program must reproduce
its own offline :meth:`ChipSimulator.run` bit-for-bit.  Activity counters
are a property of the simulated chip, not of the host kernel, so turbo
and the oracle must report identical counts.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.chipsim.simulator import ChipSimulator
from repro.chipsim.tiling import TiledLayerEngine
from repro.core.macro import IMCMacroConfig
from repro.devices.variation import DEFAULT_VARIATION
from repro.engine.array_state import ArrayState
from repro.engine.macro_engine import MacroEngine
from repro.serve import ChipProgram, ServeConfig, ServeRuntime
from repro.sweep import SweepSpec
from repro.system.inference import InferenceConfig, QuantizedInferenceEngine
from repro.system.nn import SmallCNN


def monolithic_engine(weights, *, design, weight_bits=8, seed=3):
    rows, cols = weights.shape
    padded_rows = -(-rows // 32) * 32
    padded = np.zeros((padded_rows, cols), dtype=np.int64)
    padded[:rows] = weights
    config = IMCMacroConfig(
        rows=padded_rows, banks=cols, block_rows=32,
        adc_bits=5, weight_bits=weight_bits, variation=DEFAULT_VARIATION,
        seed=seed,
    )
    engine = MacroEngine(
        ArrayState.build(design, config), adc_bits=5, weight_bits=weight_bits
    )
    engine.program_weights(padded)
    return engine, padded_rows


def weight_matrix(rng, weight_bits, shape):
    half = 2 ** (weight_bits - 1)
    return rng.integers(-half, half, size=shape)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("calibrated", [False, True])
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_tiled_turbo_equals_oracle(
        self, design, calibrated, weight_bits, turbo_oracle
    ):
        rng = np.random.default_rng(11)
        weights = weight_matrix(rng, weight_bits, (200, 20))
        tiled = TiledLayerEngine(
            weights, design=design, variation=DEFAULT_VARIATION, seed=5,
            weight_bits=weight_bits,
        )
        inputs = rng.integers(0, 16, size=(200, 9))
        if calibrated:
            tiled.calibrate_references(inputs, bits=4)
        oracle = tiled.matmat(inputs, bits=4, method=turbo_oracle)
        turbo = tiled.matmat(inputs, bits=4, method="turbo")
        assert np.array_equal(turbo, oracle)

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("calibrated", [False, True])
    @pytest.mark.parametrize("weight_bits", [4, 8])
    def test_monolithic_turbo_equals_oracle(
        self, design, calibrated, weight_bits, turbo_oracle
    ):
        rng = np.random.default_rng(12)
        weights = weight_matrix(rng, weight_bits, (96, 12))
        mono, padded_rows = monolithic_engine(
            weights, design=design, weight_bits=weight_bits
        )
        inputs = rng.integers(0, 16, size=(96, 7))
        padded = np.zeros((padded_rows, 7), dtype=np.int64)
        padded[:96] = inputs
        if calibrated:
            mono.calibrate_references(padded, bits=4)
        oracle = mono.matmat(padded, bits=4, method=turbo_oracle)
        turbo = mono.matmat(padded, bits=4, method="turbo")
        assert np.array_equal(turbo, oracle)

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    def test_narrow_weights_and_odd_bits(self, design, turbo_oracle):
        rng = np.random.default_rng(13)
        weights = rng.integers(-8, 8, size=(160, 10))
        tiled = TiledLayerEngine(
            weights, design=design, variation=DEFAULT_VARIATION,
            seed=1, weight_bits=4,
        )
        inputs = rng.integers(0, 8, size=(160, 6))
        oracle = tiled.matmat(inputs, bits=3, method=turbo_oracle)
        turbo = tiled.matmat(inputs, bits=3, method="turbo")
        assert np.array_equal(turbo, oracle)

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("batch_chunk", [1, 4])
    def test_chunked_batches(self, design, batch_chunk, turbo_oracle):
        rng = np.random.default_rng(16)
        weights = rng.integers(-128, 128, size=(200, 20))
        tiled = TiledLayerEngine(
            weights, design=design, variation=DEFAULT_VARIATION, seed=6
        )
        inputs = rng.integers(0, 16, size=(200, 9))
        tiled.calibrate_references(inputs, bits=4)
        oracle = tiled.matmat(inputs, bits=4, method=turbo_oracle)
        chunked = tiled.matmat(
            inputs, bits=4, method="turbo", batch_chunk=batch_chunk
        )
        assert np.array_equal(chunked, oracle)

    def test_turbo_tracks_recalibration(self, turbo_oracle):
        """The hoisted layer engine must follow calibrate/clear, not cache
        stale reference levels from a previous programming."""
        rng = np.random.default_rng(14)
        weights = rng.integers(-128, 128, size=(64, 8))
        tiled = TiledLayerEngine(
            weights, design="curfe", variation=DEFAULT_VARIATION, seed=2
        )
        inputs = rng.integers(0, 16, size=(64, 5))
        nominal = tiled.matmat(inputs, bits=4, method="turbo")
        tiled.calibrate_references(inputs, bits=4)
        calibrated = tiled.matmat(inputs, bits=4, method="turbo")
        assert np.array_equal(
            calibrated, tiled.matmat(inputs, bits=4, method=turbo_oracle)
        )
        tiled.clear_calibration()
        assert np.array_equal(nominal, tiled.matmat(inputs, bits=4, method="turbo"))

    def test_activity_counters_identical_to_oracle(self, turbo_oracle):
        rng = np.random.default_rng(15)
        weights = rng.integers(-128, 128, size=(200, 20))
        counts = {}
        for method in (turbo_oracle, "turbo"):
            tiled = TiledLayerEngine(
                weights, design="curfe", variation=DEFAULT_VARIATION, seed=5
            )
            inputs = rng.integers(0, 16, size=(200, 9))
            tiled.matmat(inputs, bits=4, method=method)
            counts[method] = (
                tiled.columns_processed, tiled.block_macs,
                tiled.psum_adds, tiled.tile_matmats,
            )
        assert counts["turbo"] == counts[turbo_oracle]


class TestFusedAlias:
    def test_configs_store_the_canonical_name(self):
        assert InferenceConfig(device_exec="fused").device_exec == "turbo"
        assert ServeConfig(device_exec="fused").device_exec == "turbo"
        spec = SweepSpec(scenarios=("tiny_mlp",), device_execs=("fused", "turbo"))
        assert spec.device_execs == ("turbo", "turbo")
        assert [job.job_id for job in spec.expand()] == [
            job.job_id for job in SweepSpec(scenarios=("tiny_mlp",)).expand()
        ]
        assert InferenceConfig.from_dict({"device_exec": "fused"}) == InferenceConfig()

    def test_every_entry_point_defaults_to_turbo(self):
        for method in (
            ChipSimulator.__init__, TiledLayerEngine.matmat,
            TiledLayerEngine.precompile, TiledLayerEngine.export_kernel_plan,
        ):
            params = inspect.signature(method).parameters
            assert params.get("device_exec", params.get("method")).default == "turbo"
        assert InferenceConfig().device_exec == "turbo"
        assert ServeConfig().device_exec == "turbo"
        assert SweepSpec(scenarios=("tiny_mlp",)).device_execs == ("turbo",)


class TestScenarioBitIdentity:
    @pytest.fixture(scope="class")
    def small_images(self):
        rng = np.random.default_rng(7)
        return rng.random((4, 3, 16, 16))

    @pytest.mark.parametrize("design", ["curfe", "chgfe"])
    @pytest.mark.parametrize("tiling", ["tiled", "monolithic"])
    @pytest.mark.parametrize("calibration", ["workload", "nominal"])
    def test_smallcnn_turbo_equals_oracle(
        self, small_images, design, tiling, calibration, turbo_oracle
    ):
        model = SmallCNN(seed=0)
        logits = {}
        for device_exec in (turbo_oracle, "turbo"):
            engine = QuantizedInferenceEngine(
                model,
                InferenceConfig(
                    design=design, backend="device", tiling=tiling,
                    device_exec=device_exec, calibration=calibration,
                    variation=DEFAULT_VARIATION, seed=2,
                ),
            )
            logits[device_exec] = engine.forward(small_images)
        assert np.array_equal(logits["turbo"], logits[turbo_oracle])


class TestTurboServing:
    def test_fused_serving_equals_offline_run(self):
        """A deployment configured with the ``fused`` alias is the turbo
        deployment, and it is deterministic: runtime predictions equal one
        offline ChipSimulator.run of the same warm chip."""
        config = ServeConfig(
            scenario="tiny_mlp", backend="device", design="curfe",
            device_exec="fused", calibration_images=8,
            replicas=1, max_batch=4,
        )
        assert config.device_exec == "turbo"
        program = ChipProgram.build(config)
        rng = np.random.default_rng(77)
        images = rng.random((9, *program.input_shape))
        offline = program.instantiate().run(images).predictions
        with ServeRuntime(config, program=program) as runtime:
            predictions = runtime.serve(images)
        np.testing.assert_array_equal(predictions, offline)

    def test_turbo_program_matches_oracle_program(self, turbo_oracle):
        """Same deployment, turbo vs the oracle kernel: identical predictions."""
        base = ServeConfig(
            scenario="tiny_mlp", backend="device", design="curfe",
            device_exec="turbo", calibration_images=8,
            replicas=1, max_batch=4,
        )
        oracle = dataclasses.replace(base, device_exec=turbo_oracle)
        rng = np.random.default_rng(78)
        images = rng.random((6, *ChipProgram.build(base).input_shape))
        turbo_pred = ChipProgram.build(base).instantiate().run(images).predictions
        oracle_pred = ChipProgram.build(oracle).instantiate().run(images).predictions
        np.testing.assert_array_equal(turbo_pred, oracle_pred)
