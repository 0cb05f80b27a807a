"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.cells.chgfe_cell import ChgFeCellParameters
from repro.cells.curfe_cell import CurFeCellParameters
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.engine.array_state import NUM_COLUMNS
from repro.engine.kernels import Kernel, register_kernel, unregister_kernel


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def curfe_params():
    """Default CurFe cell parameters."""
    return CurFeCellParameters()


@pytest.fixture
def chgfe_params():
    """Default ChgFe cell parameters."""
    return ChgFeCellParameters()


@pytest.fixture
def variation():
    """The paper's nominal variation model (sigma = 40 mV)."""
    return DEFAULT_VARIATION


@pytest.fixture
def no_variation():
    """Variation disabled."""
    return NO_VARIATION


# --------------------------------------------------------------------------
# Frozen per-plane turbo kernel: the test-only oracle of the layer-level
# ``"turbo"`` pipeline.  The operand layout (``transpose(1, 2, 0, 3)`` then
# reshape to (num_block_rows, block_rows, banks*4)) and the per-block gemm
# are kept exactly as the shipped kernel had them: BLAS results depend on
# the operand layout, so this is what "bit-identical to the old turbo"
# means.
# --------------------------------------------------------------------------


def _oracle_turbo_group_tables(engine, key):
    """Per-block gemm operands of one group for the stored pattern."""
    state = engine.state
    group = state.group(key)
    difference = engine.selected(key) - group.unselected
    difference_t = np.ascontiguousarray(
        difference.transpose(1, 2, 0, 3).reshape(
            state.num_block_rows,
            state.block_rows,
            state.banks * NUM_COLUMNS,
        )
    )
    return difference_t, group.unselected.sum(axis=2)


def _oracle_turbo_reduce(engine, plane, key):
    """BLAS gemm row reduction against the difference tables."""
    state = engine.state
    difference_t, unselected_sum = _oracle_turbo_group_tables(engine, key)
    batch = plane.shape[0]
    reduced = np.empty((batch, state.banks, state.num_block_rows, NUM_COLUMNS))
    for j in range(state.num_block_rows):
        reduced[:, :, j, :] = (plane[:, j] @ difference_t[j]).reshape(
            batch, state.banks, NUM_COLUMNS
        )
    return unselected_sum[None] + reduced


@pytest.fixture(scope="session")
def turbo_oracle():
    """Register the frozen per-plane turbo kernel; yields its registry name."""
    kernel = register_kernel(
        Kernel(
            name="turbo_oracle",
            level="plane",
            description="frozen per-plane BLAS reduction (test-only oracle)",
            reduce_plane=_oracle_turbo_reduce,
        )
    )
    yield kernel.name
    unregister_kernel(kernel.name)
