"""Bit-identity oracle of the CurFe series solver and the FeFET compact model.

The functions below are frozen, verbatim copies of the straightforward
whole-array implementations of :func:`repro.devices.fefet.fefet_drain_current`
and :func:`repro.cells.curfe_cell.curfe_series_currents` (one full
``fefet_drain_current`` per bisection step).  The production solver runs in
blocks with a hoisted gate term and in-place buffers; every test here
demands the *same bits* as these references, NaN positions and the sign of
zero included.
"""

import numpy as np
import pytest

from repro.cells import curfe_cell
from repro.cells.curfe_cell import (
    CurFeCell,
    CurFeCellParameters,
    characterise_curfe_group,
    curfe_series_currents,
)
from repro.devices.fefet import (
    DEFAULT_NFEFET_PARAMS,
    DEFAULT_PFEFET_PARAMS,
    FeFETParameters,
    fefet_drain_current,
)

_THERMAL_VOLTAGE = 0.02585


def oracle_fefet_drain_current(vg, vd, vs, vth, params):
    p = params
    vt = _THERMAL_VOLTAGE
    n = p.subthreshold_ideality
    vg = np.asarray(vg, dtype=float)
    vd = np.asarray(vd, dtype=float)
    vs = np.asarray(vs, dtype=float)
    vth = np.asarray(vth, dtype=float)
    vgs = vg - vs
    vds = vd - vs
    if p.polarity == "n":
        overdrive = vgs - vth
    else:
        # pFeFET: conduction for Vgs below Vth (i.e. Vsg above |Vth|).
        overdrive = vth - vgs
        vds = -vds
    # Symmetric device: swap source and drain.
    vds = np.where(vds < 0, -vds, vds)
    # Smooth subthreshold-to-strong-inversion interpolation with a
    # numerically safe softplus.
    x = overdrive / (n * vt)
    softplus = np.where(x > 40.0, x, np.log1p(np.exp(np.minimum(x, 40.0))))
    channel = p.transconductance * (n * vt) ** 2 * softplus * softplus
    # Triode-to-saturation transition and channel-length modulation.
    channel = channel * (
        (1.0 - np.exp(-vds / vt)) * (1.0 + p.channel_length_modulation * vds)
    )
    current = channel + p.leakage_current
    # Compliance clamp: real FeFET read paths saturate.
    return np.minimum(current, p.max_on_current)


def oracle_curfe_series_currents(
    total_drop, gate_voltage, source_voltage, resistance, vth, params, *, iterations=60
):
    total_drop = np.asarray(total_drop, dtype=float)
    gate_voltage = np.asarray(gate_voltage, dtype=float)
    source_voltage = np.asarray(source_voltage, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    vth = np.asarray(vth, dtype=float)
    total_drop, gate_voltage, source_voltage, resistance, vth = np.broadcast_arrays(
        total_drop, gate_voltage, source_voltage, resistance, vth
    )

    def mismatch(v_fefet):
        i_resistor = (total_drop - v_fefet) / resistance
        i_fefet = oracle_fefet_drain_current(
            gate_voltage, source_voltage + v_fefet, source_voltage, vth, params
        )
        return i_resistor - i_fefet

    lo = np.zeros_like(total_drop)
    hi = total_drop.copy()
    f_lo = mismatch(lo)
    f_hi = mismatch(hi)
    if np.any((f_lo > 0) & (f_hi < 0)):
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            positive = mismatch(mid) > 0
            lo = np.where(positive, mid, lo)
            hi = np.where(positive, hi, mid)
    v_fefet = 0.5 * (lo + hi)
    bisected = (total_drop - v_fefet) / resistance
    off_current = oracle_fefet_drain_current(
        gate_voltage, source_voltage + total_drop, source_voltage, vth, params
    )
    resistor_limited = total_drop / resistance
    result = np.where(f_lo <= 0, off_current, np.where(f_hi >= 0, resistor_limited, bisected))
    return np.where(total_drop <= 0, 0.0, result)


def oracle_branches(total_drop, gate_voltage, source_voltage, resistance, vth, params):
    """Masks of the elements that bisect and of those with a NaN mismatch."""
    total_drop, gate_voltage, source_voltage, resistance, vth = np.broadcast_arrays(
        *(np.asarray(a, dtype=float)
          for a in (total_drop, gate_voltage, source_voltage, resistance, vth))
    )
    f_lo = (total_drop - 0.0) / resistance - oracle_fefet_drain_current(
        gate_voltage, source_voltage + 0.0, source_voltage, vth, params
    )
    f_hi = (total_drop - total_drop) / resistance - oracle_fefet_drain_current(
        gate_voltage, source_voltage + total_drop, source_voltage, vth, params
    )
    active = (f_lo > 0) & (f_hi < 0)
    return active, ~(f_lo <= 0) & ~(f_hi >= 0) & ~active


def assert_same_bits(actual, expected):
    """Equal shape, dtype, NaN positions and bit patterns of every number."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(
        actual[~nan].view(np.int64), expected[~nan].view(np.int64)
    )


def series_inputs(rng, size, *, polarity="n"):
    """Cell-like biases with ~40 mV Vth spread, both states, both supplies."""
    sign = rng.random(size) < 0.25
    drop = np.full(size, 0.5)  # VDDi - Vcm = Vcm
    source = np.where(sign, 0.5, 0.0)
    gate = rng.choice([0.0, 1.2], size=size)
    vth = rng.choice([0.3, 2.0], size=size) + rng.normal(0.0, 0.04, size)
    resistance = 5e6 / 2.0 ** rng.integers(0, 4, size) * (1 + rng.normal(0, 0.01, size))
    if polarity == "p":
        gate, vth = -gate, -vth
    return drop, gate, source, resistance, vth


@pytest.fixture
def rng():
    return np.random.default_rng(20240617)


class TestCharacterisationTables:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("shape", [(37, 21, 4), (2500, 4, 4)])
    def test_group_tables_match_oracle(self, rng, monkeypatch, signed, shape):
        """on / off_selected / unselected, in one block and across blocks."""
        params = CurFeCellParameters()
        vth_offsets = rng.normal(0.0, 0.04, shape)
        tolerances = rng.normal(0.0, 0.01, shape)
        tables = characterise_curfe_group(
            vth_offsets, tolerances, signed=signed, params=params
        )
        monkeypatch.setattr(
            curfe_cell, "curfe_series_currents", oracle_curfe_series_currents
        )
        expected = characterise_curfe_group(
            vth_offsets, tolerances, signed=signed, params=params
        )
        assert len(tables) == 3
        for table, reference in zip(tables, expected):
            assert_same_bits(table, reference)

    def test_size_not_a_multiple_of_the_block(self, rng):
        size = 2 * curfe_cell._SOLVE_BLOCK + 1237
        inputs = series_inputs(rng, size)
        assert_same_bits(
            curfe_series_currents(*inputs, DEFAULT_NFEFET_PARAMS),
            oracle_curfe_series_currents(*inputs, DEFAULT_NFEFET_PARAMS),
        )

    def test_broadcast_inputs_keep_their_shape(self, rng):
        vth = 0.3 + rng.normal(0.0, 0.04, (9, 1, 4))
        resistance = 5e6 / 2.0 ** np.arange(4)
        args = ([0.5, 0.5, 0.5, 0.5], 1.2, [0.0, 0.0, 0.0, 0.5], resistance, vth)
        actual = curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS)
        assert actual.shape == (9, 1, 4)
        assert_same_bits(actual, oracle_curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS))


class TestEdgeCases:
    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 1.2, 0.0, 5e6, 0.3),  # selected '1' cell
            (0.5, 1.2, 0.5, 625e3, 0.31),  # sign cell
            (0.5, 0.0, 0.0, 5e6, 0.3),  # unselected cell
            (0.5, 1.2, 0.0, 5e6, 2.0),  # stored '0' cell
            (0.5, 1.2, 0.0, 5e12, 0.3),  # leakage beats the resistor: no bisection
            (0.0, 1.2, 0.0, 5e6, 0.3),  # no drop
            (-0.2, 1.2, 0.0, 5e6, 0.3),  # negative drop
        ],
    )
    def test_scalar_calls(self, args):
        actual = curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS)
        expected = oracle_curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS)
        assert type(actual) is type(expected)
        assert actual.ndim == 0
        assert_same_bits(actual, expected)

    def test_scalar_cells_match_oracle(self, rng):
        params = CurFeCellParameters()
        for significance in range(4):
            for sign in (False, True):
                for bit in (0, 1):
                    cell = CurFeCell(
                        significance,
                        is_sign_cell=sign,
                        stored_bit=bit,
                        vth_offset=float(rng.normal(0.0, 0.04)),
                        resistor_tolerance=float(rng.normal(0.0, 0.01)),
                        params=params,
                    )
                    drop = 0.5
                    source = 0.5 if sign else 0.0
                    for gate in (0.0, 1.2):
                        expected = float(
                            oracle_curfe_series_currents(
                                drop, gate, source,
                                cell.resistor.effective_resistance,
                                cell.fefet.vth, cell.fefet.params,
                            )
                        )
                        assert cell._series_current(drop, gate, source) == expected

    def test_non_positive_drops_give_exact_zero(self, rng):
        drop = np.array([0.0, -0.0, -0.3, 0.5, 0.0])
        args = (drop, 1.2, 0.0, 5e6, 0.3 + rng.normal(0.0, 0.04, 5))
        actual = curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS)
        assert_same_bits(actual, oracle_curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS))
        assert not np.signbit(actual[[0, 1, 2, 4]]).any()

    def test_all_off_inputs(self, rng):
        """No element bisects: the FeFET leakage beats every resistor current."""
        size = curfe_cell._SOLVE_BLOCK + 11
        drop, gate, source, resistance, vth = series_inputs(rng, size)
        args = (drop, gate, source, resistance * 1e6, vth)
        active, undecided = oracle_branches(*args, DEFAULT_NFEFET_PARAMS)
        assert not active.any() and not undecided.any()
        assert_same_bits(
            curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS),
            oracle_curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS),
        )

    def test_pfefet_parameters(self, rng):
        inputs = series_inputs(rng, 3000, polarity="p")
        assert oracle_branches(*inputs, DEFAULT_PFEFET_PARAMS)[0].any()
        assert_same_bits(
            curfe_series_currents(*inputs, DEFAULT_PFEFET_PARAMS),
            oracle_curfe_series_currents(*inputs, DEFAULT_PFEFET_PARAMS),
        )

    @pytest.mark.parametrize("iterations", [0, 1, 7, 80])
    def test_non_default_iterations(self, rng, iterations):
        inputs = series_inputs(rng, 1500)
        assert_same_bits(
            curfe_series_currents(*inputs, DEFAULT_NFEFET_PARAMS, iterations=iterations),
            oracle_curfe_series_currents(
                *inputs, DEFAULT_NFEFET_PARAMS, iterations=iterations
            ),
        )

    def test_empty_input(self):
        actual = curfe_series_currents(np.zeros((0, 4)), 1.2, 0.0, 5e6, 0.3, DEFAULT_NFEFET_PARAMS)
        assert actual.shape == (0, 4)

    @pytest.mark.parametrize("nan_block, active_block", [(0, 1), (1, 0), (0, None)])
    def test_nan_mismatch_follows_the_whole_call(self, nan_block, active_block):
        """A NaN-mismatch element takes neither closed-form branch.

        It keeps the bisected value, which differs with and without a
        bisection anywhere in the call (inf vs NaN here).  The element sits
        in a block with no element to bisect, before or after the block that
        bisects, or alone.
        """
        block = curfe_cell._SOLVE_BLOCK
        drop = np.zeros(2 * block)  # FeFET-off filler
        resistance = np.full(2 * block, 5e6)
        nan_at = nan_block * block + 3
        drop[nan_at], resistance[nan_at] = 0.5, 0.0  # f_hi = 0/0
        if active_block is not None:
            drop[active_block * block + 5] = 0.5
        args = (drop, 1.2, 0.0, resistance, 0.3)
        with np.errstate(divide="ignore", invalid="ignore"):
            active, undecided = oracle_branches(*args, DEFAULT_NFEFET_PARAMS)
            assert np.flatnonzero(undecided).tolist() == [nan_at]
            assert active.sum() == (active_block is not None)
            assert_same_bits(
                curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS),
                oracle_curfe_series_currents(*args, DEFAULT_NFEFET_PARAMS),
            )


class TestDrainCurrent:
    @pytest.mark.parametrize(
        "params",
        [
            DEFAULT_NFEFET_PARAMS,
            DEFAULT_PFEFET_PARAMS,
            FeFETParameters(channel_length_modulation=0.0, max_on_current=1e-6),
        ],
    )
    def test_random_biases(self, rng, params):
        size = 20000
        vg = rng.uniform(-3.0, 3.0, size)
        vd = rng.uniform(-1.5, 1.5, size)
        vs = rng.uniform(-1.0, 1.0, size)
        vth = rng.uniform(-2.5, 2.5, size)
        # Equal drain and source, and huge overdrives past the softplus cut.
        vd[:50] = vs[:50]
        vg[50:100] = 40.0
        assert_same_bits(
            fefet_drain_current(vg, vd, vs, vth, params),
            oracle_fefet_drain_current(vg, vd, vs, vth, params),
        )

    @pytest.mark.parametrize("params", [DEFAULT_NFEFET_PARAMS, DEFAULT_PFEFET_PARAMS])
    def test_scalars_stay_scalars(self, params):
        for vd in (0.1, 0.0, -0.3):
            actual = fefet_drain_current(1.0, vd, 0.0, 0.2, params)
            expected = oracle_fefet_drain_current(1.0, vd, 0.0, 0.2, params)
            assert type(actual) is type(expected)
            assert_same_bits(actual, expected)

    def test_broadcasting(self, rng):
        vg = np.linspace(-0.5, 2.0, 7)[:, None]
        vth = 0.3 + rng.normal(0.0, 0.04, (1, 5))
        args = (vg, 0.1, 0.0, vth, DEFAULT_NFEFET_PARAMS)
        actual = fefet_drain_current(*args)
        assert actual.shape == (7, 5)
        assert_same_bits(actual, oracle_fefet_drain_current(*args))
