"""The per-job fast forms against the reference forms they replace.

Each test keeps the straightforward version inline as the oracle and
requires bit-equal results: the keyed generator against
``default_rng(SeedSequence(list))``, the float clamp against ``np.clip``,
the event timer against the latency half of ``perturb_measurement`` and
the flat-index map against the three per-axis table scans.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import FrequencyError
from repro.hardware.devices import jetson_agx, jetson_tx2
from repro.hardware.noise import (
    MeasurementNoise,
    NoiselessMeasurement,
    _rng_for,
    keyed_rng,
)
from repro.hardware.telemetry import EventTimer
from repro.types import DvfsConfiguration

WORD = 0xFFFFFFFF


def _reference_rng(material: list[int]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(material))


def _assert_same_stream(fast: np.random.Generator, reference: np.random.Generator) -> None:
    assert fast.bit_generator.state == reference.bit_generator.state
    assert fast.normal(0.0, 1.0, size=8).tolist() == reference.normal(0.0, 1.0, size=8).tolist()


class TestKeyedRng:
    @pytest.mark.parametrize(
        "key",
        [
            [0],
            [0, 0, 0],
            [WORD],
            [WORD, 0, 7],
            [3, 1049, 17, 0x1A],
            [2**32],
            [2**32 + 5, 9],
            [2**64 - 1, 0, 2**40 + 3],
            [2**96 + 2**33 + 1],
        ],
    )
    def test_matches_seed_sequence_of_the_list(self, key):
        _assert_same_stream(keyed_rng(key), _reference_rng(list(key)))

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 9, 2**40])
    def test_matches_default_rng_of_an_int_seed(self, seed):
        # The fleet upload stream: ``default_rng(upload_seed)`` splits seeds
        # >= 2**32 into 32-bit words exactly like a one-element key.
        _assert_same_stream(keyed_rng([seed]), np.random.default_rng(seed))

    @pytest.mark.parametrize(
        "seed,key",
        [
            (0, [0, 1, 0x1A]),
            (-1, [5, 0x2B]),
            (2**31, [-7, 2**33 + 1]),
            (2**32 + 3, [WORD, -(2**40)]),
        ],
    )
    def test_rng_for_matches_masked_seed_sequence(self, seed, key):
        material = [seed & WORD] + [int(k) & WORD for k in key]
        _assert_same_stream(_rng_for(seed, key), _reference_rng(material))

    def test_negative_entries_are_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1])
        with pytest.raises(ValueError):
            keyed_rng([3, -1])


class _FixedDraw:
    """A generator stand-in whose ``normal`` returns a chosen value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def normal(self, loc: float, scale: float) -> float:
        return loc + self.value


def _clip_reference(draw: float) -> float:
    return float(np.clip(1.0 + draw, 0.2, 1.8))


class TestBoundedFactor:
    @pytest.mark.parametrize("edge", [0.2, 1.8])
    def test_matches_np_clip_at_and_around_the_bounds(self, edge):
        target = edge - 1.0
        draws = [target]
        below = above = target
        for _ in range(4):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            draws += [below, above]
        draws += [target - 1e-3, target + 1e-3, target - 5.0, target + 5.0]
        for draw in draws:
            fast = MeasurementNoise._bounded_factor(_FixedDraw(draw), 0.1)
            assert type(fast) is float
            assert fast.hex() == _clip_reference(draw).hex()

    def test_matches_np_clip_on_real_draws(self):
        stds = [0.004, 0.05, 0.5, 3.0]
        for i, std in enumerate(stds):
            fast_rng, ref_rng = keyed_rng([i]), keyed_rng([i])
            for _ in range(200):
                fast = MeasurementNoise._bounded_factor(fast_rng, std)
                reference = _clip_reference(ref_rng.normal(0.0, std))
                assert fast.hex() == reference.hex()

    def test_nan_passes_through_like_np_clip(self):
        fast = MeasurementNoise._bounded_factor(_FixedDraw(math.nan), 0.1)
        assert math.isnan(fast) and math.isnan(_clip_reference(math.nan))


class TestEventTimer:
    @pytest.mark.parametrize("noise", [MeasurementNoise(seed=5), NoiselessMeasurement(3)])
    def test_latency_draw_matches_perturb_measurement(self, noise):
        timer = EventTimer(noise)
        jitter = EventTimer.JITTER_STD / max(noise.sensor_latency_std, EventTimer.JITTER_STD)
        for draw, true_latency in enumerate((0.41, 1e-7, 0.0, 3.2, 0.0631, 12.0), start=1):
            measured, _ = noise.perturb_measurement(
                [0xE7, draw], true_latency, 1.0, duration=max(true_latency, 1e-6)
            )
            expected = true_latency + (measured - true_latency) * jitter
            assert timer.time(true_latency) == expected


def _three_scan_index(space, config: DvfsConfiguration) -> int:
    def scan(table, freq):
        for i, f in enumerate(table.frequencies):
            if abs(freq - f) < 1e-9:
                return i
        raise FrequencyError(f"{freq} GHz is not in the {table.unit} table")

    ci = scan(space.cpu, config.cpu)
    gi = scan(space.gpu, config.gpu)
    mi = scan(space.mem, config.mem)
    return (ci * len(space.gpu) + gi) * len(space.mem) + mi


class TestFlatIndex:
    @pytest.mark.parametrize("factory", [jetson_agx, jetson_tx2])
    def test_matches_three_scans_on_every_configuration(self, factory):
        space = factory().space
        for position, config in enumerate(space.all_configurations()):
            assert space.flat_index_of(config) == _three_scan_index(space, config) == position

    def test_near_table_clocks_use_the_scan_tolerance(self):
        space = jetson_agx().space
        config = space.all_configurations()[777]
        nudged = DvfsConfiguration(config.cpu + 4e-10, config.gpu, config.mem - 4e-10)
        assert space.flat_index_of(nudged) == _three_scan_index(space, nudged) == 777

    def test_off_table_configuration_raises(self):
        space = jetson_tx2().space
        config = space.all_configurations()[10]
        off = DvfsConfiguration(config.cpu, config.gpu + 1e-3, config.mem)
        with pytest.raises(FrequencyError):
            _three_scan_index(space, off)
        with pytest.raises(FrequencyError):
            space.flat_index_of(off)
