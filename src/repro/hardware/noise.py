"""Deterministic measurement- and process-noise models.

Two kinds of randomness affect what the controller observes:

* **process noise** — genuine run-to-run variation in job latency/energy
  (cache state, DRAM refresh, thermal drift).  Applied to the *actual*
  values a job consumes.
* **sensor noise** — error in the INA3221 power readings and event timers.
  Applied only to the *measured* values reported to the controller.  The
  sensor error over a measurement window shrinks as the window grows, and
  is inflated while the voltage rails are still settling after a DVFS
  switch — exactly the effect that motivates the paper's ``tau`` reference
  measurement duration (§4.2, "Workload assignment").

Every draw is a pure function of ``(seed, *key)``, so identical campaigns
produce bit-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.types import require_fraction, require_positive

_WORD = 0xFFFFFFFF


def _uint32_words(value: int) -> Iterator[int]:
    """The 32-bit words of a non-negative int, least significant first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"generator key entries must be non-negative, got {value}")
    yield value & _WORD
    value >>= 32
    while value:
        yield value & _WORD
        value >>= 32


def keyed_rng(key: Sequence[int]) -> np.random.Generator:
    """The generator ``default_rng(SeedSequence(list(key)))`` returns.

    ``SeedSequence`` splits each non-negative int of ``key`` into its
    32-bit words (least significant first) and mixes the concatenation.
    Handing it those words as one ``uint32`` array yields the same state
    while skipping its per-element coercion of a Python list, which costs
    more than the rest of the construction on the per-job path.  ``key``
    must be non-empty.
    """
    words = list(key)
    if min(words) < 0 or max(words) > _WORD:
        words = [word for value in words for word in _uint32_words(value)]
    return np.random.default_rng(
        np.random.SeedSequence(np.array(words, dtype=np.uint32))
    )


def _rng_for(seed: int, key: Iterable[int]) -> np.random.Generator:
    """Build a generator deterministically keyed by ``(seed, *key)``."""
    return keyed_rng([seed & _WORD] + [int(k) & _WORD for k in key])


class MeasurementNoise:
    """Multiplicative Gaussian noise with duration-dependent sensor error.

    Parameters
    ----------
    seed:
        Base seed; combine with per-draw keys for determinism.
    process_latency_std / process_energy_std:
        Relative std of true per-job variation.
    sensor_latency_std / sensor_energy_std:
        Relative std of a sensor reading over a window of
        ``reference_duration`` seconds.  Shorter windows scale the error by
        ``sqrt(reference_duration / duration)`` (capped).
    settle_time:
        Seconds after a DVFS switch during which rails are unstable;
        windows overlapping it get ``settle_penalty`` times the error.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        process_latency_std: float = 0.005,
        process_energy_std: float = 0.010,
        sensor_latency_std: float = 0.004,
        sensor_energy_std: float = 0.015,
        reference_duration: float = 5.0,
        max_error_scale: float = 6.0,
        settle_time: float = 0.5,
        settle_penalty: float = 3.0,
    ) -> None:
        self.seed = int(seed)
        self.process_latency_std = require_fraction("process_latency_std", process_latency_std)
        self.process_energy_std = require_fraction("process_energy_std", process_energy_std)
        self.sensor_latency_std = require_fraction("sensor_latency_std", sensor_latency_std)
        self.sensor_energy_std = require_fraction("sensor_energy_std", sensor_energy_std)
        self.reference_duration = require_positive("reference_duration", reference_duration)
        self.max_error_scale = require_positive("max_error_scale", max_error_scale)
        if settle_time < 0:
            raise ValueError(f"settle_time must be >= 0, got {settle_time}")
        self.settle_time = float(settle_time)
        self.settle_penalty = require_positive("settle_penalty", settle_penalty)

    # -- process noise ------------------------------------------------------

    def perturb_job(
        self, key: Iterable[int], latency: float, energy: float
    ) -> tuple[float, float]:
        """Apply run-to-run variation to one job's true latency/energy."""
        rng = _rng_for(self.seed, list(key) + [0x1A])
        lat = latency * self._bounded_factor(rng, self.process_latency_std)
        en = energy * self._bounded_factor(rng, self.process_energy_std)
        return lat, en

    # -- sensor noise ---------------------------------------------------------

    def error_scale(self, duration: float, settling_overlap: float = 0.0) -> float:
        """Relative error multiplier for a window of ``duration`` seconds."""
        duration = max(float(duration), 1e-6)
        scale = math.sqrt(self.reference_duration / duration)
        scale = min(max(scale, 1.0), self.max_error_scale)
        if self.settle_time > 0 and settling_overlap > 0:
            overlap_frac = min(settling_overlap / duration, 1.0)
            scale *= 1.0 + (self.settle_penalty - 1.0) * overlap_frac
        return scale

    def perturb_measurement(
        self,
        key: Iterable[int],
        latency: float,
        energy: float,
        duration: float,
        settling_overlap: float = 0.0,
    ) -> tuple[float, float]:
        """Apply sensor error to a measurement over a window."""
        rng = _rng_for(self.seed, list(key) + [0x2B])
        scale = self.error_scale(duration, settling_overlap)
        lat = latency * self._bounded_factor(rng, self.sensor_latency_std * scale)
        en = energy * self._bounded_factor(rng, self.sensor_energy_std * scale)
        return lat, en

    def perturb_timing(self, key: Iterable[int], latency: float, duration: float) -> float:
        """The latency half of :meth:`perturb_measurement` (no settling).

        Same stream and same first draw; the energy factor that
        :meth:`perturb_measurement` would draw next is never made.
        """
        rng = _rng_for(self.seed, list(key) + [0x2B])
        scale = self.error_scale(duration)
        return latency * self._bounded_factor(rng, self.sensor_latency_std * scale)

    @staticmethod
    def _bounded_factor(rng: np.random.Generator, std: float) -> float:
        """A multiplicative factor ``1 + N(0, std)`` clipped to stay positive."""
        if std <= 0:
            return 1.0
        # Bit-equal to ``float(np.clip(..., 0.2, 1.8))`` on a float (NaN
        # passes through both), without the ufunc dispatch.
        return min(max(1.0 + rng.normal(0.0, std), 0.2), 1.8)


class NoiselessMeasurement(MeasurementNoise):
    """A noise model that changes nothing — for unit tests and oracles."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(
            seed,
            process_latency_std=0.0,
            process_energy_std=0.0,
            sensor_latency_std=0.0,
            sensor_energy_std=0.0,
            settle_time=0.0,
        )

    def perturb_job(
        self, key: Iterable[int], latency: float, energy: float
    ) -> tuple[float, float]:  # noqa: D102 - inherited
        return latency, energy

    def perturb_measurement(
        self,
        key: Iterable[int],
        latency: float,
        energy: float,
        duration: float,
        settling_overlap: float = 0.0,
    ) -> tuple[float, float]:  # noqa: D102 - inherited
        return latency, energy

    def perturb_timing(
        self, key: Iterable[int], latency: float, duration: float
    ) -> float:  # noqa: D102 - inherited
        return latency
