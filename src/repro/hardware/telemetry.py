"""Simulated measurement instruments.

* :class:`EventTimer` — CUDA-event-style job timing
  (``torch.cuda.Event()`` + ``synchronize()`` in the paper): very accurate,
  microsecond-level jitter.
* :class:`PowerSensor` — INA3221-style instantaneous power readings with
  quantization and relative error.
* :class:`EnergyMeter` — integrates job energy over a measurement window
  and reports a :class:`~repro.types.PerformanceSample`; the window error
  shrinks with window length and is inflated while rails settle after a
  DVFS switch (see :mod:`repro.hardware.noise`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DeviceError
from repro.hardware.noise import MeasurementNoise
from repro.types import DvfsConfiguration, PerformanceSample, Seconds, Watts


class EventTimer:
    """Accurate per-job latency measurement (CUDA event recording)."""

    #: Relative timing jitter of CUDA event pairs — effectively exact.
    JITTER_STD = 1e-4

    def __init__(self, noise: MeasurementNoise) -> None:
        self._noise = noise
        self._draws = 0

    def time(self, true_latency: Seconds) -> Seconds:
        """Return the measured duration of a job that truly took ``true_latency``."""
        self._draws += 1
        measured = self._noise.perturb_timing(
            [0xE7, self._draws], true_latency, duration=max(true_latency, 1e-6)
        )
        # Timing is far more accurate than the power sensor: shrink the
        # sensor-scale perturbation down to event-recording jitter.
        return true_latency + (measured - true_latency) * (
            self.JITTER_STD / max(self._noise.sensor_latency_std, self.JITTER_STD)
        )


class PowerSensor:
    """INA3221-style power rail sensor (read through sysfs on real boards)."""

    #: Reading resolution in watts (INA3221 LSB at Jetson shunt values).
    RESOLUTION: Watts = 0.01

    def __init__(self, noise: MeasurementNoise) -> None:
        self._noise = noise
        self._draws = 0

    def read(self, true_watts: Watts) -> Watts:
        """One instantaneous (noisy, quantized) power reading."""
        if true_watts < 0:
            raise DeviceError(f"power cannot be negative: {true_watts}")
        self._draws += 1
        _, perturbed = self._noise.perturb_measurement(
            [0x9A, self._draws], 1.0, true_watts, duration=1e-3
        )
        steps = round(perturbed / self.RESOLUTION)
        return steps * self.RESOLUTION


class EnergyMeter:
    """Accumulates jobs into one measurement window.

    Mirrors how BoFL measures a configuration: open a window, run jobs for
    at least ``tau`` seconds, close the window and read back mean per-job
    latency and energy.
    """

    def __init__(self, noise: MeasurementNoise) -> None:
        self._noise = noise
        self._window_id = 0
        self._open = False
        self._config: Optional[DvfsConfiguration] = None
        self._jobs = 0
        self._latency_total = 0.0
        self._energy_total = 0.0
        self._settling_overlap = 0.0

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def jobs_in_window(self) -> int:
        return self._jobs

    @property
    def window_duration(self) -> Seconds:
        return self._latency_total

    def open(self, config: DvfsConfiguration, settling_remaining: Seconds = 0.0) -> None:
        """Start a measurement window for ``config``.

        ``settling_remaining`` is how much post-switch rail settling time
        the window will absorb (inflates the sensor error).
        """
        if self._open:
            raise DeviceError("measurement window already open")
        self._open = True
        self._window_id += 1
        self._config = config
        self._jobs = 0
        self._latency_total = 0.0
        self._energy_total = 0.0
        self._settling_overlap = max(0.0, float(settling_remaining))

    def record_job(self, latency: Seconds, energy: float) -> None:
        """Add one job's actual consumption to the open window."""
        if not self._open:
            raise DeviceError("no measurement window open")
        self._jobs += 1
        self._latency_total += latency
        self._energy_total += energy

    def close(self) -> PerformanceSample:
        """Close the window and return the noisy per-job sample."""
        if not self._open:
            raise DeviceError("no measurement window open")
        if self._jobs == 0:
            raise DeviceError("cannot close an empty measurement window")
        self._open = False
        mean_latency = self._latency_total / self._jobs
        mean_energy = self._energy_total / self._jobs
        _, observed_energy = self._noise.perturb_measurement(
            [0x3C, self._window_id],
            mean_latency,
            mean_energy,
            duration=self._latency_total,
            settling_overlap=min(self._settling_overlap, self._latency_total),
        )
        if self._config is None:
            raise DeviceError("measurement window has no recorded configuration")
        # Latency passes through unperturbed: the client times its own jobs
        # with CUDA event recording (§5.2), which is accurate to the
        # microsecond — only the power-sensor (energy) path is noisy.  The
        # window mean still carries the natural sampling error of averaging
        # finitely many process-noisy jobs.
        return PerformanceSample(
            config=self._config,
            latency=mean_latency,
            energy=observed_energy,
            jobs_measured=self._jobs,
            duration=self._latency_total,
        )

    def abort(self) -> None:
        """Discard the open window (e.g. the guardian interrupted it)."""
        self._open = False
