"""Calibrated analytic latency/energy surfaces over the DVFS space.

This module is the stand-in for physically training a network on a Jetson
board.  It models a job (one minibatch) as three overlapping per-unit work
phases and derives both objectives from first principles:

**Latency.**  Each unit ``u`` (CPU, GPU, memory controller) owes
``work_u`` gigacycles, taking ``t_u = work_u / f_u`` seconds at clock
``f_u``.  Units overlap imperfectly, so the job latency is

    ``T(x) = t_overhead + max_u(t_u) + sigma * (sum_u(t_u) - max_u(t_u))``

where ``sigma`` in [0, 1] is the workload's serialization factor: 0 means
the non-bottleneck units hide entirely behind the bottleneck, 1 means fully
serial execution.  This produces exactly the phenomenology of §2.2 —
diminishing returns from one axis once another becomes the bottleneck
(Fig. 3a), and workload-dependent axis sensitivity (Fig. 4a).

**Energy.**  The board pays its power floor (static rails + per-unit idle
draw) for the full duration and each unit additionally pays dynamic power
``k_u * f_u * V_u(f_u)^2`` while busy (:mod:`repro.hardware.power`).  The
race between floor energy (favours fast clocks) and super-linear dynamic
energy (favours slow clocks) yields interior energy optima and the
non-monotone curves of Figs. 3b/4b.

**Calibration.**  Work amounts and dynamic coefficients are solved in
closed form from a :class:`CalibrationTarget`, which pins the per-job
latency and energy at ``x_max`` to the paper's measured values (Table 2 /
Figs. 9-11) and fixes how the busy time / dynamic energy are shared between
units at ``x_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.devices import DeviceSpec
from repro.hardware.power import DevicePowerModel, UnitPowerModel
from repro.obs import runtime as obs
from repro.types import (
    DvfsConfiguration,
    Joules,
    Seconds,
    require_fraction,
    require_positive,
)


def _require_simplex(name: str, values: Sequence[float]) -> tuple[float, float, float]:
    """Validate a 3-vector of positive shares summing to one."""
    if len(values) != 3:
        raise ConfigurationError(f"{name} must have 3 entries, got {len(values)}")
    shares = tuple(float(v) for v in values)
    if any(v <= 0 for v in shares):
        raise ConfigurationError(f"{name} entries must be positive: {shares}")
    if abs(sum(shares) - 1.0) > 1e-6:
        raise ConfigurationError(f"{name} must sum to 1, got {sum(shares)}")
    return shares  # type: ignore[return-value]


@dataclass(frozen=True)
class CalibrationTarget:
    """Anchors for one (device, workload) performance surface.

    Attributes
    ----------
    latency_at_max:
        Measured per-job latency at ``x_max`` (seconds).  Derived from the
        paper's Table 2 as ``T_min / W``.
    energy_at_max:
        Measured per-job energy at ``x_max`` (Joules).  Derived from the
        Performant curves of Figs. 9-10 divided by ``W`` (and from the
        Fig. 5 AGX/TX2 ratios for the TX2).
    busy_shares:
        Fraction of per-unit busy time attributed to (cpu, gpu, mem) at
        ``x_max``; encodes which unit bottlenecks the workload.
    dynamic_split:
        Fraction of the dynamic energy budget drawn by (cpu, gpu, mem) at
        ``x_max``.
    serial_fraction:
        The overlap parameter ``sigma`` described in the module docstring.
    overhead_fraction:
        Fixed per-job overhead (kernel launches, sync) as a fraction of
        ``latency_at_max``.
    """

    latency_at_max: Seconds
    energy_at_max: Joules
    busy_shares: tuple[float, float, float]
    dynamic_split: tuple[float, float, float]
    serial_fraction: float
    overhead_fraction: float = 0.02

    def __post_init__(self) -> None:
        require_positive("latency_at_max", self.latency_at_max)
        require_positive("energy_at_max", self.energy_at_max)
        _require_simplex("busy_shares", self.busy_shares)
        _require_simplex("dynamic_split", self.dynamic_split)
        require_fraction("serial_fraction", self.serial_fraction)
        require_fraction("overhead_fraction", self.overhead_fraction)


@dataclass(frozen=True, eq=False)
class ObjectiveTensor:
    """Whole-space precomputed surfaces for one calibrated (device, workload).

    All three arrays are aligned with
    ``device.space.all_configurations()`` and marked read-only: the tensor
    is shared across every simulated device with the same calibration (the
    fleet layer instantiates thousands of devices from a handful of
    archetypes), so per-job evaluation becomes one array lookup.
    """

    #: ``(n,)`` noise-free per-job latency ``T(x)`` in seconds.
    latencies: np.ndarray
    #: ``(n,)`` noise-free per-job energy ``E(x)`` in Joules.
    energies: np.ndarray
    #: ``(n, 3)`` per-unit (cpu, gpu, mem) busy seconds.
    busy_times: np.ndarray
    #: Per index, ``(latency, energy, busy_cpu, busy_gpu, busy_mem)`` as
    #: Python floats equal to the array entries: what one simulated job
    #: reads, in one lookup without numpy scalar boxing.
    rows: tuple[tuple[float, float, float, float, float], ...]


#: Process-wide tensor cache.  Keys are built from the *values* that
#: determine the surface (calibration target, frequency tables, power
#: rails) rather than object identity, so two models calibrated the same
#: way — e.g. every AGX-class client running ViT — share one tensor.
#: Recalibrating means constructing a new model with a new target, which
#: is a different key; there is no in-place invalidation to miss.
_TENSOR_CACHE: dict[object, ObjectiveTensor] = {}


def clear_objective_tensor_cache() -> None:
    """Drop every cached objective tensor (tests and memory pressure)."""
    _TENSOR_CACHE.clear()


class AnalyticPerformanceModel:
    """Ground-truth ``T(x)`` / ``E(x)`` surfaces for one (device, workload).

    Instances are the *blackbox* under optimization: the BoFL controller
    never reads the internals, it only receives (noisy) samples through
    :class:`repro.hardware.device.SimulatedDevice`.  The exact surfaces are
    exposed (``latency``, ``energy``, ``profile_space``) for the Oracle
    baseline, which in the paper corresponds to exhaustive offline
    profiling.
    """

    def __init__(
        self,
        device: DeviceSpec,
        target: CalibrationTarget,
        workload_name: str = "custom",
    ) -> None:
        self.device = device
        self.target = target
        self.workload_name = workload_name
        space = device.space
        x_max = space.max_configuration()
        f_max = np.array(x_max.as_tuple())

        # --- latency calibration -----------------------------------------
        # Split the target latency into overhead + overlapped busy times so
        # that at x_max the busy times have exactly the requested shares.
        self._overhead = target.overhead_fraction * target.latency_at_max
        shares = np.array(target.busy_shares)
        sigma = target.serial_fraction
        # T* - t0 = scale * (max(shares) + sigma * (1 - max(shares)))
        overlap = shares.max() + sigma * (1.0 - shares.max())
        scale = (target.latency_at_max - self._overhead) / overlap
        busy_at_max = scale * shares
        #: per-unit work in gigacycles: busy time at clock f is work / f.
        self._work = busy_at_max * f_max
        self._sigma = sigma

        # --- energy calibration ------------------------------------------
        # Solve the per-unit dynamic coefficients k_u so the total job
        # energy at x_max equals the target, with the requested split.
        curves = (device.cpu_voltage, device.gpu_voltage, device.mem_voltage)
        floor = device.static_watts + sum(device.idle_watts)
        dynamic_budget = target.energy_at_max - floor * target.latency_at_max
        if dynamic_budget <= 0:
            raise ConfigurationError(
                f"energy target {target.energy_at_max} J is below the floor energy "
                f"{floor * target.latency_at_max:.3f} J; lower the device's "
                "static/idle power or raise the target"
            )
        split = np.array(target.dynamic_split)
        units = []
        for i in range(3):
            switching = curves[i].switching_factor(f_max[i])
            beta = device.waiting_fractions[i]
            stalled = target.latency_at_max - busy_at_max[i]
            effective_time = busy_at_max[i] + beta * stalled
            k = split[i] * dynamic_budget / (switching * effective_time)
            units.append(
                UnitPowerModel(curves[i], float(k), device.idle_watts[i], beta)
            )
        self.power = DevicePowerModel(device.static_watts, *units)

    # -- scalar interface --------------------------------------------------

    def busy_times(self, config: DvfsConfiguration) -> tuple[float, float, float]:
        """Per-unit busy seconds at ``config``."""
        freqs = np.array(config.as_tuple())
        times = self._work / freqs
        return (float(times[0]), float(times[1]), float(times[2]))

    def latency(self, config: DvfsConfiguration) -> Seconds:
        """True (noise-free) per-job latency at ``config``."""
        times = self._work / np.array(config.as_tuple())
        bottleneck = times.max()
        return float(
            self._overhead + bottleneck + self._sigma * (times.sum() - bottleneck)
        )

    def energy(self, config: DvfsConfiguration) -> Joules:
        """True (noise-free) per-job energy at ``config``."""
        freqs = config.as_tuple()
        times = self.busy_times(config)
        return float(self.power.job_energy(freqs, times, self.latency(config)))

    def objectives(self, config: DvfsConfiguration) -> tuple[Seconds, Joules]:
        """``(T(x), E(x))`` at ``config``."""
        return (self.latency(config), self.energy(config))

    # -- vectorized interface (used by the Oracle's offline profiling) -----

    def latency_array(self, freqs: np.ndarray) -> np.ndarray:
        """Vectorized latency for an ``(n, 3)`` array of GHz clocks."""
        freqs = np.asarray(freqs, dtype=float)
        times = self._work[None, :] / freqs
        bottleneck = times.max(axis=1)
        return self._overhead + bottleneck + self._sigma * (times.sum(axis=1) - bottleneck)

    def energy_array(self, freqs: np.ndarray) -> np.ndarray:
        """Vectorized energy for an ``(n, 3)`` array of GHz clocks."""
        freqs = np.asarray(freqs, dtype=float)
        times = self._work[None, :] / freqs
        duration = self.latency_array(freqs)
        return self.power.job_energy(
            (freqs[:, 0], freqs[:, 1], freqs[:, 2]),
            (times[:, 0], times[:, 1], times[:, 2]),
            duration,
        )

    def profile_space(self) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustively profile the whole space (the Oracle's offline pass).

        Returns ``(latencies, energies)`` aligned with
        ``device.space.all_configurations()``.  Served from the shared
        objective tensor; the arrays are read-only.
        """
        tensor = self.objective_tensor()
        return tensor.latencies, tensor.energies

    # -- whole-space tensor (shared across same-calibration models) --------

    def _tensor_key(self) -> tuple[object, ...]:
        """The value-equality cache key for this model's surface."""
        device = self.device
        return (
            device.name,
            tuple(table.frequencies for table in device.space.tables),
            device.static_watts,
            device.idle_watts,
            device.waiting_fractions,
            (device.cpu_voltage, device.gpu_voltage, device.mem_voltage),
            self.target,
        )

    def objective_tensor(self) -> ObjectiveTensor:
        """The whole-space ``T(x)``/``E(x)``/busy-time tensor, cached.

        Built once per distinct calibration (O(|X|) vectorized math),
        then shared by every model — and therefore every simulated
        device — with the same key.  The arrays are exactly what
        ``latency_array``/``energy_array`` return for the full space.
        """
        key = self._tensor_key()
        cached = _TENSOR_CACHE.get(key)
        if cached is not None:
            return cached
        freqs = self.device.space.as_array()
        latencies = self.latency_array(freqs)
        energies = np.asarray(self.energy_array(freqs), dtype=float)
        busy_times = self._work[None, :] / freqs
        for array in (latencies, energies, busy_times):
            array.setflags(write=False)
        rows = tuple(zip(latencies.tolist(), energies.tolist(), *busy_times.T.tolist()))
        tensor = ObjectiveTensor(latencies, energies, busy_times, rows)
        _TENSOR_CACHE[key] = tensor
        if obs.enabled():
            obs.count("perfmodel.tensor_builds")
        return tensor

    def objectives_many(
        self, configs: Sequence[DvfsConfiguration]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(T, E)`` over in-space configurations, via the tensor."""
        tensor = self.objective_tensor()
        space = self.device.space
        indices = np.array([space.flat_index_of(c) for c in configs], dtype=int)
        return tensor.latencies[indices], tensor.energies[indices]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalyticPerformanceModel({self.workload_name!r} on {self.device.name!r}, "
            f"T(x_max)={self.target.latency_at_max:.3f}s, "
            f"E(x_max)={self.target.energy_at_max:.3f}J)"
        )
