"""A SmartPC-style linear pace controller (the design §2.1 argues against).

SmartPC models training speed as a linear function of one clock: to meet a
deadline ``D`` with ``W`` jobs it predicts the required frequency scale as
``s = (W * T(x_max)) / D`` and sets every axis to ``s`` of its range.  On
multi-axis hardware with non-linear bottleneck structure this prediction
is wrong, so the controller re-checks progress after every job and sprints
to ``x_max`` when it is falling behind — the safety net real SmartPC-style
deployments rely on.

Included as an extension baseline: it demonstrates quantitatively why the
paper replaces explicit linear models with blackbox optimization.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import JobCallback, PaceController
from repro.errors import PhaseError
from repro.core.records import RoundRecord
from repro.hardware.device import SimulatedDevice
from repro.types import DvfsConfiguration, RoundBudget, Seconds


class LinearPaceController(PaceController):
    """Linear speed model + uniform frequency scaling + catch-up sprints."""

    name = "linear_pace"

    def __init__(self, device: SimulatedDevice, headroom: float = 0.05) -> None:
        super().__init__(device)
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must lie in [0, 1), got {headroom}")
        self.headroom = headroom
        self._x_max = device.space.max_configuration()
        self._t_xmax: Optional[Seconds] = None
        self.sprints = 0

    def _scaled_configuration(self, scale: float) -> DvfsConfiguration:
        """Every axis at fraction ``scale`` of its [min, max] range."""
        space = self.device.space
        scale = min(max(scale, 0.0), 1.0)
        return space.snap(
            space.cpu.min + scale * (space.cpu.max - space.cpu.min),
            space.gpu.min + scale * (space.gpu.max - space.gpu.min),
            space.mem.min + scale * (space.mem.max - space.mem.min),
        )

    def _execute_round(
        self,
        round_index: int,
        jobs: int,
        deadline: Seconds,
        on_job: Optional[JobCallback],
    ) -> RoundRecord:
        budget = RoundBudget(total_jobs=jobs, deadline=deadline)
        energy_start = self.device.energy_consumed
        if self._t_xmax is None:
            # Calibrate the linear model's anchor with one job at x_max.
            self.device.set_configuration(self._x_max)
            result = self._run_one_job(budget, on_job)
            self._t_xmax = result.latency
        if not budget.finished:
            # Linear prediction: latency ~ T(x_max) / scale, so meeting the
            # per-job budget needs scale = T(x_max) / budget_per_job.
            per_job_budget = budget.time_remaining * (1.0 - self.headroom) / max(
                budget.jobs_remaining, 1
            )
            scale = self._t_xmax / per_job_budget if per_job_budget > 0 else 1.0
            self.device.set_configuration(self._scaled_configuration(scale))
        sprinting = False
        while not budget.finished:
            # Catch-up check: if the remaining jobs cannot make the deadline
            # at the current measured pace, sprint at x_max.
            if not sprinting and self._behind_schedule(budget):
                self.device.set_configuration(self._x_max)
                sprinting = True
                self.sprints += 1
            result = self._run_one_job(budget, on_job)
            if result.latency > self._t_xmax:
                # keep the anchor honest (x_max jobs only)
                if self.device.current_configuration == self._x_max:
                    self._t_xmax = result.latency
        return RoundRecord(
            round_index=round_index,
            phase="linear_pace",
            deadline=deadline,
            jobs=jobs,
            elapsed=budget.elapsed,
            energy=self.device.energy_consumed - energy_start,
            missed=budget.elapsed > deadline + 1e-9,
            exploited_jobs=jobs,
            guardian_triggered=sprinting,
        )

    def _behind_schedule(self, budget: RoundBudget) -> bool:
        if self._t_xmax is None:
            raise PhaseError(
                "schedule check before the x_max anchor latency was measured"
            )
        return budget.time_remaining < budget.jobs_remaining * self._t_xmax * (
            1.0 + self.headroom
        )
