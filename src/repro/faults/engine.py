"""The chaos round loop: inject, run, recover.

:class:`ChaosRoundEngine` wraps one pace controller and drives it round by
round under a :class:`~repro.faults.schedule.FaultSchedule`, applying a
:class:`~repro.faults.recovery.RecoveryPolicy` around every round:

1. **checkpoint** — on the policy's cadence, snapshot the controller's
   learning state *before* faults arm, so a later restore predates any
   corruption;
2. **inject** — arm the round's fault windows on the device (and compute
   their federated semantics);
3. **run** — a ``client_dropout`` round never trains (the device idles to
   the deadline); otherwise the controller runs against a deadline the
   transport stalls may have tightened, and a ``transport_loss`` marks the
   finished round as missed (the update never reached the server);
4. **recover** — roll back to the last checkpoint after a
   measurement-corrupting round, and escalate the controller to ``x_max``
   after a thermal trip or a deadline miss under fault.

Recovery hooks are duck-typed (``checkpoint``/``restore``/
``escalate_to_xmax``), so BoFL gets the full treatment while baseline
controllers degrade gracefully to injection-only chaos.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.base import JobCallback, PaceController
from repro.core.records import RoundRecord
from repro.faults.injectors import FaultInjector, RoundFaults
from repro.faults.recovery import RecoveryLog, RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.hardware.device import SimulatedDevice
from repro.obs import runtime as obs
from repro.types import Seconds


class ChaosRoundEngine:
    """Runs a controller's rounds under fault injection + recovery."""

    def __init__(
        self,
        device: SimulatedDevice,
        controller: PaceController,
        schedule: FaultSchedule,
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.device = device
        self.controller = controller
        self.schedule = schedule
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.injector = FaultInjector(schedule, device)
        self.log = RecoveryLog()
        self._checkpoint: Optional[object] = None
        self._supports_checkpoint = hasattr(controller, "checkpoint") and hasattr(
            controller, "restore"
        )
        self._supports_escalation = hasattr(controller, "escalate_to_xmax")

    def run_round(
        self,
        round_index: int,
        jobs: int,
        deadline: Seconds,
        on_job: Optional[JobCallback] = None,
    ) -> RoundRecord:
        """Execute one chaos round; returns the (possibly synthetic) record."""
        self._maybe_checkpoint(round_index)
        faults = self.injector.arm(round_index)
        self.log.injected = list(self.injector.injections)
        if faults.drops_round:
            record = self._dropped_round(round_index, jobs, deadline)
        else:
            effective_deadline = deadline * faults.deadline_factor
            ran = self.controller.run_round(jobs, effective_deadline, on_job)
            # The controller numbers rounds it actually ran; dropped rounds
            # make that counter lag the campaign's — renumber to campaign
            # coordinates so the record stream stays contiguous.  A lost
            # report turns the round into a miss for the server.
            record = dataclasses.replace(
                ran,
                round_index=round_index,
                missed=ran.missed or faults.loses_report,
            )
            if faults.loses_report:
                self.log.lost_reports += 1
        self._recover(round_index, faults, record)
        return record

    def finish(self) -> None:
        """Clear any armed faults (call once after the last round)."""
        self.injector.disarm()
        self.log.injected = list(self.injector.injections)

    # -- internals -----------------------------------------------------------

    def _maybe_checkpoint(self, round_index: int) -> None:
        if not (self.policy.checkpoints_enabled and self._supports_checkpoint):
            return
        if round_index % self.policy.checkpoint_interval != 0:
            return
        self._checkpoint = self.controller.checkpoint()  # type: ignore[attr-defined]
        self.log.checkpoints += 1
        if obs.enabled():
            obs.emit(
                "recovery.checkpoint",
                t=self.device.clock.now,
                round=round_index,
            )
            obs.count("recovery.checkpoints")

    def _dropped_round(
        self, round_index: int, jobs: int, deadline: Seconds
    ) -> RoundRecord:
        """The client vanished: no training, the board idles to the deadline."""
        idle_energy = self.device.idle(deadline)
        self.log.dropped_rounds += 1
        return RoundRecord(
            round_index=round_index,
            phase="dropped",
            deadline=deadline,
            jobs=jobs,
            elapsed=deadline,
            energy=idle_energy,
            missed=True,
        )

    def _recover(
        self, round_index: int, faults: RoundFaults, record: RoundRecord
    ) -> None:
        if (
            faults.corrupts_measurements
            and self.policy.restore_on_corruption
            and self._checkpoint is not None
        ):
            self.controller.restore(self._checkpoint)  # type: ignore[attr-defined]
            self.log.restores += 1
            if obs.enabled():
                obs.emit(
                    "recovery.restore",
                    t=self.device.clock.now,
                    round=round_index,
                    kinds=list(faults.kinds()),
                )
                obs.count("recovery.restores")
        anomaly = faults.forces_thermal or record.missed
        if anomaly and self.policy.escalate_on_anomaly and self._supports_escalation:
            self.controller.escalate_to_xmax(  # type: ignore[attr-defined]
                self.policy.escalation_rounds
            )
            self.log.escalations += 1
            if obs.enabled():
                obs.emit(
                    "recovery.escalation",
                    t=self.device.clock.now,
                    round=round_index,
                    rounds=self.policy.escalation_rounds,
                    thermal=faults.forces_thermal,
                    missed=record.missed,
                )
                obs.count("recovery.escalations")
