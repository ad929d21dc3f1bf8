"""The chaos round loop against a real BoFL controller on the tiny board."""

import pytest

from repro.core import BoFLController
from repro.faults import ChaosRoundEngine, FaultSchedule, FaultSpec
from repro.faults.recovery import NO_RECOVERY, RecoveryPolicy
from repro.hardware import SimulatedDevice
from tests.conftest import build_tiny_spec, build_tiny_workload

JOBS = 60


def make_engine(fast_config, faults, policy=None, seed=0):
    device = SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=seed)
    controller = BoFLController(device, fast_config)
    schedule = FaultSchedule(faults=tuple(faults))
    return ChaosRoundEngine(device, controller, schedule, policy)


def deadline_for(engine, ratio=2.5):
    x_max = engine.device.space.max_configuration()
    return engine.device.model.latency(x_max) * JOBS * ratio


class TestDroppedRounds:
    def test_dropout_synthesizes_record_and_burns_the_deadline(self, fast_config):
        engine = make_engine(
            fast_config, [FaultSpec(kind="client_dropout", start_round=1)]
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        before = engine.device.clock.now
        rounds_before = engine.controller.rounds_run
        record = engine.run_round(1, JOBS, deadline)
        assert record.phase == "dropped"
        assert record.missed
        assert record.round_index == 1
        assert record.energy > 0
        assert engine.device.clock.now == pytest.approx(before + deadline)
        # The controller never saw the round; the engine renumbers for it.
        assert engine.controller.rounds_run == rounds_before
        assert engine.log.dropped_rounds == 1

    def test_records_stay_contiguous_after_a_drop(self, fast_config):
        engine = make_engine(
            fast_config, [FaultSpec(kind="client_dropout", start_round=1)]
        )
        deadline = deadline_for(engine)
        records = [engine.run_round(i, JOBS, deadline) for i in range(4)]
        assert [r.round_index for r in records] == [0, 1, 2, 3]


class TestTransportFaults:
    def test_lost_report_marks_round_missed(self, fast_config):
        engine = make_engine(
            fast_config,
            [FaultSpec(kind="transport_loss", start_round=1)],
            policy=NO_RECOVERY,
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        record = engine.run_round(1, JOBS, deadline)
        assert record.missed
        assert engine.log.lost_reports == 1

    def test_stall_tightens_the_training_deadline(self, fast_config):
        engine = make_engine(
            fast_config,
            [FaultSpec(kind="transport_stall", start_round=1, magnitude=0.4)],
            policy=NO_RECOVERY,
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        record = engine.run_round(1, JOBS, deadline)
        assert record.deadline == pytest.approx(deadline * 0.6)


class TestRestore:
    def test_corrupted_round_discards_poisoned_observations(self, fast_config):
        engine = make_engine(
            fast_config,
            [FaultSpec(kind="sensor_spike", start_round=1, magnitude=6.0)],
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        explored_before = len(engine.controller.store)
        engine.run_round(1, JOBS, deadline)
        # The spiked round's observations were rolled back wholesale.
        assert len(engine.controller.store) == explored_before
        assert engine.log.restores == 1
        assert engine.log.checkpoints >= 1

    def test_no_recovery_keeps_poisoned_observations(self, fast_config):
        engine = make_engine(
            fast_config,
            [FaultSpec(kind="sensor_spike", start_round=1, magnitude=6.0)],
            policy=NO_RECOVERY,
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        explored_before = len(engine.controller.store)
        engine.run_round(1, JOBS, deadline)
        assert len(engine.controller.store) > explored_before
        assert engine.log.restores == 0
        assert engine.log.checkpoints == 0


class TestEscalation:
    def test_miss_under_fault_pins_x_max(self, fast_config):
        engine = make_engine(
            fast_config,
            [FaultSpec(kind="transport_loss", start_round=1)],
            policy=RecoveryPolicy(escalation_rounds=2),
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        engine.run_round(1, JOBS, deadline)
        assert engine.log.escalations == 1
        assert engine.controller.escalation_active
        phase_before = engine.controller.phase
        record = engine.run_round(2, JOBS, deadline)
        assert record.guardian_triggered
        # Safe-harbor mode: no measurements, no phase advance.
        assert record.explored == ()
        assert engine.controller.phase is phase_before
        engine.run_round(3, JOBS, deadline)
        assert not engine.controller.escalation_active

    def test_finish_disarms_faults(self, fast_config):
        engine = make_engine(
            fast_config,
            [FaultSpec(kind="straggler", start_round=0, rounds=10, magnitude=1.5)],
        )
        deadline = deadline_for(engine)
        engine.run_round(0, JOBS, deadline)
        assert engine.device.fault_overlay is not None
        engine.finish()
        assert engine.device.fault_overlay is None


class TestBaselineControllers:
    def test_controllers_without_hooks_degrade_to_injection_only(self, fast_config):
        from repro.baselines.performant import PerformantController

        device = SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=0)
        controller = PerformantController(device)
        schedule = FaultSchedule(
            faults=(FaultSpec(kind="transport_loss", start_round=1),)
        )
        engine = ChaosRoundEngine(device, controller, schedule)
        x_max = device.space.max_configuration()
        deadline = device.model.latency(x_max) * JOBS * 2.5
        engine.run_round(0, JOBS, deadline)
        record = engine.run_round(1, JOBS, deadline)
        assert record.missed
        # No checkpoint/escalation hooks -> injection-only chaos.
        assert engine.log.checkpoints == 0
        assert engine.log.escalations == 0
