"""Behavioural tests for the BoFL controller state machine.

All run on the 90-configuration tiny board so full campaigns take well
under a second.
"""

import pytest

from repro.core import BoFLController, Phase
from repro.errors import ConfigurationError
from repro.federated.deadlines import UniformDeadlines
from repro.hardware import SimulatedDevice
from tests.conftest import build_tiny_spec, build_tiny_workload


JOBS = 60  # jobs per round on the tiny board


def fresh_controller(fast_config, seed=0, mbo_cost=None):
    device = SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=seed)
    return BoFLController(device, fast_config, mbo_cost=mbo_cost)


def t_min_of(controller):
    x_max = controller.device.space.max_configuration()
    return controller.device.model.latency(x_max) * JOBS


def run_campaign(controller, rounds, ratio=2.5, seed=7):
    deadlines = UniformDeadlines(ratio).generate(t_min_of(controller), rounds, seed)
    return [controller.run_round(JOBS, d) for d in deadlines]


class TestPhaseProgression:
    def test_starts_in_random_exploration(self, fast_config):
        controller = fresh_controller(fast_config)
        assert controller.phase is Phase.RANDOM_EXPLORATION

    def test_phases_advance_in_order(self, fast_config):
        controller = fresh_controller(fast_config)
        run_campaign(controller, 20)
        assert controller.phase is Phase.EXPLOITATION
        kinds = [t.to_phase for t in controller.transitions]
        assert kinds == [Phase.PARETO_CONSTRUCTION, Phase.EXPLOITATION]

    def test_record_phases_are_contiguous(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 20)
        order = {"random_exploration": 1, "pareto_construction": 2, "exploitation": 3}
        ranks = [order[r.phase] for r in records]
        assert ranks == sorted(ranks)

    def test_first_measured_configuration_is_x_max(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 1)
        assert records[0].explored[0] == controller.device.space.max_configuration()

    def test_phase1_explores_the_sobol_points(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 20)
        # x_max + the Sobol starting points (6% of the 90-point space).
        n_initial = fast_config.initial_samples(90) + 1
        phase1_explored = sum(
            r.explored_count for r in records if r.phase == "random_exploration"
        )
        assert phase1_explored == n_initial


class TestDeadlineSafety:
    @pytest.mark.parametrize("ratio", [1.2, 1.5, 2.0, 3.0])
    def test_no_round_misses_its_deadline(self, fast_config, ratio):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 15, ratio=ratio)
        assert all(not r.missed for r in records)

    def test_tight_deadlines_trigger_guardian(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 10, ratio=1.15)
        assert any(r.guardian_triggered for r in records)
        assert all(not r.missed for r in records)

    def test_all_jobs_always_complete(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 12)
        assert all(r.jobs == JOBS for r in records)
        assert controller.device.jobs_executed == 12 * JOBS


class TestExploitationBehaviour:
    def test_exploitation_saves_energy_vs_x_max(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 25, ratio=3.0)
        exploit = [r for r in records if r.phase == "exploitation"]
        assert exploit, "campaign never reached exploitation"
        x_max_round = (
            controller.device.model.energy(controller.device.space.max_configuration())
            * JOBS
        )
        mean_exploit = sum(r.energy for r in exploit) / len(exploit)
        assert mean_exploit < 0.95 * x_max_round

    def test_longer_deadlines_lower_energy(self, fast_config):
        tight = fresh_controller(fast_config)
        run_campaign(tight, 25, ratio=1.5)
        loose = fresh_controller(fast_config)
        run_campaign(loose, 25, ratio=3.5)
        tight_exploit = [
            r.energy
            for r in run_campaign(tight, 5, ratio=1.5)
        ]
        loose_exploit = [
            r.energy
            for r in run_campaign(loose, 5, ratio=3.5)
        ]
        assert sum(loose_exploit) < sum(tight_exploit)

    def test_exploited_jobs_counted(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 20)
        last = records[-1]
        assert last.phase == "exploitation"
        assert last.exploited_jobs == JOBS


class TestMBOEngine:
    def test_mbo_runs_each_pareto_round(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 20)
        for record in records:
            if record.phase == "pareto_construction":
                assert record.mbo is not None
                assert record.mbo.batch_size >= 1
            else:
                assert record.mbo is None

    def test_mbo_cost_model_feeds_report(self, fast_config):
        cost = lambda n, k: (2.5, 30.0)  # noqa: E731
        controller = fresh_controller(fast_config, mbo_cost=cost)
        records = run_campaign(controller, 20)
        mbo_records = [r.mbo for r in records if r.mbo is not None]
        assert mbo_records
        assert all(m.latency == 2.5 and m.energy == 30.0 for m in mbo_records)

    def test_batch_size_respects_cap(self, fast_config):
        controller = fresh_controller(fast_config)
        records = run_campaign(controller, 20)
        for record in records:
            if record.mbo is not None:
                assert record.mbo.batch_size <= fast_config.max_batch_size


class TestObservations:
    def test_explored_count_grows_then_freezes(self, fast_config):
        controller = fresh_controller(fast_config)
        run_campaign(controller, 20)
        frozen = controller.explored_count
        run_campaign(controller, 3)
        assert controller.explored_count == frozen  # exploitation explores nothing

    def test_pareto_front_nonempty_after_exploration(self, fast_config):
        controller = fresh_controller(fast_config)
        run_campaign(controller, 20)
        front = controller.pareto_front()
        assert front.shape[0] >= 2

    def test_stopping_condition_recorded_hypervolumes(self, fast_config):
        controller = fresh_controller(fast_config)
        run_campaign(controller, 20)
        history = controller.stopping.history
        assert len(history) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))


class TestInputValidation:
    def test_rejects_bad_round_parameters(self, fast_config):
        controller = fresh_controller(fast_config)
        with pytest.raises(ConfigurationError):
            controller.run_round(0, 10.0)
        with pytest.raises(ConfigurationError):
            controller.run_round(5, 0.0)

    def test_round_counter_increments(self, fast_config):
        controller = fresh_controller(fast_config)
        run_campaign(controller, 3)
        assert controller.rounds_run == 3


class TestDeterminism:
    def test_same_seed_same_energy(self, fast_config):
        a = fresh_controller(fast_config, seed=5)
        b = fresh_controller(fast_config, seed=5)
        energies_a = [r.energy for r in run_campaign(a, 10)]
        energies_b = [r.energy for r in run_campaign(b, 10)]
        assert energies_a == energies_b

    def test_different_device_seed_differs(self, fast_config):
        a = fresh_controller(fast_config, seed=5)
        b = fresh_controller(fast_config, seed=6)
        energies_a = [r.energy for r in run_campaign(a, 5)]
        energies_b = [r.energy for r in run_campaign(b, 5)]
        assert energies_a != energies_b


class TestGuardianSeesLeftoverJobs:
    """Regression: jobs left over after a planned schedule run at the
    fastest observed configuration, and their results must feed the
    guardian exactly like planned jobs do — previously they were dropped,
    so the T(x_max) running mean and the worst-job reserve went stale on
    precisely the noisy rounds that produce leftovers."""

    @staticmethod
    def _seeded_controller(fast_config, config):
        from repro.types import PerformanceSample

        controller = fresh_controller(fast_config)
        latency = controller.device.model.latency(config)
        energy = controller.device.model.energy(config)
        controller.store.add(
            PerformanceSample(
                config=config, latency=latency, energy=energy, duration=latency
            )
        )
        controller.guardian.update_t_xmax(
            controller.device.model.latency(
                controller.device.space.max_configuration()
            )
        )
        return controller

    @staticmethod
    def _run_leftovers(controller, jobs=3):
        from repro.core.controller import RoundTally
        from repro.types import RoundBudget, Schedule

        # An exhausted plan: every job becomes a leftover.
        schedule = Schedule(entries=(), expected_latency=0.0, expected_energy=0.0)
        budget = RoundBudget(total_jobs=jobs, deadline=60.0)
        tally = RoundTally()
        controller._execute_schedule(schedule, budget, tally, None)
        assert budget.finished
        assert tally.exploited_jobs == jobs
        return tally

    def test_leftovers_at_x_max_feed_the_running_mean(self, fast_config):
        config = build_tiny_spec().space.max_configuration()
        controller = self._seeded_controller(fast_config, config)
        count_before = controller.guardian._t_xmax_count
        self._run_leftovers(controller, jobs=3)
        assert controller.guardian._t_xmax_count == count_before + 3

    def test_leftovers_elsewhere_feed_the_worst_job_reserve(self, fast_config):
        # Fastest observed configuration is a slow one (only observation),
        # so its job latencies exceed everything the guardian has seen and
        # must enlarge the reserve.
        space = build_tiny_spec().space
        slow = min(space, key=lambda c: (c.cpu, c.gpu, c.mem))
        controller = self._seeded_controller(fast_config, slow)
        reserve_before = controller.guardian.reserve
        self._run_leftovers(controller, jobs=2)
        assert controller.guardian.reserve > reserve_before
