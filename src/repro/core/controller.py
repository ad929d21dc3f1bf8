"""The BoFL controller: explore-then-exploit pace control (§4).

Round lifecycle:

* **Phase 1 (safe random exploration)** — measure ``x_max`` first (the
  guardian anchor), then the Sobol starting points, each for >= ``tau``
  seconds, gating every new window on Eqn. 2; once the queue empties,
  remaining jobs are exploited against the observations so far.
* **Phase 2 (Pareto construction)** — before each round the MBO engine
  refits the GPs and emits a ``K = T_avg / tau`` (capped) batch of EHVI
  suggestions; the round explores them under the same safe algorithm.
  After the round, the stopping rule checks space coverage and the
  hypervolume trend.
* **Phase 3 (exploitation)** — each round solves the Eqn. 1 ILP over the
  observed Pareto set and executes the plan fastest-entries-first, with a
  drift monitor that falls back to ``x_max`` if execution noise threatens
  the deadline.
"""

from __future__ import annotations

import copy
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
from repro.bayesopt.sampling import sobol_configurations, uniform_configurations
from repro.obs import runtime as obs
from repro.core.base import JobCallback, PaceController
from repro.core.config import BoFLConfig
from repro.core.exploitation import ExploitationPlanner
from repro.core.guardian import DeadlineGuardian
from repro.core.observations import ObservationStore
from repro.core.phases import Phase, PhaseTransition
from repro.core.records import MBOReport, RoundRecord
from repro.core.stopping import StoppingCondition
from repro.core.workload_assignment import MeasurementPolicy
from repro.errors import InfeasibleError
from repro.hardware.device import SimulatedDevice
from repro.types import (
    DvfsConfiguration,
    JobResult,
    PerformanceSample,
    RoundBudget,
    Schedule,
    Seconds,
)

#: Models the cost of one MBO engine run: (n_observations, batch_size) ->
#: (latency seconds, energy Joules).  ``None`` means free (unit tests).
MBOCostFn = Callable[[int, int], tuple[float, float]]


@dataclass
class RoundTally:
    """What a BoFL round in progress has done so far.

    The round's helpers accumulate into it; :meth:`BoFLController._execute_round`
    builds the round's immutable :class:`RoundRecord` from it once, when
    the round ends.
    """

    explored: list[DvfsConfiguration] = field(default_factory=list)
    exploited_jobs: int = 0
    guardian_triggered: bool = False


@dataclass(frozen=True)
class BoFLCheckpoint:
    """A resumable snapshot of a :class:`BoFLController`'s learning state.

    Captures everything the explore-then-exploit machinery has learned —
    the observation store, the optimizer (GPs, Sobol cursor, reference
    point), the stopping rule's hypervolume history, the guardian's
    ``T(x_max)`` estimate, the phase machine and both candidate queues —
    but deliberately **not** the device, the clock, or the round counter:
    restoring rolls back *what the controller believes*, never the world.
    A faulted round therefore resumes from the snapshot instead of the
    controller restarting exploration from scratch.
    """

    store: ObservationStore
    optimizer: MultiObjectiveBayesianOptimizer
    stopping: StoppingCondition
    guardian: DeadlineGuardian
    phase: Phase
    transitions: tuple[PhaseTransition, ...]
    exploration_queue: tuple[DvfsConfiguration, ...]
    pending_suggestions: tuple[DvfsConfiguration, ...]
    phase1_durations: tuple[Seconds, ...]
    rng: np.random.Generator
    drift_ewma: float
    restarts: int
    escalation_rounds: int


class BoFLController(PaceController):
    """Bayesian-optimized local training pace control."""

    name = "bofl"

    def __init__(
        self,
        device: SimulatedDevice,
        config: Optional[BoFLConfig] = None,
        mbo_cost: Optional[MBOCostFn] = None,
    ) -> None:
        super().__init__(device)
        self.config = config if config is not None else BoFLConfig()
        self.mbo_cost = mbo_cost
        space = device.space
        self.store = ObservationStore()
        self.guardian = DeadlineGuardian(self.config.tau, self.config.guardian_enabled)
        self.measurer = MeasurementPolicy(self.config.tau)
        self.planner = ExploitationPlanner(
            self.config.safety_margin, exact=self.config.exploit_mixture
        )
        self.optimizer = MultiObjectiveBayesianOptimizer(
            space,
            seed=self.config.seed,
            fit_restarts=self.config.fit_restarts,
            warm_start=self.config.warm_start_fits,
        )
        self.stopping = StoppingCondition(
            self.config.min_explored(len(space)),
            self.config.hv_improvement_threshold,
        )
        self.phase = Phase.RANDOM_EXPLORATION
        self.transitions: list[PhaseTransition] = []
        self._x_max = space.max_configuration()
        starting_points = sobol_configurations(
            space,
            self.config.initial_samples(len(space)),
            seed=self.config.seed,
            exclude=[self._x_max],
        )
        #: Phase-1 queue: x_max first (guardian anchor), then Sobol points.
        self._exploration_queue: deque[DvfsConfiguration] = deque(
            [self._x_max] + starting_points
        )
        self._pending_suggestions: deque[DvfsConfiguration] = deque()
        self._phase1_durations: list[Seconds] = []
        self._rng = np.random.default_rng(self.config.seed + 1)
        #: Drift-adaptation extension state (see BoFLConfig.drift_reexploration).
        self._drift_ewma = 0.0
        self.restarts = 0
        #: Rounds left under a resilience escalation (pinning x_max).
        self._escalation_rounds = 0

    # -- public inspection --------------------------------------------------

    @property
    def explored_count(self) -> int:
        return len(self.store)

    def pareto_front(self) -> np.ndarray:
        """Objective values of the currently observed Pareto set."""
        _, values = self.store.pareto_set()
        return values

    def decision_candidates(
        self,
    ) -> tuple[tuple[DvfsConfiguration, ...], np.ndarray, np.ndarray]:
        """The (configs, latencies, energies) pool a pace decision plans over.

        Exactly the candidate set :class:`ExploitationPlanner` solves the
        Eqn. 1 ILP against: the observed Pareto set plus the fastest
        observed configuration (guaranteed present so the ILP stays
        feasible whenever the deadline is meetable).  The pace-decision
        service (:mod:`repro.service`) consumes this to serve plans from a
        device's *learned* measurements instead of the analytic surface.

        Raises :class:`~repro.errors.InfeasibleError` before any
        observation exists.
        """
        pareto_configs, pareto_values = self.store.pareto_set()
        if not pareto_configs:
            raise InfeasibleError("no observations to build decision candidates from")
        fastest = self.store.fastest()
        configs = list(pareto_configs)
        latencies = list(pareto_values[:, 0])
        energies = list(pareto_values[:, 1])
        if fastest.config not in configs:
            configs.append(fastest.config)
            latencies.append(fastest.latency)
            energies.append(fastest.energy)
        return tuple(configs), np.asarray(latencies), np.asarray(energies)

    # -- checkpoint / restore / escalation (resilience hooks) -----------------

    def checkpoint(self) -> BoFLCheckpoint:
        """Snapshot the learning state (see :class:`BoFLCheckpoint`).

        Deep-copies every stateful component so later rounds cannot mutate
        the snapshot through shared references.
        """
        return BoFLCheckpoint(
            store=copy.deepcopy(self.store),
            optimizer=copy.deepcopy(self.optimizer),
            stopping=copy.deepcopy(self.stopping),
            guardian=copy.deepcopy(self.guardian),
            phase=self.phase,
            transitions=tuple(self.transitions),
            exploration_queue=tuple(self._exploration_queue),
            pending_suggestions=tuple(self._pending_suggestions),
            phase1_durations=tuple(self._phase1_durations),
            rng=copy.deepcopy(self._rng),
            drift_ewma=self._drift_ewma,
            restarts=self.restarts,
            escalation_rounds=self._escalation_rounds,
        )

    def restore(self, snapshot: BoFLCheckpoint) -> None:
        """Roll the learning state back to ``snapshot``.

        The device, simulated clock and round counter are untouched:
        restoring discards poisoned *beliefs* (e.g. GP observations taken
        through a faulted power sensor) while the world keeps moving.  The
        snapshot is deep-copied on the way in so it stays reusable.
        """
        self.store = copy.deepcopy(snapshot.store)
        self.optimizer = copy.deepcopy(snapshot.optimizer)
        self.stopping = copy.deepcopy(snapshot.stopping)
        self.guardian = copy.deepcopy(snapshot.guardian)
        self.phase = snapshot.phase
        self.transitions = list(snapshot.transitions)
        self._exploration_queue = deque(snapshot.exploration_queue)
        self._pending_suggestions = deque(snapshot.pending_suggestions)
        self._phase1_durations = list(snapshot.phase1_durations)
        self._rng = copy.deepcopy(snapshot.rng)
        self._drift_ewma = snapshot.drift_ewma
        self.restarts = snapshot.restarts
        self._escalation_rounds = snapshot.escalation_rounds

    def escalate_to_xmax(self, rounds: int) -> None:
        """Pin the next ``rounds`` rounds to ``x_max`` (safe-harbor mode).

        The resilience layer calls this after detecting an anomaly (thermal
        trip, deadline miss under fault): until the counter drains, every
        round sprints at the guardian configuration instead of trusting the
        possibly-invalidated performance model.  Escalations extend but
        never shorten an active pin.
        """
        self._escalation_rounds = max(self._escalation_rounds, rounds)

    @property
    def escalation_active(self) -> bool:
        return self._escalation_rounds > 0

    # -- round execution -----------------------------------------------------

    def _execute_round(
        self,
        round_index: int,
        jobs: int,
        deadline: Seconds,
        on_job: Optional[JobCallback],
    ) -> RoundRecord:
        budget = RoundBudget(total_jobs=jobs, deadline=deadline)
        phase = self.phase.value
        tally = RoundTally()
        mbo: Optional[MBOReport] = None
        escalated = self._escalation_rounds > 0
        if escalated:
            # Safe-harbor mode (resilience escalation): the whole round runs
            # at x_max.  No measurements, no MBO, no phase advance — the
            # learning machinery idles until the pin drains.
            self._escalation_rounds -= 1
            tally.guardian_triggered = True
            self._drain_at_x_max(budget, tally, on_job)
        else:
            if self.phase is Phase.PARETO_CONSTRUCTION:
                mbo = self._run_mbo_engine()
                if obs.enabled():
                    obs.emit(
                        "mbo.run",
                        t=self.device.clock.now,
                        round=round_index,
                        latency=mbo.latency,
                        energy=mbo.energy,
                        n_observations=mbo.n_observations,
                        batch_size=mbo.batch_size,
                    )
            if self.phase is Phase.EXPLOITATION:
                self._run_exploitation_round(budget, tally, on_job)
            else:
                queue = (
                    self._exploration_queue
                    if self.phase is Phase.RANDOM_EXPLORATION
                    else self._pending_suggestions
                )
                self._run_exploration_round(queue, budget, tally, on_job)
        record = RoundRecord(
            round_index=round_index,
            phase=phase,
            deadline=deadline,
            jobs=jobs,
            elapsed=budget.elapsed,
            energy=self.device.energy_consumed - self._energy_start,
            missed=budget.elapsed > deadline + 1e-9,
            explored=tuple(tally.explored),
            exploited_jobs=tally.exploited_jobs,
            guardian_triggered=tally.guardian_triggered,
            mbo=mbo,
        )
        if not escalated:
            self._advance_phase(round_index, budget)
        if obs.enabled():
            obs.emit(
                "controller.round",
                t=self.device.clock.now,
                round=round_index,
                phase=record.phase,
                jobs=jobs,
                deadline=deadline,
                elapsed=record.elapsed,
                energy=record.energy,
                missed=record.missed,
                guardian_triggered=record.guardian_triggered,
                exploited_jobs=record.exploited_jobs,
                explored=[list(c.as_tuple()) for c in record.explored],
            )
            obs.count("controller.rounds")
            obs.count("controller.explorations", len(record.explored))
            obs.observe("controller.round_energy_j", record.energy)
        return record

    def run_round(
        self,
        jobs: int,
        deadline: Seconds,
        on_job: Optional[JobCallback] = None,
    ) -> RoundRecord:
        """Execute one FL round (see :meth:`PaceController.run_round`).

        Snapshots the device energy ledger so the returned record carries
        this round's exact training energy.
        """
        self._energy_start = self.device.energy_consumed
        return super().run_round(jobs, deadline, on_job)

    # -- phase 1 & 2: safe exploration ----------------------------------------

    def _run_exploration_round(
        self,
        queue: deque[DvfsConfiguration],
        budget: RoundBudget,
        tally: RoundTally,
        on_job: Optional[JobCallback],
    ) -> None:
        while queue and not budget.finished:
            config = queue[0]
            first_measurement = self.guardian.t_xmax <= 0
            if first_measurement and config != self._x_max:
                # Defensive: x_max must be measured before anything else.
                config = self._x_max
            if not first_measurement and not self.guardian.allows_exploration(budget):
                tally.guardian_triggered = True
                self._drain_at_x_max(budget, tally, on_job)
                if self.phase is Phase.RANDOM_EXPLORATION:
                    self._phase1_durations.append(budget.elapsed)
                return
            if queue[0] == config:
                queue.popleft()
            sample, results = self.measurer.measure(self.device, config, budget, on_job)
            self._record_sample(sample, results, tally)
        if not budget.finished:
            # Last-round exploitation (§4.2): candidates exhausted but jobs
            # remain — run them on the best observed profile.
            self._execute_best_profile(budget, tally, on_job)
        if self.phase is Phase.RANDOM_EXPLORATION:
            self._phase1_durations.append(budget.elapsed)

    def _record_sample(
        self,
        sample: PerformanceSample,
        results: tuple[JobResult, ...],
        tally: RoundTally,
    ) -> None:
        merged = self.store.add(sample)
        self.optimizer.add_observation(merged.config, merged.latency, merged.energy)
        # Feed the guardian the accurately-timed per-job latencies: the
        # x_max estimate anchors Eqn. 2 and must not inherit the power
        # sensor's window error.
        if sample.config == self._x_max:
            if self.guardian.t_xmax <= 0:
                self.guardian.update_t_xmax(sample.latency)
            for result in results:
                self.guardian.observe_xmax_job(result.latency)
        else:
            for result in results:
                self.guardian.observe_job_latency(result.latency)
        tally.explored.append(sample.config)

    def _drain_at_x_max(
        self, budget: RoundBudget, tally: RoundTally, on_job: Optional[JobCallback]
    ) -> None:
        """Guardian fallback: run every remaining job at ``x_max``."""
        self.device.set_configuration(self._x_max)
        while not budget.finished:
            result = self._run_one_job(budget, on_job)
            self.guardian.observe_xmax_job(result.latency)

    # -- exploitation ----------------------------------------------------------

    def _execute_best_profile(
        self, budget: RoundBudget, tally: RoundTally, on_job: Optional[JobCallback]
    ) -> None:
        """Plan and execute the energy-minimal schedule for remaining jobs."""
        if budget.time_remaining <= 0:
            # Already past the deadline (only reachable with the guardian
            # disabled): sprint to limit the damage; the miss is recorded.
            self._drain_at_x_max(budget, tally, on_job)
            return
        try:
            schedule = self.planner.plan(
                self.store, budget.jobs_remaining, budget.time_remaining
            )
        except InfeasibleError:
            # Not even the fastest observed pace fits: sprint at x_max and
            # accept what happens (with the guardian active this is
            # unreachable except under extreme deadline settings).
            tally.guardian_triggered = True
            self._drain_at_x_max(budget, tally, on_job)
            return
        self._execute_schedule(schedule, budget, tally, on_job)

    def _execute_schedule(
        self,
        schedule: Schedule,
        budget: RoundBudget,
        tally: RoundTally,
        on_job: Optional[JobCallback],
    ) -> None:
        """Run a schedule fastest-entries-first with a drift monitor."""
        remaining_expected = schedule.expected_latency
        for entry in schedule:
            self.device.set_configuration(entry.config)
            expected_job = self.store.get(entry.config).latency
            for _ in range(entry.jobs):
                if budget.finished:
                    return
                # Drift monitor: sprint at x_max if (a) the remaining plan no
                # longer fits, or (b) running one more planned job would make
                # the round uncatchable even at x_max — the same invariant
                # the exploration guardian maintains (Eqn. 2).
                plan_unfit = remaining_expected > budget.time_remaining
                uncatchable = (
                    budget.time_remaining - expected_job
                    < (budget.jobs_remaining - 1) * self.guardian.padded_t_xmax
                )
                if (
                    self.guardian.enabled
                    and (plan_unfit or uncatchable)
                    and entry.config != self._x_max
                ):
                    tally.guardian_triggered = True
                    self._drain_at_x_max(budget, tally, on_job)
                    return
                result = self._run_one_job(budget, on_job)
                if entry.config == self._x_max:
                    self.guardian.observe_xmax_job(result.latency)
                else:
                    self.guardian.observe_job_latency(result.latency)
                tally.exploited_jobs += 1
                remaining_expected -= expected_job
                # Drift detector: EWMA of the relative gap between planned
                # and realized job latency.
                deviation = abs(result.latency / expected_job - 1.0)
                self._drift_ewma = (
                    (1 - self.config.drift_smoothing) * self._drift_ewma
                    + self.config.drift_smoothing * deviation
                )
        # Rounding or drift may leave a few unplanned jobs; finish them at
        # the fastest observed configuration.  These results must reach the
        # guardian exactly like planned jobs do: leftovers appear on the
        # noisy rounds, which is when the T(x_max) running mean and the
        # worst-job reserve most need fresh samples.
        if not budget.finished:
            fastest = self.store.fastest().config
            self.device.set_configuration(fastest)
            while not budget.finished:
                result = self._run_one_job(budget, on_job)
                if fastest == self._x_max:
                    self.guardian.observe_xmax_job(result.latency)
                else:
                    self.guardian.observe_job_latency(result.latency)
                tally.exploited_jobs += 1

    def _run_exploitation_round(
        self, budget: RoundBudget, tally: RoundTally, on_job: Optional[JobCallback]
    ) -> None:
        self._execute_best_profile(budget, tally, on_job)

    # -- MBO engine -------------------------------------------------------------

    def _suggestion_batch_size(self) -> int:
        """``K = T_avg / tau`` capped at the configured maximum (§4.3)."""
        if self._phase1_durations:
            t_avg = float(np.mean(self._phase1_durations))
        else:
            t_avg = self.config.tau * self.config.max_batch_size
        k = int(round(t_avg / self.config.tau))
        return max(1, min(k, self.config.max_batch_size))

    def _run_mbo_engine(self) -> MBOReport:
        """Fit the surrogates and produce the next suggestion batch.

        Runs in the configuration/reporting window (Fig. 1): costs energy
        (and wall time on the board) but never delays training jobs.
        """
        batch_size = self._suggestion_batch_size()
        if self.config.mbo_enabled:
            self.optimizer.fit()
            suggestions = self.optimizer.suggest(batch_size)
        else:
            # Acquisition ablation: random unexplored configurations.
            suggestions = uniform_configurations(
                self.device.space,
                batch_size,
                self._rng,
                exclude=self.store.configurations,
            )
        self._pending_suggestions = deque(suggestions)
        if self.mbo_cost is not None:
            latency, energy = self.mbo_cost(len(self.store), batch_size)
        else:
            latency, energy = 0.0, 0.0
        return MBOReport(
            latency=latency,
            energy=energy,
            n_observations=len(self.store),
            batch_size=batch_size,
            suggestions=tuple(suggestions),
        )

    # -- phase transitions ---------------------------------------------------------

    def _advance_phase(self, round_index: int, budget: RoundBudget) -> None:
        if self.phase is Phase.RANDOM_EXPLORATION and not self._exploration_queue:
            self._transition(round_index, Phase.PARETO_CONSTRUCTION)
            self.optimizer.freeze_reference()
            return
        if self.phase is Phase.PARETO_CONSTRUCTION:
            self.stopping.record_hypervolume(self.optimizer.hypervolume())
            if self.stopping.should_stop(len(self.store)):
                self._transition(round_index, Phase.EXPLOITATION)
            return
        if (
            self.phase is Phase.EXPLOITATION
            and self.config.drift_reexploration
            and self._drift_ewma > self.config.drift_threshold
        ):
            self._restart_exploration(round_index)

    def _restart_exploration(self, round_index: int) -> None:
        """Drift adaptation: drop the stale model, re-run the exploration.

        The observed performance surfaces no longer predict reality (e.g.
        the board heated up and throttles), so the store, optimizer and
        stopping rule are rebuilt and a fresh phase-1 queue is drawn.  The
        guardian is kept — its ``T(x_max)`` running mean adapts on its own
        and its worst-case reserve must stay conservative across episodes.
        """
        self.restarts += 1
        self._drift_ewma = 0.0
        episode_seed = self.config.seed + 1000 * self.restarts
        space = self.device.space
        self.store = ObservationStore()
        self.optimizer = MultiObjectiveBayesianOptimizer(
            space,
            seed=episode_seed,
            fit_restarts=self.config.fit_restarts,
            warm_start=self.config.warm_start_fits,
        )
        self.stopping = StoppingCondition(
            self.config.min_explored(len(space)),
            self.config.hv_improvement_threshold,
        )
        starting_points = sobol_configurations(
            space,
            self.config.initial_samples(len(space)),
            seed=episode_seed,
            exclude=[self._x_max],
        )
        self._exploration_queue = deque([self._x_max] + starting_points)
        self._pending_suggestions = deque()
        self._phase1_durations = []
        self._transition(round_index, Phase.RANDOM_EXPLORATION)

    def _transition(self, round_index: int, to_phase: Phase) -> None:
        transition = PhaseTransition(
            round_index=round_index, from_phase=self.phase, to_phase=to_phase
        )
        self.transitions.append(transition)
        if obs.enabled():
            obs.emit(
                "controller.phase_transition",
                t=self.device.clock.now,
                round=round_index,
                from_phase=self.phase.value,
                to_phase=to_phase.value,
                restart=transition.is_restart,
            )
        self.phase = to_phase
