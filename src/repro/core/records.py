"""Outcome records produced by pace controllers.

These are the raw material of every evaluation figure: per-round energy
(Figs. 9-10), exploration/Pareto walkthroughs (Table 3), and MBO overhead
(Fig. 13) are all projections of :class:`RoundRecord` streams.

Records and results are immutable values: the campaign memo, the
executor and every fleet client built on one archetype share a single
:class:`CampaignResult` instead of holding private copies.  Derive a
changed value with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.types import DvfsConfiguration, Joules, Seconds


@dataclass(frozen=True)
class MBOReport:
    """Cost of one between-rounds MBO engine invocation (§6.5).

    The MBO runs in the configuration/reporting window (Fig. 1), so its
    latency never delays training; its energy is still real and is tracked
    separately for the Fig. 13 overhead analysis.
    """

    latency: Seconds
    energy: Joules
    n_observations: int
    batch_size: int
    suggestions: tuple[DvfsConfiguration, ...] = ()


@dataclass(frozen=True)
class RoundRecord:
    """Everything a controller did during one FL round."""

    round_index: int
    phase: str
    deadline: Seconds
    jobs: int
    #: Wall time from round start to the last job's completion.
    elapsed: Seconds = 0.0
    #: Actual training energy consumed this round.
    energy: Joules = 0.0
    #: Whether the round finished past its deadline (should never happen
    #: with the guardian enabled).
    missed: bool = False
    #: Configurations newly explored (measured) this round.
    explored: tuple[DvfsConfiguration, ...] = ()
    #: Of the explored ones, how many sit on the final Pareto front — filled
    #: in retrospectively by the campaign runner (Table 3 semantics).
    explored_on_final_front: Optional[int] = None
    #: Number of jobs spent in exploitation (vs measurement windows).
    exploited_jobs: int = 0
    #: Whether the guardian fired and forced the round onto x_max.
    guardian_triggered: bool = False
    #: Between-rounds MBO cost, when the MBO engine ran before this round.
    mbo: Optional[MBOReport] = None

    @property
    def slack(self) -> Seconds:
        """Unused time before the deadline (negative iff missed)."""
        return self.deadline - self.elapsed

    @property
    def explored_count(self) -> int:
        return len(self.explored)


@dataclass(frozen=True)
class ChaosSummary:
    """What a chaos campaign injected and how the stack fought back.

    Attached to a :class:`CampaignResult` by the chaos path of the campaign
    runner; a ``None`` summary means the campaign ran fault-free.
    """

    #: Every injection performed, as (round_index, fault_kind) pairs.
    injected: tuple[tuple[int, str], ...] = ()
    checkpoints: int = 0
    restores: int = 0
    escalations: int = 0
    dropped_rounds: int = 0
    lost_reports: int = 0

    @property
    def injections(self) -> int:
        return len(self.injected)

    @property
    def recovery_actions(self) -> int:
        return self.restores + self.escalations


@dataclass(frozen=True)
class CampaignResult:
    """A full multi-round run of one controller on one device/task."""

    controller: str
    device: str
    task: str
    deadline_ratio: float
    records: tuple[RoundRecord, ...] = ()
    #: The controller's final Pareto-front objective values, if it has one.
    final_front: Optional[tuple[tuple[Seconds, Joules], ...]] = None
    #: Fault-injection summary when the campaign ran under a chaos schedule.
    chaos: Optional[ChaosSummary] = None

    @property
    def rounds(self) -> int:
        return len(self.records)

    @property
    def training_energy(self) -> Joules:
        return sum(r.energy for r in self.records)

    @property
    def mbo_energy(self) -> Joules:
        return sum(r.mbo.energy for r in self.records if r.mbo is not None)

    @property
    def total_energy(self) -> Joules:
        return self.training_energy + self.mbo_energy

    @property
    def missed_rounds(self) -> int:
        return sum(1 for r in self.records if r.missed)

    @property
    def explored_total(self) -> int:
        return sum(r.explored_count for r in self.records)

    def energy_series(self) -> list[Joules]:
        """Per-round training energy (the Figs. 9-10 curves)."""
        return [r.energy for r in self.records]

    def deadline_series(self) -> list[Seconds]:
        """Per-round deadlines (the DDL subplots of Figs. 9-10)."""
        return [r.deadline for r in self.records]

    def phase_of_round(self, index: int) -> str:
        return self.records[index].phase
