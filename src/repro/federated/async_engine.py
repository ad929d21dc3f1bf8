"""Fleet-scale event-driven federation engine (sync / semi-sync / async).

The paper deploys BoFL "on each FL client locally" (§1); this module
provides the serving-scale federation layer that composition implies.
Where :class:`repro.federated.server.FederatedServer` drives a handful of
live :class:`FederatedClient` objects synchronously — every round blocks
on the slowest participant — this engine composes *thousands* of clients
on a simulated clock, in any of three aggregation disciplines:

``sync``
    Classic synchronous FedAvg: every selected client must report before
    the round closes, so round latency is the fleet's straggler tail.
``semisync``
    Over-selection with a straggler cutoff (Bonawitz et al.): the server
    selects ``ceil(target x over_selection)`` clients and closes the
    round as soon as ``target`` reports arrive; later arrivals are cut.
``async``
    FedBuff-style buffered asynchronous aggregation: clients train and
    report continuously, the server folds every ``buffer_size`` arrivals
    into a new model version, and each contribution is discounted by its
    *staleness* (how many versions the global model advanced while the
    client trained).  Contributions staler than ``max_staleness`` are
    dropped entirely.

Clients are **trace-driven**: each one's local rounds come from a
:class:`~repro.core.records.CampaignResult` produced by the ordinary
campaign runner (per-client BoFL/baseline pacing, per-round energy,
elapsed time and deadline-miss flags).  Traces are gathered — and may be
sharded across the :class:`~repro.sim.executor.CampaignExecutor` process
pool — *before* composition starts; the composition itself is a pure,
serial, deterministic function of the traces and the fleet seed.  That
split is what makes serial and sharded fleet runs byte-identical: see
:mod:`repro.sim.fleet` for the orchestration layer.

The engine reuses the existing federation abstractions:
:class:`~repro.federated.selection.ClientSelector` picks participants,
:class:`~repro.federated.transport.LinkModel` prices every upload, and an
:class:`~repro.federated.aggregation.Aggregator` combines the per-report
progress probes under staleness-discounted weights (the probe is a
one-element update vector carrying the client's local-round progress, so
the aggregation path is exercised for real and its output lands on the
trace).

Fault composition: ``client_dropout`` windows are folded into the client
*trace* (the chaos engine idles the device to the deadline and the report
never leaves the client), while ``transport_stall`` windows act here, at
the fleet layer, by delaying the report's arrival — the two compose on
the same client without either subsystem knowing about the other.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.core.records import RoundRecord
from repro.errors import ConfigurationError
from repro.federated.aggregation import Aggregator, FedAvg
from repro.federated.hierarchy import HierarchySpec, combine_hierarchical
from repro.federated.selection import ClientSelector
from repro.federated.transport import LinkModel
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.obs import runtime as obs
from repro.servertune.controllers import (
    RoundFeedback,
    ServerController,
    ServerKnobs,
)
from repro.types import Seconds

#: Aggregation disciplines the engine understands.
FLEET_MODES: tuple[str, ...] = ("sync", "semisync", "async")

#: Composition implementations: the vectorized structured-array engine
#: (default) and the retained per-event object loop it is differentially
#: tested against.
FLEET_ENGINES: tuple[str, ...] = ("vectorized", "legacy")

#: Result granularities: ``reports`` materializes one
#: :class:`FleetReport` per client report (full legacy fidelity);
#: ``stats`` keeps only per-round aggregate counters
#: (:class:`RoundStats`), the O(rounds)-memory shape that makes
#: 100k–1M-client compositions fit in bounded RSS.
FLEET_DETAILS: tuple[str, ...] = ("reports", "stats")


def staleness_weight(staleness: int, exponent: float) -> float:
    """The FedBuff-style staleness discount ``(1 + s)^-exponent``.

    ``staleness`` is how many global model versions were committed between
    the client starting its local round and its report arriving; fresher
    reports keep more of their weight.  ``exponent=0`` disables the
    discount (every report weighs its sample count).
    """
    if staleness < 0:
        raise ConfigurationError(f"staleness must be >= 0, got {staleness}")
    if exponent < 0:
        raise ConfigurationError(f"staleness exponent must be >= 0, got {exponent}")
    return float((1.0 + staleness) ** (-exponent))


@dataclass
class FleetClient:
    """One fleet participant: identity, trace, and transport state.

    Built by :func:`repro.sim.fleet.build_fleet_clients`; ``records`` is
    filled from the client's campaign trace before composition starts.
    """

    client_id: str
    index: int
    device: str
    task: str
    controller: str
    trace_seed: int
    n_samples: int
    model_size_mbit: float
    #: Engine-level transport faults: upload of a local round inside a
    #: window is delayed by ``magnitude x deadline`` (the stall eats that
    #: fraction of the round's reporting budget).
    stall_windows: tuple[FaultSpec, ...] = ()
    #: Seed for this client's private upload-time stream.
    upload_seed: int = 0
    #: Trace-level chaos (e.g. dropout windows) folded into the client's
    #: campaign key by the fleet layer; the engine itself never reads it.
    fault_schedule: Optional[FaultSchedule] = None
    #: The client's local-round trace (one entry per local round).
    #: Archetype mates share one immutable tuple; engines never mutate it.
    records: Sequence[RoundRecord] = ()

    def stalled_in(self, local_round: int) -> Optional[FaultSpec]:
        """The transport-stall window covering ``local_round``, if any."""
        for window in self.stall_windows:
            if window.active_in(local_round):
                return window
        return None


@dataclass
class FleetReport:
    """One client report as the server saw it (ServerRound-equivalent)."""

    client_id: str
    local_round: int
    #: Simulated time the report reached the server.
    arrival: Seconds
    train_elapsed: Seconds
    upload: Seconds
    energy: float
    #: The client missed its training deadline (report not aggregatable).
    missed: bool
    #: Global model versions committed while the client trained.
    staleness: int = 0
    #: Aggregation weight (samples x staleness discount); 0 when dropped.
    weight: float = 0.0
    #: How the server disposed of the report: "buffered" (aggregated),
    #: "straggler" (deadline missed), "cutoff" (semi-sync late arrival),
    #: or "stale" (async staleness bound exceeded).
    status: str = "buffered"


@dataclass(frozen=True)
class RoundStats:
    """Aggregate round counters for ``detail="stats"`` compositions.

    Holds exactly what the :class:`FleetResult` scorecard and the per-round
    observability events consume, so a stats-mode round carries O(1) memory
    instead of one :class:`FleetReport` per client.  ``energy`` is summed
    in legacy report order (dropped reports first, then arrivals), keeping
    the float total bit-identical to the reports-mode accumulation.
    """

    n_participants: int
    n_reports: int
    n_dropped: int
    n_buffered: int
    #: Reports by terminal status (``n_straggler`` counts deadline misses
    #: and dropout idles, matching ``status == "straggler"``).
    n_straggler: int
    n_cutoff: int
    n_stale: int
    energy: float
    #: Sum of buffered reports' staleness (exact: integers).
    staleness_sum: int

    def to_dict(self) -> dict[str, object]:
        return {
            "n_participants": self.n_participants,
            "n_reports": self.n_reports,
            "n_dropped": self.n_dropped,
            "n_buffered": self.n_buffered,
            "n_straggler": self.n_straggler,
            "n_cutoff": self.n_cutoff,
            "n_stale": self.n_stale,
            "energy": self.energy,
            "staleness_sum": self.staleness_sum,
        }


@dataclass
class FleetRound:
    """Server-side record of one aggregation (ServerRound-equivalent).

    In ``detail="reports"`` compositions every client report is kept in
    :attr:`reports`; in ``detail="stats"`` mode the per-report lists stay
    empty and :attr:`stats` carries the aggregate counters.  All derived
    quantities go through the ``*_count`` accessors, which read whichever
    representation is present.
    """

    round_index: int
    started_at: Seconds
    completed_at: Seconds
    participants: list[str] = field(default_factory=list)
    reports: list[FleetReport] = field(default_factory=list)
    #: Clients whose trace round was a chaos dropout (no report sent).
    dropped: list[str] = field(default_factory=list)
    aggregated: bool = False
    #: Global model version after this aggregation committed.
    model_version: int = 0
    #: The staleness-weighted aggregation probe (see module docstring).
    model_probe: Optional[float] = None
    #: Aggregate counters when composed with ``detail="stats"``.
    stats: Optional[RoundStats] = None

    @property
    def latency(self) -> Seconds:
        return self.completed_at - self.started_at

    @property
    def total_energy(self) -> float:
        if self.stats is not None:
            return self.stats.energy
        return sum(r.energy for r in self.reports)

    @property
    def stragglers(self) -> list[str]:
        """Clients whose reports could not be aggregated this round."""
        return [r.client_id for r in self.reports if r.status != "buffered"]

    @property
    def buffered(self) -> list[FleetReport]:
        return [r for r in self.reports if r.status == "buffered"]

    def participant_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_participants
        return len(self.participants)

    def report_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_reports
        return len(self.reports)

    def dropped_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_dropped
        return len(self.dropped)

    def buffered_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_buffered
        return len(self.buffered)

    def straggler_count(self) -> int:
        """Reports that could not be aggregated (any non-buffered status)."""
        if self.stats is not None:
            return (
                self.stats.n_straggler + self.stats.n_cutoff + self.stats.n_stale
            )
        return len(self.stragglers)

    def status_count(self, status: str) -> int:
        if self.stats is not None:
            return {
                "buffered": self.stats.n_buffered,
                "straggler": self.stats.n_straggler,
                "cutoff": self.stats.n_cutoff,
                "stale": self.stats.n_stale,
            }.get(status, 0)
        return sum(1 for r in self.reports if r.status == status)

    def staleness_total(self) -> int:
        """Summed staleness over buffered reports (exact integer)."""
        if self.stats is not None:
            return self.stats.staleness_sum
        return sum(r.staleness for r in self.buffered)

    def to_dict(self) -> dict[str, object]:
        result: dict[str, object] = {
            "round_index": self.round_index,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "participants": list(self.participants),
            "dropped": list(self.dropped),
            "aggregated": self.aggregated,
            "model_version": self.model_version,
            "model_probe": self.model_probe,
            "reports": [
                {
                    "client_id": r.client_id,
                    "local_round": r.local_round,
                    "arrival": r.arrival,
                    "train_elapsed": r.train_elapsed,
                    "upload": r.upload,
                    "energy": r.energy,
                    "missed": r.missed,
                    "staleness": r.staleness,
                    "weight": r.weight,
                    "status": r.status,
                }
                for r in self.reports
            ],
        }
        if self.stats is not None:
            result["stats"] = self.stats.to_dict()
        return result


@dataclass
class FleetResult:
    """The outcome of one fleet composition run."""

    mode: str
    n_clients: int
    rounds: list[FleetRound] = field(default_factory=list)
    #: Energy of trace rounds the composition consumed but no aggregation
    #: window claimed (e.g. a final partial async buffer never flushed).
    unclaimed_energy: float = 0.0

    @property
    def aggregations(self) -> int:
        return sum(1 for r in self.rounds if r.aggregated)

    @property
    def total_energy(self) -> float:
        return sum(r.total_energy for r in self.rounds) + self.unclaimed_energy

    @property
    def makespan(self) -> Seconds:
        """Simulated time from fleet start to the last aggregation."""
        if not self.rounds:
            return 0.0
        return max(r.completed_at for r in self.rounds)

    @property
    def mean_round_latency(self) -> Seconds:
        if not self.rounds:
            return 0.0
        return sum(r.latency for r in self.rounds) / len(self.rounds)

    @property
    def straggler_reports(self) -> int:
        return sum(rnd.status_count("straggler") for rnd in self.rounds)

    @property
    def cutoff_reports(self) -> int:
        return sum(rnd.status_count("cutoff") for rnd in self.rounds)

    @property
    def staleness_drops(self) -> int:
        return sum(rnd.status_count("stale") for rnd in self.rounds)

    @property
    def dropout_rounds(self) -> int:
        return sum(rnd.dropped_count() for rnd in self.rounds)

    @property
    def mean_staleness(self) -> float:
        count = sum(rnd.buffered_count() for rnd in self.rounds)
        if count == 0:
            return 0.0
        return sum(rnd.staleness_total() for rnd in self.rounds) / count

    def to_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "n_clients": self.n_clients,
            "unclaimed_energy": self.unclaimed_energy,
            "rounds": [r.to_dict() for r in self.rounds],
        }


@dataclass(frozen=True)
class _Arrival:
    """One report in flight: ordering key is (time, client index)."""

    at: Seconds
    order: int
    client: FleetClient
    local_round: int
    record: RoundRecord
    upload: Seconds
    version_started: int
    dropped: bool


class AsyncFederationEngine:
    """Composes client traces into fleet rounds on a simulated clock.

    Parameters
    ----------
    clients:
        Fleet participants with their ``records`` traces already filled.
    mode:
        One of :data:`FLEET_MODES`.
    link:
        The wireless link pricing every upload (per-client private RNG
        streams keep draws independent of composition order).
    selector:
        Participant choice for ``sync``/``semisync`` rounds; ignored by
        ``async`` (every client streams continuously).
    aggregator:
        Combines the per-report progress probes under the computed
        weights each time the server commits a model version.
    target_reports:
        ``semisync`` only: commit as soon as this many aggregatable
        reports arrived (the over-selected remainder is cut).
    buffer_size, staleness_exponent, max_staleness:
        ``async`` only: the FedBuff buffer length, the staleness-discount
        exponent, and the optional hard staleness bound.
    controller:
        Optional :class:`~repro.servertune.controllers.ServerController`
        adapting the global knobs between aggregations: ``participation``
        rescales the selector's cohort (sync/semisync), ``deadline_scale``
        caps how long past the nominal deadline budget the server waits
        before cutting a round (sync/semisync), ``buffer_scale`` rescales
        the FedBuff commit threshold (async), and ``halt`` ends the run.
        ``None`` (and a controller pinned at the default knobs) composes
        byte-identically to the pre-controller engine.
    engine:
        ``"vectorized"`` (default) composes on the structured-array event
        queues of :mod:`repro.federated.eventqueue`;
        ``"legacy"`` retains the per-event object loop.  The two are
        byte-identical (results, obs traces) — the differential suite in
        ``tests/federated/test_vectorized_equivalence.py`` holds the line.
    detail:
        ``"reports"`` keeps one :class:`FleetReport` per client report;
        ``"stats"`` keeps per-round :class:`RoundStats` aggregates only
        (O(rounds) memory — the 100k–1M-client shape).  Stats mode needs
        the vectorized engine, and for ``async`` additionally the
        controller-free, unbounded-staleness fast drain.
    hierarchy:
        Optional :class:`~repro.federated.hierarchy.HierarchySpec`: commit
        through edge aggregators (O(edges) server work) instead of the
        flat fold.  A *different discipline*, not an optimization — but
        one shared implementation, so the two engines still match bit for
        bit under it.
    shards:
        Thread-shard the upload-stream precompute across this many
        contiguous client ranges (vectorized engine only); byte-identical
        to the serial build for any value.
    """

    def __init__(
        self,
        clients: Sequence[FleetClient],
        *,
        mode: str = "sync",
        link: Optional[LinkModel] = None,
        selector: Optional[ClientSelector] = None,
        aggregator: Optional[Aggregator] = None,
        target_reports: Optional[int] = None,
        buffer_size: int = 16,
        staleness_exponent: float = 0.5,
        max_staleness: Optional[int] = None,
        controller: Optional[ServerController] = None,
        engine: str = "vectorized",
        detail: str = "reports",
        hierarchy: Optional[HierarchySpec] = None,
        shards: Optional[int] = None,
    ) -> None:
        if not clients:
            raise ConfigurationError("a fleet needs at least one client")
        if mode not in FLEET_MODES:
            raise ConfigurationError(
                f"unknown fleet mode {mode!r}; available: {', '.join(FLEET_MODES)}"
            )
        if engine not in FLEET_ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; available: {', '.join(FLEET_ENGINES)}"
            )
        if detail not in FLEET_DETAILS:
            raise ConfigurationError(
                f"unknown detail {detail!r}; available: {', '.join(FLEET_DETAILS)}"
            )
        if detail == "stats" and engine == "legacy":
            raise ConfigurationError(
                "detail='stats' requires the vectorized engine"
            )
        if buffer_size < 1:
            raise ConfigurationError(f"buffer_size must be >= 1, got {buffer_size}")
        if staleness_exponent < 0:
            raise ConfigurationError(
                f"staleness_exponent must be >= 0, got {staleness_exponent}"
            )
        if max_staleness is not None and max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0, got {max_staleness}"
            )
        if target_reports is not None and target_reports < 1:
            raise ConfigurationError(
                f"target_reports must be >= 1, got {target_reports}"
            )
        if shards is not None and shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.clients = list(clients)
        self.mode = mode
        self.link = link if link is not None else LinkModel()
        self.selector = selector
        self.aggregator = aggregator if aggregator is not None else FedAvg()
        self.target_reports = target_reports
        self.buffer_size = buffer_size
        self.staleness_exponent = staleness_exponent
        self.max_staleness = max_staleness
        self.controller = controller
        self.engine = engine
        self.detail = detail
        self.hierarchy = hierarchy
        self.shards = shards
        #: The selector's configured cohort size before any participation
        #: knob touched it; the knob always rescales from this base, never
        #: from its own previous output (no compounding).
        self._base_selection: Optional[int] = getattr(
            selector, "participants_per_round", None
        )
        self._by_id = {c.client_id: c for c in self.clients}
        if len(self._by_id) != len(self.clients):
            raise ConfigurationError("fleet client ids must be unique")
        #: Per-client upload RNG streams, built lazily: only the legacy
        #: object loop draws them one launch at a time — the vectorized
        #: engine precomputes whole streams in
        #: :func:`repro.federated.eventqueue.build_trace_arrays`, and a
        #: 100k-client fleet should not pay for 100k Generator objects
        #: it never uses.
        self._upload_rngs: Optional[dict[str, np.random.Generator]] = None
        #: Next unconsumed local round per client.
        self._cursor = {c.client_id: 0 for c in self.clients}
        #: ``async`` caps every client's trace at the run's ``rounds``
        #: (set by :meth:`run`); ``None`` composes full traces.
        self._trace_cap: Optional[int] = None

    # -- shared mechanics ----------------------------------------------------

    def _trace_length(self, client: FleetClient) -> int:
        """The client's composable local rounds (capped in ``async``)."""
        if self._trace_cap is None:
            return len(client.records)
        return min(len(client.records), self._trace_cap)

    def _next_record(self, client: FleetClient) -> Optional[RoundRecord]:
        cursor = self._cursor[client.client_id]
        if cursor >= self._trace_length(client):
            return None
        self._cursor[client.client_id] = cursor + 1
        return client.records[cursor]

    def _upload_time(
        self, client: FleetClient, local_round: int, record: RoundRecord
    ) -> Seconds:
        """Transfer time for one report, including transport-stall delay."""
        if self._upload_rngs is None:
            self._upload_rngs = {
                c.client_id: np.random.default_rng(c.upload_seed)
                for c in self.clients
            }
        rng = self._upload_rngs[client.client_id]
        upload = self.link.transfer_time(client.model_size_mbit, rng)
        stall = client.stalled_in(local_round)
        if stall is not None:
            upload += stall.magnitude * record.deadline
        return upload

    def _launch(
        self, client: FleetClient, start: Seconds, order: int, version: int
    ) -> Optional[_Arrival]:
        """Start the client's next local round; None when its trace is dry."""
        local_round = self._cursor[client.client_id]
        record = self._next_record(client)
        if record is None:
            return None
        dropped = record.phase == "dropped"
        # A dropout round consumes the deadline (the board idles) but no
        # report is ever uploaded; the "arrival" is just the client
        # becoming available again.
        upload = (
            0.0 if dropped else self._upload_time(client, local_round, record)
        )
        return _Arrival(
            at=start + record.elapsed + upload,
            order=order,
            client=client,
            local_round=local_round,
            record=record,
            upload=upload,
            version_started=version,
            dropped=dropped,
        )

    def _observe_selector(self, report: FleetReport) -> None:
        observe = getattr(self.selector, "observe", None)
        if observe is not None:
            observe(report.client_id, report.energy)

    def _commit(self, round_record: FleetRound, version: int) -> int:
        """Aggregate the round's buffered reports; returns the new version."""
        buffered = round_record.buffered
        if not buffered:
            round_record.model_version = version
            return version
        progresses: list[float] = []
        weights: list[float] = []
        edges: list[int] = []
        for report in buffered:
            client = self._by_id[report.client_id]
            trace_rounds = max(self._trace_length(client), 1)
            progresses.append((report.local_round + 1) / trace_rounds)
            weights.append(report.weight)
            if self.hierarchy is not None:
                edges.append(self.hierarchy.edge_of(client.index))
        if self.hierarchy is not None:
            round_record.model_probe = combine_hierarchical(
                self.aggregator,
                self.hierarchy,
                progresses,
                weights,
                edges,
                t=round_record.completed_at,
                round_index=round_record.round_index,
                version=version + 1,
            )
        else:
            updates = [[np.asarray([p], dtype=float)] for p in progresses]
            combined = self.aggregator.aggregate(updates, weights)
            round_record.model_probe = float(combined[0][0])
        round_record.aggregated = True
        version += 1
        round_record.model_version = version
        if obs.enabled():
            obs.emit(
                "fleet.aggregate",
                t=round_record.completed_at,
                round=round_record.round_index,
                contributors=len(buffered),
                weight_total=float(sum(weights)),
                probe=round_record.model_probe,
                version=version,
            )
            obs.count("fleet.aggregations")
        return version

    def _emit_enqueue(self, report: FleetReport, round_index: int) -> None:
        if not obs.enabled():
            return
        obs.emit(
            "fleet.enqueue",
            t=report.arrival,
            round=round_index,
            client=report.client_id,
            local_round=report.local_round,
            staleness=report.staleness,
            status=report.status,
        )
        obs.count("fleet.enqueues")
        if report.status == "stale":
            obs.emit(
                "fleet.staleness_drop",
                t=report.arrival,
                round=round_index,
                client=report.client_id,
                staleness=report.staleness,
            )
            obs.count("fleet.staleness_drops")

    def _emit_round(self, round_record: FleetRound) -> None:
        if not obs.enabled():
            return
        obs.emit(
            "fleet.round",
            t=round_record.completed_at,
            round=round_record.round_index,
            mode=self.mode,
            participants=round_record.participant_count(),
            buffered=round_record.buffered_count(),
            stragglers=round_record.straggler_count(),
            dropped=round_record.dropped_count(),
            latency=round_record.latency,
            energy=round_record.total_energy,
            version=round_record.model_version,
        )
        obs.count("fleet.rounds")

    # -- composition ---------------------------------------------------------

    def run(self, rounds: int) -> FleetResult:
        """Compose ``rounds`` worth of fleet activity and return the result.

        ``sync``/``semisync``: ``rounds`` global rounds are driven through
        the selector.  ``async``: every client streams its full trace (at
        most ``rounds`` local rounds each) and the server commits a
        version per full buffer — the number of aggregations follows from
        fleet size and buffer length.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        # Bound every client's streaming trace at ``rounds`` local rounds
        # so sync and async consume identical work.
        self._trace_cap = rounds if self.mode == "async" else None
        if obs.enabled():
            obs.emit(
                "fleet.start",
                mode=self.mode,
                clients=len(self.clients),
                rounds=rounds,
                buffer_size=self.buffer_size if self.mode == "async" else None,
                staleness_exponent=(
                    self.staleness_exponent if self.mode == "async" else None
                ),
            )
        if self.engine == "vectorized":
            from repro.federated.vector_engine import run_vectorized

            result = run_vectorized(self, rounds)
        elif self.mode == "async":
            result = self._run_async(rounds)
        else:
            result = self._run_rounds(rounds)
        if obs.enabled():
            obs.emit(
                "fleet.end",
                t=result.makespan,
                mode=self.mode,
                aggregations=result.aggregations,
                total_energy=result.total_energy,
                makespan=result.makespan,
                mean_latency=result.mean_round_latency,
                stragglers=result.straggler_reports,
                cutoffs=result.cutoff_reports,
                staleness_drops=result.staleness_drops,
                dropouts=result.dropout_rounds,
            )
        return result

    def _round_knobs(self, round_index: int) -> Optional[ServerKnobs]:
        """The controller's knobs for this round (None when uncontrolled)."""
        if self.controller is None:
            return None
        knobs = self.controller.knobs_for(round_index)
        if obs.enabled():
            obs.emit(
                "servertune.knobs",
                round=round_index,
                controller=self.controller.name,
                deadline_scale=knobs.deadline_scale,
                participation=knobs.participation,
                buffer_scale=knobs.buffer_scale,
                halt=knobs.halt,
            )
            obs.count("servertune.rounds")
        return knobs

    def _feed_controller(
        self, round_record: FleetRound, result: FleetResult
    ) -> None:
        """Report one committed round back to the server controller."""
        if self.controller is None:
            return
        self.controller.observe(
            RoundFeedback(
                round_index=round_record.round_index,
                participants=round_record.participant_count(),
                buffered=round_record.buffered_count(),
                stragglers=round_record.straggler_count(),
                energy=round_record.total_energy,
                latency=round_record.latency,
                total_energy=result.total_energy,
                makespan=round_record.completed_at,
            )
        )

    def _emit_halt(self, round_index: int, t: Seconds) -> None:
        if self.controller is None:
            return
        obs.emit(
            "servertune.halt",
            t=t,
            round=round_index,
            controller=self.controller.name,
        )
        obs.count("servertune.halts")

    def _select_ids(
        self, round_index: int, knobs: Optional[ServerKnobs] = None
    ) -> list[str]:
        ids = [c.client_id for c in self.clients]
        if self.selector is None:
            return ids
        if knobs is not None and self._base_selection is not None:
            self.selector.participants_per_round = max(  # type: ignore[attr-defined]
                1, round(self._base_selection * knobs.participation)
            )
        return list(self.selector.select(ids, round_index))

    def _run_rounds(self, rounds: int) -> FleetResult:
        """Synchronous and semi-synchronous composition."""
        result = FleetResult(mode=self.mode, n_clients=len(self.clients))
        version = 0
        now: Seconds = 0.0
        for round_index in range(rounds):
            knobs = self._round_knobs(round_index)
            if knobs is not None and knobs.halt:
                self._emit_halt(round_index, now)
                break
            selected = self._select_ids(round_index, knobs)
            round_record = FleetRound(
                round_index=round_index,
                started_at=now,
                completed_at=now,
                participants=list(selected),
            )
            arrivals: list[_Arrival] = []
            for order, client_id in enumerate(selected):
                client = self._by_id[client_id]
                arrival = self._launch(client, now, order, version)
                if arrival is None:
                    continue  # trace exhausted: nothing left to contribute
                if arrival.dropped:
                    round_record.dropped.append(client_id)
                    # The dropout's idle energy still belongs to the round.
                    round_record.reports.append(
                        FleetReport(
                            client_id=client_id,
                            local_round=arrival.local_round,
                            arrival=arrival.at,
                            train_elapsed=arrival.record.elapsed,
                            upload=0.0,
                            energy=arrival.record.energy,
                            missed=True,
                            status="straggler",
                        )
                    )
                    continue
                arrivals.append(arrival)
            arrivals.sort(key=lambda a: (a.at, a.order))
            cutoff_at = self._cutoff(arrivals, knobs)
            patience_at = self._patience(now, arrivals, knobs)
            if patience_at is not None and (
                cutoff_at is None or patience_at < cutoff_at
            ):
                cutoff_at = patience_at
            for arrival in arrivals:
                missed = arrival.record.missed
                if missed:
                    status = "straggler"
                elif cutoff_at is not None and arrival.at > cutoff_at:
                    status = "cutoff"
                else:
                    status = "buffered"
                report = FleetReport(
                    client_id=arrival.client.client_id,
                    local_round=arrival.local_round,
                    arrival=arrival.at,
                    train_elapsed=arrival.record.elapsed,
                    upload=arrival.upload,
                    energy=arrival.record.energy,
                    missed=missed,
                    staleness=0,
                    weight=(
                        float(arrival.client.n_samples)
                        if status == "buffered"
                        else 0.0
                    ),
                    status=status,
                )
                round_record.reports.append(report)
                self._emit_enqueue(report, round_index)
                self._observe_selector(report)
            completed = self._round_close(round_record, arrivals, cutoff_at)
            round_record.completed_at = max(completed, now)
            version = self._commit(round_record, version)
            result.rounds.append(round_record)
            self._emit_round(round_record)
            self._feed_controller(round_record, result)
            now = round_record.completed_at
        return result

    def _cutoff(
        self, arrivals: list[_Arrival], knobs: Optional[ServerKnobs] = None
    ) -> Optional[Seconds]:
        """The semi-sync straggler cutoff time, or None (wait for all)."""
        if self.mode != "semisync" or self.target_reports is None:
            return None
        target = self.target_reports
        if knobs is not None and knobs.participation != 1.0:
            # Shrinking the cohort shrinks the commit quorum with it, so
            # a low-participation round is not doomed to wait on everyone.
            target = max(1, round(target * knobs.participation))
        aggregatable = [a for a in arrivals if not a.record.missed]
        if len(aggregatable) <= target:
            return None
        return aggregatable[target - 1].at

    def _patience(
        self,
        started_at: Seconds,
        arrivals: list[_Arrival],
        knobs: Optional[ServerKnobs],
    ) -> Optional[Seconds]:
        """The controller's straggler-patience cap on the round close.

        ``deadline_scale`` bounds how long past the round's largest
        training deadline the server keeps waiting: reports later than
        ``started_at + scale x max(deadline)`` are cut.  The default
        scale of 1.0 means "no cap" (classic wait-for-all sync), keeping
        uncontrolled composition byte-identical.
        """
        if knobs is None or knobs.deadline_scale == 1.0 or not arrivals:
            return None
        budget = max(a.record.deadline for a in arrivals)
        return started_at + knobs.deadline_scale * budget

    def _round_close(
        self,
        round_record: FleetRound,
        arrivals: list[_Arrival],
        cutoff_at: Optional[Seconds],
    ) -> Seconds:
        """When the server closes the round and commits."""
        if cutoff_at is not None:
            if arrivals:
                # A patience cap later than every arrival never extends
                # the round (semisync cutoffs are arrival times already).
                return min(cutoff_at, max(a.at for a in arrivals))
            return cutoff_at
        if arrivals:
            return max(a.at for a in arrivals)
        # Everyone dropped out (or was exhausted): the round closes once
        # the last dropout's deadline idle-out completes.
        drops = [r.arrival for r in round_record.reports]
        return max(drops) if drops else round_record.started_at

    def _run_async(self, rounds: int) -> FleetResult:
        """FedBuff-style buffered asynchronous composition."""
        result = FleetResult(mode="async", n_clients=len(self.clients))
        version = 0
        flushed_at: Seconds = 0.0
        heap: list[tuple[Seconds, int, _Arrival]] = []
        order = 0
        for client in self.clients:
            arrival = self._launch(client, 0.0, order, version)
            if arrival is not None:
                heapq.heappush(heap, (arrival.at, arrival.order, arrival))
                order += 1
        buffer: list[FleetReport] = []
        pending_energy = 0.0
        pending_dropped: list[str] = []
        knobs = self._round_knobs(0)
        while heap:
            _, _, arrival = heapq.heappop(heap)
            client = arrival.client
            round_index = len(result.rounds)
            if knobs is not None and knobs.halt:
                # The server stops committing: the in-flight report (and
                # everything still on the heap) burned energy no window
                # will ever claim.
                self._emit_halt(round_index, arrival.at)
                pending_energy += arrival.record.energy
                pending_energy += sum(
                    entry[2].record.energy for entry in heap
                )
                heap.clear()
                break
            flush = False
            if arrival.dropped:
                pending_dropped.append(client.client_id)
                pending_energy += arrival.record.energy
            else:
                staleness = version - arrival.version_started
                if arrival.record.missed:
                    status = "straggler"
                elif (
                    self.max_staleness is not None
                    and staleness > self.max_staleness
                ):
                    status = "stale"
                else:
                    status = "buffered"
                discount = staleness_weight(staleness, self.staleness_exponent)
                report = FleetReport(
                    client_id=client.client_id,
                    local_round=arrival.local_round,
                    arrival=arrival.at,
                    train_elapsed=arrival.record.elapsed,
                    upload=arrival.upload,
                    energy=arrival.record.energy,
                    missed=arrival.record.missed,
                    staleness=staleness,
                    weight=(
                        float(client.n_samples) * discount
                        if status == "buffered"
                        else 0.0
                    ),
                    status=status,
                )
                self._emit_enqueue(report, round_index)
                buffer.append(report)
                threshold = self.buffer_size
                if knobs is not None and knobs.buffer_scale != 1.0:
                    threshold = max(1, round(threshold * knobs.buffer_scale))
                flush = (
                    sum(1 for r in buffer if r.status == "buffered")
                    >= threshold
                )
            if flush:
                round_record = FleetRound(
                    round_index=round_index,
                    started_at=flushed_at,
                    completed_at=arrival.at,
                    participants=sorted({r.client_id for r in buffer}),
                    reports=buffer,
                    dropped=pending_dropped,
                )
                version = self._commit(round_record, version)
                result.rounds.append(round_record)
                self._emit_round(round_record)
                self._feed_controller(round_record, result)
                # Async knobs advance per commit, not per arrival: the
                # controller sees one feedback per aggregation window.
                knobs = self._round_knobs(len(result.rounds))
                flushed_at = arrival.at
                buffer = []
                pending_dropped = []
            # The client immediately starts its next local round against
            # the *current* model version.
            relaunch = self._launch(client, arrival.at, order, version)
            if relaunch is not None:
                heapq.heappush(heap, (relaunch.at, relaunch.order, relaunch))
                order += 1
        # A trailing partial buffer never reaches the commit threshold;
        # its reports' energy is still the fleet's to account for.
        result.unclaimed_energy = pending_energy + sum(r.energy for r in buffer)
        return result
