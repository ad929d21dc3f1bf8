"""The three benchmark workloads: inputs, measured call, outcomes and checks.

Each workload runs inside a child interpreter (see ``child.py``).  Its
set-up builds the objective tensors of the (device, task) pairs it uses,
plus whatever state the measured phase needs on disk; ``measure`` makes
the measured calls, each inside a slice of the child's calibrated clock
(see ``calibrate.py``); ``evaluate`` turns their output into outcome
values, a determinism digest and check failures.

Only entry points that outlive the planned result-immutability and
single-engine refactors are called: ``CampaignExecutor.run``,
``prepare_fleet``, ``compose_fleet``, ``fleet_summary``, ``run_loadtest``
and ``PersistentCampaignCache``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import checks
from calibrate import Clock

# -- paper_grid: the Figs. 9/10 grid, cold and serial --------------------------

GRID_TASKS = ("vit", "resnet50", "lstm")
#: The timed controllers.  The Oracle cells are the reference for regret
#: and the energy-order check, and run untimed: their branch-and-bound
#: cost swings up to 15x between seeds (resnet50 at ratio 2.0 takes
#: 1-15 s), which would drown every other layer's signal.
GRID_CONTROLLERS = ("bofl", "performant")
GRID_RATIOS = (2.0, 4.0)
GRID_ROUNDS = 40

# -- fleet_warm: gather a fleet from a warm on-disk cache, compose two modes ---

FLEET_CLIENTS = 10_000
FLEET_ROUNDS = 5
#: Each client copies its archetype's records, so gather time follows the
#: archetypes' record sizes, which vary with the seed: their spread over
#: seeds is 0.115 of the median with 12 archetypes and 0.042 with 24.
FLEET_ARCHETYPES = 24
FLEET_BUFFER = 1000
FLEET_MODES = ("sync", "async")

# -- service_replay: decision traffic replayed five times through the service --

SERVICE_CLIENTS = 10_000
SERVICE_ROUNDS = 8
SERVICE_RATE = 500.0
#: Passes after the first are all cache hits.  Three more than the two a
#: warm-up check needs dilute the 48 ILP solves, whose time varies from
#: 0.3 to 1.5 s between seeds, in the request path: the ten-seed spread
#: of throughput fell from 0.116 of the median with 3 passes to 0.075.
SERVICE_PASSES = 5
#: The self-test corrupts the decisions for the first requests only: the
#: checks are per decision, and a full pass per corruption costs seconds.
SERVICE_SELF_TEST_REQUESTS = 2000


@dataclass(frozen=True)
class Measured:
    output: Any
    #: Units of work the measured calls completed (``ops_per_ref_s`` numerator).
    ops: int
    #: Wall seconds of the measured slices, kept with the raw results.
    parts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Evaluation:
    #: Named outcome values: simulated outcomes, failed share, service stats.
    outcomes: dict[str, float]
    #: Operations attempted and operations without a valid output.
    attempted: int
    failed: int
    digest: str
    failures: list[str]
    #: What the self-test caught the checks misjudging (empty: they pass
    #: the real output and fail every corruption); None when not run.
    uncaught: Optional[list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Name of the workload's own throughput metric, in host (wall) seconds.
    throughput: str
    pairs: tuple[tuple[str, str], ...]
    setup: Callable[[pathlib.Path, int], None]
    measure: Callable[[pathlib.Path, int, Clock], Measured]
    evaluate: Callable[[Measured, pathlib.Path, int, bool], Evaluation]


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _no_setup(state: pathlib.Path, seed: int) -> None:
    return None


# -- paper_grid ---------------------------------------------------------------


def _grid_specs(controllers: tuple[str, ...], seed: int) -> list[Any]:
    from repro.sim.executor import expand_grid

    return expand_grid(
        ("agx",), GRID_TASKS, controllers, GRID_RATIOS, (seed,), rounds=GRID_ROUNDS
    )


def _grid_measure(state: pathlib.Path, seed: int, clock: Clock) -> Measured:
    """One executor call per campaign, so the clock calibrates each one."""
    from repro.sim.executor import CampaignExecutor

    results, parts = [], {}
    for spec in _grid_specs(GRID_CONTROLLERS, seed):
        with clock.slice():
            report = CampaignExecutor(workers=1).run([spec], use_cache=False)
        results += report.results
        parts[spec.label()] = clock.slices[-1]
    return Measured(results, len(results) * GRID_ROUNDS, parts)


def _grid_evaluate(
    measured: Measured, state: pathlib.Path, seed: int, self_test: bool
) -> Evaluation:
    from repro.analysis.metrics import improvement_vs_performant, regret_vs_oracle

    from repro.sim.executor import CampaignExecutor

    oracle = CampaignExecutor(workers=1).run(_grid_specs(("oracle",), seed), use_cache=False)
    results = [*measured.output, *oracle.results]
    failures = checks.check_grid(results, GRID_ROUNDS)
    uncaught = None if not self_test else checks.self_test(
        lambda r: checks.check_grid(r, GRID_ROUNDS),
        results,
        checks.corruptions_grid(results),
        lambda output: (output,),
    )
    cells: dict[tuple[str, float], dict[str, Any]] = {}
    for result in results:
        cells.setdefault((result.task, result.deadline_ratio), {})[result.controller] = result
    savings, regrets = [], []
    for by_controller in cells.values():
        if {"bofl", "performant", "oracle"} <= set(by_controller):
            bofl = by_controller["bofl"]
            savings.append(improvement_vs_performant(bofl, by_controller["performant"]))
            regrets.append(regret_vs_oracle(bofl, by_controller["oracle"]))
    bofl_runs = [r for r in results if r.controller == "bofl"]
    rounds = sum(len(r.records) for r in measured.output)
    missed = sum(1 for r in measured.output for record in r.records if record.missed)
    outcomes = {
        "energy_saving_pct": 100.0 * statistics.fmean(savings) if savings else 0.0,
        "oracle_regret_pct": 100.0 * statistics.fmean(regrets) if regrets else 0.0,
        "mbo_overhead_pct": 100.0 * sum(r.mbo_energy for r in bofl_runs)
        / sum(r.training_energy for r in bofl_runs),
        "sim_energy_per_op_j": sum(r.total_energy for r in bofl_runs)
        / sum(len(r.records) for r in bofl_runs),
        "failed_share": missed / rounds if rounds else 1.0,
    }
    digest = _digest([
        [r.task, r.controller, r.deadline_ratio, repr(r.total_energy),
         [repr(record.energy) for record in r.records]]
        for r in results
    ])
    return Evaluation(
        outcomes, measured.ops, measured.ops if failures else 0, digest, failures, uncaught,
    )


# -- fleet_warm ---------------------------------------------------------------


def _fleet_spec(seed: int, mode: str = "sync") -> Any:
    from repro.sim.fleet import FleetSpec

    return FleetSpec(
        n_clients=FLEET_CLIENTS, rounds=FLEET_ROUNDS, mode=mode, seed=seed,
        archetypes=FLEET_ARCHETYPES, buffer_size=FLEET_BUFFER,
    )


def _fleet_summaries(
    seed: int, clients: Any, clock: Optional[Clock] = None
) -> tuple[dict[str, str], dict[str, Any]]:
    from repro.sim.fleet import compose_fleet, fleet_summary

    summaries, results = {}, {}
    for mode in FLEET_MODES:
        with clock.slice() if clock else contextlib.nullcontext():
            spec = _fleet_spec(seed, mode)
            results[mode] = compose_fleet(spec, clients, detail="stats")
            summaries[mode] = json.dumps(fleet_summary(spec, results[mode]), sort_keys=True)
    return summaries, results


def _fleet_setup(state: pathlib.Path, seed: int) -> None:
    """Gather the fleet cold into an empty on-disk cache and record the
    summaries composed from that cold gather."""
    from repro.sim.cache import PersistentCampaignCache
    from repro.sim.fleet import prepare_fleet

    clients = prepare_fleet(
        _fleet_spec(seed), workers=1, cache=PersistentCampaignCache(state / "cache")
    )
    summaries, _ = _fleet_summaries(seed, clients)
    (state / "reference.json").write_text(json.dumps(summaries, sort_keys=True))


def _fleet_measure(state: pathlib.Path, seed: int, clock: Clock) -> Measured:
    from repro.sim.cache import PersistentCampaignCache
    from repro.sim.fleet import prepare_fleet

    if not (state / "reference.json").is_file():
        raise FileNotFoundError(f"no cold-gather set-up under {state}")
    with clock.slice():
        clients = prepare_fleet(
            _fleet_spec(seed), workers=1, cache=PersistentCampaignCache(state / "cache")
        )
    summaries, results = _fleet_summaries(seed, clients, clock)
    parts = dict(zip(("prepare", *(f"compose_{m}" for m in FLEET_MODES)), clock.slices))
    return Measured((summaries, results), FLEET_CLIENTS * (1 + len(FLEET_MODES)), parts)


def _fleet_evaluate(
    measured: Measured, state: pathlib.Path, seed: int, self_test: bool
) -> Evaluation:
    summaries, results = measured.output
    reference = json.loads((state / "reference.json").read_text())
    failures = checks.check_fleet(summaries, reference)
    uncaught = None if not self_test else checks.self_test(
        checks.check_fleet,
        summaries,
        checks.corruptions_fleet(summaries),
        lambda output: (output, reference),
    )
    reports = FLEET_CLIENTS * FLEET_ROUNDS
    failed_reports = sum(
        r.straggler_reports + r.cutoff_reports + r.staleness_drops for r in results.values()
    )
    fleet = results["async"]
    outcomes = {
        "fleet_energy_mj": fleet.total_energy / 1e6,
        "fleet_makespan_s": fleet.makespan,
        "sim_energy_per_op_j": fleet.total_energy / reports,
        "failed_share": failed_reports / (reports * len(results)),
    }
    attempted = reports * len(FLEET_MODES)
    return Evaluation(
        outcomes, attempted, attempted if failures else 0,
        _digest(summaries), failures, uncaught,
    )


# -- service_replay -----------------------------------------------------------


def _service_spec(seed: int) -> Any:
    from repro.sim.fleet import FleetSpec

    return FleetSpec(n_clients=SERVICE_CLIENTS, rounds=SERVICE_ROUNDS, seed=seed)


def _service_measure(state: pathlib.Path, seed: int, clock: Clock) -> Measured:
    from repro.service.loadgen import run_loadtest

    with clock.slice():
        report = run_loadtest(_service_spec(seed), rate=SERVICE_RATE, passes=SERVICE_PASSES)
    return Measured(report, report.requests, {"loadtest": clock.slices[-1]})


def _service_evaluate(
    measured: Measured, state: pathlib.Path, seed: int, self_test: bool
) -> Evaluation:
    from repro.service.loadgen import fleet_requests

    report = measured.output
    trace = [timed.request for timed in fleet_requests(_service_spec(seed), SERVICE_RATE)]
    expected = trace * SERVICE_PASSES
    hit_rates = [p.cache_hit_rate for p in report.per_pass]
    decisions = report.decisions
    failures = checks.check_service(decisions, expected, hit_rates)
    sample = [d for d in decisions if d.sequence <= SERVICE_SELF_TEST_REQUESTS]
    uncaught = None if not self_test else checks.self_test(
        checks.check_service,
        (sample, hit_rates),
        checks.corruptions_service(sample, hit_rates),
        lambda output: (output[0], expected[:SERVICE_SELF_TEST_REQUESTS], output[1]),
    )
    degraded = sum(
        1 for d in decisions if d.degraded is not None or d.plan.source == "fallback"
    )
    stats = report.stats
    outcomes = {
        "decision_p99_ms": report.p99 * 1e3,
        "sim_energy_per_op_j": statistics.fmean(d.plan.expected_energy for d in decisions),
        "failed_share": degraded / len(decisions),
        "service.cache_hit_rate": stats.cache_hit_rate,
        "service.coalesced": stats.coalesced,
        "service.evaluations": stats.evaluations,
    }
    digest = hashlib.sha256("\n".join(
        f"{d.sequence}|{d.request.client_id}|{d.completed!r}|{d.coalesced}|{d.degraded}"
        f"|{d.plan.source}|{d.plan.request_hash}|{d.plan.expected_energy!r}"
        for d in decisions
    ).encode()).hexdigest()
    attempted = len(expected)
    return Evaluation(
        outcomes, attempted, attempted if failures else 0, digest, failures, uncaught,
    )


WORKLOADS: dict[str, Workload] = {
    "paper_grid": Workload(
        "paper_grid", "campaign_rounds_per_s",
        tuple(("agx", task) for task in GRID_TASKS),
        _no_setup, _grid_measure, _grid_evaluate,
    ),
    "fleet_warm": Workload(
        "fleet_warm", "fleet_clients_per_s",
        tuple((d, t) for d in ("agx", "tx2") for t in GRID_TASKS),
        _fleet_setup, _fleet_measure, _fleet_evaluate,
    ),
    "service_replay": Workload(
        "service_replay", "decisions_per_s",
        tuple((d, t) for d in ("agx", "tx2") for t in GRID_TASKS),
        _no_setup, _service_measure, _service_evaluate,
    ),
}


def build_tensors(pairs: tuple[tuple[str, str], ...]) -> float:
    """Build each (device, task) objective tensor once; seconds spent.

    Timed here, once per pair, rather than by shimming the accessor.
    """
    from repro.hardware.devices import get_device
    from repro.service.archetypes import task_by_name

    t0 = time.perf_counter()
    for device, task in pairs:
        task_by_name(task).workload.performance_model(get_device(device)).objective_tensor()
    return time.perf_counter() - t0

