"""Output checks for the three workloads, and the corruptions that prove
each check is not vacuous.

Every check is an invariant that holds on every seed: no paper percentage
bands, no cross-mode float comparisons.  A check returns a list of
failure messages (empty means the output is correct).  ``corruptions_*``
return ``(label, corrupted output)`` pairs; the self-test requires the
check to pass the real output and to fail every corruption.  Corruptions are
built with ``dataclasses.replace`` and fresh containers, so they never
mutate the real output and work on frozen and mutable results alike.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from typing import Any, Callable


# -- paper_grid ---------------------------------------------------------------


def check_grid(results: Sequence[Any], rounds: int) -> list[str]:
    """Every campaign ran ``rounds`` rounds, none missed its deadline, and
    for each (task, ratio) Oracle <= BoFL < Performant in total energy."""
    failures = []
    cells: dict[tuple[str, float], dict[str, Any]] = {}
    for result in results:
        label = f"{result.task}/{result.controller}/r{result.deadline_ratio:g}"
        if len(result.records) != rounds:
            failures.append(f"{label}: {len(result.records)} records, expected {rounds}")
        missed = sum(1 for record in result.records if record.missed)
        if missed:
            failures.append(f"{label}: {missed} missed round(s)")
        cells.setdefault((result.task, result.deadline_ratio), {})[result.controller] = result
    for (task, ratio), by_controller in sorted(cells.items()):
        if set(by_controller) != {"bofl", "performant", "oracle"}:
            failures.append(f"{task}/r{ratio:g}: controllers {sorted(by_controller)}")
            continue
        bofl = by_controller["bofl"].total_energy
        oracle = by_controller["oracle"].total_energy
        performant = by_controller["performant"].total_energy
        if not oracle <= bofl < performant:
            failures.append(
                f"{task}/r{ratio:g}: energy oracle {oracle:.1f} <= bofl {bofl:.1f}"
                f" < performant {performant:.1f} violated"
            )
    return failures


def corruptions_grid(results: Sequence[Any]) -> list[tuple[str, list[Any]]]:
    results = list(results)
    bofl = next(i for i, r in enumerate(results) if r.controller == "bofl")
    performant = next(
        i for i, r in enumerate(results)
        if r.controller == "performant" and r.task == results[bofl].task
        and r.deadline_ratio == results[bofl].deadline_ratio
    )
    swapped = list(results)
    swapped[bofl] = dataclasses.replace(results[performant], controller="bofl")
    swapped[performant] = dataclasses.replace(results[bofl], controller="performant")
    first = results[0]
    short = list(results)
    short[0] = dataclasses.replace(first, records=type(first.records)(first.records[:-1]))
    missed = list(results)
    records = list(first.records)
    records[-1] = dataclasses.replace(records[-1], missed=True)
    missed[0] = dataclasses.replace(first, records=type(first.records)(records))
    return [
        ("swapped bofl/performant results", swapped),
        ("dropped a round record", short),
        ("one round marked missed", missed),
        ("dropped a campaign", results[1:]),
    ]


# -- fleet_warm ---------------------------------------------------------------


def check_fleet(summaries: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Each mode's warm-path summary equals the cold-path one, byte for byte."""
    failures = []
    if sorted(summaries) != sorted(reference):
        failures.append(f"modes {sorted(summaries)} != reference {sorted(reference)}")
    for mode in sorted(set(summaries) & set(reference)):
        if summaries[mode] != reference[mode]:
            failures.append(f"{mode}: warm summary differs from the cold gather's")
    return failures


def corruptions_fleet(summaries: dict[str, str]) -> list[tuple[str, dict[str, str]]]:
    def with_field(mode: str, field: str, delta: float) -> dict[str, str]:
        changed = json.loads(summaries[mode])
        changed[field] = changed[field] + delta
        return {**summaries, mode: json.dumps(changed, sort_keys=True)}

    return [
        ("async total_energy changed", with_field("async", "total_energy", 1e-6)),
        ("sync aggregations changed", with_field("sync", "aggregations", 1)),
        ("modes swapped", {"sync": summaries["async"], "async": summaries["sync"]}),
        ("async summary dropped", {"sync": summaries["sync"]}),
    ]


# -- service_replay -----------------------------------------------------------


def check_service(
    decisions: Sequence[Any],
    expected: Sequence[Any],
    pass_hit_rates: Sequence[float],
) -> list[str]:
    """Each submitted request got exactly one decision for itself, every
    plan schedules exactly the requested jobs, every non-fallback plan
    meets its deadline, and the warm pass hits at least as often."""
    failures = []
    by_sequence: dict[int, Any] = {}
    for decision in decisions:
        if decision.sequence in by_sequence:
            failures.append(f"request {decision.sequence} answered twice")
        by_sequence[decision.sequence] = decision
    if sorted(by_sequence) != list(range(1, len(expected) + 1)):
        failures.append(
            f"{len(by_sequence)} answered requests for {len(expected)} submitted"
        )
    for sequence, decision in sorted(by_sequence.items()):
        if not 1 <= sequence <= len(expected):
            continue
        request = decision.request
        if request != expected[sequence - 1]:
            failures.append(f"request {sequence}: decision answers another request")
        if decision.plan.total_jobs != request.jobs:
            failures.append(
                f"request {sequence}: plan has {decision.plan.total_jobs} jobs,"
                f" request {request.jobs}"
            )
        if decision.plan.source != "fallback" and decision.plan.expected_latency > request.deadline:
            failures.append(
                f"request {sequence}: {decision.plan.source} plan latency"
                f" {decision.plan.expected_latency:.3f} s > deadline {request.deadline:.3f} s"
            )
        if len(failures) > 20:
            break
    if len(pass_hit_rates) < 2 or pass_hit_rates[1] < pass_hit_rates[0]:
        failures.append(f"pass hit rates {list(pass_hit_rates)} do not warm up")
    return failures


def corruptions_service(
    decisions: Sequence[Any], pass_hit_rates: Sequence[float]
) -> list[tuple[str, tuple[list[Any], list[float]]]]:
    decisions = list(decisions)
    computed = next(i for i, d in enumerate(decisions) if d.plan.source != "fallback")
    late = list(decisions)
    plan = decisions[computed].plan
    late[computed] = dataclasses.replace(
        decisions[computed],
        plan=dataclasses.replace(
            plan, expected_latency=decisions[computed].request.deadline * 1.5
        ),
    )
    short = list(decisions)
    short[computed] = dataclasses.replace(
        decisions[computed],
        plan=dataclasses.replace(plan, steps=plan.steps[:-1]),
    )
    swapped = list(decisions)
    swapped[0] = dataclasses.replace(decisions[0], request=decisions[-1].request)
    duplicated = list(decisions)
    duplicated[1] = dataclasses.replace(decisions[1], sequence=decisions[0].sequence)
    hit_rates = list(pass_hit_rates)
    return [
        ("dropped a decision", (decisions[:-1], hit_rates)),
        ("answered a request twice", (duplicated, hit_rates)),
        ("answered the wrong request", (swapped, hit_rates)),
        ("plan short of jobs", (short, hit_rates)),
        ("plan past its deadline", (late, hit_rates)),
        ("warm pass hit rate below cold",
         (decisions, [max(hit_rates), min(hit_rates) - 0.01])),
    ]


def self_test(
    check: Callable[..., list[str]],
    output: Any,
    corruptions: Sequence[tuple[str, Any]],
    unpack: Callable[[Any], tuple[Any, ...]],
) -> list[str]:
    """What the check got wrong: the real output rejected, or a corruption
    accepted (empty: the check tells them apart)."""
    wrong = ["the uncorrupted output"] if check(*unpack(output)) else []
    return wrong + [label for label, corrupted in corruptions if not check(*unpack(corrupted))]
