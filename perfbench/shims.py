"""Timing shims for the traced run, installed from outside ``src/``.

Each shim wraps one public entry point of a layer and records, per span
name, the call count, the total wall time and the self time (total minus
the time covered by nested shimmed spans).  Spans nest through an explicit
stack, so ``core.round`` self time excludes the GP fits, suggestions and
ILP solves it triggers.  Everything stays in memory; the child process
reports the totals once its measurement ends.

Shims sit on entry points called a few hundred or thousand times per run,
never on per-job accessors: ``objective_tensor()`` alone is called about
260k times in ``paper_grid``.

Which end-to-end metric each layer metric should move, and where:

- ``hardware.tensor_build_s``: ``setup_s`` on every workload;
- ``bayesopt.*``, ``core.round.*``, ``sim.campaign.*``: ``ops_per_ref_s`` on
  ``paper_grid`` (GP tuning also moves ``setup_s`` on ``fleet_warm``);
- ``ilp.solve.*``: ``ops_per_ref_s`` on ``paper_grid`` and ``service_replay``;
- ``sim.executor.*``, ``sim.disk_cache.*``, ``federated.*``: ``ops_per_ref_s``
  on ``fleet_warm``;
- ``sim.fleet.build_clients_s``: ``ops_per_ref_s`` on ``fleet_warm`` and
  ``service_replay``;
- ``service.*``: ``ops_per_ref_s`` on ``service_replay`` (the cache and
  coalescing counts move ``decision_p99_ms``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional


class Tracer:
    """Per-name calls, total seconds and self seconds of shimmed spans."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: Child time accumulated by each open span; the bottom entry
        #: collects time of spans opened outside any other span.
        self._stack: list[float] = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        label: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` in a span; ``label(*args)`` suffixes the span name and
        ``after(*args, **kwargs)`` runs once the span has closed."""
        stack = self._stack

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                stack[-1] += elapsed
                key = name if label is None else f"{name}.{label(*args)}"
                self.calls[key] += 1
                self.total[key] += elapsed
                self.self_s[key] += elapsed - children
                if after is not None:
                    after(*args, **kwargs)

        return shim

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` to count calls only (no clock reads)."""
        counts = self.counts

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return shim

    def patch(self, owner: object, attribute: str, wrapped: Callable[..., Any]) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def install(tracer: Tracer) -> None:
    """Patch every layer entry point the per-layer metrics read.

    Module-level functions are patched in the module that *calls* them
    (``solve_schedule`` in ``repro.core.exploitation``, ``run_campaign`` in
    ``repro.sim.executor``), because callers bound the name at import.
    """
    from repro.bayesopt.gp import GaussianProcess
    from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
    from repro.core import exploitation
    from repro.core.controller import BoFLController
    from repro.federated import vector_engine
    from repro.federated.async_engine import AsyncFederationEngine
    from repro.service import api as service_api
    from repro.service import cache as service_cache
    from repro.service import engine as service_engine
    from repro.service import loadgen
    from repro.sim import executor, fleet
    from repro.sim.cache import PersistentCampaignCache

    def count_lookups(self: object, specs: Any, *, use_cache: bool = True) -> None:
        if use_cache:
            specs = list(specs)
            tracer.counts["sim.executor.lookups"] += len(specs)
            tracer.counts["sim.executor.unique_keys"] += len({s.key() for s in specs})

    for owner, attribute, name in (
        (GaussianProcess, "optimize_hyperparameters", "bayesopt.gp_tune"),
        (MultiObjectiveBayesianOptimizer, "fit", "bayesopt.mbo_fit"),
        (MultiObjectiveBayesianOptimizer, "suggest", "bayesopt.suggest"),
        (exploitation, "solve_schedule", "ilp.solve"),
        (BoFLController, "run_round", "core.round"),
        (executor, "run_campaign", "sim.campaign"),
        (PersistentCampaignCache, "get", "sim.disk_cache.get"),
        (fleet, "build_fleet_clients", "sim.fleet.build_clients"),
        (loadgen, "build_fleet_clients", "sim.fleet.build_clients"),
        (vector_engine, "build_trace_arrays", "federated.trace_arrays"),
        (loadgen, "fleet_requests", "service.loadgen.requests"),
        (service_engine.PaceDecisionService, "submit", "service.submit"),
    ):
        tracer.patch(owner, attribute, tracer.span(name, getattr(owner, attribute)))
    tracer.patch(
        executor.CampaignExecutor, "run",
        tracer.span("sim.executor", executor.CampaignExecutor.run, after=count_lookups),
    )
    tracer.patch(
        AsyncFederationEngine, "run",
        tracer.span(
            "federated.engine", AsyncFederationEngine.run,
            label=lambda engine, *_: engine.mode,
        ),
    )
    for module in (service_api, service_cache, service_engine):
        tracer.patch(
            module, "request_key_hash",
            tracer.counter("service.key_hash", module.request_key_hash),
        )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the traced measurement reports.

    Layers a workload does not reach read 0.  Key hashes are counted per
    submitted request, so ``service.submit.calls`` is their base.
    """
    calls, total, self_s, counts = tracer.calls, tracer.total, tracer.self_s, tracer.counts
    return {
        "bayesopt.gp_tune.calls": calls["bayesopt.gp_tune"],
        "bayesopt.gp_tune.s": total["bayesopt.gp_tune"],
        "bayesopt.mbo_fit.self_s": self_s["bayesopt.mbo_fit"],
        "bayesopt.suggest.calls": calls["bayesopt.suggest"],
        "bayesopt.suggest.s": total["bayesopt.suggest"],
        "ilp.solve.calls": calls["ilp.solve"],
        "ilp.solve.s": total["ilp.solve"],
        "core.round.calls": calls["core.round"],
        "core.round.self_s": self_s["core.round"],
        "sim.campaign.calls": calls["sim.campaign"],
        "sim.campaign.self_s": self_s["sim.campaign"],
        "sim.executor.lookups": counts["sim.executor.lookups"],
        "sim.executor.unique_keys": counts["sim.executor.unique_keys"],
        "sim.executor.self_s": self_s["sim.executor"],
        "sim.disk_cache.gets": calls["sim.disk_cache.get"],
        "sim.disk_cache.get_s": total["sim.disk_cache.get"],
        "sim.fleet.build_clients_s": total["sim.fleet.build_clients"],
        "federated.trace_arrays_s": total["federated.trace_arrays"],
        "federated.engine.self_s.sync": self_s["federated.engine.sync"],
        "federated.engine.self_s.async": self_s["federated.engine.async"],
        "service.loadgen.requests_s": total["service.loadgen.requests"],
        "service.submit.calls": calls["service.submit"],
        "service.submit.self_s": self_s["service.submit"],
        "service.key_hash.calls": counts["service.key_hash"],
        "service.key_hash.per_request": (
            counts["service.key_hash"] / calls["service.submit"]
            if calls["service.submit"] else 0.0
        ),
    }
