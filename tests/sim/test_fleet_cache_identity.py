"""Cold and warm trace gathers compose byte-identical fleets.

Campaign results are immutable values shared by the in-process memo, the
executor and every archetype mate, so how a fleet's traces were gathered
— computed cold, read back from the memo, or loaded from the on-disk
cache — must never reach the composition: the ``fleet_summary`` JSON and
the deterministic trace are byte-identical across all three.  The warm
paths must also cost one cache lookup per unique campaign key, not one
per client.
"""

import json

import pytest

from repro.obs import runtime as obs
from repro.sim import clear_campaign_cache
from repro.sim.cache import PersistentCampaignCache
from repro.sim.executor import CampaignExecutor
from repro.sim.fleet import (
    FleetSpec,
    build_fleet_clients,
    campaign_spec_for,
    compose_fleet,
    fleet_summary,
    prepare_fleet,
)

#: 200 clients pooled onto 6 archetypes; with both default controllers
#: that is 12 unique campaigns (more under chaos: dropout schedules join
#: the key of chaotic archetype mates).
BASE = dict(n_clients=200, archetypes=6, rounds=3, seed=0, buffer_size=16)

SPECS = {
    "sync": FleetSpec(mode="sync", **BASE),
    "semisync": FleetSpec(mode="semisync", participants=60, **BASE),
    "async-chaos": FleetSpec(mode="async", chaos_fraction=0.2, chaos_seed=3, **BASE),
}


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_campaign_cache()
    yield
    clear_campaign_cache()


@pytest.fixture
def lookups(monkeypatch):
    """Every key ``CampaignExecutor._lookup`` is asked for, in call order."""
    seen = []
    original = CampaignExecutor._lookup

    def counting(self, spec):
        seen.append(spec.key())
        return original(self, spec)

    monkeypatch.setattr(CampaignExecutor, "_lookup", counting)
    return seen


def gather(spec, lookups, cache=None):
    """Prepare the fleet; returns (clients, timing sources, lookup keys)."""
    sources = []
    start = len(lookups)
    clients = prepare_fleet(
        spec,
        workers=1,
        cache=cache,
        progress=lambda done, total, timing: sources.append(timing.source),
    )
    return clients, sources, lookups[start:]


def compose(spec, clients, path):
    with obs.session(deterministic=True) as session:
        result = compose_fleet(spec, clients)
    trace = session.log.dump_jsonl(path).read_bytes()
    return json.dumps(fleet_summary(spec, result), sort_keys=True), trace


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cold_memory_and_disk_gathers_compose_identically(name, lookups, tmp_path):
    spec = SPECS[name]
    keys = {campaign_spec_for(c, spec).key() for c in build_fleet_clients(spec)}
    cache_dir = tmp_path / "cache"

    cold, cold_sources, cold_keys = gather(
        spec, lookups, PersistentCampaignCache(cache_dir)
    )
    memory, memory_sources, memory_keys = gather(spec, lookups)
    clear_campaign_cache()
    disk, disk_sources, disk_keys = gather(
        spec, lookups, PersistentCampaignCache(cache_dir)
    )

    # One lookup per unique key on every path, however many clients.
    for looked_up in (cold_keys, memory_keys, disk_keys):
        assert len(looked_up) == len(keys)
        assert set(looked_up) == keys
    assert set(cold_sources) == {"inline"}
    assert set(memory_sources) == {"memory"}
    # The first client of each key is read from disk; its mates share it.
    assert disk_sources.count("disk") == len(keys)
    assert set(disk_sources) == {"disk", "memory"}

    # Archetype mates share one immutable records tuple.
    for clients in (cold, memory, disk):
        assert len({id(c.records) for c in clients}) == len(keys)

    reference = compose(spec, cold, tmp_path / "cold.jsonl")
    assert compose(spec, memory, tmp_path / "memory.jsonl") == reference
    assert compose(spec, disk, tmp_path / "disk.jsonl") == reference
