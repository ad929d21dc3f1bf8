"""Fleet-scale smokes: wall-clock and peak-RSS ceilings at 10k/100k clients.

These are the acceptance numbers for the vectorized engine — a 100k-client
async campaign must compose in well under two minutes inside 1 GiB — plus
a 1k-client byte-identity check against the legacy loop, one scale beyond
the differential matrix in ``tests/federated/test_vectorized_equivalence``,
and a warm-gather smoke: re-gathering a 10k-client fleet from the memo or
the on-disk cache must cost a fraction of gathering it cold.
Everything here is marked ``slow`` and excluded from tier-1 (``-m 'not
slow'`` in ``pyproject.toml``); CI's fleet-scale job and local deep runs
opt back in with ``-m slow``.
"""

import json
import resource
import sys
import time

import pytest

from repro.sim import clear_campaign_cache
from repro.sim.cache import PersistentCampaignCache
from repro.sim.fleet import FleetSpec, compose_fleet, fleet_summary, prepare_fleet

pytestmark = pytest.mark.slow


def peak_rss_bytes():
    """Process high-water RSS (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


GiB = 1024**3


def compose_timed(spec, *, detail="stats"):
    t0 = time.perf_counter()
    clients = prepare_fleet(spec)
    result = compose_fleet(spec, clients, detail=detail)
    return result, time.perf_counter() - t0


class TestScaleSmoke:
    def test_10k_clients_async(self):
        spec = FleetSpec(
            n_clients=10_000, rounds=5, mode="async", buffer_size=1_000
        )
        result, elapsed = compose_timed(spec)
        assert result.rounds
        assert all(r.stats is not None for r in result.rounds)
        assert result.total_energy > 0
        assert elapsed < 60.0
        assert peak_rss_bytes() < 2 * GiB

    def test_10k_clients_sync(self):
        spec = FleetSpec(n_clients=10_000, rounds=3, mode="sync")
        result, elapsed = compose_timed(spec)
        assert len(result.rounds) == 3
        assert all(r.stats.n_reports > 0 for r in result.rounds)
        assert elapsed < 60.0
        assert peak_rss_bytes() < 2 * GiB

    def test_100k_clients_async_campaign(self):
        """The headline acceptance number: 100k clients, <=120s, <1 GiB."""
        spec = FleetSpec(
            n_clients=100_000, rounds=5, mode="async", buffer_size=10_000
        )
        result, elapsed = compose_timed(spec)
        assert result.rounds
        total_reports = sum(r.stats.n_reports for r in result.rounds)
        assert total_reports >= 100_000  # every client contributed
        assert elapsed < 120.0
        # Archetype mates share one records tuple: the 100k gather peaks
        # near 0.3 GiB on a 2-vCPU box.
        assert peak_rss_bytes() < 1 * GiB
        # The summary pipeline holds at scale too.
        summary = fleet_summary(spec, result)
        assert summary["clients"] == 100_000


class TestScaleIdentity:
    def test_1k_differential_byte_identity(self):
        """legacy == vectorized on the full result dict at 1k clients —
        the differential matrix's contract, one order of magnitude up."""
        spec = FleetSpec(
            n_clients=1_000,
            rounds=4,
            mode="async",
            buffer_size=100,
            chaos_fraction=0.3,
            chaos_seed=5,
            seed=29,
        )
        clients = prepare_fleet(spec)
        vectorized = compose_fleet(spec, clients)
        legacy = compose_fleet(spec, clients, engine="legacy")
        assert json.dumps(vectorized.to_dict(), sort_keys=True) == json.dumps(
            legacy.to_dict(), sort_keys=True
        )

    def test_1k_hierarchical_differential(self):
        spec = FleetSpec(
            n_clients=1_000, rounds=3, mode="semisync", edges=32, seed=29
        )
        clients = prepare_fleet(spec)
        vectorized = compose_fleet(spec, clients)
        legacy = compose_fleet(spec, clients, engine="legacy")
        assert vectorized.to_dict() == legacy.to_dict()


class TestWarmGather:
    def test_10k_warm_prepare_no_slower_than_cold(self, tmp_path):
        """Warm gathers share one result per archetype instead of copying
        it per client, so they cost a small fraction of the cold gather.

        Only ratios within this process are compared.  A per-client copy
        of the archetype's result would make a warm gather cost about as
        much as a cold one.
        """
        # A seed no other test in this process gathers, so "cold" is cold.
        spec = FleetSpec(
            n_clients=10_000, rounds=5, mode="async", buffer_size=1_000, seed=41
        )
        clear_campaign_cache()
        cache_dir = tmp_path / "cache"

        def timed(**kwargs):
            t0 = time.perf_counter()
            clients = prepare_fleet(spec, workers=1, **kwargs)
            return clients, time.perf_counter() - t0

        cold, cold_s = timed(cache=PersistentCampaignCache(cache_dir))
        memory, memory_s = timed()
        clear_campaign_cache()
        disk, disk_s = timed(cache=PersistentCampaignCache(cache_dir))
        clear_campaign_cache()

        assert memory_s * 4 <= cold_s
        assert disk_s * 4 <= cold_s
        summaries = {
            json.dumps(
                fleet_summary(spec, compose_fleet(spec, clients, detail="stats")),
                sort_keys=True,
            )
            for clients in (cold, memory, disk)
        }
        assert len(summaries) == 1
