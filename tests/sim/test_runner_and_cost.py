"""Unit tests for the campaign runner and the MBO cost model."""

import dataclasses

import pytest

from repro.core.config import BoFLConfig
from repro.errors import ConfigurationError
from repro.hardware.devices import jetson_agx, jetson_tx2
from repro.sim import MBOCostModel, clear_campaign_cache, make_controller, run_campaign
from repro.sim.runner import CONTROLLER_NAMES
from repro.hardware import SimulatedDevice
from repro.workloads import vit


class TestMBOCostModel:
    def test_grows_with_observations_and_batch(self):
        model = MBOCostModel(jetson_agx())
        small = model(10, 2)
        big = model(80, 10)
        assert big[0] > small[0]
        assert big[1] > small[1]

    def test_paper_band_on_agx(self):
        model = MBOCostModel(jetson_agx())
        latency, energy = model(40, 10)
        assert 4.0 < latency < 10.0  # paper: 6-9 s
        assert 40.0 < energy < 80.0  # paper: 50-70 J

    def test_tx2_slower_than_agx(self):
        n, k = 40, 10
        agx_latency = MBOCostModel(jetson_agx())(n, k)[0]
        tx2_latency = MBOCostModel(jetson_tx2())(n, k)[0]
        assert tx2_latency > agx_latency

    def test_rejects_negative_counts(self):
        model = MBOCostModel(jetson_agx())
        with pytest.raises(ConfigurationError):
            model(-1, 2)

    def test_validates_coefficients(self):
        with pytest.raises(ConfigurationError):
            MBOCostModel(jetson_agx(), base_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            MBOCostModel(jetson_agx(), power_watts_at_unit_speed=0.0)


class TestMakeController:
    def test_all_names_constructible(self):
        for name in CONTROLLER_NAMES:
            device = SimulatedDevice(jetson_agx(), vit(), seed=0)
            controller = make_controller(name, device)
            assert controller.name in (name, "bofl")  # random_search subclasses bofl

    def test_unknown_name(self):
        device = SimulatedDevice(jetson_agx(), vit(), seed=0)
        with pytest.raises(ConfigurationError):
            make_controller("dqn", device)


class TestRunCampaign:
    """Uses short Performant/Oracle campaigns (fast, no GP fits)."""

    def test_result_metadata(self):
        result = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert result.controller == "performant"
        assert result.device == "agx"
        assert result.task == "vit"
        assert result.rounds == 3

    def test_deadlines_paired_across_controllers(self):
        performant = run_campaign("agx", "vit", "performant", 2.0, rounds=4, seed=0)
        oracle = run_campaign("agx", "vit", "oracle", 2.0, rounds=4, seed=0)
        assert performant.deadline_series() == oracle.deadline_series()

    def test_cache_returns_equal_shared_values(self):
        a = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        b = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        # Equal results, and the very same object: the memo shares one
        # immutable value instead of handing out defensive copies.
        assert a == b
        assert a is b
        clear_campaign_cache()
        c = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert c == a

    def test_mutating_a_result_does_not_corrupt_the_cache(self):
        # Regression: the cache used to hand out its internal object by
        # reference while results were mutable, so a caller clearing
        # records poisoned every later lookup.  Results are frozen now:
        # the mutation attempts raise and the memo stays intact.
        first = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        with pytest.raises(AttributeError):
            first.records.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.final_front = ((0.0, 0.0),)
        second = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert second.rounds == 3
        assert second.final_front != ((0.0, 0.0),)
        assert second == first

    def test_fresh_result_mutation_does_not_corrupt_the_cache(self):
        first = run_campaign("agx", "vit", "oracle", 2.0, rounds=3, seed=5)
        with pytest.raises(AttributeError):
            first.records.pop()  # mutate the freshly computed object
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.records[-1].missed = True
        second = run_campaign("agx", "vit", "oracle", 2.0, rounds=3, seed=5)
        assert second.rounds == 3
        assert second == first

    def test_cache_bypass(self):
        a = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        b = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0, use_cache=False)
        assert a is not b
        assert a.energy_series() == b.energy_series()

    def test_reproducible_across_calls(self):
        a = run_campaign("agx", "vit", "oracle", 2.0, rounds=3, seed=1, use_cache=False)
        b = run_campaign("agx", "vit", "oracle", 2.0, rounds=3, seed=1, use_cache=False)
        assert a.energy_series() == b.energy_series()

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            run_campaign("agx", "alexnet", "performant", 2.0, rounds=2)

    def test_oracle_final_front_attached(self):
        result = run_campaign("agx", "vit", "oracle", 2.0, rounds=2, seed=0)
        assert result.final_front is not None
        assert len(result.final_front) > 3

    def test_bofl_config_participates_in_cache_key(self):
        base = run_campaign("agx", "vit", "performant", 2.0, rounds=2, seed=0)
        alt = run_campaign(
            "agx", "vit", "performant", 2.0, rounds=2, seed=0,
            bofl_config=BoFLConfig(seed=0),
        )
        assert base is not alt
