"""Unit tests for evaluation metrics and table rendering."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    energy_spread,
    exploration_summary,
    front_coverage,
    hypervolume_ratio,
    improvement_vs_performant,
    latency_spread,
    regret_vs_oracle,
)
from repro.analysis.tables import ascii_table, format_series, render_kv
from repro.core.records import CampaignResult, RoundRecord
from repro.errors import ConfigurationError


def campaign(controller, energies, phases=None, explored=None, **overrides):
    phases = phases or ["exploitation"] * len(energies)
    explored = explored or [()] * len(energies)
    return CampaignResult(
        controller=controller,
        device=overrides.get("device", "agx"),
        task=overrides.get("task", "vit"),
        deadline_ratio=overrides.get("ratio", 2.0),
        records=tuple(
            RoundRecord(
                round_index=i, phase=phases[i], deadline=50.0, jobs=100,
                elapsed=45.0, energy=energy, explored=explored[i],
            )
            for i, energy in enumerate(energies)
        ),
    )


class TestComparisonMetrics:
    def test_improvement(self):
        bofl = campaign("bofl", [80.0, 80.0])
        performant = campaign("performant", [100.0, 100.0])
        assert improvement_vs_performant(bofl, performant) == pytest.approx(0.2)

    def test_regret(self):
        bofl = campaign("bofl", [105.0])
        oracle = campaign("oracle", [100.0])
        assert regret_vs_oracle(bofl, oracle) == pytest.approx(0.05)

    def test_rejects_incomparable_campaigns(self):
        bofl = campaign("bofl", [80.0])
        other = campaign("performant", [100.0], ratio=4.0)
        with pytest.raises(ConfigurationError):
            improvement_vs_performant(bofl, other)

    def test_rejects_round_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            regret_vs_oracle(campaign("bofl", [1.0]), campaign("oracle", [1.0, 1.0]))

    def test_exploration_summary(self):
        result = campaign(
            "bofl",
            [1.0, 1.0, 1.0],
            phases=["random_exploration", "pareto_construction", "exploitation"],
            explored=[(None,) * 3, (), ()],
        )
        explore_rounds, explored, exploit_rounds = exploration_summary(result)
        assert explore_rounds == 2
        assert explored == 3
        assert exploit_rounds == 1


class TestSurfaceMetrics:
    def test_spreads_on_real_model(self, agx_vit_model):
        assert latency_spread(agx_vit_model) > 5.0
        assert energy_spread(agx_vit_model) > 2.5

    def test_hypervolume_ratio_bounds(self):
        true = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        found = np.array([[1.0, 3.0], [3.0, 1.0]])
        ratio = hypervolume_ratio(found, true, np.array([4.0, 4.0]))
        assert 0.0 < ratio < 1.0
        assert hypervolume_ratio(true, true, np.array([4.0, 4.0])) == pytest.approx(1.0)

    def test_front_coverage(self):
        true = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        exact = front_coverage(true, true)
        assert exact == pytest.approx(1.0)
        partial = front_coverage(np.array([[1.0, 3.0]]), true)
        assert partial == pytest.approx(1 / 3)
        assert front_coverage(np.zeros((0, 2)), true) == 0.0

    def test_front_coverage_counts_dominating_points(self):
        true = np.array([[2.0, 2.0]])
        better = np.array([[1.0, 1.0]])
        assert front_coverage(better, true) == pytest.approx(1.0)


class TestTables:
    def test_ascii_table_alignment(self):
        out = ascii_table(["a", "bb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            ascii_table(["a"], [["x", "y"]])

    def test_format_series_wraps(self):
        out = format_series(list(range(25)), per_line=10)
        assert out.count("\n") == 2
        assert "[ 10]" in out

    def test_render_kv(self):
        out = render_kv([("name", "x"), ("value", 1.5)], title="K")
        assert "name" in out and "1.500" in out

    def test_render_kv_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            render_kv([])
