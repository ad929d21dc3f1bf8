"""Unit tests for the analytic performance model and its calibration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.perfmodel import AnalyticPerformanceModel, CalibrationTarget


class TestCalibrationTarget:
    def test_valid_construction(self):
        target = CalibrationTarget(0.1, 2.0, (0.3, 0.5, 0.2), (0.3, 0.5, 0.2), 0.35)
        assert target.overhead_fraction == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "shares", [(0.5, 0.5, 0.5), (0.3, 0.3), (0.0, 0.5, 0.5), (-0.1, 0.6, 0.5)]
    )
    def test_rejects_bad_shares(self, shares):
        with pytest.raises(ConfigurationError):
            CalibrationTarget(0.1, 2.0, shares, (0.3, 0.5, 0.2), 0.35)

    def test_rejects_nonpositive_anchors(self):
        with pytest.raises(ConfigurationError):
            CalibrationTarget(0.0, 2.0, (0.3, 0.5, 0.2), (0.3, 0.5, 0.2), 0.35)
        with pytest.raises(ConfigurationError):
            CalibrationTarget(0.1, -1.0, (0.3, 0.5, 0.2), (0.3, 0.5, 0.2), 0.35)


class TestCalibrationExactness:
    """The model must hit its anchors at x_max exactly."""

    def test_latency_anchor(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        target = tiny_workload.target_for(tiny_spec)
        x_max = tiny_spec.space.max_configuration()
        assert model.latency(x_max) == pytest.approx(target.latency_at_max, rel=1e-9)

    def test_energy_anchor(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        target = tiny_workload.target_for(tiny_spec)
        x_max = tiny_spec.space.max_configuration()
        assert model.energy(x_max) == pytest.approx(target.energy_at_max, rel=1e-9)

    def test_busy_shares_at_x_max(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        target = tiny_workload.target_for(tiny_spec)
        busy = np.array(model.busy_times(tiny_spec.space.max_configuration()))
        shares = busy / busy.sum()
        assert shares == pytest.approx(np.array(target.busy_shares), rel=1e-6)

    def test_rejects_energy_target_below_floor(self, tiny_spec):
        # floor power * latency exceeds the energy target -> impossible.
        floor = tiny_spec.static_watts + sum(tiny_spec.idle_watts)
        target = CalibrationTarget(
            latency_at_max=1.0,
            energy_at_max=floor * 0.5,
            busy_shares=(0.3, 0.5, 0.2),
            dynamic_split=(0.3, 0.5, 0.2),
            serial_fraction=0.3,
        )
        with pytest.raises(ConfigurationError):
            AnalyticPerformanceModel(tiny_spec, target)


class TestSurfaceStructure:
    @pytest.fixture()
    def model(self, tiny_spec, tiny_workload):
        return tiny_workload.performance_model(tiny_spec)

    def test_x_max_is_fastest(self, model, tiny_spec):
        latencies, _ = model.profile_space()
        x_max_idx = tiny_spec.space.flat_index_of(tiny_spec.space.max_configuration())
        assert latencies[x_max_idx] == pytest.approx(latencies.min())

    def test_latency_monotone_in_each_axis(self, model, tiny_spec):
        # Raising any single clock can never slow a job down.
        space = tiny_spec.space
        for base in space.all_configurations()[:20]:
            for axis, table in enumerate(space.tables):
                idx = space.indices_of(base)[axis]
                if idx + 1 >= len(table):
                    continue
                clocks = list(base.as_tuple())
                clocks[axis] = table.frequencies[idx + 1]
                faster = space.snap(*clocks)
                assert model.latency(faster) <= model.latency(base) + 1e-12

    def test_energy_has_interior_optimum(self, model, tiny_spec):
        # The minimum-energy configuration is neither x_max nor x_min.
        latencies, energies = model.profile_space()
        best = int(np.argmin(energies))
        configs = tiny_spec.space.all_configurations()
        assert configs[best] != tiny_spec.space.max_configuration()
        assert configs[best] != tiny_spec.space.min_configuration()

    def test_vectorized_matches_scalar(self, model, tiny_spec):
        configs = tiny_spec.space.all_configurations()[:10]
        freqs = np.array([c.as_tuple() for c in configs])
        lat_vec = model.latency_array(freqs)
        en_vec = model.energy_array(freqs)
        for i, config in enumerate(configs):
            assert lat_vec[i] == pytest.approx(model.latency(config))
            assert en_vec[i] == pytest.approx(model.energy(config))

    def test_objectives_are_positive_everywhere(self, model):
        latencies, energies = model.profile_space()
        assert np.all(latencies > 0)
        assert np.all(energies > 0)

    def test_objectives_pair(self, model, tiny_spec):
        config = tiny_spec.space.all_configurations()[7]
        assert model.objectives(config) == (
            pytest.approx(model.latency(config)),
            pytest.approx(model.energy(config)),
        )

    def test_busy_times_never_exceed_latency(self, model, tiny_spec):
        for config in tiny_spec.space.all_configurations()[::7]:
            latency = model.latency(config)
            assert all(t <= latency + 1e-12 for t in model.busy_times(config))


class TestObjectiveTensor:
    """The whole-space tensor must agree with scalar evaluation and be shared."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.hardware.perfmodel import clear_objective_tensor_cache

        clear_objective_tensor_cache()
        yield
        clear_objective_tensor_cache()

    def test_tensor_matches_scalar_objectives(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        tensor = model.objective_tensor()
        for config in tiny_spec.space.all_configurations():
            index = tiny_spec.space.flat_index_of(config)
            assert tensor.latencies[index] == model.latency(config)
            assert tensor.energies[index] == model.energy(config)
            assert tuple(tensor.busy_times[index]) == model.busy_times(config)

    def test_rows_match_scalar_objectives(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        rows = model.objective_tensor().rows
        assert len(rows) == len(tiny_spec.space)
        for config in tiny_spec.space.all_configurations():
            row = rows[tiny_spec.space.flat_index_of(config)]
            assert all(type(value) is float for value in row)
            assert row[:2] == model.objectives(config)
            assert row[2:] == model.busy_times(config)

    def test_identically_calibrated_models_share_one_tensor(
        self, tiny_spec, tiny_workload
    ):
        first = tiny_workload.performance_model(tiny_spec)
        second = tiny_workload.performance_model(tiny_spec)
        assert first is not second
        assert first.objective_tensor() is second.objective_tensor()

    def test_tensor_arrays_are_read_only(self, tiny_spec, tiny_workload):
        tensor = tiny_workload.performance_model(tiny_spec).objective_tensor()
        for array in (tensor.latencies, tensor.energies, tensor.busy_times):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cache_clear_forces_rebuild(self, tiny_spec, tiny_workload):
        from repro.hardware.perfmodel import clear_objective_tensor_cache

        model = tiny_workload.performance_model(tiny_spec)
        before = model.objective_tensor()
        clear_objective_tensor_cache()
        after = model.objective_tensor()
        assert before is not after
        np.testing.assert_array_equal(before.latencies, after.latencies)
