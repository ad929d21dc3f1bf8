"""Golden regression test for the per-job simulation path.

Every simulated minibatch goes through ``SimulatedDevice.run_job``: a
flat-index lookup into the objective tensor, the thermal and fault-overlay
multipliers, the keyed process-noise draw and the event timer's jitter.
This test pins the outputs of that path bit for bit, as ``repr`` floats:

* per-round energy and elapsed time of short campaigns under five
  controllers, plus one chaos campaign that arms a thermal trip and a
  straggler/sensor fault overlay, so both multiplier branches run;
* a direct job stream on one device (per-job measured latency, actual
  energy, finish time and utilization, window samples and power-sensor
  readings), which also covers the draws no round total depends on.

Any change that moves one bit must be deliberate:

    PYTHONPATH=src:. python tests/hardware/golden/regen.py

regenerates the file; review the diff before committing it.
"""

from __future__ import annotations

import pathlib

from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.hardware.device import FaultOverlay, SimulatedDevice
from repro.hardware.devices import jetson_agx
from repro.hardware.thermal import ThermalModel
from repro.sim.runner import run_campaign
from repro.workloads import vit

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "job_path.txt"

ROUNDS = 8
SEED = 0

#: (device, task, controller, deadline ratio): every controller family
#: whose rounds are built from ``run_job`` calls.
CAMPAIGNS = (
    ("agx", "vit", "bofl", 1.5),
    ("agx", "vit", "performant", 1.5),
    ("agx", "lstm", "ondemand", 2.0),
    ("tx2", "resnet50", "linear_pace", 1.5),
    ("agx", "vit", "oracle", 1.5),
)

#: A thermal trip (forces the throttle branch) overlapping a straggler and
#: a sensor spike (force the fault-overlay branch and the sensor factor).
CHAOS = FaultSchedule(
    (
        FaultSpec("thermal_trip", start_round=2, rounds=3, magnitude=90.0),
        FaultSpec("straggler", start_round=3, rounds=2, magnitude=1.4),
        FaultSpec("sensor_spike", start_round=5, rounds=1, magnitude=4.0),
    ),
    seed=7,
)


def _campaign_lines(label: str, result) -> list[str]:
    return [
        f"{label} r{record.round_index} energy={record.energy!r} "
        f"elapsed={record.elapsed!r}"
        for record in result.records
    ]


def _device_stream_lines() -> list[str]:
    """A direct job stream over a few configurations, faults and heat."""
    device = SimulatedDevice(jetson_agx(), vit(), seed=11, thermal=ThermalModel())
    configs = device.space.all_configurations()
    lines = []
    for step, config in enumerate((configs[-1], configs[0], configs[1049])):
        if step == 1:
            device.apply_fault_overlay(
                FaultOverlay(
                    latency_factor=1.3, energy_factor=1.2, sensor_energy_factor=0.5
                ),
                forced_temperature=88.0,
            )
        elif step == 2:
            device.apply_fault_overlay(None)
        sample, jobs = device.measure_configuration(config, min_duration=1.0)
        lines.append(
            f"window{step} latency={sample.latency!r} energy={sample.energy!r} "
            f"jobs={sample.jobs_measured} duration={sample.duration!r}"
        )
        for i, job in enumerate(jobs[:5]):
            lines.append(
                f"window{step} job{i} latency={job.latency!r} energy={job.energy!r} "
                f"finished_at={job.finished_at!r}"
            )
        for i in range(3):
            job = device.run_job()
            lines.append(
                f"window{step} free{i} latency={job.latency!r} energy={job.energy!r} "
                f"finished_at={job.finished_at!r} "
                f"utilization={device.last_utilization()!r}"
            )
        lines.append(
            f"window{step} power={device.power_sensor.read(12.5)!r} "
            f"temperature={device.thermal.temperature!r}"
        )
    return lines


def produce_golden() -> str:
    """Render the pinned job-path artifacts (shared with ``golden/regen.py``)."""
    lines = []
    for device, task, controller, ratio in CAMPAIGNS:
        result = run_campaign(
            device, task, controller, ratio, rounds=ROUNDS, seed=SEED, use_cache=False
        )
        lines.extend(_campaign_lines(f"{device}/{task}/{controller}", result))
    chaos = run_campaign(
        "agx", "vit", "bofl", 1.5,
        rounds=ROUNDS, seed=SEED, use_cache=False, fault_schedule=CHAOS,
    )
    lines.extend(_campaign_lines("chaos agx/vit/bofl", chaos))
    lines.extend(_device_stream_lines())
    return "\n".join(lines) + "\n"


def test_job_path_matches_golden():
    produced = produce_golden()
    golden = GOLDEN_FILE.read_text()
    assert produced == golden, (
        "the per-job simulation path no longer reproduces the golden values "
        "bit for bit; if the change is intentional, regenerate with "
        "tests/hardware/golden/regen.py"
    )
