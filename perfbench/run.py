"""Repository benchmark: paper_grid, fleet_warm and service_replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Every set-up and every measured run happens
in a fresh child interpreter (``child.py``); this process only schedules
them, checks their outputs agree, and reports medians.

A run does ``SETUPS`` set-ups (``setup_s`` is their median; for
``fleet_warm`` a set-up is a cold gather into an empty on-disk cache),
then repeats the measured calls until ``--seconds`` of measured time have
accumulated, at least once.  Each measured call runs in a slice of a
calibrated clock (``calibrate.py``): a fixed kernel timed next to every
slice turns its wall seconds into reference seconds, which do not move
with the shared host's speed; ``ops_per_ref_s`` is throughput in them,
and the raw wall-second throughputs are reported beside it.

``--trace 1`` alternates untraced and traced measured runs: the traced
one wraps each layer's entry point in the shims of ``shims.py`` and
reports per-layer metrics, plus the tracing overhead (traced minus
untraced measured time, in reference seconds so host drift between the
two runs does not show as overhead).

Every measured child checks its output; the first one also self-tests
the checks (they must pass the real output and fail corrupted copies of
it), and this process requires every run of one seed to produce the same
output digest.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is 1
when any check fails.  Raw per-run values and a machine fingerprint are
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("paper_grid", "fleet_warm", "service_replay")
SETUPS = 3
#: A single-workload run must finish within this many seconds.
RUN_BUDGET_S = 170.0
#: BLAS/OpenMP pools pinned to one thread, so runs do not contend for the
#: cores; recorded in the fingerprint.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Reported by every workload, so none reads 0: ``ops_per_ref_s`` is the
#: workload's own throughput (campaign rounds, fleet clients gathered and
#: composed, or decisions) per reference second, i.e. per wall second
#: scaled by the host speed that ``calibrate.py`` measures next to every
#: measured slice; ``sim_energy_per_op_j`` is the simulated energy per
#: BoFL round, client report or decision plan.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_ref_s": "1/ref_s",
    "sim_energy_per_op_j": "J",
}

#: The workload-specific outcomes each measured run reports, with units;
#: a workload reports only its own, so they are per-layer (unbounded)
#: metrics of the traced run, and read 0 where they do not apply.
OUTCOMES = {
    "failed_share": "ratio",
    "campaign_rounds_per_s": "1/s",
    "energy_saving_pct": "%",
    "oracle_regret_pct": "%",
    "mbo_overhead_pct": "%",
    "fleet_clients_per_s": "1/s",
    "fleet_energy_mj": "MJ",
    "fleet_makespan_s": "s",
    "decisions_per_s": "1/s",
    "decision_p99_ms": "ms",
    "service.cache_hit_rate": "ratio",
    "service.coalesced": "count",
    "service.evaluations": "count",
}

LAYERS = {
    "hardware.tensor_build_s": "s",
    "bayesopt.gp_tune.calls": "count",
    "bayesopt.gp_tune.s": "s",
    "bayesopt.mbo_fit.self_s": "s",
    "bayesopt.suggest.calls": "count",
    "bayesopt.suggest.s": "s",
    "ilp.solve.calls": "count",
    "ilp.solve.s": "s",
    "core.round.calls": "count",
    "core.round.self_s": "s",
    "sim.campaign.calls": "count",
    "sim.campaign.self_s": "s",
    "sim.executor.lookups": "count",
    "sim.executor.unique_keys": "count",
    "sim.executor.self_s": "s",
    "sim.disk_cache.gets": "count",
    "sim.disk_cache.get_s": "s",
    "sim.fleet.build_clients_s": "s",
    "federated.trace_arrays_s": "s",
    "federated.engine.self_s.sync": "s",
    "federated.engine.self_s.async": "s",
    "service.loadgen.requests_s": "s",
    "service.submit.calls": "count",
    "service.submit.self_s": "s",
    "service.key_hash.calls": "count",
    "service.key_hash.per_request": "calls/request",
    "trace.overhead_s": "ref_s",
    "trace.overhead_pct": "%",
}

PER_LAYER = {**LAYERS, **OUTCOMES}


class ChildError(RuntimeError):
    pass


def run_child(
    workload: str, role: str, seed: int, state: pathlib.Path, trace: int, deadline: float,
    self_test: bool = False,
) -> dict[str, Any]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    command = [
        sys.executable, str(HERE / "child.py"), workload, role, str(seed), str(state),
        str(trace), str(int(self_test)),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload} {role} run exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{workload} {role} run exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record: dict[str, Any] = json.loads(lines[-1])
    record["child_s"] = time.monotonic() - started
    return record


def fingerprint() -> dict[str, Any]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var, "1 (pinned by run.py)") for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_workload(
    workload: str, seed: int, seconds: float, trace: int, deadline: float
) -> dict[str, Any]:
    """All set-ups and measured runs of one workload; raw records."""
    work = OUT / "work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setups: list[dict[str, Any]] = []
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    try:
        for index in range(SETUPS):
            state = work / f"setup{index}"
            state.mkdir(parents=True)
            setups.append(run_child(workload, "setup", seed, state, 0, deadline))
        state = work / "setup0"
        measured_s = 0.0
        while True:
            started = time.monotonic()
            for flag, runs in ((0, untraced), (1, traced))[: 1 + trace]:
                runs.append(run_child(
                    workload, "measure", seed, state, flag, deadline, self_test=not untraced,
                ))
                measured_s += runs[-1]["wall_s"]
            iteration = time.monotonic() - started
            if measured_s >= seconds or time.monotonic() + 1.5 * iteration > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setups": setups, "untraced": untraced, "traced": traced}


def summarize(workload: str, raw: dict[str, Any], trace: int) -> dict[str, Any]:
    setups, untraced, traced = raw["setups"], raw["untraced"], raw["traced"]
    runs = untraced + traced
    problems = []
    for run in runs:
        problems += [f"check failed: {f}" for f in run["failures"]]
        problems += [f"self-test: check misjudged {u}" for u in run["uncaught"] or ()]
    if not any(run["uncaught"] is not None for run in runs):
        problems.append("self-test did not run")
    digests = {run["digest"] for run in runs}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different outputs from one seed")

    def outcome(name: str) -> float:
        return median([run["outcomes"][name] for run in untraced if name in run["outcomes"]])

    if trace:
        values = {name: outcome(name) for name in OUTCOMES}
        for name in LAYERS:
            values[name] = median([run["layers"].get(name, 0.0) for run in traced])
        untraced_s = median([run["reference_s"] for run in untraced])
        overhead = median([run["reference_s"] for run in traced]) - untraced_s
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / untraced_s
        units = PER_LAYER
    else:
        values = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "peak_rss_mib": median([run["peak_rss_mib"] for run in untraced]),
            "ops_per_ref_s": outcome("ops_per_ref_s"),
            "sim_energy_per_op_j": outcome("sim_energy_per_op_j"),
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "named": {
            name: {"value": outcome(name), "unit": unit}
            for name, unit in OUTCOMES.items()
            if any(name in run["outcomes"] for run in untraced)
        },
        "runs": {"setups": len(setups), "untraced": len(untraced), "traced": len(traced)},
    }


def render(workload: str, summary: dict[str, Any]) -> str:
    runs = summary["runs"]
    lines = [
        f"{workload}: {runs['setups']} set-ups, {runs['untraced']} untraced"
        f" + {runs['traced']} traced measured runs (medians)"
    ]
    for name, metric in {**summary["metrics"], **summary["named"]}.items():
        lines.append(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    lines += [f"  FAIL {problem}" for problem in summary["problems"]]
    return "\n".join(lines)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Optional[dict[str, Any]]:
    started = time.monotonic()
    before = fingerprint()
    try:
        raw = measure_workload(workload, seed, seconds, trace, started + RUN_BUDGET_S)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    summary = summarize(workload, raw, trace)
    print(render(workload, summary), flush=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": before, "loadavg_after": list(os.getloadavg()),
        "wall_s": time.monotonic() - started, "summary": summary, "raw": raw,
    }
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return summary


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        summary = run_one(name, args.seed, args.seconds, args.trace)
        if summary is None:
            return 1
        summaries[name] = summary
    if args.workload == "all":
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, s in summaries.items()
                for metric, value in {**s["metrics"], **s["named"]}.items()
            },
        }
    else:
        summary = summaries[args.workload]
        result = {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
