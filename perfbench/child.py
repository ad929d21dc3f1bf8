"""One fresh interpreter: set up a workload, optionally measure it once.

    python3 perfbench/child.py WORKLOAD ROLE SEED STATE_DIR TRACE SELF_TEST

``ROLE`` is ``setup`` (build the objective tensors and the workload's
on-disk state in ``STATE_DIR``, report the set-up time) or ``measure``
(build the tensors, run the measured calls once on a calibrated clock,
check their output).  With ``TRACE`` 1 the layer shims from ``shims.py``
are installed first; with ``SELF_TEST`` 1 the output checks are also fed
corrupted outputs.  The last line of standard output is one JSON record
for ``run.py``.

Each measured run gets its own interpreter because in-process repeats
carry memoized results and heap from one run into the next.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import shims  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> dict[str, object]:
    name, role, seed_text, state_text, trace_text, self_test_text = argv
    workload = workloads.WORKLOADS[name]
    seed, state, traced = int(seed_text), pathlib.Path(state_text), trace_text == "1"
    tracer = shims.Tracer()
    if traced:
        shims.install(tracer)
    tensor_build_s = workloads.build_tensors(workload.pairs)
    if role == "setup":
        workload.setup(state, seed)
        return {"setup_s": time.perf_counter() - START, "tensor_build_s": tensor_build_s}
    clock = calibrate.Clock()
    cpu0 = time.process_time()
    measured = workload.measure(state, seed, clock)
    cpu_s = time.process_time() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    evaluation = workload.evaluate(measured, state, seed, self_test_text == "1")
    outcomes = {
        "ops_per_ref_s": measured.ops / clock.reference_s,
        workload.throughput: measured.ops / clock.wall_s,
        **evaluation.outcomes,
    }
    record: dict[str, object] = {
        "wall_s": clock.wall_s,
        "reference_s": clock.reference_s,
        "calibration_s": clock.points,
        #: Includes the calibration kernel's time.
        "cpu_s": cpu_s,
        "parts": measured.parts,
        "peak_rss_mib": peak_rss_mib,
        "tensor_build_s": tensor_build_s,
        "outcomes": outcomes,
        "attempted": evaluation.attempted,
        "failed": evaluation.failed,
        "digest": evaluation.digest,
        "failures": evaluation.failures,
        "uncaught": evaluation.uncaught,
    }
    if traced:
        record["layers"] = {
            **shims.layer_metrics(tracer), "hardware.tensor_build_s": tensor_build_s,
        }
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
