"""Regenerate the per-job simulation path golden.

Usage (from the repository root):

    PYTHONPATH=src:. python tests/hardware/golden/regen.py

Overwrites ``job_path.txt`` next to this script with a fresh run of the
pinned campaigns and device stream (see
``tests/hardware/test_job_path_golden.py``).  Review the diff before
committing — the whole point of the golden is that drift is a deliberate
act.
"""

from tests.hardware.test_job_path_golden import GOLDEN_FILE, produce_golden

if __name__ == "__main__":
    GOLDEN_FILE.write_text(produce_golden())
    print(f"regenerated {GOLDEN_FILE}")
