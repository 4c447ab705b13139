"""Set-up probe, run in a fresh interpreter: import, plan, first op.

Usage: ``python perfbench/first_op.py <workload> <seed>`` with the program
on ``PYTHONPATH``.  Prints ``done`` the moment the first op has returned
(the parent times set-up up to that line), then one JSON line with the
import and plan times and whether the first result was correct.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    import numpy as np

    import repro

    imported = time.perf_counter()
    from common import within_tolerance
    from workloads import WORKLOADS, first_input

    workload = WORKLOADS[sys.argv[1]]
    x = first_input(workload, int(sys.argv[2]))
    planning = time.perf_counter()
    plan = repro.plan(workload.n, workload.config)
    output = plan.execute(x).output
    restored = plan.inverse(output).output if workload.round_trip else x
    print("done", flush=True)
    finished = time.perf_counter()

    reference = np.fft.fft(x)  # reprolint: fft-ok - independent correctness oracle
    ok = within_tolerance(output, reference) and within_tolerance(restored, x)
    record = {"ok": ok, "import_s": imported - start, "plan_s": finished - planning}
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
