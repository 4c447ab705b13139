"""The repository benchmark: protected round trips at 2^18 carrying a
soft-error campaign, and the served daemon.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {large,serve} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` (a separate
run on the same seed and inputs) the per-layer metrics; BENCHMARK.json
declares their names and units.  A human-readable report goes to standard
output first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The workloads are described in
``workloads.py``.  Set-up is measured in fresh interpreters (or daemon
spawns), several times per run, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter

from common import (
    RUN_DIR,
    checkout_root,
    compare_fingerprint,
    fingerprint,
    fingerprint_id,
    median,
    use_checkout,
)
from workloads import WORKLOADS

#: fresh-interpreter set-up samples per run of an in-process workload
SETUP_SAMPLES = 3
#: an op's self times by layer must add up to its latency within this
SUM_TOLERANCE_S = 1e-9


def setup_samples(root, workload, seed: int, count: int) -> list:
    """Time ``first_op.py`` in fresh interpreters, spawn to first result."""

    samples = []
    for _ in range(count):
        started = perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "first_op.py"), workload.name, str(seed)],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        setup = None
        lines = []
        try:
            for line in process.stdout:
                if setup is None and line.strip() == "done":
                    setup = perf_counter() - started
                else:
                    lines.append(line)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0 or setup is None:
            raise RuntimeError(f"set-up probe failed: {''.join(lines)}")
        record = json.loads(lines[-1])
        record["setup_s"] = setup
        samples.append(record)
    return samples


def _report(args, stamp, differs, tally, outcome, metrics, units) -> None:
    blas = stamp["blas"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"fingerprint {fingerprint_id(stamp)}: {stamp['cpu_model']}, nproc {stamp['nproc']}, "
        f"python {stamp['python']}, numpy {stamp['numpy']}, blas {blas['name']} "
        f"{blas['version']} threads={blas['threads']}, cc={stamp['c_compiler']}, "
        f"env={stamp['env']}"
    )
    if differs:
        print(f"NOT COMPARABLE with the previous run in this checkout: {', '.join(differs)}")
    failures = {k: v for k, v in tally.failures.items() if k != "ops"}
    print(f"ops: attempted {tally.attempted}, failed {tally.failed} {failures or ''}")
    if "p99_ms" in outcome:
        print(f"latency p99 {outcome['p99_ms']:.4f} ms, {outcome['samples']} ops (not a metric)")
    if "spans" in outcome:
        print(f"{outcome['spans']} spans written to {RUN_DIR}/spans-{args.workload}.jsonl")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    use_checkout(root)
    traced = bool(args.trace)
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if traced else "end_to_end"]
    }
    stamp = fingerprint()
    differs = compare_fingerprint(root, stamp)

    import inprocess
    import serve

    workload = WORKLOADS[args.workload]
    spans_path = root / RUN_DIR / f"spans-{workload.name}.jsonl"
    if workload.name == "serve":
        outcome = serve.run(root, workload, args.seed, args.seconds, traced, spans_path)
        samples = setup_samples(root, workload, args.seed, 1) if traced else []
        setups = outcome["setups"]
    else:
        samples = setup_samples(root, workload, args.seed, SETUP_SAMPLES)
        setups = [sample["setup_s"] for sample in samples]
        if traced:
            outcome = inprocess.trace(workload, args.seed, args.seconds, spans_path)
        else:
            outcome = inprocess.measure(workload, args.seed, args.seconds)
    tally = outcome["tally"]
    for sample in samples:
        tally.attempted += 1
        if not sample["ok"]:
            tally.fail(["wrong first result"])

    metrics = dict(outcome["metrics"])
    correct = True
    if traced:
        metrics["setup.import_s"] = median([sample["import_s"] for sample in samples])
        metrics["core.plan_s"] = median([sample["plan_s"] for sample in samples])
        # a layer the workload does not pass through spends no time there
        for name in units:
            metrics.setdefault(name, 0.0)
        worst = max(abs(summary.unaccounted()) for summary in outcome["summaries"])
        print(f"largest gap between an op's layer sum and its latency: {worst:.3e} s")
        correct = worst <= SUM_TOLERANCE_S
    else:
        metrics["setup_s"] = median(setups)
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: metrics do not match BENCHMARK.json: {set(metrics) ^ set(units)}"
        )
    metrics = {name: metrics[name] for name in units}
    _report(args, stamp, differs, tally, outcome, metrics, units)
    result = {
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
