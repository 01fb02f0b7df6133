"""Fast self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs one untraced and two traced runs with the same
seed, and checks that each run passes its correctness checks, that every
metric BENCHMARK.json names is present with its unit, and that the count
metrics of the two traced runs are equal.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = (".calls", ".flops", "op_calls_per_step", "sde.diverged")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=120)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise AssertionError(f"{workload} trace={trace}: no result\n{proc.stderr}") from None
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}, "
                             f"{result}\n{proc.stderr}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result["metrics"]


def expect_metrics(metrics, specs, where):
    want = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} != {want}")
    for name, entry in metrics.items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{where}: {name} = {entry['value']!r}")


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        expect_metrics(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        expect_metrics(first, bench["per_layer"], f"{workload} traced")
        for name in first:
            if name.endswith(COUNTS) and first[name]["value"] != second[name]["value"]:
                raise AssertionError(f"{workload}: {name} {first[name]['value']} "
                                     f"!= {second[name]['value']}")
        print(f"ok {workload}")
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
