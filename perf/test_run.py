#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about a minute in all).

    python3 perf/test_run.py

For every workload and both trace modes it asserts that the run is
correct and emits exactly the metrics BENCHMARK.json names, each with its
unit. Then, per workload, a run that deliberately corrupts one allocation
(offline) or one reply (serve-mix) must count it as failed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--tiny"] + (["--corrupt"] if corrupt else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: not correct: {result}")
            metrics = result["metrics"]
            for name in sorted(set(expected[trace]) - set(metrics)):
                failures.append(f"{label}: missing metric {name}")
            for name in sorted(set(metrics) - set(expected[trace])):
                failures.append(f"{label}: metric {name} not in BENCHMARK.json")
            for name, unit in expected[trace].items():
                if name in metrics and metrics[name].get("unit") != unit:
                    failures.append(f"{label}: {name} has unit "
                                    f"{metrics[name].get('unit')!r}, want {unit!r}")
        corrupted = run(workload, 0, corrupt=True)
        if corrupted["correct"] or corrupted["failed"] < 1:
            failures.append(f"{workload}: corrupted output was not counted "
                            f"as failed: {corrupted}")
        print(f"{workload}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("OK" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
