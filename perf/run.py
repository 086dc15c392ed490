#!/usr/bin/env python3
"""Repository benchmark: builds the uic library, the uic_served daemon and
the uic_perf driver from source, runs one workload and prints one JSON
result line (see perf/README.md).

    python3 perf/run.py --workload offline-wc --seed 1 --seconds 36 --trace 0

Workloads: offline-wc, offline-p15, serve-mix, or all (one result line per
workload). --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (and writes the span JSONL under .bench_out/). --tiny and
--corrupt exist for perf/test_run.py.
"""
import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "uic-perf")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("offline-wc", "offline-p15", "serve-mix")
WORKERS = 4
SETUPS = 5          # daemon start-to-loaded set-ups per serve-mix run
RUN_TIMEOUT = 170   # seconds; the whole run must end within 180


def log(msg):
    print(f"perf: {msg}", file=sys.stderr, flush=True)


def build():
    for needed in ("src/CMakeLists.txt", "examples/uic_served.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"missing {needed}: run from a full checkout of the repository")
            sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(WORKERS),
                    "--target", "uic_perf", "uic_served"],
                   stdout=sys.stderr, check=True)


def driver(args, extra, deadline):
    """Runs uic_perf; returns (exit code, its JSON result or None)."""
    cmd = [os.path.join(BUILD, "uic_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def start_daemon(deadline):
    proc = subprocess.Popen(
        [os.path.join(BUILD, "uic_served"), "--port", "0",
         "--workers", str(WORKERS)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(1.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if "listening on" not in line:
        stop_daemon(proc)
        raise RuntimeError(f"uic_served did not start: {line!r}")
    return proc, int(line.rsplit(":", 1)[1])


def stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


def run_serve_mix(args, deadline):
    """Daemon set-up SETUPS times (start to loaded, warm-up included), then
    the closed loop against the last daemon."""
    attempted = failed = 0
    setup_s = []
    daemon = None
    try:
        for i in range(SETUPS):
            start = time.perf_counter()
            daemon, port = start_daemon(deadline)
            code, result = driver(args, ["--port", str(port), "--serve-setup"],
                                  deadline)
            setup_s.append(time.perf_counter() - start)
            if result is None:
                raise RuntimeError("serve set-up printed no result")
            attempted += result["attempted"]
            failed += result["failed"]
            if i + 1 < SETUPS:
                stop_daemon(daemon)
        code, result = driver(args, ["--port", str(port), "--serve-run"],
                              deadline)
        if result is None:
            raise RuntimeError(f"serve client failed (exit {code})")
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb(daemon.pid),
                                            "unit": "MiB"}
    finally:
        if daemon is not None:
            stop_daemon(daemon)
    result["metrics"]["setup_s"] = {"value": statistics.median(setup_s),
                                    "unit": "s"}
    result["attempted"] += attempted
    result["failed"] += failed
    return result


def run_workload(args):
    """One run of args.workload; returns its result object."""
    deadline = time.monotonic() + RUN_TIMEOUT
    if args.trace == 0 and args.workload == "serve-mix":
        result = run_serve_mix(args, deadline)
    else:
        extra = []
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            extra = ["--trace-out", os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.jsonl")]
        code, result = driver(args, extra, deadline)
        if code != 0 or result is None:
            log(f"uic_perf failed (exit {code})")
            sys.exit(1)
    if args.trace == 0:
        result["metrics"]["ok_share"] = {
            "value": 1.0 - result["failed"] / max(result["attempted"], 1),
            "unit": "share"}
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    build()
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return
    # Every workload in turn, one result line each, tagged with its name.
    correct = True
    for workload in WORKLOADS:
        args.workload = workload
        result = run_workload(args)
        correct = correct and result["correct"]
        print(json.dumps({"workload": workload, **result}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
