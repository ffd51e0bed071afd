#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S   # every workload in turn
  python3 perfbench/run.py --smoke       # every workload, short phases, every check
  python3 perfbench/run.py --test        # the benchmark's own unit tests
  python3 perfbench/run.py --calibrate --workload NAME --seed N

The fixed rates, the latency limit and the measurement window of each workload come
from perfbench/spec.json. The build goes to $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the benchmark's JSON result; the exit code is nonzero when the
build or any output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   stdout=log, stderr=log, check=True)
    return out


def bench_args(spec, workload, seed, seconds, trace):
    w = spec["workloads"][workload]
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--low-rate", str(w["low_rate_ops"]), "--high-rate", str(w["high_rate_ops"]),
            "--limit-ms", str(w["final_p99_limit_ms"]), "--measure-s", str(w["measure_s"])]


def run_one(binary, args):
    """Runs the benchmark binary, echoing its output; returns (exit code, last line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--test", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    opts = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if opts.workload != "all" and opts.workload not in spec["workloads"]:
        parser.error("unknown workload " + opts.workload)

    try:
        out = build(["perfbench_tests"] if opts.test else ["perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if opts.test:
        return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode

    binary = os.path.join(out, "perfbench")
    workloads = list(spec["workloads"]) if opts.workload == "all" or opts.smoke \
        else [opts.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads:
        args = bench_args(spec, name, opts.seed, opts.seconds, opts.trace)
        if opts.smoke:
            args.append("--smoke")
        if opts.calibrate:
            args.append("--calibrate")
        if opts.trace:
            args += ["--spans-out", os.path.join(out, "spans-%s.csv" % name)]
        code, last = run_one(binary, args)
        worst = worst or code
        if len(workloads) > 1 and not opts.calibrate:
            try:
                result = json.loads(last)
            except ValueError:
                return code or 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][name + "/" + metric] = value
    if len(workloads) > 1 and not opts.calibrate:
        print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
