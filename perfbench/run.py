#!/usr/bin/env python3
"""Repository benchmark: builds perfbench against this checkout's library
sources, runs its arithmetic self-test, then measures one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Build output goes to stderr; stdout carries the host fingerprint, `# ...`
notes and, as its last line, the JSON result.  The build lives in
.bench_build/ and run scratch in .bench_tmp/, both at the checkout root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
# fig3b_lenet runs single-threaded, the setting ROADMAP item 3 states its
# fig3b target in: its conv GEMMs get slower at four threads, and every
# parallel region waits for the slowest vCPU, so on a shared VM host steal
# stretched four-thread runs up to 2.5x.  search_long uses min(4, nproc).
THREADS = {"fig3b_lenet": 1}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(jobs):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the library sources (CMakeLists.txt, src/) are not next to "
            "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(jobs)], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return ({m["name"]: m["unit"] for m in metrics},
            {w["name"] for w in spec["workloads"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        die(f"unknown workload '{args.workload}'")
    jobs = min(4, os.cpu_count() or 1)
    build(jobs)

    env = dict(os.environ)
    env["BAYESFT_NUM_THREADS"] = str(THREADS.get(args.workload, jobs))
    env.pop("BAYESFT_CHAOS", None)  # failure injection stays off
    env.pop("BAYESFT_SIMD", None)   # the host's best tier
    subprocess.run([BINARY, "--self-test"], cwd=ROOT, env=env,
                   stdout=sys.stderr, check=True, timeout=60)

    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        die(f"no output (exit {proc.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"last line is not a result (exit {proc.returncode})", 1)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != metrics:
        die("reported metrics do not match BENCHMARK.json", 1)
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
