#!/usr/bin/env python3
"""The benchmark of record for HydraNet-FT (see README.md in this directory).

Builds the repository's libraries and the workload runner in Release into
.bench_build/ at the root of the checkout, then runs one workload per
process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, both modes
    python3 perfbench/run.py --self-test      # determinism + checks that fire

In the first form the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["ft_ttcp_failover", "udp_fanout_small", "connscale_2shard"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; False when the build is impossible."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no HydraNet-FT sources next to", HERE)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "3"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def declared_metrics():
    """Metric names BENCHMARK.json declares, per mode, if the file exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {False: [m["name"] for m in spec["end_to_end"]],
            True: [m["name"] for m in spec["per_layer"]]}


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs one workload process; returns (exit code, report lines, result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, workload + ".json")]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, [], None
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, lines[:-1] if result else lines, result


def check_names(result, trace):
    declared = declared_metrics()
    if declared is None:
        return True
    got = sorted(result["metrics"])
    want = sorted(declared[trace])
    if got != want:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(got) ^ set(want)))
        return False
    return True


def single_run(args):
    code, report, result = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace == 1)
    for line in report:
        print(line)
    if result is None or not check_names(result, args.trace == 1):
        return 1
    print(json.dumps(result))
    return code


def all_mode(args):
    failed = False
    for workload in WORKLOADS:
        for trace in (False, True):
            code, report, result = run_workload(workload, args.seed,
                                                args.seconds, trace)
            print("\n".join(report))
            if result is None:
                print("%s: no result" % workload)
                failed = True
                continue
            print("  correct=%s attempted=%d failed=%d\n" % (
                result["correct"], result["attempted"], result["failed"]))
            failed = failed or code != 0 or not check_names(result, trace)
    return 1 if failed else 0


SHORT_FORM = {
    "ft_ttcp_failover": ["--rounds", "3"],
    "udp_fanout_small": ["--rounds", "3"],
    "connscale_2shard": ["--rounds", "2", "--conns", "8000"],
}
BROKEN = [("ft_ttcp_failover", "digest"),
          ("udp_fanout_small", "datagram"),
          ("connscale_2shard", "connection")]


def fingerprint(report):
    for line in report:
        if line.startswith("fingerprint "):
            return line.split()[1]
    return None


def self_test():
    ok = True
    for workload in WORKLOADS:
        prints = []
        for _ in range(2):
            code, report, result = run_workload(workload, 7, 1, False,
                                                SHORT_FORM[workload])
            good = code == 0 and result is not None and result["correct"]
            prints.append(fingerprint(report) if good else None)
        same = prints[0] is not None and prints[0] == prints[1]
        print("%-8s %s: fingerprints %s" % ("PASS" if same else "FAIL",
                                            workload, " ".join(map(str, prints))))
        ok = ok and same
    for workload, check in BROKEN:
        code, report, result = run_workload(
            workload, 7, 1, False, SHORT_FORM[workload] + ["--break", check])
        fired = code != 0 and result is not None and not result["correct"]
        reason = [line for line in report if line.startswith("CHECK FAILED")]
        print("%-8s %s --break %s: %s" % ("PASS" if fired else "FAIL", workload,
                                          check, reason[0] if reason else
                                          "check did not fire"))
        ok = ok and fired
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.self_test:
        return self_test()
    if args.workload:
        return single_run(args)
    return all_mode(args)


if __name__ == "__main__":
    sys.exit(main())
