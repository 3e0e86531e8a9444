#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 servebench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
servebench, serve_server and serve_router under .bench_build/servebench;
later runs rebuild only what changed. The benchmark's output is passed
through: human-readable lines (host fingerprint, per-phase request counts,
every metric with its unit and sample counts), then one JSON result as the
last line. Every result is also appended, with its fingerprint, to
.bench_build/results.jsonl for compare.py. The exit code is nonzero on any
correctness breach, build failure or contract violation of the result.
`--workload all` runs every workload of BENCHMARK.json in turn.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "servebench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configures (once) and builds `targets`; fails loudly with the log."""
    for needed in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no repository sources next to servebench/ (missing %s)"
                 % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                     + targets)
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=log)
            except OSError as error:
                fail("cannot run %s: %s" % (step[0], error))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build step failed: " + " ".join(step))


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git-" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "servebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as data:
                digest.update(data.read())
    return "src-" + digest.hexdigest()[:16]


def fingerprint(isa):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model, "isa": isa,
            "build_type": build_type, "source": source_id()}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Contract of the result line; returns a list of problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(want) - set(got)),
                                      sorted(set(got) - set(want))))
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append("metric %s: %s" % (name, entry))
        elif not isinstance(entry["value"], (int, float)):
            problems.append("metric %s is not a number" % name)
    return problems


def reap_group(pgid):
    """Kills whatever is left in the benchmark's process group and waits
    until it is gone. Returns True when something was left."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def run(args):
    build(["servebench"])
    run_dir = os.path.join(OUT_DIR, "run")
    trace_dir = os.path.join(OUT_DIR, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    for stale in os.listdir(run_dir):
        os.remove(os.path.join(run_dir, stale))
    command = [
        os.path.join(BUILD_DIR, "servebench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--bin_dir", os.path.join(BUILD_DIR, "tpgnn", "examples"),
        "--work_dir", run_dir,
        "--trace_out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(child.pid)
        child.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    strays = reap_group(child.pid)

    lines = output.rstrip("\n").split("\n")
    isa = "unknown"
    for line in lines:
        if line.startswith("isa="):
            isa = line.split()[0][len("isa="):]
    host = fingerprint(isa)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("no result line (exit %d)" % child.returncode, 4)
    problems = check_result(result, args.trace)
    if strays:
        problems.append("a process outlived the benchmark")
        result["correct"] = False
    if child.returncode != 0 and result.get("correct") is True:
        result["correct"] = False

    print("fingerprint " + json.dumps(host, sort_keys=True))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as log:
        log.write(json.dumps({
            "fingerprint": host, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "exit": child.returncode, "result": result}) + "\n")
    if problems:
        for problem in problems:
            print("servebench: " + problem, file=sys.stderr)
        sys.exit(5)
    print(json.dumps(result))
    sys.stdout.flush()
    return child.returncode if child.returncode != 0 else (
        0 if result["correct"] else 1)


def self_test():
    build(["servebench", "servebench_test"])
    code = subprocess.call([os.path.join(BUILD_DIR, "servebench_test")])
    code |= subprocess.call([sys.executable, "-m", "unittest", "-v",
                             "test_contract"],
                            cwd=os.path.join(BENCH_DIR, "tests"))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at the checkout root")
    if args.workload != "all":
        sys.exit(run(args))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        names = [w["name"] for w in json.load(spec_file)["workloads"]]
    code = 0
    for name in names:
        args.workload = name
        code = max(code, run(args))
    sys.exit(code)


if __name__ == "__main__":
    main()
