#!/usr/bin/env python3
"""The repository benchmark: one command for the `discover`, `revalidate`
and `serve` workloads (see BENCHMARK.json and perfbench/config.json).

    python3 perfbench/run.py --workload discover|revalidate|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the shipped library, dbre_serve, dbre_router and the benchmark
harness dbre_bench from source in Release mode (into $CARGO_TARGET_DIR,
default .bench_build, inside the checkout), runs one workload, and prints
the harness's detail lines followed by one JSON result line: correct,
attempted, failed and metrics. --trace 1 reports the per-layer metrics
instead of the end-to-end ones and keeps the run's spans under
<build dir>/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The whole run, build excluded, must end well inside 180 s.
RUN_DEADLINE_S = 170
BUILD_TARGETS = ["dbre_bench", "dbre_serve", "dbre_router"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.abspath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT:
        fail("build directory %s is outside the checkout" % path)
    return path


def build(out_dir):
    """Configures (once) and builds the Release targets; returns bin dir."""
    for required in ("src/CMakeLists.txt", "examples/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no %s: run from the root of a full checkout" % required)
    cache = os.path.join(out_dir, "CMakeCache.txt")
    log = sys.stderr
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target"] +
                   BUILD_TARGETS, check=True, stdout=log, stderr=log)
    with open(cache) as f:
        build_type = [line.split("=", 1)[1].strip() for line in f
                      if line.startswith("CMAKE_BUILD_TYPE:")]
    if build_type != ["Release"]:
        fail("refusing to report numbers from a %r build" % build_type)
    return out_dir


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    # Only this checkout's own repository: git would otherwise climb to an
    # enclosing one.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return "git:" + head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path)
            for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    config = load_json(os.path.join(HERE, "config.json"))
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build(build_dir())
    started = time.monotonic()
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    traces = os.path.join(out_dir, "traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(traces, exist_ok=True)

    command = [
        os.path.join(out_dir, "dbre_bench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", os.path.join(out_dir, "examples"),
        "--work-dir", work_dir, "--commit", source_id(),
        "--spans-file", os.path.join(
            traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed)),
        "--span-tolerance-pct", str(config["span_tolerance_pct"]),
    ]
    # Its own process group: the daemons the harness starts belong to it,
    # so nothing outlives the run even if the harness dies.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True)
    timed_out = False
    try:
        stdout, _ = child.communicate(
            timeout=max(1, RUN_DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        timed_out = True
        stdout = ""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    if timed_out:
        fail("%s did not finish within %d s" % (args.workload,
                                                 RUN_DEADLINE_S), code=3)

    sys.stdout.write(stdout)
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("dbre_bench printed no result line (exit %d)" % child.returncode,
             code=child.returncode or 4)
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        fail("the result's metrics differ from BENCHMARK.json's: missing %s, "
             "unlisted %s" % (sorted(set(wanted) - set(got)),
                              sorted(set(got) - set(wanted))), code=5)
    sys.stdout.flush()
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
