#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload oltp-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a source tree. The first call configures and
builds the engine library and the benchmark binary (Release) under
.bench_build/perfbench; later calls only rebuild what changed. Each run
sets up its database under .bench_build and removes it afterwards.

The binary prints every metric by name and unit, then one JSON line;
this script checks that line names exactly the metrics BENCHMARK.json
declares for the mode (end_to_end with --trace 0, per_layer with
--trace 1) and prints it last, then exits with 1 if it reports
correct: false. --write-benchmark-json regenerates BENCHMARK.json from
the binary's catalogue.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lbench")
RUN_SECONDS = 10
RUN_TIMEOUT_S = 170
# Compilers and the engine put temporary files under TMPDIR: keep them
# inside the tree as well.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no engine sources (CMakeLists.txt, src/) beside perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % SRC not in f.read():
                shutil.rmtree(BUILD)  # configured for another tree
    os.makedirs(TMP, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SRC, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "lbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            fail("build step failed: " + " ".join(cmd))


def catalog():
    out = subprocess.run([BINARY, "--catalog"], stdout=subprocess.PIPE,
                         check=True, text=True).stdout
    return json.loads(out)


def write_benchmark_json():
    cat = catalog()
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": cat["workloads"],
        "end_to_end": cat["end_to_end"],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in cat["per_layer"]],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()

    build()
    if args.write_benchmark_json:
        write_benchmark_json()
        return

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    names = {w["name"] for w in declared["workloads"]}
    if args.workload not in names:
        fail("--workload must be one of: " + ", ".join(sorted(names)))
    expected = {m["name"]: m["unit"] for m in
                declared["per_layer" if args.trace else "end_to_end"]}

    data = os.path.join(ROOT, ".bench_build", "data-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", data]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    if result["attempted"] < 1:
        fail("no operation was attempted")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if not result["correct"]:
        fail("the run is not correct (see WRONG, INVALID or ERRORS above)")


if __name__ == "__main__":
    main()
