#!/usr/bin/env python3
"""tempobench: build, run one workload, check it, print its metrics.

    python3 tempobench/run.py --workload study-vista-desktop --seed 2008 \
        --seconds 25 --trace 0

Run from the repository root. The benchmark builds the tempo libraries and
the tempobench binary into .bench_build/ (RelWithDebInfo, the repository's
default build type), measures process start, runs the workload in one
process for --seconds, checks its outputs against the digests recorded in
digests.json (when the seed has any) and prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). It exits 1 when any check fails, and 2 when
the benchmark cannot run at all (no sources, build failure, crash).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tempobench")
PROBES = 15  # process-start samples per run, besides the workload's own
RUN_TIMEOUT_S = 170
# Per-workload stage times of the plain iterations (medians), printed with
# the end-to-end metrics and reported as stage.* in the traced run.
STAGES = ("wall_s", "record_s", "analyze_s", "query_s", "trace_bytes_per_record",
          "round_ms_p50", "round_ms_p90", "round_samples")


def fail(message):
    print("tempobench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tempo sources under %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target", "tempobench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def process_start_s(argv):
    """Runs argv; returns (seconds from spawn to main entry, stdout lines)."""
    t_spawn = time.monotonic_ns()
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (" ".join(argv), RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(argv), done.returncode))
    entry = json.loads(lines[0])["main_entry_ns"]
    return (entry - t_spawn) * 1e-9, lines


def source_digest():
    """sha256 over every file under src/: identifies the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--digests", default=os.path.join(BENCH_DIR, "digests.json"),
                        help="recorded output digests (default: digests.json)")
    args = parser.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s (have %s)" % (args.workload, ", ".join(names)))
    os.makedirs(OUT_DIR, exist_ok=True)

    starts = [process_start_s([BINARY, "--probe"])[0] for _ in range(PROBES)]
    start, lines = process_start_s([
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size])
    starts.append(start)
    raw = json.loads(lines[-1])
    e2e = raw["e2e"]

    attempted, failed = raw["attempted"], raw["failed"]
    failures = list(raw["failures"])
    with open(args.digests) as f:
        recorded = json.load(f).get(args.size, {}).get(str(args.seed), {}).get(args.workload, {})
    for key, want in sorted(recorded.items()):
        attempted += 1
        if raw["digests"].get(key) != want:
            failed += 1
            failures.append("%s digest %s != recorded %s" % (key, raw["digests"].get(key), want))

    measured = {
        "setup_s": statistics.median(starts) + e2e["inproc_setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "ns_per_timer_event": e2e["ns_per_timer_event"],
    }
    for key in STAGES:
        measured["stage." + key] = e2e[key]
    measured.update(raw["layers"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    host = dict(raw["host"], git_sha=git_sha(), source_sha256=source_digest(),
                note="tempobench links the tempo libraries at the repository's "
                     "default RelWithDebInfo build type")
    error_rate = failed / attempted if attempted else 1.0
    detail = {"host": host, "e2e": e2e, "plain_iterations": raw["plain_iterations"],
              "measured": measured, "self_s": raw["self_s"],
              "process_start_s": starts, "digests": raw["digests"],
              "attempted": attempted, "failed": failed, "failures": failures,
              "error_rate": error_rate}
    detail_path = os.path.join(OUT_DIR, "%s-%s-seed%d.json" % (
        args.workload, "traced" if args.trace else "plain", args.seed))
    with open(detail_path, "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)

    print("host " + json.dumps(host, sort_keys=True))
    print("%s seed %d, %d iterations, error_rate %g (%d/%d)%s" % (
        args.workload, args.seed, e2e["iterations"], error_rate, failed, attempted,
        "".join("\n  FAILED: " + f for f in failures)))
    print("end-to-end: " + ", ".join("%s %.6g %s" % (m["name"], measured[m["name"]], m["unit"])
                                     for m in spec["end_to_end"]))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("stages: " + ", ".join("%s %.6g %s" % (k, e2e[k], units["stage." + k]) for k in STAGES)
          + ", error_rate %g fraction" % error_rate)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
