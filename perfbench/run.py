#!/usr/bin/env python3
"""Build and run the retrieval benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the libraries in
src/) under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only
what changed. The benchmark binary prints its facts, metrics and timings;
this script echoes them and ends with one JSON line holding `correct`,
`attempted`, `failed` and the metrics BENCHMARK.json names: its `end_to_end`
list with --trace 0, its `per_layer` list with --trace 1.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan_cold", "zipf_ingest", "fleet_scatter")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over every file under src/ (path and bytes), in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run(binary, args, data_dir, trace_out):
    """Runs the binary, echoing its output; returns its record."""
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data-dir", str(data_dir),
               "--trace-out", str(trace_out), "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    record = None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    for line in out.splitlines():
        print(line)
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
    if proc.returncode != 0 or record is None:
        fail(f"benchmark exited with code {proc.returncode}")
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the repository sources (CMakeLists.txt, src/) are missing")
    spec = json.loads(spec_path.read_text())

    out = build_dir()
    binary = build(out / "perfbench")
    data_dir = out / "perfbench-data" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = out / "perfbench-trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-{args.seed}.csv"
    record = run(binary, args, data_dir, trace_out)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"the run reported no value for {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']} in BENCHMARK.json")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
