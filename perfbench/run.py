#!/usr/bin/env python3
"""Run one workload of the alic benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary and the
`alic-serve` daemon from source (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs the workload with the ledger, checkpoint and
trace files under `.bench_work`, and prints the host facts followed by the
result object as the last line of standard output. Exits non-zero when the
build fails or any output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

WORKLOADS = ("learner_paper", "campaign_laptop", "serve_session")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Knobs of the program that would change what is measured.
SCRUBBED_ENV = ("ALIC_CHAOS", "ALIC_MODEL", "ALIC_SCALE", "ALIC_CAMPAIGN_DIR",
                "ALIC_OUTPUT_DIR", "ALIC_PERF_SCALE", "RAYON_NUM_THREADS")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def command_output(argv, cwd):
    try:
        return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    names = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for f in sorted(filenames):
                names.append(os.path.relpath(os.path.join(dirpath, f), root))
    for name in names:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host_facts(root, work_dir, threads):
    commit = command_output(["git", "rev-parse", "HEAD"], root) or "unknown"
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "commit": commit,
        "source_digest": source_digest(root),
        "rustc": command_output(["rustc", "--version"], root),
        "work_dir_fs": command_output(["stat", "-f", "-c", "%T", work_dir], root),
    }


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "alic-serve", "--bin", "alic-serve"],
    ]
    for argv in steps:
        try:
            done = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}", 1)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(argv)}", 1)


def run_bench(argv, env):
    """Runs the benchmark binary in its own process group, so a timeout
    also takes down any daemon it started."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, stdout.splitlines()


def manifest_metrics(root, trace):
    """Name -> unit of the metrics BENCHMARK.json asks this mode for."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    metrics = result["metrics"]
    if {name: m.get("unit") for name, m in metrics.items()} != expected:
        return False
    return all(isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])
               for m in metrics.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("BENCHMARK.json", "Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} is missing from {root}; run from a full checkout")

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(root, env)

    # Ledgers and checkpoints live inside the checkout, on its disk.
    work_dir = os.path.join(root, ".bench_work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    argv = [os.path.join(target, "release", "alic-perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir,
            "--serve-bin", os.path.join(target, "release", "alic-serve")]
    code, lines = run_bench(argv, env)
    if not lines:
        fail("the benchmark printed nothing", 1)

    threads = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("workload "):
            threads = int(line.rsplit(" ", 1)[1])
    facts = host_facts(root, work_dir, threads)
    if facts["work_dir_fs"] in ("tmpfs", "ramfs"):
        print(f"perfbench: warning: {work_dir} is on {facts['work_dir_fs']}; "
              "write-path timings are not disk timings", file=sys.stderr)
    print("host " + json.dumps(facts, sort_keys=True))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result: {lines[-1]!r}", 1)
    expected = manifest_metrics(root, args.trace)
    if not validate(result, expected):
        fail(f"result does not hold exactly the metrics of BENCHMARK.json: {lines[-1]!r}", 1)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
