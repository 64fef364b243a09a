#!/usr/bin/env python3
"""Build and run one workload of the Gravel benchmark.

    python3 perfbench/run.py --workload gups_put --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark package (this
directory) and the `gravel-node` binary from source into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, and
prints its metrics; the last stdout line is one JSON object with the
keys `correct`, `attempted`, `failed`, and `metrics`. Each run's host
record and result are appended to `perfbench/results/runs.jsonl`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["gups_put", "pagerank_live", "get_under_put", "socket_gups"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to stop and report.
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def git_sha():
    """HEAD of the repository this file is in; "unknown" outside a git
    checkout (or inside an unrelated enclosing one)."""
    top = tool_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return tool_output(["git", "rev-parse", "HEAD"]) or "unknown"


def build(env):
    """Build both binaries; cargo's output goes to stderr."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "gravel-node", "--bin", "gravel-node"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"), a.workload,
        "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--node-bin", os.path.join(target, "release", "gravel-node"),
        "--rustc", tool_output(["rustc", "-V"]) or "unknown",
        "--git-sha", git_sha(),
        "--run-dir", os.path.join(ROOT, ".perfbench_run"),
    ]
    # Its own process group, so every process it starts (the socket
    # cluster's nodes too) can be stopped together.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(p.pid)
        p.wait()
        print(f"perfbench: {a.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        kill_group(p.pid)
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: {a.workload} exited with {p.returncode}", file=sys.stderr)
        return p.returncode or 1
    result = json.loads(lines[-1])
    host = next((json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")), {})
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "runs.jsonl"), "a") as f:
        f.write(json.dumps({"time": time.time(), "host": host, "result": result}) + "\n")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
