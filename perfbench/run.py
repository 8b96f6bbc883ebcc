#!/usr/bin/env python3
"""Build and run the power-atm benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <characterize|serve-brownout|fleet-failover|all>
                             [--seed 42] [--seconds 10] [--trace 0|1]

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build` in the checkout) and runs its binary with the
given flags, which the binary parses (a usage error exits 2). Each of the
binary's detail lines is stamped with the rustc version, the git commit
and a digest of the source tree; its last line, the result object
{"correct", "attempted", "failed", "metrics"}, is printed verbatim.
Build output goes to standard error. Exits non-zero without a result
line when the program's sources are missing, the build fails or a run
exceeds its time limit; otherwise exits with the binary's code (1 when
an output check failed, after the result line).
"""

import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
# Per workload; `--workload all` runs three.
RUN_TIMEOUT_S = 170
# The benchmark builds the program from these, relative to the checkout.
SOURCES = ["Cargo.toml", "src", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_digest():
    """SHA-256 over every source file the build reads, in path order."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in sorted(paths):
            if "/target/" in p:
                continue
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("the build timed out")
    if proc.returncode != 0:
        fail("the build failed")
    return os.path.join(target_dir, "release", "atm-perfbench")


def main():
    args = sys.argv[1:]
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail(f"run from the root of a checkout; missing {', '.join(missing)}")
    exe = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    stamp = {
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "none",
        "tree": tree_digest(),
    }
    timeout = RUN_TIMEOUT_S * (3 if "all" in args else 1)
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {timeout} s", 1)
    for line in proc.stdout.splitlines():
        if line.startswith('{"detail": '):
            detail = json.loads(line)
            detail["detail"]["stamp"] = stamp
            line = json.dumps(detail)
        print(line, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
