#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
(into $CARGO_TARGET_DIR when set, else perfbench/target) and then run
with the same arguments and glibc malloc tunables that keep freed memory
in the process (see MALLOC_TUNABLES). Build output goes to standard error; the last
line of standard output is the benchmark's JSON result. A failed build
or run exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

# glibc malloc keeps freed memory in the process instead of returning it to
# the kernel after every pipeline run. Without this, each run re-faults
# hundreds of MiB of fresh pages, and on a virtual machine the page-fault
# cost swings by 30% from run to run, which buries the program's own time.
MALLOC_TUNABLES = (
    "glibc.malloc.mmap_threshold=33554432"
    ":glibc.malloc.trim_threshold=17179869184"
    ":glibc.malloc.top_pad=268435456"
)


def run_child(cmd, timeout, stdout=None, env=None):
    """Runs cmd to completion (killing it on timeout) and returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"{cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build chatter belongs on stderr: stdout's last line is the result.
    if run_child(build, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    return run_child([exe] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
