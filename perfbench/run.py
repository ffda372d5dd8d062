#!/usr/bin/env python3
"""Build and run the end-to-end exchange benchmark.

    python3 perfbench/run.py --workload <onboard|hashkey|durable|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then run once per workload,
each in its own process. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result (with `all`, one
line per workload, each tagged with its name). Exits non-zero if the build
fails or any correctness check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["onboard", "hashkey", "durable"]


def main(argv):
    args = list(argv)
    try:
        workload = args[args.index("--workload") + 1]
    except (ValueError, IndexError):
        print("run.py: --workload is required", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    store = os.path.join(target, "perfbench-store")

    def run(name):
        rest = list(args)
        rest[rest.index("--workload") + 1] = name
        proc = subprocess.run([binary, *rest, "--store", store],
                              stdout=subprocess.PIPE, text=True, env=env)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, (lines[-1] if lines else None)

    if workload != "all":
        code, line = run(workload)
        if line is not None:
            print(line)
        return code
    worst = 0
    for name in WORKLOADS:
        code, line = run(name)
        if line is not None:
            result = json.loads(line)
            print(json.dumps({"workload": name, **result}))
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
