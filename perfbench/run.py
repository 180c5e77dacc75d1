#!/usr/bin/env python3
"""Build the perfbench binary and run it.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

The binary is built once per invocation, before any timing, into the
build directory ($CARGO_TARGET_DIR, default .bench_build). Go's build
cache and config live there too, so nothing outside the checkout is read
or written. Arguments are passed to the binary unchanged; its exit code is
this script's. A failed build exits 2 and prints no result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary bounds its own run; this only stops a hung one.
RUN_TIMEOUT_S = 170


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build, exist_ok=True)
    exe = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    b = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] and "--spans" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--spans", os.path.join(build, "spans-%s.json" % workload)]
    try:
        r = subprocess.run([exe] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
