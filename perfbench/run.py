#!/usr/bin/env python3
"""Host-time benchmark of the vidur simulator (workloads and metrics are
listed in BENCHMARK.json at the repository root).

Builds perfbench/ -- the repository's `vidur` library plus the
`vidur_perfbench` binary -- with CMake into $CARGO_TARGET_DIR (default
.bench_build), then runs the requested workload in its own process and
relays its standard output. The last line is the JSON result; the exit code
is non-zero when the build fails or any timed pass fails its output check.

    python3 perfbench/run.py --workload fleet_chat --seed 1 --seconds 20 --trace 0

--trace 1 reports the per-layer metrics and writes the host-time spans to
<build dir>/spans-<workload>-seed<seed>.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fleet_chat", "session_chaos", "search")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark (a no-op after the first run);
    returns the binary path. Build output goes to stderr so stdout stays
    the benchmark's own."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "-j", jobs]):
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "vidur_perfbench")


def git_sha():
    # Only a checkout with its own .git: never search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("digest", "conservation"),
                        help="corrupt every timed pass (self-test of the "
                             "output checks; see test_checks.py)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    print(f'meta {{"git_sha": "{git_sha()}"}}', flush=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-dir", build_dir()]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
