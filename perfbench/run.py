#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
redspot libraries, the redspot-serve daemon and the perfbench program with
CMake under .bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild
incrementally. Workloads and metrics are listed in BENCHMARK.json; the
digests a run must reproduce are in perfbench/expected.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout need not
    be a git repository, so this stands in for the commit id)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a"


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "redspot_serve_cli"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no redspot sources next to perfbench/; run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    # Sockets and worker logs live in a private run directory; socket
    # names are relative to it so they stay short.
    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(build_dir, "redspot-serve")]
    digest = expected["digests"].get(args.workload, {}).get(str(args.seed))
    if digest:
        cmd += ["--expect-digest", digest]
    elif args.workload in expected["digests"]:
        warning = ("WARNING: seed %d has no recorded %s digest in "
                   "perfbench/expected.json, so its costs are UNCHECKED "
                   "against a reference; the run checks only that every "
                   "cycle repeats them" % (args.seed, args.workload))
        print("# " + warning)
        print("perfbench: " + warning, file=sys.stderr)

    print("# commit: " + git_commit())
    print("# source_sha256: " + source_digest())
    print("# held_out_seed: %d" % expected["held_out_seed"])
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # Reap anything the workload left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("workload printed no result (exit code %d)" % proc.returncode)
    key = "per_layer" if args.trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics do not match BENCHMARK.json %s: %s" %
             (key, sorted(set(got.items()) ^ set(want.items()))))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
