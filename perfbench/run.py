#!/usr/bin/env python3
"""SHATTER benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark crate in
`perfbench/` (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload in a child process, checks
that the metrics it printed are exactly the ones `BENCHMARK.json`
names, with their units, and prints:

  1. the benchmark's detail line (problems, sample counts, exact counts),
  2. a host line (nproc, CPU model, rustc version, commit or source
     digest, program environment variables that were cleared),
  3. the result line `{"correct", "attempted", "failed", "metrics"}`.

Exits non-zero without a result line when the build, the run or the
metric check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Environment variables the program reads. A stray one would silently
# change what is measured, so they are cleared for the child and
# recorded in the host line. Keep in sync with PROGRAM_ENV in src/lib.rs.
PROGRAM_ENV = [
    "SHATTER_EXACT_SIMPLEX",
    "SHATTER_BUDGET",
    "SHATTER_PORTFOLIO",
    "SHATTER_PORTFOLIO_HARD",
    "SHATTER_FAULTS",
    "SHATTER_STORE",
    "SHATTER_CACHE_MB",
]

# Seconds the child may take before it is killed; the whole invocation
# must end within 180 s.
CHILD_TIMEOUT = 170

# Paths whose contents make up the measured program and the benchmark.
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_files(top):
    base = ROOT / top
    if base.is_file():
        return [base]
    return sorted(
        p for p in base.rglob("*")
        if p.is_file() and not SKIP_DIRS.intersection(p.relative_to(ROOT).parts)
    )


def source_digest():
    """SHA-256 over the paths and bytes of every source file, so results
    from checkouts that are not git repositories still name their code."""
    h = hashlib.sha256()
    for top in SOURCE_PATHS:
        for p in source_files(top):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def host_facts(cleared):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        # Only this checkout's own repository names the commit.
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
        "cleared_env": cleared,
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600", 2)

    want, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json names {workloads}", 2)

    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in PROGRAM_ENV if k in env}
    if cleared:
        print(f"run.py: cleared program environment {sorted(cleared)}", file=sys.stderr)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    scratch = target / "perfbench-scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    # Everything the program writes, temporary files included, stays in
    # the checkout.
    env["TMPDIR"] = str(scratch)
    spans = target / "perfbench-spans" / f"{args.workload}-seed{args.seed}.jsonl"
    argv = [
        str(target / "release" / "shatter-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(scratch),
        "--spans", str(spans),
    ]
    try:
        run = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {CHILD_TIMEOUT} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unnamed {extra}, units {units}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_facts(cleared)}))
    print(lines[-1])


if __name__ == "__main__":
    main()
