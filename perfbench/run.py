#!/usr/bin/env python3
r"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ram256_grade --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Builds the fmossim library from ../src and the
benchmark program in this directory (Release, under $CARGO_TARGET_DIR or .bench_build),
then runs one workload. All build output goes to stderr; the program's stdout
passes through unchanged, so its last line is the JSON result. Exits nonzero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ram256_grade", "stream_spill", "serve_open")
RUN_TIMEOUT_S = 170


def build(here: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(here), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "api" / "engine.hpp").is_file():
        sys.exit(f"run.py: fmossim sources not found under {root / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(here, target / "perfbench")
    run_dir = target / "run"
    run_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", os.path.relpath(run_dir, root)]
    # A terminated run.py must not leave the benchmark program running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
