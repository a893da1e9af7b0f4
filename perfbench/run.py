#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload fig7_large --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; build output goes to stderr, so the last line of stdout is
the driver's JSON result. A traced run (--trace 1) also writes its spans to
<build dir>/spans/<workload>.jsonl. The exit code is the driver's, or 1
when the build fails.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: pathlib.Path) -> bool:
    steps = []
    # A failed configure leaves a cache behind but no build system.
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "csr_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main() -> int:
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "run"
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans", str(spans / f"{workload}.jsonl")]
    try:
        proc = subprocess.run([str(out / "csr_perfbench"), *args],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
