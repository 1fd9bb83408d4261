#!/usr/bin/env python3
"""Build and run the plinger++ spectrum benchmark.

    python3 perfbench/run.py --workload los_lcdm --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout.  It configures perfbench/CMakeLists.txt
(the src/ libraries plus the perfbench driver) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset, builds it, and runs one workload.  The driver's last stdout line
is the JSON result; this script passes it through unchanged and exits
with the driver's code.

    python3 perfbench/run.py --regen-reference [--workload NAME]

recomputes the committed reference spectra in perfbench/reference/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON line.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny l_max; references computed in-process")
    ap.add_argument("--regen-reference", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    build(out)
    exe = out / "perfbench"
    if args.regen_reference:
        cmd = [str(exe), "--regen-reference", str(BENCH / "reference")]
        if args.workload:
            cmd += ["--workload", args.workload]
        sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)
    if not args.workload:
        ap.error("--workload is required")

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo-root", str(ROOT), "--work-dir", str(out / "work" / tag)]
    if args.trace:
        (out / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(out / "spans" / (tag + ".json"))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
