#!/usr/bin/env python3
"""Repository benchmark: build iatbench from source, run one workload,
check the simulated outputs, print the metrics.

    python3 perfbench/run.py --workload agg-exact --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/iatbench (default .bench_build/iatbench); spans,
digests and stream files go to <build>/out. With --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json, with --trace 1 the
per-layer ones. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Correctness: every leg of a run with the same world seed simulates the
same window, so those legs must reach the same simulated-output digest.
For the default seed each digest must equal the one committed in
perfbench/expected.json; for any other seed the legs of one world seed
must agree with each other, and the seed-free
invariants (NIC offered load against the configured rate, tx <= rx,
fabric conservation) must hold. LLC replay mismatches and the traced
run's one-call stepping check count as failures too.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build iatbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "iatbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(build_dir), "--target", "iatbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "iatbench", build_dir / "out"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {names})")
    if not 0 <= args.seed < 2 ** 63:
        fail("--seed must be in [0, 2^63)")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    expected = json.loads((HERE / "expected.json").read_text())

    binary, out_dir = build()
    # Keep the measured process off the lowest CPU, where the kernel
    # and other processes tend to run; on a 4-vCPU VM that made the
    # cluster's run-to-run spread and set-up time markedly steadier.
    # The child inherits the mask.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 3:
        os.sched_setaffinity(0, cpus[1:])
    # The generated configuration: the world seed. Everything else
    # about a workload is fixed by its name.
    cmd = [str(binary), f"--workload={args.workload}",
           f"--world-seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={out_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"iatbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"iatbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    # A run may cycle its legs through several world seeds; legs are
    # compared per world seed.
    legs = result["legs"]
    committed = expected.get(args.workload, {})
    first = {}
    bad_legs = 0
    for i, leg in enumerate(legs):
        ws = str(leg["world_seed"])
        if args.seed == DEFAULT_SEED:
            ref = committed.get(ws)
            if ref is None:
                fail(f"no committed digest for {args.workload} "
                     f"world seed {ws}")
        else:
            ref = first.setdefault(ws, leg["digest"])
        why = leg["invariant_error"]
        if leg["digest"] != ref:
            why = f"world seed {ws}: digest {leg['digest']} != {ref}"
        if why:
            bad_legs += 1
            print(f"FAILED leg {i}: {why}")
    for err in result["check_errors"]:
        print(f"FAILED check: {err}")
    if result["ops_failed"]:
        print(f"FAILED: {result['ops_failed']} LLC replay verdicts "
              f"differ from the recording")
    print(f"{'failed_leg_ratio':<32} {bad_legs / len(legs):16.6g} "
          f"{'ratio':<8} (n={len(legs)})")

    attempted = len(legs) + result["checks"] + result["ops_checked"]
    failed = bad_legs + len(result["check_errors"]) + result["ops_failed"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"iatbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
