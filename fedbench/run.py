#!/usr/bin/env python3
"""Federation benchmark: builds fedbench against libsubfed and runs one workload.

Usage, from the repository root:

    python3 fedbench/run.py --workload hybrid_cifar --seed 1 --seconds 30 --trace 0

Workloads: hybrid_cifar, dense_fedavg, wide_cohort (see fedbench/WORKLOADS.md).
--seconds buys one repetition of the workload's federation per 15 s, two at
least. --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. Every report line of the program (metric name, value,
unit and sample count; correctness checks; the model digest) is echoed, then
whether the digest matches the one fedbench/digests.json records for this
seed. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when the build succeeded, every correctness check
passed and every declared metric was reported. The program is built under
$CARGO_TARGET_DIR/fedbench (default .bench_build/fedbench). --tiny shrinks the
workload for the benchmark's own tests (fedbench/test_fedbench.py) and
--force-digest-mismatch corrupts one repetition's digest to prove the check.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
WORKLOADS = ("hybrid_cifar", "dense_fedavg", "wide_cohort")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(env):
    """Configures (once) and builds the fedbench target; returns the binary."""
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "fedbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "fedbench",
                  "-j", str(cpu_count())])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return build_dir / "fedbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def reference_digest(workload, seed):
    """The final-model digest recorded for (workload, seed), or None."""
    path = HERE / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def parse_report(lines):
    metrics, checks, ops, digest = {}, [], None, None
    for line in lines:
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "digest":
            digest = fields[1]
        elif fields[0] == "metric" and len(fields) >= 5:
            metrics[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif fields[0] == "check" and len(fields) >= 3:
            checks.append((fields[1], fields[2] == "ok"))
        elif fields[0] == "ops":
            ops = {k: int(v) for k, v in (f.split("=") for f in fields[1:])}
    return metrics, checks, ops, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--force-digest-mismatch", action="store_true")
    args = parser.parse_args()

    # The library reads its knobs from SUBFEDAVG_* variables; the benchmark
    # passes none but the pool size (nproc - 1 workers plus the caller), so
    # every other setting comes from this command line.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBFEDAVG_")}
    env["SUBFEDAVG_THREADS"] = str(max(1, cpu_count() - 1))

    try:
        binary = build(env)
    except (OSError, RuntimeError) as err:
        log("fedbench: build failed:", err)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.force_digest_mismatch:
        cmd.append("--force-digest-mismatch")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("fedbench: timed out after", TIMEOUT_S, "s")
        return 1

    lines = out.splitlines()
    for line in lines:
        print(line)
    metrics, checks, ops, digest = parse_report(lines)
    if ops is None:
        log("fedbench: program exited with", proc.returncode, "before reporting")
        return 1
    # Informational: whether this seed's final model is bit-identical to the
    # one recorded in fedbench/digests.json (arithmetic unchanged or altered).
    reference = None if args.tiny else reference_digest(args.workload, args.seed)
    if reference is None:
        print("digest_reference unrecorded")
    else:
        print("digest_reference", "match" if reference == digest else "differ", reference)

    failed, attempted = ops["failed"], ops["attempted"]
    reported = {}
    for entry in declared_metrics(args.trace):
        name = entry["name"]
        attempted += 1
        if name not in metrics or metrics[name]["unit"] != entry["unit"]:
            log("fedbench: metric missing or in the wrong unit:", name)
            failed += 1
            continue
        reported[name] = metrics[name]
    correct = proc.returncode == 0 and failed == 0 and all(ok for _, ok in checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
