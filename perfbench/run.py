"""echotrain benchmark: one workload per call, each in its own process.

    python3 perfbench/run.py --workload optical_labels --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # seconds-scale self-test

With --trace 0 it prints the end-to-end metrics; with --trace 1 a traced run
gives the per-layer metrics.  Set-up time is the median over SETUP_SAMPLES
process starts, each scaled to the reference host speed by a calibration run
just before it (calibration.py).  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("acoustic_40khz", "optical_labels", "grad_audit")
SETUP_SAMPLES = 7


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, trace, *extra):
    """Run workload.py in a fresh process; returns its JSON record.

    setup_s is measured from just before the process is started to the start
    of its first timed op (both on the system-wide monotonic clock), and scaled
    by a calibration run just before the process is started."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    timeout = seconds + 120
    cal_ms = calibration.calibrate("python")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV}, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{workload} did not finish within {timeout} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_unscaled_s"] = record["t_ready"] - t_spawn
    record["setup_s"] = record["setup_unscaled_s"] * calibration.factor("python", cal_ms, cal_ms)
    record["log"] = lines[:-1]
    return record


def measure(workload, seed, seconds, trace, *extra):
    """One measured run plus, untraced, SETUP_SAMPLES - 1 set-up-only runs."""
    samples = []
    if not trace:
        samples = [spawn(workload, seed, seconds, 0, "--setup-only", *extra)
                   for _ in range(SETUP_SAMPLES - 1)]
    record = spawn(workload, seed, seconds, trace, *extra)
    samples.append(record)
    setups = [r["setup_s"] for r in samples]
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
    record["setup_samples_s"] = setups
    record["setup_unscaled_samples_s"] = [r["setup_unscaled_s"] for r in samples]
    return record


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record, trace):
    """Print the human-readable lines, save the record, return the result line."""
    units = declared_metrics(trace)
    for line in record["log"]:
        print(line)
    metrics = record["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(f"workload {record['workload']} seed {record['seed']} trace {trace}: "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name in units:
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{record['tail_pct']}, {record['ops_beyond_tail']} ops beyond)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in record["setup_samples_s"]) + ")"
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}{note}")
    print(f"  {'error_rate':<28} {record['error_rate']:>14.6g} ratio"
          f"  ({record['failed']}/{record['attempted']})")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / f"{record['workload']}-seed{record['seed']}-trace{trace}.json").write_text(
        json.dumps({k: v for k, v in record.items() if k != "log"}, indent=1))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def smoke():
    """Self-test: every declared metric is emitted with its unit, and the
    correctness gate trips on a corrupted adjoint and a perturbed reference."""
    checks = []
    for workload in ("smoke_train", "smoke_audit"):
        for trace in (0, 1):
            result = report(measure(workload, 0, 1.0, trace), trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            checks.append((f"{workload} trace {trace}: metrics and units as declared",
                           emitted == declared_metrics(trace) and result["correct"]))
    broken = spawn("smoke_audit", 0, 1.0, 0, "--break-adjoint")
    checks.append(("broken adjoint raises error_rate and fails the gate",
                   broken["error_rate"] > 0 and not broken["correct"]))
    corrupted = spawn("smoke_train", 0, 1.0, 0, "--break-backward")
    checks.append(("time-unreversed adjoint in training fails the training gate",
                   corrupted["failed"] > 0 and not corrupted["correct"]))
    perturbed = spawn("smoke_train", 0, 1.0, 0, "--perturb-reference", "1e-3")
    checks.append(("perturbed reference trajectory fails the training gate",
                   perturbed["failed"] > 0 and not perturbed["correct"]))
    for name, ok in checks:
        print(f"smoke {'PASS' if ok else 'FAIL'}: {name}")
    known = spawn("smoke_audit", 0, 1.0, 0, "--known-defect")
    print(f"smoke INFO: known defect (README.md): default-config grad_check seed "
          f"{known['seed']} passed={known['passed']}, max relative errors "
          + ", ".join(f"{b} {e:.2g}" for b, e, _ in known["entries"]))
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="echotrain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test instead")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "echotrain" / "__init__.py").is_file():
        print(f"error: no echotrain sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = report(measure(args.workload, args.seed, args.seconds, args.trace), args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
