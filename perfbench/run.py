#!/usr/bin/env python3
"""Benchmark for duorec: three workloads, end to end and per module.

Run one workload (what ``BENCHMARK.json`` names) from the repository root:

    python3 perfbench/run.py --workload train_ml1m_duo --seed 1 --seconds 30 --trace 0

or every workload in turn, each in its own fresh process:

    python3 perfbench/run.py --workload all

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it first repeats the untraced run in a child process, then traces one set-up
and one sample of every phase and reports the per-module metrics, the
tracing overhead and each autodiff op's share of step time. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Per-run details (machine, phase
samples, output digests, spans) go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

# One process, one BLAS thread: the box is shared and small matmuls gain
# nothing from a second thread (measured 26.7 s vs 27.3 s for one epoch of
# train_ml1m_duo on 2 cores). Must be set before NumPy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train_ml1m_duo", "c5_sweep", "offline_ml1m")

# ROADMAP open item 1: cProfile shares of one duo step on the ml1m-like shape.
CPROFILE_BASELINE = {
    "gelu": "~25% (fwd+bwd)",
    "matmul": "15-19% (bwd)",
    "accumulate": "~12% (np.array copies)",
    "layer_norm": "~12% (fwd+bwd)",
    "dropout": "~11% (fwd+bwd, incl. Philox)",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Load duorec from this checkout's ``src``; never from anywhere else."""
    if not (SRC / "duorec" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/duorec not found; run from a duorec checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import duorec

    if Path(duorec.__file__).resolve().parent != SRC / "duorec":
        raise SystemExit(f"error: imported duorec from {duorec.__file__}, not {SRC}")


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:   # older NumPy has no dict mode; the name stays unknown
        pass
    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "processes": 1,
    }


def _result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    """Run one workload in a fresh process; returns its output lines and result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        lines.append(f"error: {workload} exited {proc.returncode}: {proc.stderr.strip()}")
    return lines, result


def cross_check(tracer, expect) -> list[str]:
    """Traced counts against the work the inputs fix; returns the mismatches."""
    m = tracer.per_layer()
    backward_calls = sum(1 for s in tracer.spans if s[0] == "autodiff.backward")
    pairs = {
        "data.batches": (m["data.batches"], expect.batches),
        "data.examples": (m["data.examples"], expect.examples),
        "trainer.steps": (m["trainer.steps"], expect.batches),
        "encoder.passes": (m["encoder.passes"], expect.passes),
        "encoder.rows_encoded": (m["encoder.rows_encoded"], expect.rows),
        "metrics.ranked_users": (m["metrics.ranked_users"], expect.ranked),
        "metrics.jacobi_calls": (m["metrics.jacobi_calls"], 2 * expect.diagnoses),
        "autodiff.gelu.calls": (m["autodiff.gelu.calls"], expect.layer_passes),
        "autodiff.softmax_rows.calls": (m["autodiff.softmax_rows.calls"], expect.layer_passes),
        "autodiff.layer_norm.calls": (m["autodiff.layer_norm.calls"], 2 * expect.layer_passes),
        "autodiff.cross_entropy_from_logits.calls": (
            m["autodiff.cross_entropy_from_logits.calls"], expect.batches + expect.probes),
        "autodiff.backward calls": (backward_calls, expect.batches + expect.probes),
    }
    return [f"{k}: traced {got} != expected {want}"
            for k, (got, want) in pairs.items() if got != want]


def run_one(args) -> int:
    import tracer as tracing
    import workloads

    from checks import CheckFailed

    machine = machine_info()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"

    untraced = None
    if args.trace:
        # seconds=0: the untraced twin samples each phase once, like the traced run
        lines, untraced = _child(args.workload, args.seed, 0, 0)
        print(*(f"untraced| {line}" for line in lines[:-1]), sep="\n")

    tracer = tracing.Tracer() if args.trace else None
    wrun = workloads.WorkloadRun(workloads.SPECS[args.workload], work, args.seed, tracer)
    error, e2e = None, {}
    if tracer is not None:
        tracer.install()
    try:
        e2e = wrun.run(args.seconds, traced=tracer is not None)
    except CheckFailed as exc:
        error = str(exc)
    except Exception:   # the program raised: report it as a failed run
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    failed = wrun.failed
    if error is not None:
        failed = max(failed, 1)
        print(f"FAILED: {error}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "error": error,
              "attempted": wrun.attempted, "failed": failed,
              "end_to_end": e2e, "digests": wrun.digests, "notes": wrun.notes}

    units = dict(workloads.END_TO_END_UNITS)
    for name, value in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if "calibration_mean_s" in wrun.notes:
        how = (f"timings reported at {workloads.CAL_NOMINAL_S * 1e3:g} ms" if wrun.notes["calibrated"]
               else "timings reported as measured")
        print(f"calibration: {wrun.notes['calibration_mean_s'] * 1e3:.3f} ms mean over "
              f"{len(wrun.notes['calibration_s'])} samples; {how}")
    for key, digest in sorted(wrun.digests.items()):
        if not key.startswith("setup/"):
            print(f"sha256 {key} {digest}")
    metrics = e2e

    if tracer is not None:
        per_layer = tracer.per_layer()
        mismatches = cross_check(tracer, wrun.expect) if error is None else []
        if mismatches:
            failed = max(failed, 1)
            error = "count cross-check failed: " + "; ".join(mismatches)
            print(f"FAILED: {error}")
        overhead = {}
        if untraced is not None and untraced.get("correct"):
            for name, value in e2e.items():
                base = untraced["metrics"][name]["value"]
                overhead[name] = {"traced": value, "untraced": base, "diff": value - base,
                                  "rel": (value - base) / base if base else None}
                print(f"overhead {name}: traced {value:.6g} - untraced {base:.6g} "
                      f"= {value - base:+.6g} {units[name]} ({(value - base) / base:+.1%})")
        elif untraced is not None:
            error = error or "untraced child run failed"
            failed = max(failed, 1)
        shares = tracer.op_shares()
        for op, share in sorted(shares.items(), key=lambda kv: -sum(kv[1].values())):
            base = CPROFILE_BASELINE.get(op, "")
            print(f"step share {args.workload} autodiff.{op}: {sum(share.values()):.1%}"
                  f" (fwd {share['fwd']:.1%} + bwd {share['bwd']:.1%})"
                  + (f"   cProfile baseline {base}" if base else ""))
        for name in tracing.per_layer_names():
            print(f"{args.workload} {name} = {per_layer[name]:.6g} {tracing.unit_of(name)}")
        tracer.dump(results_dir / f"{tag}.spans.json")
        report |= {"per_layer": per_layer, "overhead": overhead, "op_step_shares": shares,
                   "cprofile_baseline": CPROFILE_BASELINE, "failed": failed,
                   "error": error}
        metrics = per_layer
        units = {name: tracing.unit_of(name) for name in per_layer}

    (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    correct = error is None
    print(_result_line(correct, max(wrun.attempted, 1), failed, metrics, units))
    return 0 if correct else 1


def run_all(args) -> int:
    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        lines, result = _child(workload, args.seed, args.seconds, args.trace)
        print(*lines[:-1], sep="\n")
        combined[workload] = result["metrics"]
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= bool(result["correct"])
    print("\nworkload         metric                       value        unit")
    for workload, metrics in combined.items():
        for name, m in metrics.items():
            print(f"{workload:16} {name:28} {m['value']:<12.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
