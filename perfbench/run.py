"""laneps benchmark: time to an accurate solve, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,param-study,large-n} \
        --seed N --seconds S --trace {0,1}

The run first passes `laneps check` (it refuses to report numbers
otherwise).  Then it repeats passes over the workload's seeded inputs until
S seconds have gone, and makes at least MIN_PASSES of them.  A pass starts
one fresh worker process per input group (see worker.py).  Each worker
solves one problem at a time and checks it against its closed form.  This is
a closed loop with one client, no extra threads, and BLAS threads set to the
number of usable CPUs.

All times (setup_s, wall_s, solve_ms_* and the per-layer *_ms) are scaled
to a reference machine speed.  Shared machines switch between speeds up to
2x apart, for a fraction of a second to many seconds at a time.  So a worker
runs a fixed 1-2 ms speed probe (worker.speed_probe) before every solve and
after the last, and scales each solve by PROBE_REF_S over the mean of the
probes around it; a pure-Python probe before and after the set-up scales
the set-up alike.  The raw times are printed beside the scaled ones and kept
in the results file.

With ``--trace 0`` the metrics are the end-to-end ones (END_TO_END).  With
``--trace 1``, passes alternate between traced and untraced workers, and the
metrics are the per-layer numbers of the traced passes (PER_LAYER).  Every
metric is printed with its unit.  The full record goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``: environment, every
solve with its latency and accuracy, and, for traced runs, the spans.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_PASSES = 3
#: The whole run, preflight included, stays below this many seconds.
RUN_LIMIT_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}

# Per-layer numbers are per pass (one input set).  What each should move:
#   basis.*                   a node algorithm: wall_s on sweep, solve_ms_* on
#                             every workload.  A basis cache: param-study and
#                             large-n only (new_frac 0.015 and 0.2), no change
#                             on sweep (new_frac 1).
#   quadrature.*              solve_ms_* on large-n; about 0 elsewhere.
#   solver.linalg.inv/lstsq   solve_ms_tail on large-n.
#   solver.newton.*, f, dfdy  solve_ms_p50 on param-study; ok_frac on large-n.
#   config.*, expressions.*   param-study only; 0 elsewhere.
#   registry.self_check.ms    setup_s everywhere.
#   cli.report.self_ms        wall_s on sweep.
#   trace.overhead_frac       nothing (traced / untraced wall_s - 1).
PER_LAYER = {
    "basis.nodes.calls": "count",
    "basis.nodes.self_ms": "ms",
    "basis.node_polynomial.calls": "count",
    "basis.weights.self_ms": "ms",
    "basis.nodeset.new_frac": "1",
    "quadrature.q1.self_ms": "ms",
    "quadrature.q1.gflop_computed": "GFLOP",
    "quadrature.shift.self_ms": "ms",
    "quadrature.interp.calls": "count",
    "quadrature.interp.self_ms": "ms",
    "solver.assembly.self_ms": "ms",
    "solver.linalg.solve.calls": "count",
    "solver.linalg.solve.ms": "ms",
    "solver.linalg.inv.calls": "count",
    "solver.linalg.inv.ms": "ms",
    "solver.linalg.lstsq.calls": "count",
    "solver.linalg.lstsq.ms": "ms",
    "solver.newton.iters": "count",
    "solver.f.calls": "count",
    "solver.dfdy.calls": "count",
    "solver.f.self_ms": "ms",
    "solver.newton.accept_ratio": "1",
    "config.parse.self_ms": "ms",
    "expressions.eval.calls": "count",
    "expressions.eval.self_ms": "ms",
    "registry.self_check.ms": "ms",
    "cli.report.self_ms": "ms",
    "trace.overhead_frac": "1",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce trustworthy numbers."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Environment for laneps processes: this checkout's source, BLAS threads = nproc."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def tail_percentile(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least TAIL_BEYOND samples above its nearest-rank value."""
    xs = sorted(values)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1], len(xs) - rank
    raise BenchError(f"{len(xs)} samples leave fewer than {TAIL_BEYOND} beyond the median")


def preflight(env: dict, timeout: float) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "laneps", "check"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"`laneps check` failed:\n{proc.stdout}{proc.stderr}")


def run_worker(group: list, traced: bool, env: dict, timeout: float) -> dict:
    job = json.dumps({"src": str(SRC), "inputs": group, "trace": traced})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=job, cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def outcome(passes: list) -> dict:
    """Attempted and failed solves; correct unless a returned solve missed its tolerance."""
    records = [r for p in passes for w in p["workers"] for r in w["records"]]
    failed = sum(not r["ok"] for r in records)
    wrong = [r["id"] for r in records if not r["ok"] and r["error"] is None]
    return {"attempted": len(records), "failed": failed, "correct": not wrong,
            "wrong": sorted(set(wrong)),
            "errors": sorted({f"{r['id']}: {r['error']}" for r in records if r["error"]})}


def end_to_end(passes: list, largest_n: int) -> tuple[dict, dict]:
    """The END_TO_END values, and the samples and raw times behind them."""
    workers = [w for p in passes for w in p["workers"]]
    records = [r for w in workers for r in w["records"]]
    latest = [r for r in records if r["n"] == largest_n]
    latencies = [r["ms_ref"] for r in latest]
    pct, tail, beyond = tail_percentile(latencies)
    failed = sum(not r["ok"] for r in records)

    def pass_wall(key):
        return statistics.median(sum(w[key] for w in p["workers"]) for p in passes)

    values = {
        "setup_s": statistics.median(w["setup_s"] * w["setup_scale"] for w in workers),
        "wall_s": pass_wall("wall_ref_s"),
        "solve_ms_p50": statistics.median(latencies),
        "solve_ms_tail": tail,
        "ok_frac": 1.0 - failed / len(records),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    basis = {
        "passes": len(passes), "workers": len(workers), "solves": len(records),
        "latency_n": largest_n, "latency_samples": len(latencies),
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "failed": failed, "fail_frac": failed / len(records),
        "raw_setup_s": statistics.median(w["setup_s"] for w in workers),
        "raw_wall_s": pass_wall("wall_s"),
        "raw_solve_ms_p50": statistics.median(r["ms"] for r in latest),
        "raw_solve_ms_tail": tail_percentile([r["ms"] for r in latest])[1],
        "speed_scale": statistics.median(r["scale"] for r in records),
    }
    return values, basis


def per_layer(passes: list) -> dict:
    """Median over traced passes of each PER_LAYER number, summed over a pass's workers.

    The lower median keeps counts whole when the number of passes is even.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        sums: dict = {}
        for w in p["workers"]:
            for name, value in w["layers"].items():
                sums[name] = sums.get(name, 0) + value
        sums["basis.nodeset.new_frac"] = (
            sums["basis.nodeset.distinct"] / sums["basis.nodeset.calls"]
            if sums["basis.nodeset.calls"] else 0.0)
        sums["solver.newton.accept_ratio"] = (
            sums["solver.newton.iters"] / sums["solver.f.calls"] if sums["solver.f.calls"] else 0.0)
        per_pass.append(sums)
    values = {name: statistics.median_low(s[name] for s in per_pass)
              for name in PER_LAYER if name in per_pass[0]}
    values["registry.self_check.ms"] = statistics.median(
        w["self_check_ms"] * w["setup_scale"] for p in passes for w in p["workers"])

    def wall(group):
        return statistics.median(sum(w["wall_ref_s"] for w in p["workers"]) for p in group)

    values["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_start = time.perf_counter()
    if not (SRC / "laneps" / "__init__.py").is_file():
        raise BenchError(f"no laneps package under {SRC}")
    env = worker_env()
    preflight(env, RUN_LIMIT_S)
    groups = workloads.inputs(workload, seed)
    passes: list = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        workers = []
        for group in groups:
            remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
            if remaining <= 0:
                raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
            workers.append(run_worker(group, traced, env, remaining))
        passes.append({"traced": traced, "workers": workers})
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    e2e, basis = (None, None) if trace else end_to_end(passes, workloads.largest_n(workload))
    first = passes[0]["workers"][0]["env"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "measured_s": time.perf_counter() - start,
        "env": {"nproc": nproc(), "cpu_count": os.cpu_count(), **first,
                "blas_threads_env": env["OPENBLAS_NUM_THREADS"]},
        "outcome": outcome(passes),
        "end_to_end": e2e, "sample_basis": basis,
        "per_layer": per_layer(passes) if trace else None,
        "passes": [
            {"traced": p["traced"],
             "workers": [{k: w[k] for k in ("setup_s", "setup_scale", "self_check_ms", "wall_s",
                                            "wall_ref_s", "peak_rss_mb")}
                         for w in p["workers"]]}
            for p in passes
        ],
        "records": [dict(r, pass_index=i) for i, p in enumerate(passes)
                    for w in p["workers"] for r in w["records"]],
        "spans": [w["spans"] for p in passes for w in p["workers"] if p["traced"]],
        "unpatched": sorted({name for p in passes for w in p["workers"]
                             for name in w.get("unpatched", ())}),
    }


def report_lines(result: dict) -> list[str]:
    env, basis, e2e = result["env"], result["sample_basis"], result["end_to_end"]
    lines = [
        f"laneps benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={int(result['trace'])} passes={len(result['passes'])}",
        f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} blas_threads={env['blas_threads']}",
    ]
    for name, value in (result["per_layer"] or {}).items():
        lines.append(f"{name} = {value:.6g} {PER_LAYER[name]}")
    if e2e is not None:
        notes = {
            "setup_s": f"median of {basis['workers']} fresh workers; "
                       f"raw {basis['raw_setup_s']:.6g} s",
            "wall_s": f"median of {basis['passes']} passes; raw {basis['raw_wall_s']:.6g} s, "
                      f"median speed scale {basis['speed_scale']:.4g}",
            "solve_ms_p50": f"n={basis['latency_n']}, {basis['latency_samples']} solves; "
                            f"raw {basis['raw_solve_ms_p50']:.6g} ms",
            "solve_ms_tail": f"p{basis['tail_percentile']:g} of {basis['latency_samples']} "
                             f"solves, {basis['tail_samples_beyond']} beyond; "
                             f"raw {basis['raw_solve_ms_tail']:.6g} ms",
            "ok_frac": f"fail_frac={basis['fail_frac']:.6g} "
                       f"({basis['failed']} of {basis['solves']})",
            "peak_rss_mb": f"median of {basis['workers']} workers",
        }
        for name, unit in END_TO_END.items():
            lines.append(f"{name} = {e2e[name]:.6g} {unit}  ({notes[name]})")
    lines += [f"failed solve: {error}" for error in result["outcome"]["errors"]]
    lines += [f"solve outside tolerance: {name}" for name in result["outcome"]["wrong"]]
    if result["unpatched"]:
        lines.append("not traced (name absent): " + ", ".join(result["unpatched"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"benchmark refused: {err}\n")
        return 1
    for line in report_lines(result):
        print(line)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result), encoding="utf-8")
    print(f"results: {path.relative_to(ROOT)}")
    wanted = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    outcome_ = result["outcome"]
    print(json.dumps({
        "correct": outcome_["correct"], "attempted": outcome_["attempted"],
        "failed": outcome_["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
