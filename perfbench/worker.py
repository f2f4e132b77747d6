"""One benchmark worker: a fresh process that solves one group of inputs.

Reads a job ``{"src": ..., "inputs": [...], "trace": bool}`` as JSON on stdin
and writes one JSON object on stdout: set-up time, wall time, peak RSS, one
record per solve (latency next to the accuracy it bought), and, when traced,
the spans and per-layer totals.  Solves run one at a time in this process;
the parent starts one worker per group so that set-up and memory belong to
the workload.

Usage: ``python3 perfbench/worker.py < job.json`` with ``src`` on PYTHONPATH.
"""
from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans

# laneps, numpy and workloads (which imports numpy) are imported inside the
# functions, so that main can time their import as the worker's set-up.

HERE = Path(__file__).resolve().parent
#: speed_probe takes this long at the reference machine speed (the faster of
#: the two speeds seen on a shared 2-CPU x86-64 host, numpy 2.4 with
#: OpenBLAS).  Such machines switch between speeds up to 2x apart, for a
#: fraction of a second to many seconds at a time.  So a probe runs before
#: every solve and after the last one, and each solve is also reported scaled
#: to this speed by the mean of the two probes around it.
PROBE_REF_S = 1.2e-3
#: python_probe takes this long at the reference speed.  It brackets the
#: set-up, which runs before numpy is loaded.
SETUP_PROBE_REF_S = 1.4e-3
#: Sweep and large-n inputs pass when error <= max(10 * seed error, this floor),
#: the rule of `laneps check`.
CHECK_FLOOR = 1e-12


def load_reference() -> dict:
    return json.loads((HERE / "reference_errors.json").read_text(encoding="utf-8"))


def prepare(item: dict, reference: dict, tracer=None) -> dict:
    """Everything one solve needs, built before the clock starts."""
    import numpy as np
    import laneps
    import workloads

    if item["source"] == "registry":
        case = laneps.get_example(item["example"])
        ref = reference[item["id"]]
        prob = dict(spec=case.spec, exact=case.exact, points=case.lattice(),
                    tol_mae=max(10.0 * ref["mae"], CHECK_FLOOR),
                    tol_ae_b=max(10.0 * ref["ae_b"], CHECK_FLOOR))
    else:
        _, build, tol = workloads.FAMILIES[item["family"]]
        prob = dict(tol_mae=tol, tol_ae_b=tol)
        if item["source"] == "config":
            prob["text"] = item["text"]
        else:
            kwargs, exact = build(item["params"])
            spec = laneps.ProblemSpec(**kwargs)
            prob.update(spec=spec, exact=exact,
                        points=np.linspace(0.0, spec.b, workloads.PARAM_LATTICE))
    prob.update(id=item["id"], n=item["n"], alpha=item["alpha"])
    if tracer is not None and "spec" in prob:
        prob["spec"] = traced_spec(prob["spec"], tracer)
    return prob


def traced_spec(spec, tracer):
    """The spec with its f and dfdy callables recording spans."""
    changes = {}
    if spec.f is not None:
        changes["f"] = tracer.wrap("solver.f", spec.f)
    if spec.dfdy is not None:
        changes["dfdy"] = tracer.wrap("solver.dfdy", spec.dfdy)
    return dataclasses.replace(spec, **changes)


def solve_one(prob: dict, tracer=None) -> dict:
    """One solve: solve_problem, the report on the lattice and the error check.

    A solve that raises or misses its tolerance comes back with ``ok`` false;
    ``error`` is set only when it raised.  ``ms`` excludes parsing config
    text, which ``parse_ms`` holds.
    """
    import numpy as np
    from laneps import cli, config, solver

    spec, n, alpha = prob.get("spec"), prob["n"], prob["alpha"]
    exact, points = prob.get("exact"), prob.get("points")
    begin = time.perf_counter()
    if "text" in prob:
        cfg = config.parse_config_text(prob["text"])
        spec, exact, n, alpha = cfg.to_spec(), cfg.exact, cfg.n, cfg.alpha
        points = np.linspace(0.0, spec.b, cfg.eval_points)
        if tracer is not None:
            spec = traced_spec(spec, tracer)
    start = time.perf_counter()
    record = {"id": prob["id"], "n": n, "alpha": alpha, "kind": spec.kind,
              "parse_ms": 1e3 * (start - begin)}
    try:
        with tracer.span("solve") if tracer is not None else nullcontext():
            result = solver.solve_problem(spec, n, alpha)
            report = cli.build_report(spec, n, alpha, result, points, exact)
            ok = report.mae <= prob["tol_mae"] and report.ae_b <= prob["tol_ae_b"]
    except Exception as err:  # a failed solve is a measured outcome, not a crash
        record.update(ms=1e3 * (time.perf_counter() - start), ok=False,
                      error=f"{type(err).__name__}: {err}")
        return record
    record.update(
        ms=1e3 * (time.perf_counter() - start), ok=bool(ok), error=None,
        mae=report.mae, ae_b=report.ae_b, tol_mae=prob["tol_mae"],
        kappa_inf=report.kappa_inf, newton_iters=report.newton_iters,
    )
    return record


def speed_probe(x, a) -> float:
    """Seconds for a fixed piece of harness work: a three-term recurrence on
    ``x`` in a Python loop and one product ``a @ a``, the two kinds of work
    the solver does.  It measures how fast the machine runs right now."""
    start = time.perf_counter()
    g_prev, g = x * 0.0 + 1.0, x.copy()
    for k in range(1, 300):
        g_prev, g = g, (2.0 * (k + 0.5) * x * g - k * g_prev) / (k + 1.0)
    a @ a
    return time.perf_counter() - start


def python_probe() -> float:
    """Seconds for a fixed pure-Python loop, the speed probe of the set-up."""
    start = time.perf_counter()
    total = 0
    for k in range(20000):
        total += k * k % 7
    return time.perf_counter() - start


def speed_scales(probes: list[float]) -> list[float]:
    """PROBE_REF_S over the mean of the probes before and after each solve."""
    return [2.0 * PROBE_REF_S / (before + after) for before, after in zip(probes, probes[1:])]


def run_inputs(probs: list, tracer=None) -> list[dict]:
    """Solve one input after another, probing machine speed between solves.

    Each record gets ``scale``, the factor that takes its times to the
    reference machine speed, and ``ms_ref``, its solve time at that speed.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 65)
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    probes, records = [], []
    for solve_id, prob in enumerate(probs):
        probes.append(speed_probe(x, a))
        if tracer is not None:
            tracer.solve_id = solve_id
        records.append(solve_one(prob, tracer))
    probes.append(speed_probe(x, a))
    for record, scale in zip(records, speed_scales(probes)):
        record.update(scale=scale, ms_ref=record["ms"] * scale)
    return records


class _ModuleView:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_tracing(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from laneps import basis, cli, config, expressions, quadrature, solver

    def span(name, tag=None):
        return lambda fn: tracer.wrap(name, fn, tag)

    tracer.patch(basis, "node_polynomial", lambda fn: tracer.count("basis.node_polynomial", fn))
    tracer.patch(basis, "gauss_radau_nodes", span("basis.nodes"))
    tracer.patch(basis, "christoffel_weights", span("basis.weights"))
    tracer.patch(quadrature, "standard_nodeset",
                 span("basis.nodeset", lambda cfg: [cfg.alpha, cfg.n]))
    tracer.patch(quadrature, "build_q1", span("quadrature.q1", lambda nodeset: nodeset.n))
    tracer.patch(quadrature, "shift_operators", span("quadrature.shift"))
    tracer.patch(quadrature, "interpolation_matrix", span("quadrature.interp"))
    tracer.patch(solver, "build_operators", span("quadrature.operators"))
    tracer.patch(solver, "solve", span("solver.solve"))
    tracer.patch(solver.SolverResult, "evaluate", span("solver.evaluate"))
    tracer.patch(cli, "build_report", span("cli.report"))
    tracer.patch(config, "parse_config_text", span("config.parse"))
    tracer.patch(expressions.Expression, "__call__", span("expressions.eval"))
    linalg = {name: tracer.wrap(f"solver.linalg.{name}", getattr(solver.np.linalg, name))
              for name in ("solve", "inv", "lstsq")}
    tracer.patch(solver, "np", lambda np: _ModuleView(np, linalg=_ModuleView(np.linalg, **linalg)))


def layer_totals(tracer, records: list[dict]) -> dict:
    """Per-layer quantities of this worker that add up across workers.

    Times are scaled to the reference machine speed like the solve times.
    """
    layers = spans.summarize(tracer.spans, [r["scale"] for r in records])

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    nodesets = [tuple(tag) for tag in get("basis.nodeset", "tags") or []]
    totals = {
        "basis.nodes.calls": get("basis.nodes", "calls"),
        "basis.nodes.self_ms": get("basis.nodes", "self_ms"),
        "basis.node_polynomial.calls": tracer.counts["basis.node_polynomial"],
        "basis.weights.self_ms": get("basis.weights", "self_ms"),
        "basis.nodeset.calls": len(nodesets),
        "basis.nodeset.distinct": len(set(nodesets)),
        "quadrature.q1.self_ms": get("quadrature.q1", "self_ms"),
        "quadrature.q1.gflop_computed": sum(
            2 * (n + 1) ** 3 for n in get("quadrature.q1", "tags") or []) / 1e9,
        "quadrature.shift.self_ms": get("quadrature.shift", "self_ms"),
        "quadrature.interp.calls": get("quadrature.interp", "calls"),
        "quadrature.interp.self_ms": get("quadrature.interp", "self_ms"),
        "solver.assembly.self_ms": get("solver.solve", "self_ms"),
        "solver.newton.iters": sum(r.get("newton_iters") or 0 for r in records),
        "solver.f.calls": get("solver.f", "calls"),
        "solver.f.self_ms": get("solver.f", "self_ms"),
        "solver.dfdy.calls": get("solver.dfdy", "calls"),
        "config.parse.self_ms": get("config.parse", "self_ms"),
        "expressions.eval.calls": get("expressions.eval", "calls"),
        "expressions.eval.self_ms": get("expressions.eval", "self_ms"),
        "cli.report.self_ms": get("cli.report", "self_ms"),
    }
    for name in ("solve", "inv", "lstsq"):
        totals[f"solver.linalg.{name}.calls"] = get(f"solver.linalg.{name}", "calls")
        totals[f"solver.linalg.{name}.ms"] = get(f"solver.linalg.{name}", "ms")
    return totals


def blas_info() -> dict:
    """BLAS library name and version, and the thread count it reports."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main() -> int:
    job = json.load(sys.stdin)
    before = python_probe()
    t0 = time.perf_counter()
    import laneps
    t1 = time.perf_counter()
    laneps.all_examples()
    t2 = time.perf_counter()
    setup_scale = 2.0 * SETUP_PROBE_REF_S / (before + python_probe())
    expected = Path(job["src"]).resolve() / "laneps"
    if Path(laneps.__file__).resolve().parent != expected:
        sys.stderr.write(f"laneps imported from {laneps.__file__}, expected {expected}\n")
        return 2

    import numpy as np

    tracer = spans.Tracer() if job["trace"] else None
    reference = load_reference()
    probs = [prepare(item, reference, tracer) for item in job["inputs"]]
    if tracer is not None:
        install_tracing(tracer)
    records = run_inputs(probs, tracer)
    out = {
        "setup_s": t2 - t0,
        "self_check_ms": 1e3 * (t2 - t1),
        "setup_scale": setup_scale,
        "wall_s": sum(r["parse_ms"] + r["ms"] for r in records) / 1e3,
        "wall_ref_s": sum((r["parse_ms"] + r["ms"]) * r["scale"] for r in records) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__, **blas_info()},
    }
    if tracer is not None:
        out["layers"] = layer_totals(tracer, records)
        out["spans"] = tracer.spans
        out["unpatched"] = tracer.missing
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
