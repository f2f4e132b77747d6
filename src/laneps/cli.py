"""Benchmark command line: built-in examples, sweeps, custom problems, checks.

Subcommands: ``example`` solves a registered case and reports per-point
errors; ``sweep`` scans an (n, alpha) grid to CSV; ``solve`` runs a problem
described by a key-value config file; ``nodes`` dumps quadrature abscissas
and weights; ``check`` runs the registry self-checks and reproduces the
stored reference error tables, each value next to the one it is checked
against.  Reports, sweeps and node dumps use 17 significant digits; ``check``
prints in the ``.4e`` format of the stored values.  Runs are fully
deterministic.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .basis import BasisConfig, RootFindingError, standard_nodeset
from .config import ConfigError, load_config
from .expressions import DomainEvalError, ExpressionError
from .registry import EXAMPLE_IDS, ExampleCase, RegistryError, all_examples, get_example
from .solver import NonlinearSolveError, ProblemSpec, SolverResult, solve_problem

__all__ = ["main"]

#: Relative errors switch to absolute reporting below this exact-value size.
_RE_TINY = 1e-13
#: Reference comparisons: measured <= max(10 * stored, this floor).
_REFERENCE_FLOOR = 1e-12
#: Most alpha values one sweep range may hold.
_MAX_ALPHAS = 10_000


def _fmt(value) -> str:
    return format(float(value), ".17g")


@dataclass
class Report:
    """Per-point errors plus summary diagnostics for one solve."""

    spec: ProblemSpec
    n: int
    alpha: float
    points: np.ndarray
    approx: np.ndarray
    exact_vals: np.ndarray | None
    abs_err: np.ndarray | None
    rel_err: np.ndarray | None
    rel_is_abs: np.ndarray | None
    mae: float | None
    ae_b: float | None
    kappa_inf: float | None
    newton_iters: int | None
    residual_max: float


def _eval_exact(exact_fn, points: np.ndarray) -> np.ndarray:
    values = np.asarray(exact_fn(points), dtype=float)
    return np.broadcast_to(values, points.shape).copy()


def build_report(
    spec: ProblemSpec,
    n: int,
    alpha: float,
    result: SolverResult,
    points,
    exact_fn=None,
) -> Report:
    """Evaluate the solve on the lattice and attach error columns if possible."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    approx = result.evaluate(points)
    exact_vals = abs_err = rel_err = rel_is_abs = None
    mae = ae_b = None
    if exact_fn is not None:
        exact_vals = _eval_exact(exact_fn, points)
        abs_err = np.abs(approx - exact_vals)
        rel_is_abs = (np.abs(exact_vals) < _RE_TINY) | (points == spec.b)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_err = np.where(rel_is_abs, abs_err, abs_err / np.abs(exact_vals))
        mae = float(abs_err.max())
        exact_b = float(_eval_exact(exact_fn, np.array([spec.b]))[0])
        ae_b = abs(float(result.y_nodes[0]) - exact_b)
    return Report(
        spec=spec,
        n=n,
        alpha=alpha,
        points=points,
        approx=approx,
        exact_vals=exact_vals,
        abs_err=abs_err,
        rel_err=rel_err,
        rel_is_abs=rel_is_abs,
        mae=mae,
        ae_b=ae_b,
        kappa_inf=result.kappa_inf,
        newton_iters=result.newton_iters,
        residual_max=float(np.abs(result.residual_nodes).max()),
    )


def _opt(value) -> str:
    """A report cell: empty when the value does not apply to this solve."""
    return "" if value is None else _fmt(value)


#: Per-point report columns, in the order of ``_point_cells``.
_POINT_COLUMNS = ("x", "y_exact", "y_approx", "abs_error", "rel_error")


def _point_cells(report: Report, i: int) -> list[str]:
    """The ``_POINT_COLUMNS`` cells of point ``i``; the exact-solution and
    error cells are empty when the problem has no exact solution."""
    columns = (report.points, report.exact_vals, report.approx, report.abs_err,
               report.rel_err)
    return [_opt(None if column is None else column[i]) for column in columns]


def _summary_cells(report: Report) -> list[str]:
    return [_opt(report.mae), _opt(report.ae_b), _opt(report.kappa_inf),
            _opt(report.newton_iters)]


def render_text(report: Report) -> str:
    """Human-readable report; deterministic for identical inputs."""
    spec = report.spec
    lines = [
        "problem: kind={} alpha1={} alpha2={} beta={} gamma={} delta={} b={}".format(
            spec.kind, _fmt(spec.alpha1), _fmt(spec.alpha2), _fmt(spec.beta),
            _fmt(spec.gamma), _fmt(spec.delta), _fmt(spec.b),
        ),
        f"basis: n={report.n} alpha={_fmt(report.alpha)}",
    ]
    width = 25
    if report.exact_vals is not None:
        lines.append("".join(title.rjust(width) for title in _POINT_COLUMNS) + "  flag")
        for i in range(len(report.points)):
            row = "".join(cell.rjust(width) for cell in _point_cells(report, i))
            lines.append(row + ("  ae" if report.rel_is_abs[i] else "  -"))
        lines.append(f"mae = {_fmt(report.mae)}")
        lines.append(f"ae_b = {_fmt(report.ae_b)}")
    else:
        lines.append("x".rjust(width) + "y_approx".rjust(width))
        for i in range(len(report.points)):
            lines.append("".join(cell.rjust(width) for cell in _point_cells(report, i) if cell))
    if report.kappa_inf is not None:
        lines.append(f"kappa_inf = {_fmt(report.kappa_inf)}")
    if report.newton_iters is not None:
        lines.append(f"newton_iters = {report.newton_iters}")
    lines.append(f"residual_max = {_fmt(report.residual_max)}")
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """CSV body: per-point columns plus repeated summary columns."""
    header = _POINT_COLUMNS + ("rel_is_abs", "mae", "ae_b", "kappa_inf", "newton_iters",
                               "residual_max")
    lines = [",".join(header)]
    summary = _summary_cells(report) + [_fmt(report.residual_max)]
    for i in range(len(report.points)):
        flag = "" if report.rel_is_abs is None else ("1" if report.rel_is_abs[i] else "0")
        lines.append(",".join(_point_cells(report, i) + [flag] + summary))
    return "\n".join(lines) + "\n"


def _solve_and_report(spec: ProblemSpec, n: int, alpha: float, points, exact_fn,
                      csv_path) -> int:
    result = solve_problem(spec, n, alpha)
    report = build_report(spec, n, alpha, result, points, exact_fn)
    sys.stdout.write(render_text(report))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_csv(report))
    return 0


def _cmd_example(args) -> int:
    case = get_example(args.id)
    return _solve_and_report(case.spec, args.n, args.alpha, case.lattice(), case.exact,
                             args.csv)


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.to_spec()
    points = np.linspace(0.0, spec.b, cfg.eval_points)
    return _solve_and_report(spec, cfg.n, cfg.alpha, points, cfg.exact, args.csv)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(token) for token in text.split(",") if token.strip()]
    except ValueError as err:
        raise ValueError(f"bad degree list {text!r}: {err}") from err
    if not values:
        raise ValueError("degree list is empty")
    return values


def _parse_alpha_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"alpha range must be start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ValueError(f"alpha range must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"alpha range step must be positive, got {step}")
    span = (stop - start) / step
    if span >= _MAX_ALPHAS:  # checked before any value is built
        raise ValueError(f"alpha range {text!r} holds more than {_MAX_ALPHAS} values")
    count = int(round(max(span, -1.0))) + 1
    values = [round(start + k * step, 12) for k in range(count)]
    values = [v for v in values if v <= stop + 1e-9]
    if not values:
        raise ValueError(f"alpha range {text!r} is empty")
    return values


def _cmd_sweep(args) -> int:
    case = get_example(args.id)
    ns = _parse_n_list(args.n)
    alphas = _parse_alpha_range(args.alpha_range)
    lines = ["n,alpha,mae,ae_b,kappa_inf,newton_iters,runtime_ms,status"]
    for n in sorted(set(ns)):
        for alpha in alphas:
            start = time.perf_counter()
            try:
                result, status = solve_problem(case.spec, n, alpha), "ok"
            except (NonlinearSolveError, RootFindingError, np.linalg.LinAlgError) as err:
                result, status = None, str(err).replace(",", ";").replace("\n", " ")
            runtime_ms = format(1000.0 * (time.perf_counter() - start), ".6f")
            cells = ["", "", "", ""] if result is None else _summary_cells(
                build_report(case.spec, n, alpha, result, case.lattice(), case.exact))
            lines.append(",".join([str(n), _fmt(alpha)] + cells + [runtime_ms, status]))
    with open(args.csv, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {len(lines) - 1} rows to {args.csv}\n")
    return 0


def _cmd_nodes(args) -> int:
    """The rule on [0, b]: nodes (b/2)(x + 1), weights scaled by (b/2)^(2 alpha)."""
    standard, b = standard_nodeset(BasisConfig(args.alpha, args.n)), args.b
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    if b <= 0:
        raise ValueError(f"interval length must be positive, got {b}")
    nodes = (b / 2.0) * (standard.nodes + 1.0)
    with np.errstate(over="ignore"):
        weights = np.float64(b / 2.0) ** (2.0 * standard.alpha) * standard.weights
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        raise ValueError(f"the weights on [0, {b!r}] leave the double range")
    sys.stdout.write("index,node,weight\n")
    for i, (node, weight) in enumerate(zip(nodes, weights)):
        sys.stdout.write(f"{i},{_fmt(node)},{_fmt(weight)}\n")
    return 0


def _compared(label: str, measured: float, stored: float) -> str:
    """One row of a reference comparison: its label, measured and stored value."""
    return f"{label:>8}  {measured:12.4e}  {stored:12.4e}"


def _check_case_tables(case: ExampleCase, emit) -> int:
    """Compare each stored table and MAE of ``case`` with a fresh solve,
    printing the measured and stored values before the verdict they decide."""
    failures = 0
    for table in case.reference_tables:
        result = solve_problem(case.spec, table.n, table.alpha)
        report = build_report(case.spec, table.n, table.alpha, result, table.abscissas,
                              case.exact)
        emit(f"{'x':>8}  {'measured RE':>12}  {'stored RE':>12}")
        for x, measured, stored in zip(table.abscissas, report.rel_err,
                                       table.relative_errors):
            emit(_compared(f"{x:.3f}", measured, stored))
        emit(_compared("AE at b", report.ae_b, table.endpoint_abs_error))
        limits = np.maximum(10.0 * np.asarray(table.relative_errors), _REFERENCE_FLOOR)
        end_limit = max(10.0 * table.endpoint_abs_error, _REFERENCE_FLOOR)
        ok = bool(np.all(report.rel_err <= limits)) and report.ae_b <= end_limit
        worst = max(float(np.max(report.rel_err / limits)), report.ae_b / end_limit)
        emit(
            f"reference example {case.id} (n={table.n}, alpha={table.alpha}): "
            f"{len(table.abscissas)} points + endpoint, worst measured/limit "
            f"{worst:.3g}: " + ("ok" if ok else "FAIL")
        )
        failures += 0 if ok else 1
    for ref in case.reference_maes:
        result = solve_problem(case.spec, ref.n, ref.alpha)
        report = build_report(case.spec, ref.n, ref.alpha, result, case.lattice(), case.exact)
        emit(_compared("MAE", report.mae, ref.mae))
        limit = max(10.0 * ref.mae, _REFERENCE_FLOOR)
        ok = report.mae <= limit
        emit(
            f"reference example {case.id} mae (n={ref.n}, alpha={ref.alpha}): "
            f"measured {report.mae:.4e} vs limit {limit:.4e}: " + ("ok" if ok else "FAIL")
        )
        failures += 0 if ok else 1
    return failures


def _cmd_check(_args) -> int:
    failures = 0
    emit = lambda line: sys.stdout.write(line + "\n")
    try:
        cases = all_examples()
    except RegistryError as err:
        emit(f"registry self-check: FAIL ({err})")
        return 1
    for case in cases:
        emit(f"self-check example {case.id} ({case.title}): ok")
    for case in cases:
        failures += _check_case_tables(case, emit)
    if failures:
        emit(f"{failures} check(s) failed")
        return 1
    emit("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="laneps",
        description="Integral pseudospectral benchmark for singular boundary-value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="solve a built-in example and report errors")
    p_example.add_argument("id", type=int, choices=EXAMPLE_IDS)
    p_example.add_argument("--n", type=int, required=True, help="truncation degree")
    p_example.add_argument("--alpha", type=float, required=True, help="basis parameter")
    p_example.add_argument("--csv", help="also write the report as CSV to this path")

    p_sweep = sub.add_parser("sweep", help="scan an (n, alpha) grid and emit CSV")
    p_sweep.add_argument("id", type=int, choices=EXAMPLE_IDS)
    p_sweep.add_argument("--n", default="4,8,16,32,64,128",
                         help="comma-separated degrees (default: %(default)s)")
    p_sweep.add_argument("--alpha-range", default="-0.4:0.1:2",
                         help="start:step:stop (default: %(default)s)")
    p_sweep.add_argument("--csv", required=True, help="output CSV path")

    p_solve = sub.add_parser("solve", help="solve a problem described by a config file")
    p_solve.add_argument("--config", required=True, help="key-value config path")
    p_solve.add_argument("--csv", help="also write the report as CSV to this path")

    p_nodes = sub.add_parser("nodes", help="dump quadrature abscissas and weights")
    p_nodes.add_argument("--n", type=int, required=True)
    p_nodes.add_argument("--alpha", type=float, required=True)
    p_nodes.add_argument("--b", type=float, required=True)

    sub.add_parser("check", help="run self-checks and reference comparisons")

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Glue "--alpha-range -0.4:0.1:2" into one token: the value starts with a
    # dash, which argparse would otherwise reject as an unknown option.
    for i, token in enumerate(argv[:-1]):
        if token == "--alpha-range":
            argv[i] = token + "=" + argv[i + 1]
            del argv[i + 1]
            break

    args = parser.parse_args(argv)
    command = {
        "example": _cmd_example,
        "sweep": _cmd_sweep,
        "solve": _cmd_solve,
        "nodes": _cmd_nodes,
        "check": _cmd_check,
    }[args.command]
    try:
        return command(args)
    except (ConfigError, ExpressionError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (DomainEvalError, NonlinearSolveError, RootFindingError, RegistryError,
            ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
