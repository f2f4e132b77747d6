#!/usr/bin/env python3
"""Print the per-point error tables for every stored benchmark setting.

For each registered example and each stored (n, alpha) reference setting, the
script solves the problem, prints the relative error at the published
abscissas next to the stored value, and prints the summary maximum-absolute
-error rows.  Run from anywhere after installing the package:

    python3 scripts/reproduce_tables.py [--example 3] [--csv out.csv]
"""
import argparse
import sys

from laneps.cli import build_report
from laneps.registry import all_examples, get_example
from laneps.solver import solve_problem


def fmt(value: float) -> str:
    return format(value, ".4e")


def report(case, n, alpha, points):
    result = solve_problem(case.spec, n, alpha)
    return build_report(case.spec, n, alpha, result, points, case.exact)


def print_case(case, csv_lines):
    for table in case.reference_tables:
        print(f"\nexample {case.id} ({case.title}), n={table.n}, alpha={table.alpha}")
        print(f"{'x':>8}  {'measured RE':>12}  {'stored RE':>12}")
        errors = report(case, table.n, table.alpha, table.abscissas)
        # tolist() gives Python floats, whose repr is a plain number in the CSV.
        rows = zip(table.abscissas, errors.rel_err.tolist(), table.relative_errors)
        for x, measured, stored in rows:
            print(f"{x:8.3f}  {fmt(measured):>12}  {fmt(stored):>12}")
            csv_lines.append(
                f"{case.id},{table.n},{table.alpha},{x},{measured!r},{stored!r}"
            )
        print(f"{'AE at b':>8}  {fmt(errors.ae_b):>12}  {fmt(table.endpoint_abs_error):>12}")
    if case.reference_maes:
        print(f"\nexample {case.id} maximum absolute errors over the lattice")
        print(f"{'n':>4} {'alpha':>6}  {'measured':>12}  {'stored':>12}")
        for ref in case.reference_maes:
            mae = report(case, ref.n, ref.alpha, case.lattice()).mae
            print(f"{ref.n:4d} {ref.alpha:6.1f}  {fmt(mae):>12}  {fmt(ref.mae):>12}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--example", type=int, choices=range(1, 6),
                        help="restrict to one example id")
    parser.add_argument("--csv", help="also write per-point rows as CSV")
    args = parser.parse_args(argv)

    cases = [get_example(args.example)] if args.example else all_examples()
    csv_lines = ["example,n,alpha,x,measured_re,stored_re"]
    for case in cases:
        print_case(case, csv_lines)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(csv_lines) + "\n")
        print(f"\nwrote {len(csv_lines) - 1} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
