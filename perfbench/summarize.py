"""Median, quartiles and spread of each metric over several benchmark runs.

Usage, from the repository root:

    python3 perfbench/summarize.py perfbench/results/*.json [--json out.json]

Result files are grouped by workload and trace flag; each group keeps the
environment of its first run.  For every metric it
prints the median of the runs, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread (Q3 - Q1) / median.  Before and after numbers of
a change are compared through these summaries.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(paths) -> dict:
    groups: dict = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        key = f"{result['workload']}/trace{int(result['trace'])}"
        values = result["per_layer"] if result["trace"] else result["end_to_end"]
        group = groups.setdefault(key, {"env": result["env"], "seeds": [], "metrics": {}})
        group["seeds"].append(result["seed"])
        for name, value in values.items():
            group["metrics"].setdefault(name, []).append(value)
    out = {}
    for key, group in sorted(groups.items()):
        metrics = {}
        for name, values in group["metrics"].items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0,
                             "runs": len(values)}
        out[key] = {"env": group["env"], "seeds": sorted(group["seeds"]), "metrics": metrics}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--json", help="also write the summary to this path")
    args = parser.parse_args(argv)
    summary = summarize(args.paths)
    for key, group in summary.items():
        print(f"{key}  seeds={group['seeds']}")
        for name, m in group["metrics"].items():
            print(f"  {name:32s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
