"""Compare two sets of benchmark records, metric by metric.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records ``run.py`` writes to
``.perfbench/results/`` (copy that directory aside after measuring the
parent commit).  Records are grouped by workload and trace mode; for
every metric the medians over seeds are compared.  Records whose
``events.kernel`` differ are refused: a different scheduler is a
double-digit swing by itself, so such a comparison says nothing about
the change under test.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def kernels(groups) -> set[str]:
    return {
        record["environment"]["events.kernel"]
        for records in groups.values()
        for record in records
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    found = kernels(base) | kernels(new)
    if len(found) > 1:
        print(f"refusing to compare runs on different event kernels: {sorted(found)}",
              file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base vs {len(new[key])} new runs")
        names = sorted(set(base[key][0]["metrics"]) & set(new[key][0]["metrics"]))
        for name in names:
            a = statistics.median(r["metrics"][name]["value"] for r in base[key])
            b = statistics.median(r["metrics"][name]["value"] for r in new[key])
            unit = base[key][0]["metrics"][name]["unit"]
            change = f"{100.0 * (b - a) / a:+7.2f}%" if a else "    n/a"
            print(f"  {name:40s} {a:14.4f} -> {b:14.4f} {unit:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
