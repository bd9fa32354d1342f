"""Compare two sets of benchmark runs of one workload.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds one result per line, as ``run.py`` prints it on its last
line of output.  For every metric the script prints each side's median and
spread (distance between the quartiles as a share of the median) and the
change of the median.  An end-to-end metric reads ``worse`` when the change
goes the wrong way by more than the bound in ``BENCHMARK.json``, and
``unresolved`` when either side's spread exceeds that bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            for name, m in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return values


def summary(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'metric':44} {'before':>12} {'spread':>7} {'after':>12} {'spread':>7} {'change':>8}  verdict")
    for name in before:
        if name not in after:
            continue
        (b_med, b_spread), (a_med, a_spread) = summary(before[name]), summary(after[name])
        change = (a_med - b_med) / b_med if b_med else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = change if bounds[name]["better"] == "lower" else -change
            if max(b_spread, a_spread) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
        print(f"{name:44} {b_med:12.6g} {b_spread:7.3f} {a_med:12.6g} {a_spread:7.3f} {change:+8.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
