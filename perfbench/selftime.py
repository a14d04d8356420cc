#!/usr/bin/env python3
"""Per-layer self time from a traced run's span dump.

    python3 perfbench/selftime.py .bench_out/spans-hotspot_ranks4-seed1.json

A span's self time is its duration minus the part of its interval that its
direct child spans cover.  Prints, per span name: how many spans, their total
and self time summed over the traced repetitions, and self time per
repetition.
"""
import json
import sys


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Maps span id -> self time in ns."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in children.get(s["id"], [])]
        inside = [(a, b) for a, b in inside if b > a]
        result[s["id"]] = (s["end"] - s["start"]) - covered(inside)
    return result


def main(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    selfs = self_times(spans)
    reps = len({s["rep"] for s in spans}) or 1
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0, 0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += selfs[s["id"]]
    print(f"{reps} traced repetitions")
    print(f"{'span':<22}{'count':>7}{'total_s':>12}{'self_s':>12}"
          f"{'self_s/rep':>12}")
    for name, (count, total, own) in sorted(rows.items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"{name:<22}{count:>7}{total / 1e9:>12.6f}{own / 1e9:>12.6f}"
              f"{own / 1e9 / reps:>12.6f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
