#!/usr/bin/env python3
"""Compares two benchmark/run.py results documents.

    python3 benchmark/compare.py BASE.json NEW.json

Prints one row per workload and end-to-end metric: both values (for a
timing, the run's median scaled by its reference workload, as run.py
reports it), the quartiles of the samples, the change and a verdict read
against the metric's bound in BENCHMARK.json:

  worse       NEW is worse than BASE by more than the bound
  better      NEW is better than BASE by more than the bound
  same        the values differ by less than the bound
  unresolved  the quartile spread of either side exceeds the bound, so a
              difference of that size cannot be told from noise (a change
              larger than the bound still counts when the two quartile
              ranges do not overlap)

error_rate has no tolerance: any increase is worse. Exits 1 when any row
is worse, 0 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
META_KEYS = ("seed", "nproc", "build_type", "host_threads", "smoke")


def relative(value, base):
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    return (value - base) / abs(base)


def spread(m):
    return relative(m["p75"], m["p25"]) if m["p25"] else 0.0


def verdict(a, b, better, bound):
    """Verdict of NEW metric `b` against BASE metric `a`."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * relative(b["value"], a["value"])
    if bound == 0:
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "same"
    # Quartile ranges that do not overlap, in the worse / better direction.
    if better == "lower":
        apart_worse, apart_better = b["p25"] > a["p75"], b["p75"] < a["p25"]
    else:
        apart_worse, apart_better = b["p75"] < a["p25"], b["p25"] > a["p75"]
    noisy = max(spread(a), spread(b)) > bound
    if worse_by > bound and (not noisy or apart_worse):
        return "worse"
    if -worse_by > bound and (not noisy or apart_better):
        return "better"
    return "unresolved" if noisy else "same"


def fmt(m):
    return f"{m['value']:.6g} [{m['p25']:.6g}, {m['p75']:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="results JSON of the parent")
    parser.add_argument("new", help="results JSON of the change")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"),
                        help="benchmark spec holding the bounds")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    for doc, name in ((base, args.base), (new, args.new)):
        if doc.get("schema") != "gamma.benchmark.results.v1":
            print(f"{name}: not a gamma.benchmark.results.v1 document",
                  file=sys.stderr)
            return 2
    for key in META_KEYS:
        if base["meta"].get(key) != new["meta"].get(key):
            print(f"warning: {key} differs: {base['meta'].get(key)} vs "
                  f"{new['meta'].get(key)}")

    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("error_rate", "lower", 0.0))
    print(f"{'workload':16s} {'metric':14s} {'base value [p25, p75]':34s} "
          f"{'new value [p25, p75]':34s} {'change':>9s}  verdict")
    worse = 0
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            print(f"{workload:16s} missing from {args.new}")
            worse += 1
            continue
        a_all = base["workloads"][workload]["end_to_end"]
        b_all = new["workloads"][workload]["end_to_end"]
        for name, better, bound in metrics:
            if name not in a_all or name not in b_all:
                continue
            a, b = a_all[name], b_all[name]
            v = verdict(a, b, better, bound)
            worse += v == "worse"
            change = relative(b["value"], a["value"]) * 100
            print(f"{workload:16s} {name:14s} {fmt(a):34s} {fmt(b):34s} "
                  f"{change:+8.2f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
