"""Compare two benchmark reports (``run.py --json``) of two commits.

One row per workload and end-to-end metric, with each side's median and
quartiles, the share of repetition pairs the change won, and a verdict:

* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound (``BENCHMARK.json``);
* ``unresolved`` — the spread of either side (distance between the
  quartiles, as a share of the median) is wider than the bound, unless
  every run of the change reads better than every run of the parent;
* ``improved`` — the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's own spread;
* ``no worse`` — otherwise.

``fail_frac`` gets a row of its own: any rise regresses. The check also
fails when any point's digest differs between the two reports. Exits 1
on any regressed or unresolved row or digest mismatch::

    python benchmarks/bench/compare.py PARENT.json CHANGE.json
"""

import argparse
import json
import sys

from run import load_spec, quartiles, series


def digests(report):
    """``{(workload, point): {digest, ...}}`` over every run."""
    out = {}
    for run in report["runs"]:
        if run["detail"] is None:
            continue
        for point, value in run["detail"]["digests"].items():
            out.setdefault((run["workload"], point), set()).add(value)
    return out


def verdict(parent, change, better, bound):
    """(verdict, share of pairs won) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    pm, pq1, pq3 = quartiles(parent)
    cm, cq1, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    worse_by = sign * (pm - cm) / abs(pm)
    spread = max((pq3 - pq1) / abs(pm), (cq3 - cq1) / abs(cm))
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if worse_by > bound:
        return "regressed", won
    if spread > bound and not all_better:
        return "unresolved", won
    if won >= 0.9 and sign * (cm - pm) > pq3 - pq1:
        return "improved", won
    return "no worse", won


def compare(parent, change, spec):
    """Prints the table; returns the number of failing rows and checks."""
    for key in ("protocol", "seed", "seconds", "smoke"):
        if parent.get(key) != change.get(key):
            print("reports differ in %s: %r vs %r" % (key, parent.get(key), change.get(key)))
            return 1
    p_series = series(parent["runs"], 0)
    c_series = series(change["runs"], 0)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    print("%-16s %-12s %31s %31s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict"))
    bad = 0
    for workload in p_series:
        if workload not in c_series:
            print("%-16s missing from the change's report" % workload)
            bad += 1
            continue
        for name, better, bound in metrics:
            p, c = p_series[workload][name], c_series[workload][name]
            result, won = verdict(p, c, better, bound)
            bad += result in ("regressed", "unresolved")
            print("%-16s %-12s %31s %31s %5.2f  %s" % (
                workload, name, "%.5g [%.5g, %.5g]" % quartiles(p),
                "%.5g [%.5g, %.5g]" % quartiles(c), won, result))
        p, c = p_series[workload]["fail_frac"], c_series[workload]["fail_frac"]
        rose = max(c) > max(p)
        bad += rose
        print("%-16s %-12s %31.5g %31.5g %5s  %s" % (
            workload, "fail_frac", max(p), max(c), "", "regressed" if rose else "no worse"))
    p_digests, c_digests = digests(parent), digests(change)
    mismatched = sorted(
        key for key in set(p_digests) | set(c_digests)
        if p_digests.get(key) != c_digests.get(key) or len(p_digests[key]) != 1
    )
    for workload, point in mismatched:
        print("digest mismatch: %s %s" % (workload, point))
    print("%d digests compared, %d mismatched" % (len(p_digests), len(mismatched)))
    return bad + len(mismatched)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as handle:
        parent = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    return 1 if compare(parent, change, load_spec()) else 0


if __name__ == "__main__":
    sys.exit(main())
