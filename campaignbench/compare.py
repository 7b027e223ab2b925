#!/usr/bin/env python3
"""Compares two sets of campaign benchmark results.

    python3 campaignbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records that run.py wrote (<build dir>/results/).
For every workload and end-to-end metric, the median of NEW is compared with
the median of BASE, against the bound BENCHMARK.json fixes for the metric.

Exit status: 0 no regression, 1 a regression, 3 skipped. Results from two
different host fingerprints (CPU model, nproc, compiler, build type, SIMD
backend) are never compared: that is reported as skipped, not as a
regression.
"""

import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("SKIPPED: no end-to-end results in %s"
              % (sys.argv[1] if not base else sys.argv[2]))
        return 3
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + new}
    if len(prints) != 1:
        print("SKIPPED: results come from different hosts or builds:")
        for p in sorted(prints):
            print("  " + p)
        return 3

    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print("%s: SKIPPED (results on one side only)" % workload)
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bm = statistics.median(r["metrics"][name]["value"] for r in b)
            nm = statistics.median(r["metrics"][name]["value"] for r in n)
            worse = (nm - bm) if m["better"] == "lower" else (bm - nm)
            share = worse / abs(bm) if bm else 0.0
            verdict = "REGRESSION" if share > m["bound"] else "ok"
            regressed |= verdict != "ok"
            print("%-13s %-15s base %-12.6g new %-12.6g worse by %+7.2f%% "
                  "(bound %.0f%%) %s" % (workload, name, bm, nm, 100 * share,
                                         100 * m["bound"], verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
