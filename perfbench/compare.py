"""Compare two result sets of the benchmark, or summarise one.

    python3 perfbench/compare.py base.jsonl new.jsonl
    python3 perfbench/compare.py base.jsonl

Result sets come from ``sweep.py`` (untraced runs are used). For every
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles and, with two sets, the fraction of seed-matched
pairs the new side wins and a verdict:

- improved: the new side wins at least 9 of 10 pairs (ties count for
  neither, at least 10 pairs) and its median beats the base median by
  more than the base's interquartile range;
- worse: the new median is worse than the base median by more than the
  metric's bound, with both spreads within the bound;
- unresolved: a side's spread (IQR / median) exceeds the bound, unless
  every new run beats every base run;
- no worse within bound: otherwise;
- not comparable: every verdict, when the new set fails a larger share
  of its operations than the base. A faster change that breaks a check
  is not a gain.

Run records that differ in machine, versions, run length or workload
arguments are reported before the table. After it, per workload, the
raw (not normalised) operation seconds and calibration-kernel seconds
of both sets: normalised times hide a change that moves the kernel
itself, for instance through state the program leaves in the process,
and these show it. Exit status 1 when any verdict is worse, unresolved
or not comparable.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_FIELDS = ("nproc", "cpu_model", "python", "numpy", "scipy", "seconds", "quick", "argv")


def load(path):
    """Untraced runs of a result set.

    Returns {workload: {metric: [(seed, value)]}}, {record field: set of
    values}, [failed, attempted] and {workload: {"wall"|"calib_s": [run
    medians of the passing operations' raw seconds]}}.
    """
    values = defaultdict(lambda: defaultdict(list))
    fields = defaultdict(set)
    fails = [0, 0]
    raw = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            rec, res = row["record"], row["result"]
            if rec["trace"]:
                continue
            for f in RECORD_FIELDS:
                val = mask_seed(rec[f]) if f == "argv" else rec[f]
                fields[f].add(json.dumps(val, sort_keys=True))
            fails[0] += res["failed"]
            fails[1] += res["attempted"]
            for name, m in res["metrics"].items():
                values[rec["workload"]][name].append((rec["seed"], m["value"]))
            plain = [op for op in rec["ops"] if op["kind"] == "plain" and not op["failed"]]
            for key in ("wall", "calib_s") if plain else ():
                raw[rec["workload"]][key].append(statistics.median(op[key] for op in plain))
    return values, fields, fails, raw


def more_failures(base_fails, new_fails) -> bool:
    """Whether the new set fails a larger share of its operations than the base."""
    return new_fails[0] * base_fails[1] > base_fails[0] * new_fails[1]


def mask_seed(argv_by_workload):
    """The workloads' argv with the value after --seed replaced, so runs of different seeds match."""
    return {w: [[("<seed>" if i and call[i - 1] == "--seed" else tok) for i, tok in enumerate(call)]
                for call in calls] for w, calls in argv_by_workload.items()}


def stats(vals):
    vals = sorted(vals)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, new, higher_better, bound):
    """(verdict, wins, pairs) for seed-paired lists of (seed, value)."""
    sign = 1.0 if higher_better else -1.0
    by_seed = defaultdict(list)
    for seed, v in base:
        by_seed[seed].append(v)
    wins = pairs = 0
    for seed, v in new:
        if by_seed[seed]:
            b = by_seed[seed].pop(0)
            pairs += 1
            wins += sign * (v - b) > 0
    bmed, bq1, bq3, bspread = stats([v for _, v in base])
    nmed, _, _, nspread = stats([v for _, v in new])
    gain = sign * (nmed - bmed)
    if pairs >= 10 and wins >= 0.9 * pairs and gain > bq3 - bq1:
        return "improved", wins, pairs
    if max(bspread, nspread) > bound:
        if min(sign * v for _, v in new) > max(sign * v for _, v in base):
            return "no worse within bound", wins, pairs
        return "unresolved", wins, pairs
    if -gain > bound * bmed:
        return "worse", wins, pairs
    return "no worse within bound", wins, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    base, bfields, bfails, braw = load(args.base)
    new, nfields, nfails, nraw = load(args.new) if args.new else (None, {}, None, {})
    for f in RECORD_FIELDS:
        if len(bfields[f]) > 1 or (new is not None and nfields[f] != bfields[f]):
            print(f"MISMATCH {f}: base {sorted(bfields[f])} new {sorted(nfields.get(f, ()))}")
    print(f"failed ops: base {bfails[0]}/{bfails[1]}" +
          (f", new {nfails[0]}/{nfails[1]}" if new is not None else ""))
    broken = new is not None and more_failures(bfails, nfails)
    if broken:
        print("the new set fails a larger share of operations: no verdict counts")

    bad = 0
    head = f"{'workload':<13} {'metric':<12} {'unit':<4} {'base median [q1, q3]':<34} spread/bound"
    print(head + ("  " + f"{'new median [q1, q3]':<34} spread  wins   verdict" if new is not None else ""))
    for workload in sorted(base):
        for m in metrics:
            name = m["name"]
            if name not in base[workload]:
                continue
            b = base[workload][name]
            bmed, bq1, bq3, bspread = stats([v for _, v in b])
            line = (f"{workload:<13} {name:<12} {m['unit']:<4} "
                    f"{bmed:<11.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(67) +
                    f" {bspread:.4f}/{m['bound']}")
            if new is not None and name in new.get(workload, {}):
                n = new[workload][name]
                nmed, nq1, nq3, nspread = stats([v for _, v in n])
                v, wins, pairs = verdict(b, n, m["better"] == "higher", m["bound"])
                if broken:
                    v = "not comparable"
                bad += v != "improved" and v != "no worse within bound"
                line += (f"  {nmed:<11.5g} [{nq1:.5g}, {nq3:.5g}]".ljust(36) +
                         f" {nspread:.4f}  {wins}/{pairs}  {v}")
            print(line)

    print("raw seconds (median over runs of each run's median passing operation):")
    for workload in sorted(braw):
        line = f"{workload:<13}"
        meds = {}
        for side, raw in (("base", braw), ("new", nraw)):
            if workload in raw:
                meds[side] = [statistics.median(raw[workload][k]) for k in ("wall", "calib_s")]
                line += f" {side} wall {meds[side][0]:.5g} calib {meds[side][1]:.5g}"
        if len(meds) == 2:
            line += (f"  new/base wall {meds['new'][0] / meds['base'][0]:.3f}"
                     f" calib {meds['new'][1] / meds['base'][1]:.3f}")
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
