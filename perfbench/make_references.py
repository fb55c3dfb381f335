"""Regenerate perfbench/references.json, the stored estimates the checks use.

    python3 perfbench/make_references.py

For every workload with a statistical estimate, at full and at quick
size, the workload's own CLI calls run with RUNS seeds from
1000000 up, which no benchmark run uses by default. The reference is
the mean of those estimates and its SE is their standard deviation
over sqrt(runs): an ensemble at exactly the benchmark's arguments, so
the reference also carries the finite-run bias of short chains. Rerun
this only when a workload's arguments change.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import sys

import run
from workloads import FULL, QUICK, REFERENCES, WORKLOADS, reference_key

FIRST_SEED = 1_000_000
RUNS = 32


def main() -> int:
    pkg = run.import_package()
    workdir = os.path.join(run.ROOT, ".bench_run", f"references-{os.getpid()}")
    os.makedirs(workdir)
    refs = {}
    try:
        for sizes in (QUICK, FULL):
            for w in WORKLOADS.values():
                if w.estimate is None:
                    continue
                ests = []
                for i in range(RUNS):
                    argvs = w.argvs(sizes, FIRST_SEED + i, 1)
                    _, codes, error, outputs = run.call_cli(pkg.cli, argvs, workdir)
                    if error or codes != [0] * len(argvs):
                        raise SystemExit(f"{w.name} seed {FIRST_SEED + i}: exit {codes}\n{error or ''}")
                    ests.append(w.estimate(outputs))
                values = [v for v, _ in ests]
                mean, sd = statistics.fmean(values), statistics.stdev(values)
                ref_se = sd / math.sqrt(RUNS)
                zmax = max(abs(v - mean) / math.hypot(se, sd) for v, se in ests)
                key = reference_key(argvs[0])
                refs[key] = {"value": mean, "se": ref_se, "sd": sd, "runs": RUNS,
                             "first_seed": FIRST_SEED, "max_abs_z": zmax}
                print(f"{w.name}: {key}\n  value {mean} se {ref_se} sd {sd} "
                      f"median SE {statistics.median(se for _, se in ests)} max|z| {zmax:.2f}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
