"""Run the benchmark over seeds and workloads and save a result set.

    python3 perfbench/sweep.py --out base.jsonl --seeds 1-10 [--trace 1]

Each run is a fresh ``perfbench/run.py`` process, so ``peak_rss_mb``
is per run. A result set is a JSON-lines file with one
``{"record": ..., "result": ...}`` object per run; ``compare.py``
reads it. Runs go seed by seed, cycling through the workloads, so slow
drift of the machine spreads over all workloads alike.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to append to")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for seed in parse_seeds(args.seeds):
        for name in (w["name"] for w in bench["workloads"]):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"sweep: {name} seed {seed} exited {proc.returncode}")
            record = json.loads(lines[-2])["run_record"]
            result = json.loads(lines[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"record": record, "result": result}) + "\n")
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                             if not args.trace or k.startswith("trace."))
            print(f"{name} seed={seed} ops={result['attempted']} failed={result['failed']} {shown}",
                  file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
