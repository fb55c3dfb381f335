"""The four benchmark workloads: CLI argv, work units and output checks.

Each workload is one "operation": a fixed list of ``superpack`` CLI
calls run in one scratch directory. The seed is a benchmark argument
and reaches the program only through ``--seed``; ``pack`` takes no
seed, so its inputs are the same for every seed.

Sizes are set so that one operation takes 1.2 to 2.2 seconds on a
2-core Xeon, which gives 11 to 20 operations per 25 s run. QUICK
sizes are toys for the harness self-check.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# an estimate must lie within Z_LIMIT * hypot(its SE, the reference
# ensemble's SD) of the reference; generous on purpose, a real bug moves
# it far more. The ensemble SD is included because the batch-means SE of
# short chains underestimates the seed-to-seed spread (about 2x on
# pressure), see perfbench/README.md
Z_LIMIT = 5.0

FULL = {"chain_steps": 4000, "chain_burnin": 2000, "grid": 16, "pressure_steps": 2500,
        "R": 40, "samples": 6000}
QUICK = {"chain_steps": 400, "chain_burnin": 200, "grid": 4, "pressure_steps": 300,
         "R": 8, "samples": 500}


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: Callable[[dict, int, int], list[list[str]]]  # (sizes, seed, threads) -> CLI calls
    work: Callable[[dict], float]  # outputs -> work units done by one operation
    estimate: Callable[[dict], tuple[float, float]] | None = None  # outputs -> (value, SE)
    checks: Callable[[dict], list[str]] = lambda outputs: []  # outputs -> failed checks

    def evaluate(self, outputs: dict, argvs: list[list[str]]) -> tuple[float, list[str]]:
        """(work units, failed checks) of one operation's output files."""
        failed = self.checks(outputs)
        if self.estimate is not None:
            failed += _check_estimate(argvs[0], *self.estimate(outputs))
        return self.work(outputs), failed


def _load(outputs: dict, name: str) -> dict:
    return json.loads(outputs[name])


def reference_key(argv: list[str]) -> str:
    """The argv without the options that do not change the estimate's law."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok in ("--seed", "--threads", "--out"):
            skip = True
        else:
            out.append(tok)
    return " ".join(out)


def _check_estimate(argv: list[str], value: float, se: float) -> list[str]:
    key = reference_key(argv)
    with open(REFERENCES) as fh:
        ref = json.load(fh).get(key)
    if ref is None:
        return [f"no stored reference for {key!r}; run perfbench/make_references.py"]
    tol = Z_LIMIT * math.hypot(se, ref["sd"])
    if not abs(value - ref["value"]) <= tol:
        return [f"estimate {value} is more than {Z_LIMIT} SE ({tol}) from reference {ref['value']}"]
    return []


def _chain_argvs(s, seed, threads):
    return [["simulate", "--p", "1.5", "--cuts", "0,1,2", "--region", "torus", "--size", "60",
             "--fugacity", "5", "--steps", str(s["chain_steps"]), "--burnin", str(s["chain_burnin"]),
             "--seed", str(seed), "--out", "run.csv"]]


def _pressure_argvs(s, seed, threads):
    return [["--threads", str(threads), "thermo", "pressure", "--p", "1.5", "--cuts", "0,1,2",
             "--region", "torus", "--size", "20", "--fugacity", "5", "--grid", str(s["grid"]),
             "--steps", str(s["pressure_steps"]), "--seed", str(seed), "--out", "pressure.json"]]


def _pack_argvs(s, seed, threads):
    return [["pack", "--p", "1.5", "--cuts", "0,1,2", "--R", str(s["R"]), "--eps", "0.3",
             "--out", "cert.json"],
            ["verify", "--in", "cert.json", "--out", "verify.json"]]


def _pack_checks(outputs):
    summary = _load(outputs, "cert.summary.json")
    failed = []
    if _load(outputs, "verify.json")["valid"] is not True:
        failed.append("verify did not return valid: true")
    if summary["count"] * (summary["max_degree"] + 1) < summary["cubes"]:
        failed.append(f"count {summary['count']} below cubes/(max_degree+1)")
    return failed


def _entropy_argvs(s, seed, threads):
    return [["thermo", "entropy", "--p", "1.1", "--cuts", "0,1,2,3,4,5,6", "--region", "ball",
             "--size", "4", "--count", "3", "--samples", str(s["samples"]), "--seed", str(seed),
             "--out", "entropy.json"]]


def _entropy_checks(outputs):
    successes = _load(outputs, "entropy.json")["result"]["successes"]
    return [] if successes >= 10 else [f"only {successes} packing successes"]


def _result(name):
    def estimate(outputs):
        res = _load(outputs, name)["result"]
        return res["value"], res["se"]
    return estimate


def _chain_estimate(outputs):
    est = _load(outputs, "run.json")["estimate"]
    return est["alpha_hat"], est["alpha_se"]


# why each workload exists: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain", _chain_argvs, lambda o: _load(o, "run.json")["estimate"]["steps"], _chain_estimate),
        Workload("pressure", _pressure_argvs,
                 lambda o: _load(o, "pressure.json")["config"]["grid"] * _load(o, "pressure.json")["config"]["steps"],
                 _result("pressure.json")),
        Workload("pack", _pack_argvs, lambda o: _load(o, "cert.summary.json")["cubes"], checks=_pack_checks),
        Workload("entropy-ball", _entropy_argvs, lambda o: _load(o, "entropy.json")["result"]["samples"],
                 _result("entropy.json"), _entropy_checks),
    )
}
