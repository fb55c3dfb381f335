"""Harness self-check: every workload at toy size, untraced and traced.

    python3 -m pytest perfbench/test_selfcheck.py -q

Asserts that each run passes its correctness checks and emits every
metric of BENCHMARK.json with its unit, that the spans nest and add up
to the traced wall time, and that the benchmark refuses to run without
the program's sources.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
from compare import verdict  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, spans_path=None, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--quick"]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    return json.loads(lines[-2])["run_record"], result


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_emits_end_to_end_metrics(workload):
    record, result = parse(run_bench(workload, 0))
    assert result["attempted"] >= 3
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for field in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "src_sha256"):
        assert field in record
    assert record["seed"] == 7 and set(record["argv"]) == set(NAMES)
    assert ["--seed", "7"] == next(
        call[i : i + 2] for call in record["argv"]["chain"] for i, tok in enumerate(call) if tok == "--seed"
    )


# layer counters each workload must move; the others may stay 0
EXERCISED = {
    "chain": ("gibbs.run_chain.calls", "gibbs.probe_rows", "gibbs.validate.calls", "geometry.sample.points"),
    "pressure": ("gibbs.alpha_curve.chains", "thermo.pressure_estimate.self_s", "gibbs.run_chain.steps"),
    "pack": ("lattice_graph.build_lattice.cubes", "lattice_graph.build_graph.edges",
             "lattice_graph.greedy.chosen", "lattice_graph.emit_packing.pair_rows",
             "lattice_graph.verify_packing.pair_rows", "lattice_graph.save_certificate.bytes"),
    "entropy-ball": ("geometry.sample.candidates_per_point", "thermo.entropy_estimate.success_frac",
                     "constants.chain.calls"),
}


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_layer_metrics_that_add_up(workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    record, result = parse(run_bench(workload, 1, spans_path))
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["fail_frac"] == 0
    for name in EXERCISED[workload] + ("geometry.norm_batch.rows", "cli.out_bytes", "cli.self_s"):
        assert values[name] > 0, name

    traced = [op for op in record["ops"] if op["kind"] == "traced"]
    with open(spans_path) as fh:
        span_lists = json.load(fh)
    assert len(span_lists) == len(traced) >= 2
    for op, spans in zip(traced, span_lists):
        layers = op["layers"]
        for i, s in enumerate(spans):
            assert s["name"] in SPAN_NAMES
            assert s["start"] <= s["end"]
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                assert s["parent"] < i and parent["start"] <= s["start"] and s["end"] <= parent["end"]
        total = sum(layers[n + ".self_s"] for n in SPAN_NAMES) + layers["trace.gap_s"]
        assert total == pytest.approx(op["wall"], rel=1e-9, abs=1e-9)
        assert 0 <= layers["trace.gap_s"] < 0.05 * op["wall"] + 1e-3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("chain", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verdicts():
    base = [(s, 10.0 + 0.01 * s) for s in range(10)]
    assert verdict(base, [(s, v * 0.5) for s, v in base], False, 0.1)[0] == "improved"
    assert verdict(base, [(s, v * 1.5) for s, v in base], False, 0.1)[0] == "worse"
    assert verdict(base, [(s, v * 1.01) for s, v in base], False, 0.1)[0] == "no worse within bound"
    noisy = [(s, 10.0 * (1 + s % 2)) for s in range(10)]
    assert verdict(base, noisy, False, 0.1)[0] == "unresolved"


def write_set(path, wall, failed):
    """A one-workload result set of ten untraced runs with the given wall time and failures per run."""
    with open(path, "w") as fh:
        for seed in range(10):
            record = {"workload": "chain", "seed": seed, "trace": 0, "nproc": 2, "cpu_model": "x",
                      "python": "3", "numpy": "2", "scipy": "1", "seconds": 25, "quick": False,
                      "argv": {"chain": [["simulate", "--seed", str(seed)]]},
                      "ops": [{"kind": "plain", "failed": [], "wall": wall, "calib_s": 0.03}]}
            metrics = {m["name"]: {"value": wall * (1 + 0.001 * seed), "unit": m["unit"]}
                       for m in BENCH["end_to_end"]}
            result = {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics}
            fh.write(json.dumps({"record": record, "result": result}) + "\n")


def test_more_failures_void_every_verdict(tmp_path, capsys):
    write_set(tmp_path / "base.jsonl", 2.0, 0)
    write_set(tmp_path / "same.jsonl", 2.0, 0)
    write_set(tmp_path / "wrong.jsonl", 1.0, 10)  # faster, but every operation fails
    assert compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "same.jsonl")]) == 0
    capsys.readouterr()
    assert compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "wrong.jsonl")]) == 1
    names = {m["name"] for m in BENCH["end_to_end"]}
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    rows = [ln for ln in rows if ln[0] == "chain" and ln[1] in names]
    assert len(rows) == len(names) and all(ln[-2:] == ["not", "comparable"] for ln in rows)
    assert compare.more_failures((1, 100), (3, 200)) and not compare.more_failures((2, 100), (3, 200))
