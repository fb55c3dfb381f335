"""End-to-end command line checks, run in-process through main()."""

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import types
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import superpack
from superpack import cli, gibbs
from superpack.cli import main
from superpack.errors import ComputationError
from superpack.geometry import BlockSpec, unit_ball_volume
from superpack.thermo import entropy_estimate

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCHEMA = pathlib.Path(__file__).parent.parent / "schemas" / "certificate.schema.json"

pytestmark = pytest.mark.filterwarnings("ignore:eps violates the smallness")


def _refuse(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def strict_loads(text):
    return json.loads(text, parse_constant=_refuse)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out)


class TestConstants:
    def test_chain_matches_golden(self, capsys):
        code, data = run_json(capsys, ["constants", "--p", "2.0"])
        assert code == 0
        golden = strict_loads((GOLDEN / "constants_golden.json").read_text())
        assert data["chain"]["c_p"] == pytest.approx(
            golden["chains"]["2.0"]["c_p"], abs=1e-9
        )
        assert [row["n"] for row in data["density_table"]] == [8, 16, 32, 48]
        assert data["config"]["version"]

    def test_text_format(self, capsys):
        code = main(["constants", "--p", "1.5", "--format", "text", "--n", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("p = 1.5")
        assert "c_p" in out

    def test_file_output_and_rerun_identical(self, tmp_path):
        target = tmp_path / "chain.json"
        assert main(["constants", "--p", "1.5", "--out", str(target)]) == 0
        first = target.read_bytes()
        assert main(["constants", "--p", "1.5", "--out", str(target)]) == 0
        assert target.read_bytes() == first

    def test_bad_p_exits_2(self, capsys):
        assert main(["constants", "--p", "0.5"]) == 2

    def test_bad_n_exits_2(self, capsys):
        assert main(["constants", "--p", "1.5", "--n", "8,x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: --n")


class TestVolume:
    def test_closed_form_and_mc_agree(self, capsys):
        code, data = run_json(
            capsys,
            ["volume", "--p", "1.5", "--cuts", "0,1,2", "--mc", "100000", "--seed", "3"],
        )
        assert code == 0
        exact = unit_ball_volume(1.5, BlockSpec((0, 1, 2)))
        assert data["volume"] == exact
        assert abs(data["mc"]["estimate"] - exact) <= 4 * data["mc"]["se"]
        assert data["mc"]["estimate"] == data["mc"]["hits"] / 100000 * 4.0

    def test_mc_without_hits_is_an_error_not_a_zero(self, capsys):
        # the 12D p=1.05 ball fills 7e-9 of its cube; 0 hits bound the
        # volume from above and must not be reported as an estimate of 0
        cuts = ",".join(str(k) for k in range(13))
        assert main(["volume", "--p", "1.05", "--cuts", cuts, "--mc", "200000", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3 * 2^12 / 200000 = 0.0614" in captured.err

    def test_bad_cuts_exit_2(self):
        assert main(["volume", "--p", "1.5", "--cuts", "0,a,2"]) == 2


class TestSimulate:
    ARGS = [
        "simulate", "--p", "2", "--cuts", "0,1", "--region", "torus",
        "--size", "12", "--fugacity", "1.0", "--steps", "8000",
        "--burnin", "1000", "--seed", "5",
    ]

    def test_trace_and_summary(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config=")
        config = strict_loads(lines[0][len("# config=") :])
        assert config["seed"] == 5 and "version" in config
        assert lines[1] == "step,count,fv_probe_hits,accepted,birth"
        assert len(lines) == 2 + 8000  # the trace spans every step
        assert lines[2].split(",")[0] == "0"
        # unprobed steps leave the free-volume column empty
        assert any(row.split(",")[2] == "" for row in lines[2:])
        summary = strict_loads((tmp_path / "run.json").read_text())
        assert summary["estimate"]["alpha_hat"] >= 0
        assert summary["replica_seeds"] == [5]

    def test_trace_csv_digest(self, tmp_path):
        # SHA-256 of the CSV trace as the per-element writer produced it
        out = tmp_path / "run.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "685f5aead3be429f224a0afc0200dbbe15f24795affcab753e975e5c4dce081c"

    @staticmethod
    def _row_writer(estimate, config_line):
        # the trace as one f-string per row wrote it
        columns = [estimate.trace[k].tolist() for k in ("count", "fv_probe_hits", "accepted", "birth")]
        rows = ["# config=" + config_line, "step,count,fv_probe_hits,accepted,birth"]
        for i, (count, probe, acc, birth) in enumerate(zip(*columns)):
            rows.append(f"{i},{count},{'' if probe < 0 else probe},{acc:d},{birth:d}")
        return "\n".join(rows) + "\n"

    @given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
    @example(4096, 0)
    @example(8193, 1)
    def test_trace_csv_matches_the_row_writer(self, steps, seed):
        # unprobed (-1) and probed rows (0-64) mixed, counts past the small
        # ints, and lengths at and across the 4096-row format chunks
        rng = np.random.default_rng(seed)
        probe = np.where(rng.random(steps) < 0.3, rng.integers(0, 65, steps), -1)
        trace = {"count": rng.integers(0, 10**6, steps), "fv_probe_hits": probe,
                 "accepted": rng.integers(0, 2, steps, dtype=np.uint8), "birth": rng.integers(0, 2, steps, dtype=np.uint8)}
        estimate = types.SimpleNamespace(trace=trace)
        config = json.dumps({"seed": seed, "steps": steps})
        assert cli._trace_csv(estimate, config) == self._row_writer(estimate, config)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_replicas_and_threads_agree(self, tmp_path):
        serial = tmp_path / "s.csv"
        parallel = tmp_path / "p.csv"
        main(self.ARGS + ["--replicas", "3", "--out", str(serial)])
        main(["--threads", "2"] + self.ARGS + ["--replicas", "3", "--out", str(parallel)])
        for i in range(3):
            assert (tmp_path / f"s.r{i}.csv").read_bytes() == (
                tmp_path / f"p.r{i}.csv"
            ).read_bytes()
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "p.json").read_bytes()
        summary = strict_loads((tmp_path / "s.json").read_text())
        assert len(summary["replica_seeds"]) == 3

    def test_summary_to_stdout_without_out(self, capsys):
        code, data = run_json(capsys, self.ARGS)
        assert code == 0
        assert data["estimate"]["steps"] == 8000

    def test_burnin_validation(self):
        argv = [a if a != "1000" else "9000" for a in self.ARGS]
        assert main(argv) == 2


class TestPackVerify:
    PACK = [
        "pack", "--p", "1.5", "--cuts", "0,1,2",
        "--R", "1.9", "--eps", "0.1",
    ]

    def test_pack_verify_round_trip(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(self.PACK + ["--out", str(cert)]) == 0
        payload = strict_loads(cert.read_text())
        jsonschema.validate(payload, strict_loads(SCHEMA.read_text()))
        assert payload["_meta"]["config"]["command"] == "pack"
        summary = strict_loads((tmp_path / "cert.summary.json").read_text())
        assert summary["count"] == len(payload["centers"])
        code, report = run_json(capsys, ["verify", "--in", str(cert)])
        assert code == 0
        assert report["valid"] is True

    def test_local_stats_flag(self, capsys):
        code, data = run_json(capsys, self.PACK + ["--local-stats"])
        assert code == 0
        assert data["local_sparsity"]["advisory"] is True

    def test_tampered_certificate_exits_4(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(self.PACK + ["--out", str(cert)])
        payload = strict_loads(cert.read_text())
        payload["centers"][0] = payload["centers"][1]
        cert.write_text(json.dumps(payload))
        code, report = run_json(capsys, ["verify", "--in", str(cert)])
        assert code == 4
        assert report["valid"] is False

    def test_false_density_and_minimum_exit_4(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(self.PACK + ["--out", str(cert)])
        payload = strict_loads(cert.read_text())
        true_min = payload["min_pairwise_distance"]
        payload["density"] *= 10
        payload["min_pairwise_distance"] = 99.0
        cert.write_text(json.dumps(payload))
        code, report = run_json(capsys, ["verify", "--in", str(cert)])
        assert code == 4
        assert report["valid"] is False
        assert report["min_pairwise_distance"] == true_min

    @pytest.mark.parametrize("field, value", [
        ("radius", -0.6), ("R", float("inf")), ("centers", float("nan")), ("min_pairwise_distance", None),
    ])
    def test_malformed_certificate_exits_2(self, field, value, tmp_path):
        cert = tmp_path / "cert.json"
        main(self.PACK + ["--out", str(cert)])
        payload = strict_loads(cert.read_text())
        if field == "centers":
            payload["centers"][0][0] = value
        else:
            payload[field] = value
        cert.write_text(json.dumps(payload))
        assert main(["verify", "--in", str(cert)]) == 2

    def test_verify_missing_file_exits_2(self, tmp_path):
        assert main(["verify", "--in", str(tmp_path / "nope.json")]) == 2

    def test_out_creates_missing_directories(self, tmp_path, capsys):
        cert = tmp_path / "new" / "dir" / "cert.json"
        assert main(self.PACK + ["--out", str(cert)]) == 0
        code, report = run_json(capsys, ["verify", "--in", str(cert)])
        assert code == 0
        assert report["valid"] is True

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERPACK_OUT", str(tmp_path))
        assert main(self.PACK + ["--out", "env_cert.json"]) == 0
        assert (tmp_path / "env_cert.json").exists()


class TestNonFiniteAsNull:
    """Infinite values are written as null, never as the non-JSON Infinity."""

    def test_single_center_certificate(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        argv = ["pack", "--p", "2", "--cuts", "0,1", "--R", "0.61", "--eps", "0.3"]
        assert main(argv + ["--out", str(cert)]) == 0
        payload = strict_loads(cert.read_text())
        jsonschema.validate(payload, strict_loads(SCHEMA.read_text()))
        assert len(payload["centers"]) == 1
        assert payload["min_pairwise_distance"] is None
        assert strict_loads((tmp_path / "cert.summary.json").read_text())["min_pairwise_distance"] is None
        code, report = run_json(capsys, ["verify", "--in", str(cert)])
        assert code == 0
        assert report["valid"] is True and report["min_pairwise_distance"] is None

    def test_entropy_without_successes(self, capsys):
        code, data = run_json(capsys, [
            "thermo", "entropy", "--p", "2", "--cuts", "0,1", "--region", "ball",
            "--size", "1", "--count", "6", "--samples", "50",
        ])
        assert code == 0
        assert data["result"]["successes"] == 0 and data["result"]["se"] is None

    def test_short_chain_variance_error(self, capsys):
        code, data = run_json(capsys, [
            "simulate", "--p", "2", "--cuts", "0,1", "--size", "5",
            "--fugacity", "1.0", "--steps", "100", "--burnin", "0",
        ])
        assert code == 0
        assert data["estimate"]["var_count_se"] is None

    def test_one_recorded_step_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, data = run_json(capsys, [
                "simulate", "--p", "1.5", "--cuts", "0,1,2", "--region", "torus", "--size", "20",
                "--fugacity", "5", "--steps", "3", "--burnin", "2",
            ])
        assert code == 0
        assert data["estimate"]["var_count"] is None and data["estimate"]["alpha_se"] is None


class TestThermo:
    BASE = [
        "thermo", "entropy", "--p", "2", "--cuts", "0,1",
        "--region", "ball", "--size", "5",
    ]
    PRESSURE = [
        "thermo", "pressure", "--p", "1.5", "--cuts", "0,1,2", "--region", "torus",
        "--size", "20", "--fugacity", "5", "--grid", "4", "--steps", "300", "--seed", "7",
    ]

    def test_entropy_matches_library_call(self, capsys):
        code, data = run_json(
            capsys, self.BASE + ["--count", "3", "--samples", "20000", "--seed", "1"]
        )
        assert code == 0
        from superpack.geometry import SpaceParams, SuperballRegion
        from superpack.gibbs import ModelParams

        params = ModelParams(
            SpaceParams.create(2.0, (0, 1)), SuperballRegion(5.0), 1.0, None
        )
        direct = entropy_estimate(params, 3, 20_000, seed=1)
        assert data["result"]["value"] == direct.value
        assert data["result"]["kind"] == "entropy"

    def test_entropy_needs_count(self):
        assert main(self.BASE + ["--samples", "100"]) == 2

    def test_pressure_runs(self, capsys):
        code, data = run_json(
            capsys,
            [
                "thermo", "pressure", "--p", "2", "--cuts", "0,1",
                "--region", "torus", "--size", "10", "--fugacity", "0.5",
                "--grid", "4", "--steps", "2000", "--seed", "2",
            ],
        )
        assert code == 0
        assert data["result"]["kind"] == "pressure"
        assert data["result"]["value"] >= 0

    # SHA-256 of the pressure JSON on a cell-table torus, a one-cell torus
    # and a ball, as the chains with screened free-volume probes wrote it
    PINNED = {
        "torus-table": (PRESSURE, "300071171925a72d588e402314a81369c147e0ffe738d7db242ee952a098a2df"),
        "torus-one-cell": (["thermo", "pressure", "--p", "2", "--cuts", "0,1", "--region", "torus", "--size", "5",
                            "--fugacity", "1", "--grid", "4", "--steps", "3000", "--seed", "7"],
                           "e9c0438d14e8aea0a6a460de1631071f90aa13b59fa24ca07fa071937bad0ec0"),
        "ball": (["thermo", "pressure", "--p", "1.5", "--cuts", "0,1,2", "--region", "ball", "--size", "3",
                  "--fugacity", "2", "--grid", "4", "--steps", "700", "--seed", "7"],
                 "322b2d9b014b267fe07394142794145b402017263cbb05930416ee32a2175ed6"),
    }

    @pytest.mark.parametrize("argv, digest", PINNED.values(), ids=PINNED.keys())
    def test_pressure_digest(self, argv, digest, tmp_path):
        out = tmp_path / "pressure.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_pressure_threads_byte_identical(self, tmp_path):
        for threads in ("1", "2"):
            out = str(tmp_path / f"t{threads}.json")
            assert main(["--threads", threads] + self.PRESSURE + ["--out", out]) == 0
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_grid_chain_exits_3(self, threads, monkeypatch, capsys):
        chain = gibbs.run_chain

        def flaky(params, steps, burn_in, seed, **kwargs):
            if params.fugacity == 5.0:  # the last grid point, a worker's with --threads 2
                raise ComputationError("chain failed")
            return chain(params, steps, burn_in, seed, **kwargs)

        monkeypatch.setattr(gibbs, "run_chain", flaky)
        assert main(["--threads", threads] + self.PRESSURE) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "computation error: chain failed\n"
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "argv",
    [
        TestSimulate.ARGS + ["--seed", "-1"],
        TestSimulate.ARGS + ["--replicas", "-1"],
        TestThermo.BASE + ["--count", "2", "--samples", "100", "--seed", "-1"],
        ["thermo", "pressure", "--p", "2", "--cuts", "0,1", "--size", "10",
         "--grid", "2", "--steps", "100", "--seed", "-1"],
        ["volume", "--p", "1.5", "--cuts", "0,1,2", "--mc", "100", "--seed", "-1"],
        ["volume", "--p", "1.5", "--cuts", "0,1,2", "--mc", "-5"],
    ],
    ids=["simulate-seed", "simulate-replicas", "entropy-seed", "pressure-seed", "volume-seed", "volume-mc"],
)
def test_negative_counts_and_seeds_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --")


@pytest.mark.parametrize("argv", [
    TestSimulate.ARGS + ["--radius", "inf"],
    TestPackVerify.PACK + ["--radius", "inf"],
    TestThermo.BASE + ["--count", "2", "--samples", "100", "--radius", "inf"],
    TestSimulate.ARGS + ["--radius", "nan"],
], ids=["simulate", "pack", "entropy", "simulate-nan"])
def test_non_finite_radius_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "radius must be positive and finite" in captured.err


@pytest.mark.parametrize("radius", ["-1", "0", "inf", "nan"])
def test_bad_pack_radius_exits_2_before_any_lattice_work(radius, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_lattice", lambda *a, **k: pytest.fail("lattice built"))
    assert main(TestPackVerify.PACK + ["--radius", radius]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "radius must be positive and finite" in captured.err


def test_two_commands_in_one_process(capsys):
    # main() reuses one parser: no call may see another call's arguments
    code, first = run_json(capsys, ["volume", "--p", "2", "--cuts", "0,1,2", "--seed", "5"])
    assert code == 0 and first["volume"] == unit_ball_volume(2.0, BlockSpec((0, 1, 2)))
    code, second = run_json(capsys, ["constants", "--p", "1.5", "--n", "8"])
    assert code == 0 and [row["n"] for row in second["density_table"]] == [8]
    assert second["config"] == {"command": "constants", "p": 1.5, "n": "8", "format": "json",
                                "version": superpack.__version__}
    code, third = run_json(capsys, ["volume", "--p", "2", "--cuts", "0,1,2"])
    assert code == 0 and third == {**first, "config": {**first["config"], "seed": 0}}


NO_SCIPY_ON_IMPORT = (
    "import sys; from superpack.cli import build_parser; "
    "build_parser().parse_args(['pack', '--p', '1.5', '--cuts', '0,1,2', '--R', '8', '--eps', '0.05']); "
    "bad = sorted(m for m in sys.modules if m.startswith('scipy')); "
    "sys.exit(f'scipy imported: {bad}' if bad else 0)"
)


def test_cli_start_up_imports_no_scipy():
    src = str(pathlib.Path(superpack.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_ON_IMPORT], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


NO_MA_OR_SCIPY_IN_PACK = (
    "import sys; from superpack.cli import main; "
    "assert main(['pack', '--p', '1.5', '--cuts', '0,1,2', '--R', '40', '--eps', '0.3', '--out', sys.argv[1]]) == 0; "
    "assert main(['verify', '--in', sys.argv[1], '--out', sys.argv[2]]) == 0; "
    "bad = sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'] or m.split('.')[0] == 'scipy'); "
    "sys.exit(f'imported: {bad}' if bad else 0)"
)


def test_pack_and_verify_import_no_numpy_ma_or_scipy(tmp_path):
    src = str(pathlib.Path(superpack.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", NO_MA_OR_SCIPY_IN_PACK, str(tmp_path / "cert.json"), str(tmp_path / "verify.json")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("argv", [
    TestPackVerify.PACK[:-4] + ["--R", "inf", "--eps", "0.1"],
    TestPackVerify.PACK[:-4] + ["--R", "nan", "--eps", "0.1"],
    TestPackVerify.PACK[:-4] + ["--R", "1.9", "--eps", "nan"],
], ids=["R-inf", "R-nan", "eps-nan"])
def test_non_finite_lattice_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "R and eps must be positive and finite" in captured.err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2_before_any_work(threads, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("pool"))
    monkeypatch.setattr(gibbs, "run_chain", lambda *a, **k: pytest.fail("chain ran"))
    assert main(["--threads", threads] + TestSimulate.ARGS + ["--replicas", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: --threads")
