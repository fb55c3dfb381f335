"""Acceptance gate: every release-blocking check, one test per criterion.

Heavier than the unit suite. Each test asserts its stated tolerance and
runtime budget, then prints one line:

    ACCEPTANCE <k>: PASS - <what was established>

so a verbose run reads as a checklist. Statistical checks use fixed
seeds chosen up front; estimators are unbiased, so a fixed seed is a
fair draw, not a tuned one.
"""

import itertools
import json
import math
import pathlib
import time
import warnings

import numpy as np
import pytest

from superpack import gibbs
from superpack.cli import main
from superpack.constants import (
    clarkson_residuals,
    compute_constant_chain,
    delta_p,
    density_lower_bound,
    threshold_curve,
)
from superpack.geometry import (
    BlockSpec,
    SpaceParams,
    SuperballRegion,
    TorusRegion,
    norm_batch,
    unit_ball_volume,
)
from superpack.gibbs import (
    ModelParams,
    estimate_alpha_curve,
    exact_moments,
    grand_partition,
    intersection_volume_check,
    run_chain,
)
from superpack.lattice_graph import (
    LatticeParams,
    build_graph,
    build_lattice,
    cover_check,
    emit_packing,
    greedy_independent_set,
    verify_packing,
)
from superpack.thermo import entropy_estimate, entropy_monotonicity_check, pressure_reference

GOLDEN = pathlib.Path(__file__).parent / "golden"
LINE = SpaceParams.create(2.0, (0, 1))

pytestmark = pytest.mark.filterwarnings(
    "ignore:eps violates the smallness", "ignore:p="
)


def _random_space(rng, p, max_n=10):
    n = int(rng.integers(1, max_n + 1))
    if n == 1:
        return SpaceParams.create(p, (0, 1))
    k = int(rng.integers(0, n))
    interior = sorted(rng.choice(np.arange(1, n), size=k, replace=False).tolist())
    return SpaceParams.create(p, (0, *interior, n))


def _unit_pairs(rng, space, count):
    x = rng.standard_normal((count, space.n))
    y = rng.standard_normal((count, space.n))
    x /= norm_batch(x, space)[:, None]
    y /= norm_batch(y, space)[:, None]
    return x, y


def test_criterion_01_clarkson_inequalities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    groups = 20
    per_group = 500
    for p in (1.05, 1.1, 1.25, 1.5, 1.75, 2.0):
        for _ in range(groups):
            space = _random_space(rng, p)
            X = rng.standard_normal((per_group, space.n))
            Y = rng.standard_normal((per_group, space.n))
            res = clarkson_residuals(X, Y, space)
            assert res["direction"] == ("stated" if p == 2.0 else "reversed")
            for key, scale in (("r3_lower", "scale3"), ("r3_upper", "scale3"),
                               ("r4", "scale4"), ("r5", "scale5")):
                floor = -1e-9 * res[scale]
                # at p = 2 the residuals vanish, so the negation checks
                # the reversed-direction form of the same inequality
                vals = -res[key] if p == 2.0 else res[key]
                assert (vals >= floor).all(), (p, key)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in (2.0, 2.5, 3.0):
            for _ in range(groups):
                space = _random_space(rng, p)
                X = rng.standard_normal((per_group, space.n))
                Y = rng.standard_normal((per_group, space.n))
                res = clarkson_residuals(X, Y, space)
                assert res["direction"] == "stated"
                for key, scale in (("r3_lower", "scale3"), ("r3_upper", "scale3"),
                                   ("r4", "scale4"), ("r5", "scale5")):
                    floor = -1e-9 * res[scale]
                    assert (res[key] >= floor).all(), (p, key)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"budget blown: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 01: PASS - 9 exponents x 10^4 pairs, residuals >= "
          f"-1e-9 scale, {elapsed:.1f}s")


def test_criterion_02_uniform_convexity():
    rng = np.random.default_rng(202)
    worst = math.inf
    for p in (1.05, 1.1, 1.25, 1.5, 1.75, 2.0):
        for _ in range(20):
            space = _random_space(rng, p)
            x, y = _unit_pairs(rng, space, 500)
            sep = np.clip(norm_batch(x - y, space), 1e-9, 2.0)
            mids = norm_batch((x + y) / 2.0, space)
            allowed = np.array([1.0 - delta_p(s, p) for s in sep])
            margin = allowed + 1e-12 - mids
            worst = min(worst, float(margin.min()))
            assert (margin >= 0).all(), p
    print(f"\nACCEPTANCE 02: PASS - 6 exponents x 10^4 unit pairs, midpoint "
          f"norm <= 1 - delta_p(eps) + 1e-12 (worst margin {worst:.2e})")


def test_criterion_03_constant_chain_grid():
    golden = json.loads((GOLDEN / "constants_golden.json").read_text())
    for p in np.linspace(1.05, 2.0, 50):
        chain = compute_constant_chain(float(p))
        assert 0.0 <= chain.residual_h <= 1e-8, p
        assert chain.x_p < chain.c_p < 2.0, p
        assert chain.contraction_margin > 0.0, p
    chain2 = compute_constant_chain(2.0)
    assert abs(chain2.c_p - golden["chains"]["2.0"]["c_p"]) <= 1e-9
    lo = threshold_curve(1.85, 2.0)
    hi = threshold_curve(1.86, 2.0)
    assert lo < 1.0 / 9.0 < hi
    assert lo == pytest.approx(golden["bracket_p2"]["curve_at_1.85"], abs=1e-12)
    assert hi == pytest.approx(golden["bracket_p2"]["curve_at_1.86"], abs=1e-12)
    print("\nACCEPTANCE 03: PASS - 50-point exponent grid: residual in "
          "[0, 1e-8], x_p < c_p < 2, positive margin; c_2 on golden to 1e-9")


def test_criterion_04_volume_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    cases = []
    for _ in range(10):
        p = float(rng.uniform(1.0, 2.5))
        space = _random_space(rng, p, max_n=4)
        exact = unit_ball_volume(p, space.blocks)
        total = 10_000_000
        hits = 0
        done = 0
        while done < total:
            m = min(total - done, 2_000_000)
            pts = rng.uniform(-1.0, 1.0, size=(m, space.n))
            hits += int((norm_batch(pts, space) <= 1.0).sum())
            done += m
        frac = hits / total
        est = frac * 2.0**space.n
        se = 2.0**space.n * math.sqrt(frac * (1.0 - frac) / total)
        if se == 0.0:
            # 1D: the ball coincides with the sampling box, every probe hits
            assert est == pytest.approx(exact, rel=1e-12)
            cases.append(0.0)
        else:
            z = (est - exact) / se
            cases.append(z)
            assert abs(est - exact) <= 3.0 * se, (p, space.blocks.cuts, z)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"budget blown: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 04: PASS - 10 random spaces, closed form inside 3 SE "
          f"of 10^7-sample rejection (|z| max {max(abs(z) for z in cases):.2f}), "
          f"{elapsed:.1f}s")


def test_criterion_05_tonks_gas_exactness():
    worst_z = 0.0
    for region in (TorusRegion(20.0), SuperballRegion(10.0)):
        for i, lam in enumerate((0.5, 1.0, 2.0)):
            start = time.perf_counter()
            params = ModelParams(LINE, region, lam, radius=0.5)
            exact = exact_moments(params)
            gp = grand_partition(params)
            assert gp.log_value <= lam * 20.0
            est = run_chain(params, 1_000_000, 100_000,
                            seed=505 + i + (0 if isinstance(region, TorusRegion) else 50))
            z = (est.alpha_hat - exact["alpha"]) / est.alpha_se
            worst_z = max(worst_z, abs(z))
            assert abs(est.alpha_hat - exact["alpha"]) <= 3.0 * est.alpha_se, (region, lam, z)
            elapsed = time.perf_counter() - start
            assert elapsed < 60, f"budget blown at lam={lam}: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 05: PASS - 1D ring and interval, L=20, lam in "
          f"{{0.5,1,2}}: 10^6-step chains inside 3 SE of exact density "
          f"(|z| max {worst_z:.2f}); log Z <= lam L everywhere")


def _difference_se(series, batches=25):
    m = len(series) // batches
    means = series[: m * batches].reshape(batches, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def test_criterion_06_alpha_equals_lam_fv():
    # count and free volume move in opposite directions within one chain,
    # so the combined SE must come from the aligned difference series,
    # not from adding the two marginal SEs in quadrature
    start = time.perf_counter()
    results = []
    for n, p in itertools.product((1, 2, 3), (1.5, 2.0)):
        space = SpaceParams.create(p, tuple(range(n + 1)))
        L = 8.0 * space.r_unit
        for lam in (0.5, 2.0):
            params = ModelParams(space, TorusRegion(L), lam)
            V = params.volume
            seeds = np.random.SeedSequence(
                (6, n, int(10 * p), int(10 * lam))
            ).generate_state(20, dtype=np.uint64)
            hits = 0
            for s in seeds:
                est = run_chain(params, 40_000, 4_000, seed=int(s), collect_trace=True)
                tr = est.trace
                probed = tr["fv_probe_hits"] >= 0
                diff = (tr["count"][probed] / V
                        - lam * tr["fv_probe_hits"][probed] / gibbs.FV_PROBES)
                hits += abs(diff.mean()) <= 3.0 * _difference_se(diff)
            results.append((n, p, lam, hits))
            assert hits >= 19, (n, p, lam, hits)
    elapsed = time.perf_counter() - start
    floor = min(h for *_, h in results)
    print(f"\nACCEPTANCE 06: PASS - alpha = lam FV on 12 (n,p,lam) combos x "
          f"20 replicates, worst pass rate {floor}/20, {elapsed:.0f}s")


def test_criterion_07_alpha_monotone_in_activity():
    start = time.perf_counter()
    grid = np.geomspace(0.25, 8.0, 6)
    for n, p in itertools.product((1, 2, 3), (1.5, 2.0)):
        space = SpaceParams.create(p, tuple(range(n + 1)))
        params = ModelParams(space, TorusRegion(8.0 * space.r_unit), 1.0)
        curve = estimate_alpha_curve(params, grid, steps=100_000, burn_in=10_000,
                                     seed=707 + n)
        alphas = [c.alpha_hat for _, c in curve]
        ses = [c.alpha_se for _, c in curve]
        for i in range(len(grid) - 1):
            slack = 3.0 * math.hypot(ses[i], ses[i + 1])
            assert alphas[i + 1] >= alphas[i] - slack, (n, p, i)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 07: PASS - density nondecreasing over a 6-point "
          f"activity grid within 3 SE on all 6 (n,p) combos, {elapsed:.0f}s")


def test_criterion_08_intersection_volume_bound():
    start = time.perf_counter()
    worst = -math.inf
    for n, p in itertools.product((2, 3, 4), (1.5, 2.0)):
        space = SpaceParams.create(p, tuple(range(n + 1)))
        chain = compute_constant_chain(p)
        report = intersection_volume_check(
            space, trials=200, seed=808 + n, samples_per_trial=20_000, chain=chain
        )
        assert report.all_ok, (n, p)
        bound = chain.c_p**n
        for rec in report.records:
            # the stated tolerance: estimate <= bound * (1 + 3 MC SE)
            assert rec["volume"] <= bound * (1.0 + 3.0 * rec["se"]), (n, p, rec)
            worst = max(worst, rec["volume"] - bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"budget blown: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 08: PASS - 6 spaces x 200 centers: intersection "
          f"volume <= c_p^n with 3 SE headroom (worst excess {worst:.3f}), "
          f"{elapsed:.0f}s")


def test_criterion_09_lattice_pipeline():
    start = time.perf_counter()
    space = SpaceParams.create(1.5, (0, 1, 2))
    R = 10.0 * space.r_unit
    # just under the smallness threshold, so no warning and a dense graph
    eps = 0.999 * LatticeParams(space, R, 1e-6).eps_threshold
    lattice = build_lattice(R, eps, space)
    cover = cover_check(lattice, probes=100_000, seed=909)
    assert cover["ok"], cover
    graph = build_graph(lattice)
    assert graph.max_degree + 1 <= graph.degree_bound()
    cert = emit_packing(graph, greedy_independent_set(graph))
    valid, min_d = verify_packing(cert)
    assert valid
    assert cert.density >= 0.25, cert.density
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"budget blown: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 09: PASS - {lattice.N} cubes, {graph.edge_count} "
          f"edges, max degree {graph.max_degree} <= {graph.degree_bound():.0f}, "
          f"10^5-probe cover, certified density {cert.density:.3f} >= 0.25, "
          f"{elapsed:.0f}s")


def test_criterion_10_entropy_oracle():
    params = ModelParams(LINE, SuperballRegion(5.0), 1.0, radius=0.5)
    exact = math.log((8.0**3 / 6.0) * 6.0 / 10.0**3) / 3.0
    res = entropy_estimate(params, 3, 200_000, seed=11)
    z = (res.value - exact) / res.se
    assert abs(res.value - exact) <= 3.0 * res.se, z
    report = entropy_monotonicity_check(params, [1, 2, 3], samples=100_000, seed=10)
    assert report["all_ok"], report["pairs"]
    print(f"\nACCEPTANCE 10: PASS - 1D L=10 t=3 entropy inside 3 SE of the "
          f"hard-rod value (z={z:+.2f}); monotone over t in {{1,2,3}}")


def test_criterion_11_determinism(tmp_path):
    reruns = {
        "volume": ["volume", "--p", "1.5", "--cuts", "0,1,2",
                   "--mc", "200000", "--seed", "7"],
        "simulate": ["simulate", "--p", "2", "--cuts", "0,1", "--region",
                     "torus", "--size", "12", "--fugacity", "1.0", "--steps",
                     "20000", "--burnin", "2000", "--seed", "7"],
        "entropy": ["thermo", "entropy", "--p", "2", "--cuts", "0,1",
                    "--region", "ball", "--size", "5", "--count", "3",
                    "--samples", "50000", "--seed", "7"],
        "pressure": ["thermo", "pressure", "--p", "2", "--cuts", "0,1",
                     "--region", "torus", "--size", "10", "--fugacity", "0.5",
                     "--grid", "6", "--steps", "5000", "--seed", "7"],
        "pack": ["pack", "--p", "1.5", "--cuts", "0,1,2", "--R", "1.9",
                 "--eps", "0.1"],
    }
    for name, argv in reruns.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(a)]) == 0, name
        assert main(argv + ["--out", str(b)]) == 0, name
        assert a.read_bytes() == b.read_bytes(), name
        if name == "simulate":
            assert (tmp_path / f"{name}_a.json").read_bytes() == (
                tmp_path / f"{name}_b.json"
            ).read_bytes()
    print("\nACCEPTANCE 11: PASS - volume, simulate, thermo (both), pack: "
          "same seed gives byte-identical outputs")


def test_criterion_12_reporting_goldens(tmp_path):
    golden = json.loads((GOLDEN / "density_golden.json").read_text())
    for p_key in ("1.5", "2.0"):
        p = float(p_key)
        for row in golden["tables"][p_key]:
            n = row["n"]
            bound = density_lower_bound(n, p)
            assert abs(bound.bound - row["bound"]) <= 1e-12
            assert abs(bound.fugacity_threshold - row["fugacity_threshold"]) <= 1e-12
            z_star, floor = bound.alpha_floor(bound.fugacity_threshold)
            assert abs(z_star - row["z_star_at_threshold"]) <= 1e-12
            assert abs(floor - row["alpha_floor_at_threshold"]) <= 1e-12
            top = pressure_reference(n, bound.c_p**-n, p)
            assert abs(top - row["pressure_formula_at_top"]) <= 1e-12
        # the same numbers must come out of the CLI emission path
        out = tmp_path / f"table_{p_key}.json"
        assert main(["constants", "--p", p_key, "--out", str(out)]) == 0
        emitted = json.loads(out.read_text())["density_table"]
        for erow, grow in zip(emitted, golden["tables"][p_key]):
            assert abs(erow["bound"] - grow["bound"]) <= 1e-12
            assert abs(erow["fugacity_threshold"] - grow["fugacity_threshold"]) <= 1e-12
    print("\nACCEPTANCE 12: PASS - density table (n in {8,16,32,48}) and "
          "pressure formula values match the golden derivation to 1e-12, "
          "via library and CLI emission")
