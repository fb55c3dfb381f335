"""Pressure and entropy estimators against exact 1D partition functions."""

import json
import math
import pathlib

import numpy as np
import pytest

from superpack.errors import ComputationError, InputError
from superpack.geometry import SpaceParams, SuperballRegion, TorusRegion
from superpack.gibbs import ModelParams, canonical_partition, grand_partition, packing_hits
from superpack.thermo import (
    ThermoResult,
    entropy_estimate,
    entropy_monotonicity_check,
    entropy_reference,
    pressure_estimate,
    pressure_reference,
)

LINE = SpaceParams.create(2.0, (0, 1))


def rods_on_interval(half_length, fugacity):
    return ModelParams(LINE, SuperballRegion(half_length), fugacity, radius=0.5)


def rods_on_ring(side, fugacity):
    return ModelParams(LINE, TorusRegion(side), fugacity, radius=0.5)


class TestThermoResult:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            ThermoResult(kind="enthalpy", value=0.0, se=0.0, V=1.0)

    def test_sign_invariants(self):
        with pytest.raises(ComputationError):
            ThermoResult(kind="pressure", value=-0.1, se=0.0, V=1.0)
        with pytest.raises(ComputationError):
            ThermoResult(kind="entropy", value=0.1, se=0.0, V=1.0)

    def test_json_round_trip(self):
        res = ThermoResult(kind="entropy", value=-0.5, se=0.01, V=10.0, t=3)
        data = res.to_json()
        assert data["kind"] == "entropy"
        assert data["t"] == 3
        json.dumps(data)


class TestReferences:
    def golden_rows(self, p):
        path = pathlib.Path(__file__).parent / "golden" / "density_golden.json"
        return json.loads(path.read_text())["tables"][p]

    @pytest.mark.parametrize("p", ["1.5", "2.0"])
    def test_pressure_reference_matches_golden(self, p):
        from superpack.constants import compute_constant_chain

        c_p = compute_constant_chain(float(p)).c_p
        for row in self.golden_rows(p):
            n = row["n"]
            got = pressure_reference(n, c_p**-n, float(p))
            assert got == pytest.approx(row["pressure_formula_at_top"], abs=1e-12)

    def test_pressure_reference_window(self):
        # admissible activities live in (2^-n, c_p^-n], a narrow band
        assert pressure_reference(8, 2.0**-8, 1.5) is None  # closed below
        assert pressure_reference(8, 0.9, 1.5) is None  # above c_p^-n
        assert pressure_reference(8, 0.0042, 1.5) is not None

    def test_references_need_reachable_constant(self):
        assert pressure_reference(8, 1e-3, 2.5) is None
        assert entropy_reference(8, 2.5) is None

    def test_entropy_reference_value(self):
        from superpack.constants import compute_constant_chain

        c_p = compute_constant_chain(1.5).c_p
        assert entropy_reference(8, 1.5) == pytest.approx(-8 * math.log(2 / c_p))


class TestPressureEstimate:
    def test_single_occupancy_region_exact(self):
        # capacity-1 interval: Z = 1 + lam V exactly
        params = rods_on_interval(0.4, fugacity=2.0)
        exact = math.log(1 + 2.0 * 0.8) / 0.8
        res = pressure_estimate(params, grid_size=32, steps=30_000, seed=4)
        assert res.kind == "pressure"
        assert abs(res.value - exact) <= 3 * res.se
        assert res.lam == 2.0 and res.V == pytest.approx(0.8)

    def test_tonks_ring_matches_closed_form(self):
        params = rods_on_ring(20.0, fugacity=1.0)
        exact = grand_partition(params).log_value / 20.0
        res = pressure_estimate(params, grid_size=48, steps=40_000, seed=9)
        assert abs(res.value - exact) <= 3 * res.se

    def test_vanishing_activity(self):
        params = rods_on_ring(20.0, fugacity=1e-9)
        res = pressure_estimate(params, grid_size=4, steps=2_000, seed=1)
        assert 0.0 <= res.value < 1e-9

    def test_activity_defaults_to_model(self):
        params = rods_on_ring(10.0, fugacity=0.25)
        res = pressure_estimate(params, grid_size=4, steps=2_000, seed=1)
        assert res.lam == 0.25

    @pytest.mark.parametrize("threads, grid", [(2, 5), (3, 4)])
    def test_threads_do_not_change_the_result(self, threads, grid):
        params = ModelParams(SpaceParams.create(1.5, (0, 1, 2)), TorusRegion(8.0), 3.0)
        serial = pressure_estimate(params, grid_size=grid, steps=1_500, seed=6)
        parallel = pressure_estimate(params, grid_size=grid, steps=1_500, seed=6, threads=threads)
        assert parallel.to_json() == serial.to_json()

    def test_reference_attached_inside_window(self):
        # n=1 window is (1/2, 1/c_2]
        params = rods_on_ring(10.0, fugacity=0.51)
        res = pressure_estimate(params, grid_size=4, steps=2_000, seed=1)
        assert res.lower_bound_ref is not None
        assert res.lower_bound_ref > 0

    def test_input_validation(self):
        # the activity is the model's, which ModelParams checks
        with pytest.raises(InputError):
            pressure_estimate(rods_on_ring(10.0, fugacity=-1.0))
        with pytest.raises(InputError):
            pressure_estimate(rods_on_ring(10.0, fugacity=math.inf))
        with pytest.raises(InputError):
            pressure_estimate(rods_on_ring(10.0, fugacity=1.0), grid_size=1)


class TestEntropyEstimate:
    def test_one_center_is_free(self):
        params = rods_on_interval(5.0, fugacity=1.0)
        res = entropy_estimate(params, 1, 100, seed=0)
        assert res.value == 0.0
        assert res.se == 0.0
        assert res.successes == 100
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert [packing_hits(params, t, 100, rng) for t in (0, 1)] == [100, 100]
        assert rng.bit_generator.state == state  # nothing drawn

    def test_hard_rod_oracle_interval(self):
        # L=10, t=3: P = Zhat(3) 3! / L^3 with Zhat(3) = 8^3/6
        params = rods_on_interval(5.0, fugacity=1.0)
        exact = math.log((8.0**3 / 6.0) * 6.0 / 10.0**3) / 3
        res = entropy_estimate(params, 3, 200_000, seed=11)
        assert abs(res.value - exact) <= 3 * res.se
        assert res.note is None
        assert res.alpha == pytest.approx(3 / 10.0)

    def test_hard_rod_oracle_ring(self):
        # ring Zhat(3) = L (L - 3)^2 / 3! at L=10 -> P = 0.49
        params = rods_on_ring(10.0, fugacity=1.0)
        exact = math.log(10.0 * 7.0**2 / 10.0**3) / 3
        res = entropy_estimate(params, 3, 150_000, seed=2)
        assert abs(res.value - exact) <= 3 * res.se

    def test_delta_method_se(self):
        params = rods_on_interval(5.0, fugacity=1.0)
        res = entropy_estimate(params, 2, 50_000, seed=3)
        p_hat = res.successes / res.samples
        assert res.se == pytest.approx(
            math.sqrt((1 - p_hat) / (p_hat * res.samples)) / 2
        )

    def test_impossible_configuration_reports_bound(self):
        # diameter below the exclusion: two centers never fit
        params = rods_on_interval(0.2, fugacity=1.0)
        res = entropy_estimate(params, 2, 5_000, seed=3)
        assert res.successes == 0
        assert res.value == math.log(1.0 / 5_000) / 2
        assert res.se == math.inf
        assert "bound" in res.note

    def test_scarce_successes_flagged(self):
        # P ~ (4/10)^7 ~ 1.6e-3: a 2000-sample run stays under 10 hits
        params = rods_on_interval(5.0, fugacity=1.0)
        res = entropy_estimate(params, 7, 2_000, seed=5)
        assert 0 < res.successes < 10
        assert "unreliable" in res.note

    @pytest.mark.parametrize("region", [TorusRegion(6.0), SuperballRegion(3.0)], ids=["torus", "ball"])
    def test_one_packing_estimator(self, region):
        # entropy and the MC canonical weight read the same hit count
        params = ModelParams(SpaceParams.create(1.5, (0, 1, 2)), region, 1.0)
        t, N, seed = 3, 20_000, 8
        hits = packing_hits(params, t, N, np.random.default_rng(seed))
        assert 0 < hits < N
        assert entropy_estimate(params, t, N, seed=seed).successes == hits
        scale = math.exp(t * math.log(params.volume) - math.lgamma(t + 1))
        assert canonical_partition(t, params, "mc", mc_samples=N, seed=seed).value == hits / N * scale

    def test_deterministic_in_seed(self):
        params = rods_on_ring(10.0, fugacity=1.0)
        a = entropy_estimate(params, 3, 20_000, seed=42)
        b = entropy_estimate(params, 3, 20_000, seed=42)
        assert a == b

    def test_input_validation(self):
        params = rods_on_ring(10.0, fugacity=1.0)
        with pytest.raises(InputError):
            entropy_estimate(params, 0, 100)
        with pytest.raises(InputError):
            entropy_estimate(params, 2.5, 100)
        with pytest.raises(InputError):
            entropy_estimate(params, 2, 0)


class TestMonotonicity:
    def test_exactly_decreasing_family(self):
        # interval L=20: f(t) = log((L - t + 1)/L), strictly decreasing
        params = rods_on_interval(10.0, fugacity=1.0)
        report = entropy_monotonicity_check(params, [2, 3, 4], samples=40_000, seed=6)
        assert report["all_ok"]
        assert report["advisory"] is True
        assert len(report["estimates"]) == 3
        assert all(p["ok"] for p in report["pairs"])

    def test_free_point_dominates(self):
        params = rods_on_interval(5.0, fugacity=1.0)
        report = entropy_monotonicity_check(params, [1, 2], samples=5_000, seed=7)
        assert report["all_ok"]
        assert report["estimates"][0]["value"] == 0.0

    def test_zero_success_pairs_are_skipped(self):
        params = rods_on_interval(0.2, fugacity=1.0)
        report = entropy_monotonicity_check(params, [1, 2], samples=1_000, seed=8)
        assert report["pairs"][0]["skipped"] is True
        assert report["pairs"][0]["ok"] is None
        assert report["all_ok"]  # vacuous over the non-skipped pairs

    def test_input_validation(self):
        params = rods_on_interval(5.0, fugacity=1.0)
        with pytest.raises(InputError):
            entropy_monotonicity_check(params, [3, 2], samples=100)
        with pytest.raises(InputError):
            entropy_monotonicity_check(params, [4], samples=100)
