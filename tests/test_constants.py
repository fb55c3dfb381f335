import json
import math
import pathlib

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from superpack.constants import (
    ClarksonReport,
    _lambert_w_from_log,
    clarkson_check,
    clarkson_residuals,
    compute_constant_chain,
    delta_p,
    density_lower_bound,
    lambert_w,
    solve_x_p,
    threshold_curve,
    uniform_convexity_check,
)
from superpack.errors import ComputationError, InputError
from superpack.geometry import SpaceParams, norm

from conftest import block_specs, points

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_constants():
    return json.loads((GOLDEN / "constants_golden.json").read_text())


@pytest.fixture(scope="module")
def golden_density():
    return json.loads((GOLDEN / "density_golden.json").read_text())


class TestDelta:
    def test_full_separation(self):
        assert delta_p(2.0, 1.5) == 1.0
        assert delta_p(2.0, 2.0) == 1.0

    def test_p2_unit_separation(self):
        # Euclidean: 1 - sqrt(1 - (eps/2)^2) at eps = 1
        assert delta_p(1.0, 2.0) == pytest.approx(1 - math.sqrt(3) / 2, rel=1e-14)

    def test_small_eps_quadratic_p2(self):
        eps = 1e-4
        assert delta_p(eps, 2.0) == pytest.approx(eps**2 / 8, rel=1e-6)

    def test_tiny_eps_does_not_underflow_to_zero(self):
        assert delta_p(1e-8, 1.8) > 0.0

    def test_monotone_in_eps(self):
        eps = np.linspace(1e-3, 2.0, 200)
        vals = [delta_p(e, 1.5) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_p(self):
        # larger p means smaller conjugate q, hence more convexity at fixed eps
        ps = np.linspace(1.05, 2.0, 100)
        vals = [delta_p(1.0, p) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [0.0, -0.5, 2.0001])
    def test_eps_domain(self, eps):
        with pytest.raises(InputError):
            delta_p(eps, 1.5)

    @pytest.mark.parametrize("p", [1.0, 0.5, 2.5])
    def test_p_domain(self, p):
        with pytest.raises(InputError):
            delta_p(1.0, p)


class TestThresholdCurve:
    def test_value_at_two(self):
        for q in (2.0, 3.0, 5.7):
            assert threshold_curve(2.0, q) == pytest.approx(2.0**-q, rel=1e-14)

    def test_frozen_point(self):
        assert threshold_curve(1.8, 2.0) == pytest.approx(0.05808641975308642, abs=1e-15)

    def test_golden_bracket(self, golden_constants):
        b = golden_constants["bracket_p2"]
        lo = threshold_curve(1.85, 2.0)
        hi = threshold_curve(1.86, 2.0)
        assert lo == pytest.approx(b["curve_at_1.85"], rel=1e-13)
        assert hi == pytest.approx(b["curve_at_1.86"], rel=1e-13)
        assert b["target"] == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert lo < 1.0 / 9.0 < hi

    def test_vectorized(self):
        x = np.array([1.6, 1.8, 2.0])
        out = threshold_curve(x, 3.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)


class TestConstantChain:
    def test_x2_bracket(self):
        x2 = solve_x_p(2.0)
        assert 1.85 < x2 < 1.86

    def test_chain_matches_golden_p2(self, golden_constants):
        g = golden_constants["chains"]["2.0"]
        chain = compute_constant_chain(2.0)
        assert chain.x_p == pytest.approx(g["x_p"], abs=1e-9)
        assert chain.c_p == pytest.approx(g["c_p"], abs=1e-9)
        assert chain.eps_p == pytest.approx(g["eps_p"], abs=1e-9)
        assert chain.contraction_margin == pytest.approx(g["contraction_margin"], abs=1e-9)

    def test_chain_matches_golden_p15(self, golden_constants):
        g = golden_constants["chains"]["1.5"]
        chain = compute_constant_chain(1.5)
        assert chain.x_p == pytest.approx(g["x_p"], abs=1e-9)
        assert chain.c_p == pytest.approx(g["c_p"], abs=1e-9)

    @pytest.mark.parametrize("p", np.linspace(1.05, 2.0, 12))
    def test_chain_invariants_across_grid(self, p):
        chain = compute_constant_chain(float(p))
        assert 0.0 <= chain.residual_h <= 1e-8
        assert chain.x_p < chain.c_p < 2.0
        assert chain.contraction_margin > 0.0
        assert chain.c_prime <= chain.c_p

    def test_c_prime_branch_dominates(self):
        chain = compute_constant_chain(2.0)
        assert chain.c_p == max(chain.x_p, chain.c_prime)

    @pytest.mark.parametrize("p", [1.0, 0.9, 2.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(InputError):
            compute_constant_chain(p)

    def test_refuses_float_collapse_region(self):
        with pytest.raises(ComputationError):
            compute_constant_chain(1.01)

    def test_json_fields(self):
        d = compute_constant_chain(1.5).to_json()
        for key in ("p", "q", "x_p", "eps_p", "delta_at_eps", "contraction_margin",
                    "c_prime", "c_p"):
            assert key in d


class TestClarkson:
    def test_parallelogram_identity_p2(self):
        space = SpaceParams.create(2.0, (0, 2))
        x = np.array([1.0, 2.0])
        y = np.array([-0.5, 3.0])
        report = clarkson_check(x, y, space)
        # p = 2 turns inequality (3) into the parallelogram identity
        scale = report.scale3
        assert abs(report.r3_lower) <= 1e-12 * scale
        assert abs(report.r3_upper) <= 1e-12 * scale
        assert report.ok

    def test_zero_vectors(self):
        space = SpaceParams.create(1.5, (0, 1, 2))
        assert clarkson_check(np.zeros(2), np.zeros(2), space).ok

    @given(block_specs(max_n=6), st.sampled_from([1.05, 1.1, 1.25, 1.5, 1.75, 2.0]), st.data())
    def test_reversed_direction_fuzz(self, blocks, p, data):
        space = SpaceParams.create(p, blocks.cuts)
        x = data.draw(points(space.n, magnitude=1e3))
        y = data.draw(points(space.n, magnitude=1e3))
        assert clarkson_check(x, y, space).ok

    @given(block_specs(max_n=6), st.sampled_from([2.0, 2.5, 3.0]), st.data())
    def test_stated_direction_fuzz(self, blocks, p, data):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            space = SpaceParams.create(p, blocks.cuts)
        x = data.draw(points(space.n, magnitude=1e3))
        y = data.draw(points(space.n, magnitude=1e3))
        assert clarkson_check(x, y, space).ok

    def test_batch_residuals(self, rng):
        space = SpaceParams.create(1.5, (0, 2, 3))
        X = rng.normal(size=(50, 3))
        Y = rng.normal(size=(50, 3))
        r = clarkson_residuals(X, Y, space)
        assert r["direction"] == "reversed"
        assert r["r3_lower"].shape == (50,)
        for key, scale in (("r3_lower", "scale3"), ("r3_upper", "scale3"),
                           ("r4", "scale4"), ("r5", "scale5")):
            assert (r[key] >= -1e-9 * r[scale]).all()

    def test_requires_p_above_one(self):
        space = SpaceParams.create(1.0, (0, 2))
        with pytest.raises(InputError):
            clarkson_check(np.ones(2), np.zeros(2), space)


class TestUniformConvexity:
    def test_tight_case(self):
        # midpoint norm hits 1 - delta exactly for these axis unit vectors
        space = SpaceParams.create(1.5, (0, 1, 2))
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        eps = norm(x - y, space)
        assert uniform_convexity_check(x, y, eps, space)

    def test_generic_pairs(self, rng):
        space = SpaceParams.create(1.25, (0, 1, 3))
        for _ in range(200):
            x = rng.normal(size=3)
            x /= norm(x, space)
            y = rng.normal(size=3)
            y /= norm(y, space)
            eps = min(norm(x - y, space), 2.0)
            if eps < 1e-6:
                continue
            assert uniform_convexity_check(x, y, eps, space)

    def test_rejects_non_unit(self):
        space = SpaceParams.create(1.5, (0, 2))
        with pytest.raises(InputError):
            uniform_convexity_check(np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0.5, space)

    def test_rejects_insufficient_separation(self):
        space = SpaceParams.create(1.5, (0, 2))
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        with pytest.raises(InputError):
            uniform_convexity_check(x, y, 1.9, space)


class TestLambertW:
    def test_golden_w10(self, golden_constants):
        assert lambert_w(10.0) == pytest.approx(golden_constants["lambert_w_10"], rel=1e-13)

    def test_against_scipy(self):
        xs = np.logspace(-6, 9, 40)
        for x in xs:
            ref = float(scipy.special.lambertw(x).real)
            assert lambert_w(float(x)) == pytest.approx(ref, rel=1e-12)

    @given(st.floats(-6.0, 12.0))
    def test_defining_identity(self, e):
        x = 10.0**e
        w = lambert_w(x)
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12)

    def test_extremes(self):
        w = lambert_w(1e300)
        assert w + math.log(w) == pytest.approx(math.log(1e300), rel=1e-13)
        assert lambert_w(1e-300) == pytest.approx(1e-300, rel=1e-12)

    @pytest.mark.parametrize("L", [-700.0, -1.0, 1.0, 2.0, 700.0, 1e4, 1e8])
    def test_log_form_against_mpmath(self, L):
        # alpha_floor's route takes log x, which may lie past what exp
        # reaches; the residual check must accept the rounded root there
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = float(mpmath.lambertw(mpmath.exp(L)).real)
        assert _lambert_w_from_log(L) == pytest.approx(ref, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            lambert_w(0.0)
        with pytest.raises(InputError):
            lambert_w(-1.0)


class TestDensityBound:
    @pytest.mark.parametrize("p_key", ["1.5", "2.0"])
    def test_matches_golden_table(self, golden_density, p_key):
        for row in golden_density["tables"][p_key]:
            n = row["n"]
            b = density_lower_bound(n, float(p_key))
            assert b.bound == pytest.approx(row["bound"], abs=1e-12)
            assert b.bound == pytest.approx(row["bound"], rel=1e-9)
            assert b.fugacity_threshold == pytest.approx(row["fugacity_threshold"], abs=1e-12)
            z_star, floor = b.alpha_floor(b.fugacity_threshold)
            assert z_star == pytest.approx(row["z_star_at_threshold"], abs=1e-12)
            assert floor == pytest.approx(row["alpha_floor_at_threshold"], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n, p, at_threshold_power", [(8, 1.5, False), (48, 2.0, True)])
    def test_floor_log_form_against_mpmath(self, n, p, at_threshold_power):
        # log(lam 2^n e^{2 lam c_p^n}) > 1 here, so z* comes from the log
        # form of W, which no tabled threshold reaches
        mpmath = pytest.importorskip("mpmath")
        b = density_lower_bound(n, p)
        lam = b.c_p ** (-float(n)) if at_threshold_power else 1.0
        assert math.log(lam) + n * math.log(2.0) + 2.0 * lam * b.c_p**n > 1.0
        z_star, floor = b.alpha_floor(lam)
        with mpmath.workdps(50):
            lam_mp = mpmath.mpf(lam)
            log_arg = mpmath.log(lam_mp) + n * mpmath.log(2) + 2 * lam_mp * mpmath.mpf(b.c_p) ** n
            z_ref = mpmath.lambertw(mpmath.exp(log_arg)).real
            floor_ref = lam_mp * mpmath.exp(-z_ref)
            assert z_star == pytest.approx(float(z_ref), rel=1e-12)
            assert floor == pytest.approx(float(floor_ref), rel=1e-12)

    def test_n1(self):
        b = density_lower_bound(1, 2.0)
        chain = compute_constant_chain(2.0)
        assert b.bound == pytest.approx(math.log(2 / chain.c_p) / 2, rel=1e-12)

    def test_floor_stays_below_bound_marker(self):
        # the closed form is an n -> infinity statement; at small n the
        # optimized floor sits below it, which the report records
        b = density_lower_bound(8, 2.0)
        _, floor = b.alpha_floor(b.fugacity_threshold)
        assert floor > 0

    def test_input_validation(self):
        with pytest.raises(InputError):
            density_lower_bound(0, 2.0)
        with pytest.raises(InputError):
            density_lower_bound(2.5, 2.0)
        with pytest.raises(InputError):
            density_lower_bound(4, 2.5)
