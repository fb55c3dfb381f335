import copy
import hashlib
import itertools
import json
import math
import multiprocessing
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import spaces
from superpack import gibbs
from superpack.errors import ComputationError, InputError
from superpack.geometry import (
    SpaceParams,
    SuperballRegion,
    TorusRegion,
    _CellTable,
    distance_batch,
    norm_batch,
)
from superpack.gibbs import (
    Configuration,
    ModelParams,
    canonical_partition,
    estimate_alpha_curve,
    exact_moments,
    grand_partition,
    intersection_volume_check,
    intersection_volume_mc,
    merge_estimates,
    run_chain,
)

LINE = SpaceParams.create(2.0, (0, 1))


def ring(L, lam, radius=0.5):
    return ModelParams(LINE, TorusRegion(L), lam, radius=radius)


def rod_interval(half_length, lam, radius=0.5):
    return ModelParams(LINE, SuperballRegion(half_length), lam, radius=radius)


def ring_zhat(L, sigma, t):
    if t == 0:
        return 1.0
    gap = L - t * sigma
    return L * gap ** (t - 1) / math.factorial(t) if gap > 0 else 0.0


class TestCanonicalPartition:
    def test_t0_is_one(self):
        assert canonical_partition(0, ring(20.0, 1.0)).value == 1.0

    def test_t1_is_volume(self):
        assert canonical_partition(1, ring(20.0, 1.0)).value == pytest.approx(20.0)
        assert canonical_partition(1, rod_interval(5.0, 1.0)).value == pytest.approx(10.0)

    def test_hard_rod_t3(self):
        # interval length 10, exclusion 1: (10 - 2)^3 / 3!
        est = canonical_partition(3, rod_interval(5.0, 1.0))
        assert est.method == "closed_form"
        assert est.value == pytest.approx(512.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_ring_closed_form_vs_mc(self, t):
        params = ring(20.0, 1.0)
        cf = canonical_partition(t, params, "closed_form")
        assert cf.value == pytest.approx(ring_zhat(20.0, 1.0, t), rel=1e-14)
        mc = canonical_partition(t, params, "mc", mc_samples=200_000, seed=31 + t)
        assert abs(mc.value - cf.value) <= 4 * mc.se

    def test_interval_closed_form_vs_mc(self):
        params = rod_interval(5.0, 1.0)
        cf = canonical_partition(4, params)
        mc = canonical_partition(4, params, "mc", mc_samples=200_000, seed=17)
        assert abs(mc.value - cf.value) <= 4 * mc.se

    def test_2d_pair_integral_mc(self):
        # torus pair integral: (V^2 - V * vol(B(2r))) / 2 when 2r < L/2
        space = SpaceParams.create(1.5, (0, 1, 2))
        L = 8 * space.r_unit
        params = ModelParams(space, TorusRegion(L), 1.0)
        V = L**2
        exact = (V * V - V * 2.0**2) / 2.0
        mc = canonical_partition(2, params, "mc", mc_samples=200_000, seed=3)
        assert abs(mc.value - exact) <= 4 * mc.se
        auto = canonical_partition(2, params)
        assert auto.method == "mc" and auto.se > 0

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("region", ["torus", "ball"])
    def test_2d_auto_is_mc_with_its_se(self, t, region):
        # no closed form past t = 1 in two dimensions: auto must report
        # the Monte Carlo standard error, not a deterministic se = 0
        space = SpaceParams.create(1.5, (0, 1, 2))
        shape = TorusRegion(6 * space.r_unit) if region == "torus" else SuperballRegion(5 * space.r_unit)
        est = canonical_partition(t, ModelParams(space, shape, 1.0))
        assert est.method == "mc" and est.se > 0

    def test_mc_without_a_packing_is_a_bound(self):
        # 20 superballs fill a fifth of this torus: no sample of 4000 packs,
        # which bounds Zhat(20) from above only, so the error is not 0
        space = SpaceParams.create(1.5, (0, 1, 2))
        params = ModelParams(space, TorusRegion(10 * space.r_unit), 1.0)
        est = canonical_partition(20, params, mc_samples=4000)
        assert (est.value, est.se, est.method) == (0.0, math.inf, "mc")

    def test_quadrature_is_unknown_method(self):
        with pytest.raises(InputError, match="unknown method"):
            canonical_partition(2, ring(20.0, 1.0), "quadrature")

    def test_capacity_zero(self):
        # interval shorter than the exclusion cannot hold two rods
        assert canonical_partition(2, rod_interval(0.4, 1.0)).value == 0.0

    def test_rejects_bad_t(self):
        with pytest.raises(InputError):
            canonical_partition(-1, ring(20.0, 1.0))
        with pytest.raises(InputError):
            canonical_partition(2, ring(20.0, 1.0), "nonsense")

    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("samples", [0, -5, 2.5])
    def test_rejects_bad_mc_samples(self, t, samples):
        with pytest.raises(InputError):
            canonical_partition(t, ring(20.0, 1.0), "mc", mc_samples=samples)


class TestGrandPartition:
    def test_small_fugacity_limit(self):
        gp = grand_partition(ring(20.0, 1e-12))
        assert gp.value == pytest.approx(1.0, abs=3e-11)

    def test_two_point_capacity_exact(self):
        params = rod_interval(0.4, 2.0)  # diameter 0.8 < exclusion
        gp = grand_partition(params)
        assert gp.capacity_truncated
        assert gp.value == pytest.approx(1.0 + 2.0 * 0.8, rel=1e-14)

    def test_matches_direct_summation(self):
        lam = 1.0
        gp = grand_partition(ring(20.0, lam))
        direct = sum(lam**t * ring_zhat(20.0, 1.0, t) for t in range(40))
        assert gp.value == pytest.approx(direct, rel=1e-13)

    def test_log_bound(self):
        for lam in (0.25, 1.0, 4.0):
            gp = grand_partition(ring(20.0, lam))
            assert gp.log_value <= lam * 20.0

    def test_tail_enforcement(self):
        with pytest.raises(ComputationError):
            grand_partition(ring(20.0, 1.0), t_max=3)

    def test_short_t_max_fine_when_capacity_reached(self):
        gp = grand_partition(rod_interval(0.4, 50.0), t_max=2)
        assert gp.value == pytest.approx(1.0 + 50.0 * 0.8, rel=1e-14)

    def test_needs_deterministic_route(self):
        space = SpaceParams.create(2.0, (0, 3))
        params = ModelParams(space, TorusRegion(8.0), 1.0)
        with pytest.raises(ComputationError):
            grand_partition(params)

    def test_2d_torus_raises_not_truncated(self):
        # every t >= 2 term in two dimensions is a Monte Carlo estimate,
        # so no exact Z exists to compose
        space = SpaceParams.create(1.5, (0, 1, 2))
        with pytest.warns(UserWarning, match="half the torus side"):
            params = ModelParams(space, TorusRegion(3.75 * space.r_unit), 2.0)
        with pytest.raises(ComputationError, match="exact terms"):
            grand_partition(params)

    def test_moments_match_test_side_sum(self):
        lam = 1.0
        m = exact_moments(ring(20.0, lam))
        ws = [lam**t * ring_zhat(20.0, 1.0, t) for t in range(40)]
        Z = sum(ws)
        mean = sum(t * w for t, w in enumerate(ws)) / Z
        var = sum(t * t * w for t, w in enumerate(ws)) / Z - mean**2
        assert m["mean_count"] == pytest.approx(mean, rel=1e-12)
        assert m["var_count"] == pytest.approx(var, rel=1e-10)
        assert m["alpha"] == pytest.approx(mean / 20.0, rel=1e-12)
        assert m["log_z"] == pytest.approx(math.log(Z), rel=1e-13)


class TestModelParams:
    def test_default_radius_is_r_unit(self):
        space = SpaceParams.create(1.5, (0, 2))
        params = ModelParams(space, TorusRegion(5.0), 1.0)
        assert params.radius == space.r_unit
        assert params.exclusion == 2 * space.r_unit

    def test_rejects_bad_fugacity(self):
        with pytest.raises(InputError):
            ModelParams(LINE, TorusRegion(5.0), 0.0)
        with pytest.raises(InputError):
            ModelParams(LINE, TorusRegion(5.0), math.inf)

    def test_rejects_bad_radius(self):
        with pytest.raises(InputError):
            ModelParams(LINE, TorusRegion(5.0), 1.0, radius=-0.5)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(InputError):
            ModelParams(LINE, TorusRegion(5.0), 1.0, radius=radius)

    def test_warns_on_wrapping_exclusion(self):
        with pytest.warns(UserWarning):
            ModelParams(LINE, TorusRegion(3.0), 1.0, radius=1.0)

    def test_json(self):
        d = ModelParams(LINE, TorusRegion(5.0), 1.5, radius=0.5).to_json()
        assert d["fugacity"] == 1.5 and d["region"]["kind"] == "torus"


class TestConfiguration:
    def test_validate_good(self):
        params = ring(20.0, 1.0)
        c = Configuration(np.array([[0.5], [2.0], [19.0]]), params)
        assert c.validate() == pytest.approx(1.5)

    def test_validate_wrap_violation(self):
        params = ring(20.0, 1.0)
        # 0.2 and 19.9 are 0.3 apart through the seam
        c = Configuration(np.array([[0.2], [19.9]]), params)
        with pytest.raises(ComputationError):
            c.validate()

    def test_validate_outside_region(self):
        params = rod_interval(5.0, 1.0)
        c = Configuration(np.array([[5.5]]), params)
        with pytest.raises(ComputationError):
            c.validate()


class TestRunChain:
    def test_near_zero_fugacity(self):
        est = run_chain(ring(10.0, 1e-8), steps=20_000, burn_in=1_000, seed=0)
        assert est.alpha_hat <= 1e-5
        assert est.fv_hat >= 0.999

    def test_matches_exact_density(self):
        params = ring(20.0, 1.0)
        exact = exact_moments(params)
        est = run_chain(params, steps=150_000, burn_in=15_000, seed=42)
        assert abs(est.alpha_hat - exact["alpha"]) <= 4 * est.alpha_se
        assert abs(est.var_count - exact["var_count"]) <= 4 * est.var_count_se

    def test_free_volume_identity(self):
        params = ring(20.0, 1.0)
        est = run_chain(params, steps=150_000, burn_in=15_000, seed=7)
        combined = math.hypot(est.alpha_se, params.fugacity * est.fv_se)
        assert abs(est.alpha_hat - params.fugacity * est.fv_hat) <= 4 * combined

    def test_reproducible(self):
        params = ring(20.0, 1.0)
        a = run_chain(params, steps=5_000, burn_in=500, seed=123)
        b = run_chain(params, steps=5_000, burn_in=500, seed=123)
        c = run_chain(params, steps=5_000, burn_in=500, seed=124)
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json()

    def test_counters_consistent(self):
        est = run_chain(ring(20.0, 1.0), steps=5_000, burn_in=0, seed=5)
        assert est.accepted_births + est.accepted_deaths + est.rejections == est.steps
        assert est.rejections >= 0
        # a blocked birth is one kind of rejection
        assert 0 < est.births_blocked <= est.steps - est.accepted_births - est.accepted_deaths
        assert est.to_json()["births_blocked"] == est.births_blocked

    def test_validate_every_accepted_move(self, monkeypatch):
        monkeypatch.setattr(gibbs, "VALIDATE_EVERY", 1)
        est = run_chain(ring(20.0, 1.0), steps=3_000, burn_in=0, seed=8)
        est.final_configuration.validate()

    @staticmethod
    def _table_then_all_pairs(monkeypatch, params, *args):
        # the region rule decides the screen: first let every region with
        # 3 cells per axis have a table, then leave every table one cell
        space, region, excl = params.space, params.region, params.exclusion
        monkeypatch.setattr(_CellTable, "MIN_CELLS", 0)
        assert _CellTable(space, region, excl).ncell > 1
        a = run_chain(params, *args)
        monkeypatch.setattr(_CellTable, "BUDGET", 0)
        assert _CellTable(space, region, excl).ncell == 1
        return a, run_chain(params, *args)

    def test_cell_list_matches_direct(self, monkeypatch):
        a, b = self._table_then_all_pairs(monkeypatch, ring(600.0, 1.0), 30_000, 3_000, 9)
        assert a.to_json() == b.to_json()
        assert a.mean_count > 128  # a populated table, not a near-empty one

    def test_cell_list_matches_direct_2d(self, monkeypatch):
        space = SpaceParams.create(1.5, (0, 1, 2))
        params = ModelParams(space, TorusRegion(16 * space.r_unit), 1.0)
        a, b = self._table_then_all_pairs(monkeypatch, params, 20_000, 2_000, 11)
        assert a.to_json() == b.to_json()

    def test_screen_sends_only_drawn_labels(self):
        # the benchmark's chain run: a query meets only the labels drawn
        # by its step, so no probe is paired with a later proposal; the
        # draw stream is fixed, so the screen's distance rows are exact
        rows = []

        def counted(a, b, *args):
            rows.append(len(a))
            return distance_batch(a, b, *args)

        space = SpaceParams.create(1.5, (0, 1, 2))
        with mock.patch.object(gibbs, "distance_batch", counted):
            run_chain(ModelParams(space, TorusRegion(60.0), 5.0), 4000, 2000, 1)
        assert sum(rows) == 54_003

    def test_region_rule(self):
        # the 1D L = 20 chains of acceptance criterion 05 hold too few
        # cells for the table to pay; the benchmark's chain region does not
        for region in (TorusRegion(20.0), SuperballRegion(10.0)):
            assert _CellTable(LINE, region, 1.0).ncell == 1
        space = SpaceParams.create(1.5, (0, 1, 2))
        assert _CellTable(space, TorusRegion(60.0), 2 * space.r_unit).ncell > 1

    def test_ball_region_chain(self):
        params = rod_interval(10.0, 1.0)
        exact = exact_moments(params)
        est = run_chain(params, steps=120_000, burn_in=12_000, seed=13)
        assert abs(est.alpha_hat - exact["alpha"]) <= 4 * est.alpha_se

    def test_trace_arrays(self):
        est = run_chain(ring(20.0, 1.0), steps=64, burn_in=16, seed=1, collect_trace=True)
        tr = est.trace
        assert set(tr) == {"count", "fv_probe_hits", "accepted", "birth"}
        assert len(tr["count"]) == 64
        probed = np.zeros(64, dtype=bool)
        probed[16::gibbs.FV_STRIDE] = True
        assert (tr["fv_probe_hits"][probed] >= 0).all()
        assert (tr["fv_probe_hits"][~probed] == -1).all()

    @pytest.mark.parametrize("side", [20.0, 600.0], ids=["one-cell", "table"])
    def test_trace_does_not_change_the_estimate(self, side):
        params = ring(side, 1.0)
        assert (_CellTable(LINE, params.region, params.exclusion).ncell > 1) == (side > 20.0)
        plain = run_chain(params, 3_000, 300, 17)
        traced = run_chain(params, 3_000, 300, 17, collect_trace=True)
        assert plain.trace is None and plain.to_json() == traced.to_json()
        probes = traced.trace["fv_probe_hits"][300:]
        assert traced.alpha_hat == traced.trace["count"][300:].mean() / params.volume
        assert traced.fv_hat == (probes[probes >= 0] / gibbs.FV_PROBES).mean()

    def test_rejects_bad_schedule(self):
        with pytest.raises(InputError):
            run_chain(ring(20.0, 1.0), steps=100, burn_in=100, seed=0)

    def test_detailed_balance_two_cell_toy(self):
        # interval of length 1.8 with unit exclusion holds at most two
        # rods; compare empirical count occupancy to the exact weights
        lam = 1.0
        params = rod_interval(0.9, lam)
        zs = [1.0, 1.8, (1.8 - 1.0) ** 2 / 2.0]
        Z = sum(lam**t * z for t, z in enumerate(zs))
        target = np.array([lam**t * z / Z for t, z in enumerate(zs)])

        est = run_chain(params, steps=200_000, burn_in=20_000, seed=21, collect_trace=True)
        counts = est.trace["count"][20_000:]
        assert counts.max() == 2
        for t in range(3):
            ind = (counts == t).astype(np.float64)
            freq = ind.mean()
            bm = ind[: 32 * (len(ind) // 32)].reshape(32, -1).mean(axis=1)
            se = bm.std(ddof=1) / math.sqrt(32)
            assert abs(freq - target[t]) <= 4 * se


def _trace_digest(est):
    h = hashlib.sha256()
    for key in sorted(est.trace):
        h.update(est.trace[key].tobytes())
    h.update(json.dumps(est.to_json(), sort_keys=True).encode())
    return h.hexdigest()


class TestCellGridScreen:
    """Pair enumeration on the cell grid against all pairs."""

    @staticmethod
    def _hard_core_points(space, region, excl, rng, tries=400):
        # random sequential insertion, then one partner at the exclusion
        # distance along a coordinate axis for a few of the points
        pts = []
        for y in region.sample(space, rng, tries):
            if not pts or distance_batch(np.array(pts), y, space, region).min() >= excl:
                pts.append(y)
        pts = np.array(pts)
        step = np.zeros(space.n)
        step[rng.integers(space.n)] = excl
        partners = pts[:8] + step
        if isinstance(region, TorusRegion):
            partners %= region.side
        else:
            partners = partners[region.contains_points(partners, space)]
        return pts, partners

    @given(spaces(max_n=4), st.sampled_from(["torus", "ball"]), st.floats(2.0, 100.0),
           st.integers(0, 2**32 - 1))
    def test_probe_mask_and_validate_match_all_pairs(self, space, kind, cells, seed):
        excl = 2.0 * space.r_unit
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        rng = np.random.default_rng(seed)
        pts, partners = self._hard_core_points(space, region, excl, rng)

        probes = np.concatenate([region.sample(space, rng, 64), partners])
        brute = distance_batch(probes[:, None, :], pts[None], space, region)
        table = _CellTable(space, region, excl)
        # the cells per axis: at most the region holds, capped by BUDGET, or one
        k = min(math.floor(cells), int(_CellTable.BUDGET ** (1 / space.n) / 3))
        one = k < 3 or k**space.n < _CellTable.MIN_CELLS
        assert table.ncell == (1 if one else k) or abs(cells - round(cells)) < 1e-6
        assert table.h >= excl and table.load(table.code(pts))
        i, j = table.near(table.code(probes))
        d = distance_batch(probes[i], pts[j], space, region)
        assert (d == brute[i, j]).all()
        blocked = np.bincount(i[d < excl], minlength=len(probes)) > 0
        assert (blocked == (brute.min(axis=1) < excl)).all()

        for config in (pts, np.concatenate([pts, partners])):
            all_pairs = distance_batch(config[:, None, :], config[None], space, region)
            exact = all_pairs[np.triu_indices(len(config), 1)].min(initial=math.inf)
            conf = Configuration(config, ModelParams(space, region, 1.0))
            if exact >= excl:
                assert conf.validate() == exact
            else:
                with pytest.raises(ComputationError):
                    conf.validate()

    def test_validate_in_row_chunks(self, monkeypatch):
        # at n = 6 each query row gathers 3^6 neighbour cells of K slots,
        # so a chunk holds 2^16 // (729 K) rows and validation of the
        # configuration below runs through many chunks
        space = SpaceParams.create(1.5, (0, 3, 6))
        excl = 2.0 * space.r_unit
        region = TorusRegion(4.0 * excl)
        pts, _ = self._hard_core_points(space, region, excl, np.random.default_rng(9), tries=1500)
        chunks = []
        near = _CellTable.near
        monkeypatch.setattr(_CellTable, "near",
                            lambda table, codes: chunks.append((len(codes), table.slots[table.nbr[0]].size))
                            or near(table, codes))
        all_pairs = distance_batch(pts[:, None, :], pts[None], space, region)
        exact = all_pairs[np.triu_indices(len(pts), 1)].min()
        assert Configuration(pts, ModelParams(space, region, 1.0)).validate() == exact
        assert len(chunks) > 10 and all(rows * gathered <= 2**16 for rows, gathered in chunks)
        assert sum(rows for rows, _ in chunks) == len(pts)

    def test_high_dimensional_torus_chain_builds_no_neighbour_table(self, monkeypatch):
        # 3^20 neighbour offsets would not fit in memory; the chain must
        # screen all pairs without building them
        space = SpaceParams.create(1.5, (0, 10, 20))
        region = TorusRegion(3.5 * 2 * space.r_unit)
        params = ModelParams(space, region, 1.0)
        tables = []
        init = _CellTable.__init__
        monkeypatch.setattr(_CellTable, "__init__", lambda table, *a: tables.append(table) or init(table, *a))
        monkeypatch.setattr(gibbs, "VALIDATE_EVERY", 50)
        est = run_chain(params, 400, 100, 5, collect_trace=True)
        # 3 cells per axis fit, but (3 * 3)^20 neighbour entries pass BUDGET:
        # the chain's table and every validation's table have one cell
        assert len(tables) > 1 and all(table.nbr.shape == (1, 1) for table in tables)
        assert est.final_count > 100
        assert est.final_configuration.validate() >= params.exclusion
        assert (est.trace["fv_probe_hits"][est.trace["fv_probe_hits"] >= 0] > 0).all()

    # SHA-256 of the trace arrays and summary as produced by all-pairs
    # probe screens and validation; the cell grid must match bit for bit
    GOLDEN = [
        ((1.5, (0, 1, 2)), "torus", 30, 5.0, 8000, 1000, 21, 200,
         "a200a8ac92e0ea8aa90f9be0e988eabbcab138cc10efe631eacd4d5962a1423f"),
        ((1.2, (0, 1, 3)), "torus", 10, 4.0, 8000, 1000, 22, 300,
         "664ca8abd3429d7a716054ea1e7599e362a1530b579ad375bd031cca0404b232"),
        ((1.3, (0, 1)), "ball", 40, 2.0, 6000, 500, 23, 100,
         "956c2d3e7c7b33f5c355a2912e7e21bc2eafdafd9dd94602fd6912883ef182e0"),
    ]

    @pytest.mark.parametrize("case", GOLDEN, ids=["torus-2d", "torus-3d", "ball-1d"])
    def test_trajectory_golden(self, case, monkeypatch):
        (p, cuts), kind, size, lam, steps, burn, seed, validate_every, digest = case
        monkeypatch.setattr(gibbs, "VALIDATE_EVERY", validate_every)
        space = SpaceParams.create(p, cuts)
        region = (TorusRegion if kind == "torus" else SuperballRegion)(size * space.r_unit)
        est = run_chain(ModelParams(space, region, lam), steps, burn, seed, collect_trace=True)
        assert _trace_digest(est) == digest


class TestCellTable:
    """One reused cell table, refiled under chain-like edits, against fresh tables and all pairs."""

    @staticmethod
    def _near_points(space, region, excl, centers, rng):
        # uniform points, partners at exactly the exclusion along an axis,
        # and points at the region's edge, where coordinates are clipped
        pts = [region.sample(space, rng, 8)]
        if len(centers):
            step = np.zeros((4, space.n))
            step[np.arange(4), rng.integers(space.n, size=4)] = excl * rng.choice([-1.0, 1.0], 4)
            pts.append(centers[rng.integers(len(centers), size=4)] + step)
        edge = region.sample(space, rng, 4)
        axes = rng.integers(space.n, size=4)
        if isinstance(region, TorusRegion):
            edge[np.arange(4), axes] = [0.0, 0.0, np.nextafter(region.side, 0), np.nextafter(region.side, 0)]
        else:  # on the sphere up to rounding, two of them at +-R on an axis
            edge *= region.radius / norm_batch(edge, space)[:, None]
            edge[:2] = 0.0
            edge[[0, 1], axes[:2]] = [region.radius, -region.radius]
        pts = np.concatenate(pts + [edge])
        if isinstance(region, TorusRegion):
            return pts % region.side
        return pts[region.contains_points(pts, space)]

    @given(spaces(max_n=4), st.sampled_from(["torus", "ball"]), st.data())
    def test_screens_match_all_pairs(self, space, kind, data):
        excl = 2.0 * space.r_unit
        n = space.n
        # 3-100 cells per axis, within the chain's own neighbour-table budget
        top = min(100.0, _CellTable.BUDGET ** (1.0 / n) / 3)
        cells = data.draw(st.floats(3.0, top))
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        with mock.patch.object(_CellTable, "MIN_CELLS", 0):  # 3 cells per axis are enough here
            table = _CellTable(space, region, excl)  # one cell for cells within rounding of 3
            unused = _CellTable(space, region, excl)
        table.BUDGET = 8 * len(table.slots)  # refuse a cell of more than 8 centres
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        # births of near points, unscreened so that cells overflow, and the
        # chain's swap-with-last deaths; then a crowded set, then halvings
        # down to the empty set, so K grows and shrinks
        centers, sets = np.empty((0, n)), []
        for op in data.draw(st.lists(st.integers(0, 3), min_size=10, max_size=30)):
            if op < 3 or not len(centers):
                new = self._near_points(space, region, excl, centers, rng)
                centers = np.concatenate([centers, new[rng.integers(len(new), size=1 + op)]])
            else:
                i = int(rng.integers(len(centers)))
                centers = centers.copy()
                centers[i] = centers[-1]
                centers = centers[:-1]
            sets.append(centers)
        sets.append(np.concatenate([centers, np.repeat(centers[:1], 9, axis=0)]))
        while len(centers):
            centers = centers[rng.permutation(len(centers))[: len(centers) // 2]]
            sets.append(centers)

        held, ks, refused = np.empty((0, n)), [], 0
        for X in sets:
            fresh = copy.copy(unused)  # shares only the never-written neighbour rows
            assert fresh.load(fresh.code(X))
            loaded = table.load(table.code(X))
            assert loaded == (table.ncell == 1 or len(table.slots) * fresh.K <= table.BUDGET)
            if loaded:  # a refused set leaves the table as it was
                held = X
                ks.append(table.K)
                assert table.K == fresh.K
            else:
                refused += 1
            assert (table.slots >= 0).sum() == len(held)  # the last set's slots were cleared

            probes = self._near_points(space, region, excl, held, rng)
            brute = distance_batch(probes[:, None, :], held[None], space, region)
            pi, pj = table.near(table.code(probes))
            if loaded:
                fi, fj = fresh.near(fresh.code(probes))
                assert sorted(zip(pi.tolist(), pj.tolist())) == sorted(zip(fi.tolist(), fj.tolist()))
            within = np.nonzero(brute <= excl)
            assert set(zip(*within)) <= set(zip(pi.tolist(), pj.tolist()))
            hit = pi[distance_batch(probes[pi], held[pj], space, region) < excl]
            assert set(hit.tolist()) == set(np.flatnonzero((brute < excl).any(axis=1)).tolist())
        assert ks[-1] == 0 and max(ks) > 0
        assert refused > 0 or table.ncell == 1

    @staticmethod
    def _fancy_near(table, P):
        # reference gather: cell codes by an int64 matmul, 2-D fancy
        # indexing of the first K slot columns, hits by 2-D nonzero
        k, n = table.ncell, P.shape[1]
        codes = np.clip(((P - table.lo) / table.h).astype(np.int64), 0, k - 1) @ k ** np.arange(n, dtype=np.int64)
        cand = table.slots[:, : table.K][table.nbr[codes]].reshape(len(P), table.nbr.shape[1] * table.K)
        i, s = np.nonzero(cand >= 0)
        return i, cand[i, s]

    @pytest.mark.parametrize("n, kind, cells", [(1, "torus", 100), (2, "torus", 12), (2, "ball", 12),
                                                (3, "torus", 6), (2, "torus", 2)])
    def test_near_matches_the_fancy_index_gather(self, n, kind, cells):
        space = SpaceParams.create(1.5, tuple(range(n + 1)))
        excl = 2.0 * space.r_unit
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        table = _CellTable(space, region, excl)
        assert (table.ncell > 1) == (cells > 2)
        rng = np.random.default_rng(n + cells)
        crowded = np.concatenate([region.sample(space, rng, 200), np.repeat(region.sample(space, rng, 1), 6, axis=0)])
        # one reused table: crowded, then sparse, then empty, so the slot
        # table stays wider than K and its columns past K hold -1
        widths = []
        for X in (crowded, region.sample(space, rng, 20), np.empty((0, n))):
            assert table.load(table.code(X))
            widths.append((table.K, table.slots.shape[1]))
            probes = region.sample(space, rng, 300)
            for P in (probes, probes[:0]):
                (i, j), (oi, oj) = table.near(table.code(P)), self._fancy_near(table, P)
                assert i.dtype == oi.dtype and j.dtype == oj.dtype
                assert np.array_equal(i, oi) and np.array_equal(j, oj)  # order included
        (K0, w0), (K1, w1), (K2, w2) = widths
        assert K0 == w0 and K1 < w1 and K2 == 0 < w2

    @staticmethod
    def _point_load(table, X, bounded=True):
        # ``load`` as it was when it took points and coded them itself
        home = table.nbr[table.code(X), table.centre]
        order = np.argsort(home, kind="stable")
        home = home[order]
        rank = np.arange(len(X)) - np.searchsorted(home, home)
        K = int(rank.max(initial=-1)) + 1
        if bounded and table.ncell > 1 and len(table.slots) * K > table.BUDGET:
            return False
        table.slots[table.filed] = -1
        if K > table.slots.shape[1]:
            table.slots = np.full((len(table.slots), K), -1, dtype=np.int64)
        table.filed, table.K = (home, rank), K
        table.slots[table.filed] = order
        return True

    @staticmethod
    def _point_near(table, P):
        # ``near`` as it was when it took points
        cells = table.nbr.take(table.code(P), axis=0)
        width = cells.shape[1] * table.slots.shape[1]
        cand = table.slots.take(cells, axis=0).reshape(len(P), width)
        f = np.flatnonzero(cand >= 0)
        return f // width, cand.take(f)

    @given(spaces(max_n=4), st.sampled_from(["torus", "ball"]), st.data())
    def test_kept_codes_match_the_point_calls(self, space, kind, data):
        # the chain's bookkeeping: one code call places a span's starting
        # centres, its proposals and its probes, and the centres change by
        # births and swap-with-last deaths between spans; the torus table
        # has no padding cells, the ball's one layer, and below 3 cells per
        # axis the table has one cell
        n, excl = space.n, 2.0 * space.r_unit
        cells = data.draw(st.floats(1.0, min(30.0, _CellTable.BUDGET ** (1.0 / n) / 3)))
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        with mock.patch.object(_CellTable, "MIN_CELLS", 0):
            table, oracle = _CellTable(space, region, excl), _CellTable(space, region, excl)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centers = np.empty((0, n))
        for _ in range(data.draw(st.integers(1, 8))):
            Y = self._near_points(space, region, excl, centers, rng)  # proposals
            Q = np.concatenate([Y, region.sample(space, rng, 16)])  # and probes
            codes = table.code(np.concatenate([centers, Q]))
            assert table.load(codes[: len(centers) + len(Y)])
            assert self._point_load(oracle, np.concatenate([centers, Y]))
            assert table.K == oracle.K and np.array_equal(table.slots, oracle.slots)
            for got, want in zip(table.near(codes[len(centers) :]), self._point_near(oracle, Q)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            centers = np.concatenate([centers, Y[rng.random(len(Y)) < 0.5]])
            for _ in range(int(rng.integers(len(centers) + 1)) // 2):
                i = int(rng.integers(len(centers)))
                centers[i] = centers[-1]
                centers = centers[:-1]

    @staticmethod
    def _product_nbr(k, n, pad):
        # the neighbour rows of every (cell, offset) pair, offsets in
        # itertools.product order, summed over axes in (cells, 3^n) arrays
        width = k + 2 * pad
        offsets = np.array(list(itertools.product((-1, 0, 1) if k > 1 else (0,), repeat=n)), dtype=np.int64)
        real = (np.arange(k**n)[:, None] // k ** np.arange(n, dtype=np.int64)) % k
        return sum((real[:, a, None] + pad + offsets[:, a]) % width * width**a for a in range(n))

    @given(st.integers(1, 4), st.sampled_from(["torus", "ball"]), st.data())
    def test_nbr_matches_the_product_construction(self, n, kind, data):
        space = SpaceParams.create(1.5, tuple(range(n + 1)))
        excl = 2.0 * space.r_unit
        cells = data.draw(st.floats(1.0, {1: 300.0, 2: 60.0, 3: 16.0, 4: 9.0}[n]))
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        with mock.patch.object(_CellTable, "MIN_CELLS", 0):
            table = _CellTable(space, region, excl)
        want = self._product_nbr(table.ncell, n, 0 if kind == "torus" or table.ncell == 1 else 1)
        assert table.nbr.dtype == want.dtype and np.array_equal(table.nbr, want)
        assert table.centre == want.shape[1] // 2

    def test_nbr_build_peaks_at_its_output(self):
        # the 682 x 682 table of a 2D torus of side 1000: the per-axis
        # (cells, 9) temporaries of a summed construction peak at about
        # 3.2 times the 33.5 MB table
        space = SpaceParams.create(1.5, (0, 1, 2))
        tracemalloc.start()
        try:
            table = _CellTable(space, TorusRegion(1000.0), 2 * space.r_unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.ncell == 682 and peak < 1.1 * table.nbr.nbytes

    def test_near_costs_points_not_cells(self):
        # 10^6 cells holding 100 centres, after a crowded set widened the
        # slot table: one near on 500 probes allocates in probes, not a
        # copy of the first K slot columns (8 MB per column here)
        space = SpaceParams.create(1.5, (0, 1, 2))
        region = TorusRegion(1000.5)
        with mock.patch.object(_CellTable, "BUDGET", 2**24):  # 3 x 1000 cells per axis fit
            table = _CellTable(space, region, 1.0)
        assert table.ncell == 1000
        rng = np.random.default_rng(3)
        X = region.sample(space, rng, 100)
        assert table.load(table.code(np.concatenate([X, X, X])), bounded=False)
        assert table.load(table.code(X), bounded=False)
        assert 0 < table.K < table.slots.shape[1]
        probes = region.sample(space, rng, 500)
        tracemalloc.start()
        try:
            table.near(table.code(probes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _replay(params, steps, burn_in, seed, span):
    """``run_chain``'s documented draw layout, replayed one step at a time.

    The live centres sit in a plain list, deleted by swap with the last
    one as the chain's index draw assumes, and every screen tests all
    pairs: no cell table and no batched screen. ``span`` is the chain's
    screen span in steps. Returns the trace, the blocked births, and
    counts of the events a batched screen must get right: births blocked
    and probes hit only by centres born earlier in their span, free
    births and probes close to a centre deleted earlier in their span,
    and of these, the blocks, hits and free probes that involve only
    centres born or deleted in an earlier draw block of the span.
    """
    space, region, excl = params.space, params.region, params.exclusion
    lamV = params.fugacity * params.volume
    rng = np.random.default_rng(seed)
    live, born, gone = [], [], []  # born: the step of each live centre; gone: (centre, step deleted)
    trace = {"count": np.empty(steps, dtype=np.int64), "fv_probe_hits": np.full(steps, -1, dtype=np.int64),
             "accepted": np.zeros(steps, dtype=np.uint8), "birth": np.zeros(steps, dtype=np.uint8)}
    blocked, events = 0, dict.fromkeys(["blocked in span", "hit in span", "free birth near a span death",
                                        "free probe near a span death", "blocked across blocks",
                                        "hit across blocks", "free probe near an earlier block's death"], 0)
    for s0 in range(0, steps, gibbs.BLOCK):
        b = min(gibbs.BLOCK, steps - s0)
        coins = rng.random(b) < 0.5
        proposals = iter(region.sample(space, rng, int(coins.sum())))
        u_acc, u_die = rng.random(b), rng.random(b)
        probed = [s for s in range(s0, s0 + b) if s >= burn_in and (s - burn_in) % gibbs.FV_STRIDE == 0]
        probes = iter(region.sample(space, rng, gibbs.FV_PROBES * len(probed)).reshape(len(probed), gibbs.FV_PROBES, space.n))
        start = s0 - s0 % span  # the span's first step
        if s0 == start:
            gone = []
        for step in range(s0, s0 + b):
            r, t = step - s0, len(live)
            trace["birth"][step] = coins[r]
            if coins[r]:
                y = next(proposals)
                close = np.flatnonzero(distance_batch(np.reshape(live, (t, space.n)), y, space, region) < excl)
                if len(close):
                    blocked += 1
                    events["blocked in span"] += all(born[k] >= start for k in close)
                    events["blocked across blocks"] += all(start <= born[k] < s0 for k in close)
                else:
                    events["free birth near a span death"] += any(
                        distance_batch(x, y, space, region) < excl for x, _ in gone)
                    if u_acc[r] < lamV / (t + 1):
                        live.append(y)
                        born.append(step)
                        trace["accepted"][step] = 1
            elif t and u_acc[r] < t / lamV:
                i = min(int(u_die[r] * t), t - 1)
                gone.append((live[i], step))
                live[i], born[i] = live[-1], born[-1]
                live.pop()
                born.pop()
                trace["accepted"][step] = 1
            trace["count"][step] = len(live)
            if step in probed:
                P = next(probes)
                close = distance_batch(P[:, None, :], np.reshape(live, (1, len(live), space.n)), space, region) < excl
                free = ~close.any(axis=1)
                trace["fv_probe_hits"][step] = int(free.sum())
                born_at = np.array(born, dtype=int)
                events["hit in span"] += int((~free & ~close[:, born_at < start].any(axis=1)).sum())
                outside = (born_at < start) | (born_at >= s0)  # born before the span or in this block
                events["hit across blocks"] += int((~free & ~close[:, outside].any(axis=1)).sum())
                if gone:
                    dead, died = np.array([x for x, _ in gone]), np.array([d for _, d in gone])
                    near_gone = distance_batch(P[:, None, :], dead[None], space, region) < excl
                    events["free probe near a span death"] += int((free & near_gone.any(axis=1)).sum())
                    earlier = near_gone[:, died < s0].any(axis=1)
                    events["free probe near an earlier block's death"] += int((free & earlier).sum())
    return trace, blocked, events


def _chain_case(case):
    """(params, steps, burn_in, seed) of a ``TestBlockLayout.CASES`` entry."""
    (p, cuts), kind, size, lam, steps, burn, seed, _ = case
    space = SpaceParams.create(p, cuts)
    region = (TorusRegion if kind == "torus" else SuperballRegion)(size * space.r_unit)
    return ModelParams(space, region, lam), steps, burn, seed


class TestBlockLayout:
    """``run_chain`` against a step-by-step replay of its draw layout."""

    CASES = {  # (p, cuts), region, size in r_unit, activity, steps, burn_in, seed, draw blocks per span
        "torus-2d-table": ((1.5, (0, 1, 2)), "torus", 30, 5.0, 3000, 1000, 31, 2),
        "torus-3d-one-cell": ((1.2, (0, 1, 3)), "torus", 6, 4.0, 2000, 300, 32, 0),
        "ball-1d": ((1.3, (0, 1)), "ball", 40, 2.0, 2000, 500, 33, 0),
        "ball-2d": ((2.0, (0, 2)), "ball", 30, 3.0, 2000, 500, 34, 3),
        "dense-one-cell": ((1.5, (0, 1, 2)), "torus", 8, 40.0, 3000, 100, 35, 0),
        "dense-table": ((1.5, (0, 1, 2)), "torus", 20, 40.0, 3000, 100, 36, 1),
        "under-one-block": ((1.5, (0, 1, 2)), "torus", 30, 5.0, 40, 5, 37, 2),
        "partial-last-block": ((1.5, (0, 1, 2)), "torus", 30, 5.0, 203, 70, 38, 2),
        "many-cells-few-centres": ((1.5, (0, 1, 2)), "torus", 300, 1.0, 400, 100, 39, 17),
        "dense-span": ((1.5, (0, 1, 2)), "torus", 60, 40.0, 3000, 100, 40, 3),
        "partial-last-span": ((1.5, (0, 1, 2)), "torus", 60, 5.0, 2011, 250, 41, 3),
    }
    # cases whose screens meet every event ``_replay`` counts: those of
    # one span for one-block spans, those across draw blocks for longer ones
    EVENTFUL = {"dense-one-cell", "dense-table", "dense-span", "partial-last-span"}
    IN_SPAN = ["blocked in span", "hit in span", "free birth near a span death", "free probe near a span death"]
    ACROSS = ["blocked across blocks", "hit across blocks", "free probe near an earlier block's death"]

    @pytest.mark.parametrize("name", CASES)
    def test_matches_step_by_step_replay(self, name):
        events = self._check(self.CASES[name])[1]
        if name in self.EVENTFUL:
            keys = self.ACROSS if self.CASES[name][-1] > 1 else self.IN_SPAN
            assert min(events[k] for k in keys) > 0, events

    def test_block_without_a_birth(self):
        # the 3-step last block of this seed draws no proposal at all
        trace = self._check(((1.5, (0, 1, 2)), "torus", 30, 5.0, 67, 10, 6, 2))[0]
        assert not trace["birth"][64:].any()

    @staticmethod
    def _check(case):
        params, steps, burn, seed = _chain_case(case)
        blocks = case[-1]
        table = _CellTable(params.space, params.region, params.exclusion)
        assert (table.ncell > 1) == (blocks > 0) and gibbs._blocks_per_span(table) == max(blocks, 1)
        est = run_chain(params, steps, burn, seed, collect_trace=True)
        trace, blocked, events = _replay(params, steps, burn, seed, gibbs.BLOCK * max(blocks, 1))
        for key in trace:
            assert est.trace[key].tobytes() == trace[key].tobytes(), key
        assert est.births_blocked == blocked
        return trace, events

    # spans the rule gives: (p, cuts), torus side (absolute, or in r_unit), steps per span of a
    # probed chain, and of a probe-free one
    SPANS = {
        "pressure": ((1.5, (0, 1, 2)), 20.0, False, 128, 448),
        "chain": ((1.5, (0, 1, 2)), 60.0, False, 320, 1408),
        "torus-3d": ((1.5, (0, 1, 2, 3)), 12.0, True, 64, 192),
        "torus-4d-p2": ((2.0, (0, 4)), 12.0, True, 64, 256),
        "table-682": ((1.5, (0, 1, 2)), 1000.0, False, 4864, 19968),
    }

    @pytest.mark.parametrize("case", SPANS.values(), ids=SPANS.keys())
    def test_span_rule(self, case):
        (p, cuts), side, in_r_unit, span, probe_free_span = case
        space = SpaceParams.create(p, cuts)
        table = _CellTable(space, TorusRegion(side * space.r_unit if in_r_unit else side), 2 * space.r_unit)
        assert gibbs.BLOCK * gibbs._blocks_per_span(table) == span
        assert gibbs.BLOCK * gibbs._blocks_per_span(table, False) == probe_free_span

    # the top-activity chain of the benchmark's ``thermo pressure``, and two replay cases
    PRESSURE_TOP = (ModelParams(SpaceParams.create(1.5, (0, 1, 2)), TorusRegion(20.0), 5.0), 2500, 250, 1)
    PROBE_FREE = {
        "pressure": PRESSURE_TOP,
        "dense-one-cell": _chain_case(CASES["dense-one-cell"]),
        "ball-2d": _chain_case(CASES["ball-2d"]),
    }

    @pytest.mark.parametrize("name", PROBE_FREE)
    def test_probe_free_chain_makes_the_probed_chains_moves(self, name):
        # the probes are drawn but never screened: same draws, so the same
        # trajectory, with the free-volume estimate left out
        params, steps, burn, seed = self.PROBE_FREE[name]
        probed = run_chain(params, steps, burn, seed, collect_trace=True)
        free = run_chain(params, steps, burn, seed, collect_trace=True, free_volume=False)
        for key in ("count", "birth", "accepted"):
            assert free.trace[key].tobytes() == probed.trace[key].tobytes(), key
        assert (free.trace["fv_probe_hits"] == -1).all() and (probed.trace["fv_probe_hits"] >= 0).any()
        assert free.final_configuration.centers.tobytes() == probed.final_configuration.centers.tobytes()
        assert free.to_json() == {**probed.to_json(), "fv_hat": None, "fv_se": None}

    @pytest.mark.parametrize("free_volume, rows, calls", [(True, 103_285, 20), (False, 9_404, 6)],
                             ids=["probed", "probe-free"])
    def test_probe_free_screen_rows(self, free_volume, rows, calls):
        # the top chain of ``thermo pressure``: without probes only the
        # proposals reach the screen, in spans of 7 draw blocks, not 2
        sizes = []

        def counted(a, b, *args):
            sizes.append(len(a))
            return distance_batch(a, b, *args)

        with mock.patch.object(gibbs, "distance_batch", counted):
            run_chain(*self.PRESSURE_TOP, free_volume=free_volume)
        assert (sum(sizes), len(sizes)) == (rows, calls)

    @given(spaces(max_n=8), st.sampled_from(["torus", "ball"]), st.data())
    def test_one_cell_tables_span_one_block(self, space, kind, data):
        # below 3 cells per axis or 64 in all the table has one cell
        cells = data.draw(st.floats(0.1, 64 ** (1 / space.n) - 1e-6))
        excl = 2 * space.r_unit
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        table = _CellTable(space, region, excl)
        assert table.ncell == 1 and gibbs._blocks_per_span(table) == 1

    @given(spaces(max_n=4), st.sampled_from(["torus", "ball"]), st.floats(0.0, 1.0), st.floats(0.5, 30.0),
           st.integers(1, 700), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**32 - 1))
    @example(SpaceParams.create(1.5, (0, 1, 2)), "torus", 0.5, 20.0, 599, 0.4, 1)  # burn-in inside a span
    @example(SpaceParams.create(2.0, (0, 1)), "ball", 1.0, 5.0, 40, 0.0, 2)  # under one draw block
    @example(SpaceParams.create(1.2, (0, 1, 3)), "ball", 0.0, 30.0, 700, 0.1, 3)
    @example(SpaceParams.create(1.5, (0, 2, 3, 4)), "torus", 1.0, 10.0, 333, 0.5, 4)
    def test_one_block_per_screen_matches_the_span(self, space, kind, where, lam, steps, burn_frac, seed):
        # regions with spans of 2 to 4 draw blocks: from the cells per axis
        # at which the rule rounds up to 2 (and a table has MIN_CELLS)
        k = max(math.ceil(3 * 4.5 ** (2 / space.n)), _CellTable.MIN_CELLS ** (1 / space.n)) + 0.5
        cells = k * (1.0 + where * (2.0, 1.0, 0.5, 0.4)[space.n - 1])
        excl = 2 * space.r_unit
        region = TorusRegion(cells * excl) if kind == "torus" else SuperballRegion(cells * excl / 2)
        params, burn = ModelParams(space, region, lam), int(burn_frac * steps)
        assert gibbs._blocks_per_span(_CellTable(space, region, excl)) >= 2
        auto = run_chain(params, steps, burn, seed, collect_trace=True)
        with mock.patch.object(gibbs, "_blocks_per_span", lambda table, *_: 1):
            one = run_chain(params, steps, burn, seed, collect_trace=True)
        assert one.to_json() == auto.to_json()
        for key in auto.trace:
            assert one.trace[key].tobytes() == auto.trace[key].tobytes(), key
        assert one.final_configuration.centers.tobytes() == auto.final_configuration.centers.tobytes()


class TestAlphaCurve:
    def test_monotone_in_fugacity(self):
        params = ring(20.0, 1.0)
        curve = estimate_alpha_curve(params, [0.25, 1.0, 4.0], steps=80_000,
                                     burn_in=8_000, seed=3)
        for (_, a), (_, b) in zip(curve, curve[1:]):
            assert b.alpha_hat >= a.alpha_hat - 3 * (a.alpha_se + b.alpha_se)

    def test_variance_matches_fugacity_derivative(self):
        # lam * V * d alpha / d lam equals Var|X|; central difference
        lam, V = 1.0, 20.0
        params = ring(V, lam)
        curve = estimate_alpha_curve(params, [0.9 * lam, lam, 1.1 * lam],
                                     steps=400_000, burn_in=40_000, seed=29)
        (_, lo), (_, mid), (_, hi) = curve
        slope = (hi.alpha_hat - lo.alpha_hat) / (0.2 * lam)
        slope_se = math.hypot(hi.alpha_se, lo.alpha_se) / (0.2 * lam)
        lhs = lam * V * slope
        se = math.hypot(lam * V * slope_se, mid.var_count_se)
        assert abs(lhs - mid.var_count) <= 3 * se

    def test_requires_increasing_grid(self):
        with pytest.raises(InputError):
            estimate_alpha_curve(ring(20.0, 1.0), [1.0, 0.5], steps=100, burn_in=10, seed=0)

    @pytest.mark.parametrize("failing", [[0], [1], [2, 3]], ids=["caller", "worker", "both"])
    def test_chain_error_is_the_serial_one_and_leaves_no_worker(self, failing, monkeypatch):
        # forked workers inherit the patch; with threads=2 the caller runs
        # grid points 0 and 2 and the worker points 1 and 3
        seeds = np.random.SeedSequence(4).generate_state(4, dtype=np.uint64)
        bad = {int(seeds[i]): i for i in failing}
        chain = gibbs.run_chain

        def flaky(params, steps, burn_in, seed, **kwargs):
            if seed in bad:
                raise ComputationError(f"grid point {bad[seed]} failed")
            return chain(params, steps, burn_in, seed, **kwargs)

        monkeypatch.setattr(gibbs, "run_chain", flaky)
        errors = []
        for threads in (1, 2, 3):
            with pytest.raises(ComputationError) as err:
                estimate_alpha_curve(ring(20.0, 1.0), [0.5, 1.0, 2.0, 4.0], steps=3_000,
                                     burn_in=300, seed=4, threads=threads)
            errors.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert errors == [f"grid point {failing[0]} failed"] * 3

    def test_merge(self):
        params = ring(20.0, 1.0)
        ests = [run_chain(params, steps=20_000, burn_in=2_000, seed=s) for s in (1, 2, 3, 4)]
        merged = merge_estimates(ests)
        exact = exact_moments(params)["alpha"]
        assert abs(merged.alpha_hat - exact) <= 4 * merged.alpha_se
        assert merged.steps == 80_000
        assert merged.births_blocked == sum(e.births_blocked for e in ests)

    def test_merge_rejects_mixed_lengths(self):
        params = ring(20.0, 1.0)
        a = run_chain(params, steps=2_000, burn_in=200, seed=1)
        b = run_chain(params, steps=3_000, burn_in=200, seed=2)
        with pytest.raises(InputError):
            merge_estimates([a, b])

    def test_merge_probe_free_replicas(self):
        # estimate_alpha_curve's chains screen no probes: their fv fields pool to None
        params = ring(20.0, 1.0)
        ests = [run_chain(params, steps=2_000, burn_in=200, seed=s, free_volume=False) for s in (1, 2)]
        merged = merge_estimates(ests)
        assert merged.fv_hat is None and merged.fv_se is None
        assert merged.alpha_hat == (ests[0].alpha_hat + ests[1].alpha_hat) / 2
        assert merged.to_json()["fv_hat"] is None

    def test_merge_rejects_probed_with_probe_free(self):
        params = ring(20.0, 1.0)
        a = run_chain(params, steps=2_000, burn_in=200, seed=1)
        b = run_chain(params, steps=2_000, burn_in=200, seed=2, free_volume=False)
        with pytest.raises(InputError, match="free-volume"):
            merge_estimates([a, b])


class TestIntersectionVolume:
    def test_u_zero(self):
        space = SpaceParams.create(1.5, (0, 1, 2))
        assert intersection_volume_mc(space, np.zeros(2), 1000, 0) == (0.0, 0.0)

    def test_euclidean_lens_formula(self):
        # independent oracle: closed-form volume of two intersecting
        # Euclidean balls with radii 2r and |u| at center distance |u|
        space = SpaceParams.create(2.0, (0, 3))
        r = space.r_unit

        def lens(R1, R2, d):
            return (math.pi * (R1 + R2 - d) ** 2
                    * (d**2 + 2 * d * (R1 + R2) - 3 * (R1 - R2) ** 2)) / (12 * d)

        u = np.array([1.3 * r, 0.0, 0.0])
        vol, se = intersection_volume_mc(space, u, 400_000, 17)
        assert abs(vol - lens(2 * r, 1.3 * r, 1.3 * r)) <= 4 * se

    def test_containment_in_outer_ball(self):
        # intersection always fits inside B(0, |u|), so vol <= (|u|/r)^n
        space = SpaceParams.create(1.5, (0, 1, 2))
        u = np.array([0.7, 0.4])
        vol, se = intersection_volume_mc(space, u, 50_000, 23)
        from superpack.geometry import norm

        assert vol <= (norm(u, space) / space.r_unit) ** 2 + 4 * se

    def test_check_report_2d(self):
        space = SpaceParams.create(1.5, (0, 1, 2))
        rep = intersection_volume_check(space, trials=60, seed=11, samples_per_trial=20_000)
        assert rep.all_ok and rep.containment_ok
        assert any(r["containment_checked"] for r in rep.records)

    def test_check_report_4d(self):
        space = SpaceParams.create(1.5, (0, 1, 2, 3, 4))
        rep = intersection_volume_check(space, trials=40, seed=13, samples_per_trial=50_000)
        assert rep.all_ok and rep.containment_ok

    def test_check_report_10d(self):
        space = SpaceParams.create(1.5, (0, 2, 5, 10))
        rep = intersection_volume_check(space, trials=40, seed=17, samples_per_trial=20_000)
        assert rep.all_ok and rep.containment_ok
        assert any(r["containment_checked"] for r in rep.records)
