import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

import superpack.geometry as geometry
from superpack.errors import InputError
from superpack.geometry import (
    BlockSpec,
    SpaceParams,
    SuperballRegion,
    TorusRegion,
    contains,
    distance,
    distance_batch,
    min_pairwise,
    norm,
    norm_batch,
    r_unit,
    region_from_json,
    unit_ball_volume,
)

from conftest import block_specs, bounded_floats, points, spaces


class TestBlockSpec:
    def test_basic_fields(self):
        b = BlockSpec((0, 2, 3))
        assert b.n == 3
        assert b.m == 2
        assert b.block_dims == (2, 1)

    @pytest.mark.parametrize("cuts", [(1, 3), (0,), (0, 2, 2, 4), (0, 3, 1), (0, -1, 2)])
    def test_rejects_bad_cuts(self, cuts):
        with pytest.raises(InputError):
            BlockSpec(cuts)

    def test_json_round_trip(self):
        b = BlockSpec((0, 1, 4, 6))
        assert BlockSpec.from_json(b.to_json()) == b


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
            1.7976931348623157e308, math.inf, -math.inf]


@st.composite
def _rowsum_arrays(draw):
    """Float arrays of 1-3 leading axes and 1-12 terms: zeros, subnormals, near 1e+-300 and inf."""
    shape = (*draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)), draw(st.integers(1, 12)))
    values = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False),
                       st.floats(1e-310, 1e-290), st.floats(1e290, 1e305), st.floats(-1e3, 1e3))
    return draw(hnp.arrays(np.float64, shape, elements=values))


class TestNorm:
    def test_single_block_is_euclidean(self):
        space = SpaceParams.create(1.5, (0, 2))
        assert norm(np.array([3.0, 4.0]), space) == pytest.approx(5.0, abs=1e-12)

    def test_unit_blocks_give_ell_1(self):
        space = SpaceParams.create(1.0, (0, 1, 2))
        assert norm(np.array([3.0, 4.0]), space) == pytest.approx(7.0, abs=1e-12)

    def test_mixed_two_blocks(self):
        space = SpaceParams.create(2.0, (0, 2, 4))
        assert norm(np.ones(4), space) == pytest.approx(2.0, abs=1e-12)

    def test_two_blocks_p_three_halves(self):
        # block norms are 1 and 1, so the result is 2^(2/3)
        space = SpaceParams.create(1.5, (0, 1, 2))
        assert norm(np.array([1.0, 1.0]), space) == pytest.approx(2 ** (2 / 3), rel=1e-14)

    def test_batch_shape(self):
        space = SpaceParams.create(1.5, (0, 1, 3))
        X = np.arange(24.0).reshape(2, 4, 3)
        out = norm_batch(X, space)
        assert out.shape == (2, 4)

    def test_dimension_mismatch(self):
        space = SpaceParams.create(1.5, (0, 2))
        with pytest.raises(InputError):
            norm(np.ones(3), space)

    @given(spaces(max_n=8), st.data())
    def test_triangle_inequality(self, space, data):
        x = data.draw(points(space.n))
        y = data.draw(points(space.n))
        nx, ny, nxy = norm(x, space), norm(y, space), norm(x + y, space)
        assert nxy <= nx + ny + 1e-9 * (nx + ny + 1)

    @given(spaces(max_n=8), st.data())
    def test_homogeneity(self, space, data):
        c = data.draw(bounded_floats(1e3))
        x = data.draw(points(space.n))
        assert norm(c * x, space) == pytest.approx(abs(c) * norm(x, space), rel=1e-12, abs=0.0)

    @given(spaces(max_n=8), st.data())
    def test_coordinatewise_monotone(self, space, data):
        y = data.draw(points(space.n))
        u = data.draw(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=space.n, max_size=space.n)
        )
        x = y * np.asarray(u)
        assert norm(x, space) <= norm(y, space) * (1 + 1e-12) + 1e-300

    @given(block_specs(max_n=8), st.data())
    def test_p2_ignores_blocks(self, blocks, data):
        space = SpaceParams.create(2.0, blocks.cuts)
        x = data.draw(points(space.n))
        assert norm(x, space) == pytest.approx(float(np.linalg.norm(x)), rel=1e-12, abs=0.0)

    @given(st.floats(1.0, 2.0), st.data())
    def test_unit_cuts_match_classical(self, p, data):
        n = data.draw(st.integers(1, 8))
        space = SpaceParams.create(p, tuple(range(n + 1)))
        x = data.draw(points(n, magnitude=1e3))
        ref = float(np.sum(np.abs(x) ** p) ** (1 / p))
        assert norm(x, space) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @given(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)), st.integers(2, 8), st.data())
    def test_unit_blocks_take_abs_bit_for_bit(self, p, n, data):
        # every block of size one: |x| stands in for sqrt(x*x) over the whole
        # documented range and at zero (p = 2 takes the Euclidean path)
        space = SpaceParams.create(p, tuple(range(n + 1)))
        coord = st.builds(lambda s, m: s * m, st.sampled_from([-1.0, 1.0]),
                          st.one_of(st.just(0.0), st.floats(1e-150, 1e150)))
        X = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6)))
        bn = np.sqrt(np.add.reduceat(X * X, space.blocks.starts, axis=-1))
        ref = bn.sum(axis=-1) if p == 1.0 else np.power(np.power(bn, p).sum(axis=-1), 1.0 / p)
        assert norm_batch(X, space).tobytes() == ref.tobytes()

    @given(_rowsum_arrays())
    @example(np.array([[1.0, 1e-16, 1e-16]]))  # 1 in index order, 1 + 2^-52 if the tail is added first
    @example(np.full((2, 3), -0.0))  # numpy's sum starts from +0.0
    def test_rowsum_is_numpys_sum_bit_for_bit(self, A):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and overflow, alike on both sides
            assert geometry._rowsum(A).tobytes() == A.sum(axis=-1).tobytes()

    @given(_rowsum_arrays())
    @example(np.array([[1.0, 1e-16, 1e-16]]))
    @example(np.full((2, 3), -0.0))
    def test_rowsum_column_loop_is_numpys_sum_bit_for_bit(self, A):
        # the same arrays stacked to 64 rows and more, past numpy's own sum
        A = np.tile(A.reshape(-1, A.shape[-1]), (64, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            assert geometry._rowsum(A).tobytes() == A.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("path", ["p2", "one-block", "lp", "blocks"])
    @given(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)), st.data())
    def test_norm_paths_match_numpys_sum(self, path, p, data):
        # n up to 12 reaches numpy's pairwise sums from 8 terms on
        n = data.draw(st.integers(3 if path == "blocks" else 1, 12))
        if path in ("p2", "blocks"):  # blocks: 1 < m < n
            inner = data.draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=path == "blocks",
                                         max_size=n - 1 - (path == "blocks")))
            cuts = (0, *sorted(inner), n)
        else:
            cuts = (0, n) if path == "one-block" else tuple(range(n + 1))
        space = SpaceParams.create(2.0 if path == "p2" else p, cuts)
        X = np.array(data.draw(st.lists(st.lists(bounded_floats(1e3), min_size=n, max_size=n), min_size=1, max_size=20)))
        X = X[0] if len(X) == 1 else X.reshape(data.draw(st.sampled_from([(-1,), (1, -1), (-1, 1)])) + (n,))
        # the norm as written with numpy's own sums
        if space.p == 2.0:
            ref = np.sqrt(np.einsum("...i,...i->...", X, X))
        elif space.blocks.m == 1:
            ref = np.sqrt((X * X).sum(axis=-1))
        else:
            bn = np.abs(X) if space.blocks.m == n else np.sqrt(np.add.reduceat(X * X, space.blocks.starts, axis=-1))
            ref = bn.sum(axis=-1) if p == 1.0 else np.power(np.power(bn, p).sum(axis=-1), 1.0 / p)
        assert norm_batch(X, space).tobytes() == ref.tobytes()

    @given(block_specs(max_n=8), st.data())
    def test_whole_block_matches_euclidean(self, blocks, data):
        space = SpaceParams.create(1.37, (0, blocks.n))
        x = data.draw(points(blocks.n))
        assert norm(x, space) == pytest.approx(float(np.linalg.norm(x)), rel=1e-12, abs=0.0)


class TestDistance:
    def test_plain(self):
        space = SpaceParams.create(2.0, (0, 2))
        assert distance(np.zeros(2), np.array([3.0, 4.0]), space) == pytest.approx(5.0)

    def test_torus_wrap(self):
        space = SpaceParams.create(2.0, (0, 1))
        region = TorusRegion(10.0)
        assert distance(np.array([9.5]), np.array([0.5]), space, region) == pytest.approx(1.0)

    def test_torus_wrap_mixed(self):
        space = SpaceParams.create(1.5, (0, 1, 2))
        region = TorusRegion(4.0)
        d = distance(np.array([3.5, 0.0]), np.array([0.5, 1.0]), space, region)
        assert d == pytest.approx(2 ** (2 / 3), rel=1e-14)

    @given(st.data())
    def test_torus_symmetry_and_triangle(self, data):
        space = SpaceParams.create(1.5, (0, 1, 2, 3))
        region = TorusRegion(7.0)
        x = np.asarray(data.draw(st.lists(st.floats(0, 7, exclude_max=True), min_size=3, max_size=3)))
        y = np.asarray(data.draw(st.lists(st.floats(0, 7, exclude_max=True), min_size=3, max_size=3)))
        z = np.asarray(data.draw(st.lists(st.floats(0, 7, exclude_max=True), min_size=3, max_size=3)))
        assert distance(x, y, space, region) == distance(y, x, space, region)
        assert distance(x, z, space, region) <= (
            distance(x, y, space, region) + distance(y, z, space, region) + 1e-9
        )


def _all_pairs_min(centers, space, region):
    # oracle: the full distance matrix, no screening
    d = distance_batch(centers[:, None, :], centers[None], space, region)
    return d[np.triu_indices(len(centers), 1)].min(initial=math.inf)


class TestMinPairwise:
    """The cell-grid screen returns the all-pairs minimum bit for bit."""

    @given(spaces(max_n=4), st.booleans(), st.sampled_from(["cloud", "line", "plane", "lattice"]),
           st.sampled_from(["none", "duplicate", "axis-tie", "close"]), st.sampled_from([-1, 1, 40]),
           st.integers(0, 2**32 - 1))
    def test_matches_all_pairs(self, space, torus, shape, extra, dt, seed):
        n, L = space.n, 7.0
        t = max(64, 3**n) + dt  # just below, just above and well above the grid threshold
        region = TorusRegion(L) if torus else None
        rng = np.random.default_rng(seed)
        if shape == "lattice":
            # its minimum sits near the first cell side, so the grid doubles
            # its cells or falls back to all pairs
            k = math.ceil(t ** (1 / n) - 1e-9)
            pts = np.array(list(itertools.product(range(k), repeat=n))[:t]) * (L / k)
            pts += rng.uniform(0, 1e-6, pts.shape)
        else:
            pts = rng.random((t, n)) * L
            free_axes = {"cloud": n, "line": 1, "plane": 2}[shape]
            pts[:, free_axes:] = pts[0, free_axes:]  # the other axes have zero span
        i, j = rng.choice(t, 2, replace=False)
        if extra == "duplicate":
            pts[j] = pts[i]
        elif extra == "axis-tie":  # a partner at the minimum distance along an axis
            pts[j] = pts[i]
            pts[j, rng.integers(n)] += _all_pairs_min(pts[np.arange(t) != j], space, region)
        elif extra == "close":  # one pair far closer than the typical spacing
            pts[j] = pts[i] + rng.uniform(-1e-3, 1e-3, n)
        if torus:
            pts %= L
        assert min_pairwise(pts, space, region) == _all_pairs_min(pts, space, region)

    @pytest.mark.parametrize("n, k, rounds", [(2, 12, [11, 1]), (3, 4, [1]), (2, 24, [23, 11])])
    def test_lattice_doubles_then_falls_back(self, n, k, rounds, monkeypatch):
        # a k^n lattice of spacing 1/2 has its minimum at the first cell
        # side, just outside the exact range: the side doubles, and at
        # k = 12 the doubled table keeps too few cells, so it has one cell
        # and every pair is a candidate; at n = 3, k = 4 the first table
        # already has one cell
        space = SpaceParams.create(1.5, tuple(range(n + 1)))
        pts = 0.5 * np.array(list(itertools.product(range(k), repeat=n)), dtype=float)
        seen = []
        load = geometry._CellTable.load
        monkeypatch.setattr(geometry._CellTable, "load",
                            lambda table, X: seen.append(table.ncell) or load(table, X))
        assert min_pairwise(pts, space) == _all_pairs_min(pts, space, None)
        assert seen == rounds

    def test_candidate_minimum_beyond_the_cell_side_is_not_trusted(self):
        # l1 norm, a jittered D_2 lattice stretched by 1.05 along y: the
        # closest pair lies along x, 2 apart, beyond the first cell side,
        # and for some seeds in cells two apart, where the first grid
        # misses it
        space = SpaceParams.create(1.0, (0, 1, 2))
        z = np.array([v for v in itertools.product(range(16), repeat=2) if sum(v) % 2 == 0])
        for seed in range(10):
            pts = z * [1.0, 1.05] + np.random.default_rng(seed).uniform(0, 1e-6, z.shape)
            assert min_pairwise(pts, space) == _all_pairs_min(pts, space, None)

    @pytest.mark.parametrize("region", [None, TorusRegion(3.0)])
    def test_high_dimension_builds_no_neighbour_table(self, region, monkeypatch):
        # 3^20 neighbour offsets would not fit in memory
        space = SpaceParams.create(1.5, (0, 10, 20))
        pts = np.random.default_rng(4).random((300, 20)) * 3.0
        tables = []
        load = geometry._CellTable.load
        monkeypatch.setattr(geometry._CellTable, "load",
                            lambda table, X: tables.append(table) or load(table, X))
        assert min_pairwise(pts, space, region) == _all_pairs_min(pts, space, region)
        assert [table.nbr.shape for table in tables] == [(1, 1)]

    def test_crowded_cell_memory_is_bounded(self):
        # 5,000 copies of one centre among 20,000: a slot table with one
        # row per cell and a slot per copy would hold about 10^8 entries
        space = SpaceParams.create(1.5, (0, 1, 2))
        pts = np.random.default_rng(5).random((20_000, 2)) * 10.0
        pts[:5_000] = pts[0]
        tracemalloc.start()
        try:
            assert min_pairwise(pts, space) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestVolume:
    def test_disk(self):
        assert unit_ball_volume(2.0, BlockSpec((0, 2))) == pytest.approx(math.pi, rel=1e-14)

    def test_cross_polytope(self):
        assert unit_ball_volume(1.0, BlockSpec((0, 1, 2))) == pytest.approx(2.0, rel=1e-14)

    def test_r_unit_disk(self):
        assert r_unit(2.0, BlockSpec((0, 2))) == pytest.approx(math.pi ** -0.5, rel=1e-14)

    def test_interval(self):
        # n = 1: ball of radius 1 is [-1, 1], volume 2
        assert unit_ball_volume(1.7, BlockSpec((0, 1))) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize(
        "p,cuts",
        [(1.5, (0, 2, 3)), (1.25, (0, 1, 2)), (2.0, (0, 3)), (1.05, (0, 1, 3, 4))],
    )
    def test_against_rejection_mc(self, p, cuts, rng):
        space = SpaceParams.create(p, cuts)
        n = space.n
        samples = 400_000
        pts = rng.uniform(-1, 1, size=(samples, n))
        frac = float((norm_batch(pts, space) <= 1.0).mean())
        est = frac * 2**n
        se = 2**n * math.sqrt(frac * (1 - frac) / samples)
        assert abs(unit_ball_volume(p, space.blocks) - est) <= 3 * se

    @pytest.mark.parametrize("R", [0.5, 1.0, 3.7])
    def test_region_volume_scaling(self, R):
        space = SpaceParams.create(1.5, (0, 2, 3))
        ball = SuperballRegion(R)
        assert ball.volume(space) == pytest.approx((R / space.r_unit) ** 3, rel=1e-12)

    def test_volume_requires_valid_p(self):
        with pytest.raises(InputError):
            unit_ball_volume(0.8, BlockSpec((0, 2)))


def _branch_edges():
    # the recurrence's ends and the series switches, with 4 neighbours each side
    edges = []
    for c in (2.0, 3.0, 13.0, 1000.0, 1e8):
        below = above = c
        edges.append(c)
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
    return np.array(edges)


class TestLogGamma:
    # the argument forms the package uses: d/2 + 1, and d/p + 1 or n/p + 1
    FORMS = np.array([d / 2.0 + 1.0 for d in range(1, 600)]
                     + [d / p + 1.0 for d in range(1, 600) for p in np.linspace(1.0, 2.0, 201)])

    def test_bit_identical_to_scipy(self):
        xs = np.concatenate([1.0 + 0.005 * np.arange(399_801), _branch_edges(), self.FORMS])
        got = np.array([geometry._lgamma(float(x)) for x in xs])
        off = np.flatnonzero(got != special.gammaln(xs))
        assert off.size == 0, f"{off.size} mismatches, first at x = {xs[off[:5]].tolist()}"

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate([np.geomspace(1.0, 1e12, 500), _branch_edges(), self.FORMS[::97]])
        with mpmath.workdps(40):
            for x in xs:
                ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
                assert abs(geometry._lgamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref)), x


class TestSpaceParams:
    def test_conjugate_exponent(self):
        assert SpaceParams.create(1.5, (0, 1)).q == pytest.approx(3.0, rel=1e-14)
        assert SpaceParams.create(1.0, (0, 1)).q == math.inf

    def test_rejects_p_below_one(self):
        with pytest.raises(InputError):
            SpaceParams.create(0.99, (0, 2))

    def test_warns_above_two(self):
        with pytest.warns(UserWarning):
            SpaceParams.create(2.5, (0, 2))

    def test_unit_volume_radius_invariant(self):
        space = SpaceParams.create(1.3, (0, 2, 5))
        assert unit_ball_volume(space.p, space.blocks) * space.r_unit**space.n == pytest.approx(1.0, rel=1e-12)

    def test_json_round_trip(self):
        space = SpaceParams.create(1.5, (0, 2, 3))
        back = SpaceParams.from_json(json.loads(json.dumps(space.to_json())))
        assert back == space


class TestRegions:
    def test_ball_contains_boundary(self):
        space = SpaceParams.create(1.5, (0, 1, 2))
        assert contains(np.zeros(2), 1.0, np.array([1.0, 0.0]), space)
        assert not contains(np.zeros(2), 1.0, np.array([0.9, 0.9]), space)

    def test_ball_sampling_stays_inside(self, rng):
        space = SpaceParams.create(1.5, (0, 1, 2))
        region = SuperballRegion(2.5)
        pts = region.sample(space, rng, 500)
        assert pts.shape == (500, 2)
        assert region.contains_points(pts, space).all()

    def test_torus_sampling_in_box(self, rng):
        space = SpaceParams.create(2.0, (0, 3))
        region = TorusRegion(4.0)
        pts = region.sample(space, rng, 500)
        assert ((pts >= 0) & (pts < 4.0)).all()
        assert region.contains_points(pts, space).all()

    def test_sampling_deterministic(self):
        space = SpaceParams.create(1.5, (0, 2))
        region = SuperballRegion(1.0)
        a = region.sample(space, np.random.default_rng(7), 64)
        b = region.sample(space, np.random.default_rng(7), 64)
        assert (a == b).all()

    def test_region_json_round_trip(self):
        space = SpaceParams.create(2.0, (0, 2))
        for region in (SuperballRegion(2.0), TorusRegion(5.0)):
            back = region_from_json(region.to_json())
            assert type(back) is type(region)
            assert back.volume(space) == region.volume(space)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_size(self, bad):
        with pytest.raises(InputError):
            SuperballRegion(bad)
        with pytest.raises(InputError):
            TorusRegion(bad)


def _rejection_sample(space, R, rng, size):
    """Uniform ball points by rejection from the bounding cube: the reference law."""
    kept, have = [], 0
    while have < size:
        cand = rng.uniform(-R, R, size=(4 * size, space.n))
        kept.append(cand[norm_batch(cand, space) <= R])
        have += len(kept[-1])
    return np.concatenate(kept)[:size]


class TestBallSampler:
    # every statistical test runs at a fixed seed and fails below this p-value
    ALPHA = 1e-3

    @pytest.mark.parametrize(
        "p,cuts",
        [
            (1.05, tuple(range(9))),
            (1.1, tuple(range(7))),
            (1.5, (0, 2, 3)),
            (2.0, (0, 3)),
            (1.0, (0, 1)),
        ],
    )
    def test_radial_law(self, p, cuts):
        # vol B(sR) / vol B(R) = s^n, so (|x|/R)^n is uniform on [0, 1]
        space = SpaceParams.create(p, cuts)
        pts = SuperballRegion(2.5).sample(space, np.random.default_rng(101), 50_000)
        u = (norm_batch(pts, space) / 2.5) ** space.n
        assert stats.kstest(u, "uniform").pvalue > self.ALPHA

    @pytest.mark.parametrize(
        "p,cuts",
        [(1.05, (0, 1, 2, 3)), (1.1, (0, 1, 3, 6)), (1.5, (0, 2, 3)), (2.0, (0, 2, 5))],
    )
    def test_block_shares_are_dirichlet(self, p, cuts):
        # (|x_(j)|^p / |x|^p)_j is Dirichlet(d_1/p, ..., d_m/p), so each
        # share is Beta(d_j/p, (n - d_j)/p)
        space = SpaceParams.create(p, cuts)
        pts = SuperballRegion(1.0).sample(space, np.random.default_rng(202), 50_000)
        total = norm_batch(pts, space) ** p
        for a, b in zip(cuts, cuts[1:]):
            share = np.linalg.norm(pts[:, a:b], axis=1) ** p / total
            law = ((b - a) / p, (space.n - b + a) / p)
            assert stats.kstest(share, "beta", args=law).pvalue > self.ALPHA

    @pytest.mark.parametrize("p,cuts", [(1.1, (0, 1, 2, 3)), (1.5, (0, 2, 3)), (2.0, (0, 3))])
    def test_coordinates_match_rejection(self, p, cuts):
        space = SpaceParams.create(p, cuts)
        exact = SuperballRegion(1.5).sample(space, np.random.default_rng(303), 20_000)
        ref = _rejection_sample(space, 1.5, np.random.default_rng(304), 20_000)
        for i in range(space.n):
            assert stats.ks_2samp(exact[:, i], ref[:, i]).pvalue > self.ALPHA

    def test_empty_batch(self, rng):
        space = SpaceParams.create(1.5, (0, 2, 3))
        assert SuperballRegion(1.0).sample(space, rng, 0).shape == (0, 3)

    @given(spaces(), st.floats(0.1, 100.0), st.integers(0, 2**32 - 1))
    def test_points_in_closed_ball(self, space, R, seed):
        region = SuperballRegion(R)
        pts = region.sample(space, np.random.default_rng(seed), 200)
        assert pts.shape == (200, space.n)
        assert region.contains_points(pts, space).all()
