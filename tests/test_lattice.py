"""Lattice construction, proximity graph, greedy packing, certificates."""

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import spaces
from superpack import lattice_graph
from superpack.cli import main
from superpack.constants import compute_constant_chain
from superpack.errors import ComputationError, InputError
from superpack.geometry import SpaceParams, norm_batch
from superpack.lattice_graph import (
    GeoGraph,
    Lattice,
    LatticeParams,
    PackingCertificate,
    build_graph,
    build_lattice,
    cover_check,
    emit_packing,
    greedy_independent_set,
    load_certificate,
    local_sparsity_stats,
    save_certificate,
    verify_packing,
)

LINE = SpaceParams.create(2.0, (0, 1))
PLANE = SpaceParams.create(1.5, (0, 1, 2))

# unit tests run far above the asymptotic smallness regime on purpose
pytestmark = pytest.mark.filterwarnings("ignore:eps violates the smallness")


def small_plane_lattice(R_mult=3.0, eps=0.1):
    return build_lattice(R_mult * PLANE.r_unit, eps, PLANE)


class TestLatticeParams:
    def test_margin_formula(self):
        params = LatticeParams(PLANE, 2.0, 0.05)
        assert params.margin == pytest.approx(2.0 * 2 ** ((1.5 + 2) / 3.0) * 0.05)

    def test_margin_1d(self):
        params = LatticeParams(LINE, 1.0, 0.25)
        assert params.margin == 0.5

    def test_eps_must_be_below_ball_radius(self):
        with pytest.raises(InputError):
            LatticeParams(LINE, 10.0, 0.5)  # r_unit is exactly 0.5

    def test_R_must_exceed_margin(self):
        # margin = 2 * 0.2 = 0.4 in one dimension
        with pytest.raises(InputError):
            LatticeParams(LINE, 0.4, 0.2)

    def test_nonpositive_inputs(self):
        with pytest.raises(InputError):
            LatticeParams(LINE, -1.0, 0.1)
        with pytest.raises(InputError):
            LatticeParams(LINE, 1.0, 0.0)

    def test_smallness_warning(self):
        disk = SpaceParams.create(2.0, (0, 1, 2))
        # threshold: 2 eps / r >= 1/4, i.e. eps >= r/8 ~ 0.0705
        with pytest.warns(UserWarning, match="smallness"):
            LatticeParams(disk, 2.0, 0.08)

    def test_no_warning_below_threshold(self):
        disk = SpaceParams.create(2.0, (0, 1, 2))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = LatticeParams(disk, 2.0, 0.06)
        assert 0.06 < params.eps_threshold


class TestBuildLattice:
    def test_eight_unit_cubes_on_the_line(self):
        lat = build_lattice(1.0, 0.25, LINE)
        assert lat.N == 8
        assert lat.indices.ravel().tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_every_cube_inside_the_ball(self):
        lat = small_plane_lattice()
        eps = lat.params.eps
        a = np.abs(lat.indices * eps)
        b = np.abs((lat.indices + 1) * eps)
        worst = np.maximum(a, b)
        assert (norm_batch(worst, PLANE) <= lat.params.R).all()

    def test_no_contained_cube_missed(self, rng):
        # random integer cubes near the boundary: contained iff listed
        lat = small_plane_lattice()
        eps, R = lat.params.eps, lat.params.R
        kmax = int(np.ceil(R / eps)) + 1
        probe = rng.integers(-kmax, kmax, size=(500, 2))
        worst = np.maximum(np.abs(probe * eps), np.abs((probe + 1) * eps))
        contained = norm_batch(worst, PLANE) <= R
        listed = {tuple(row) for row in lat.indices.tolist()}
        for idx, inside in zip(probe.tolist(), contained):
            assert (tuple(idx) in listed) == bool(inside)

    def test_representatives_are_cube_centers(self):
        lat = build_lattice(1.0, 0.25, LINE)
        assert lat.representatives().ravel().tolist() == pytest.approx(
            [-0.875, -0.625, -0.375, -0.125, 0.125, 0.375, 0.625, 0.875]
        )

    def test_count_sandwich_in_three_dimensions(self):
        space = SpaceParams.create(2.0, (0, 1, 2, 3))
        lat = build_lattice(1.6, 0.15, space)
        r = space.r_unit
        lower = ((1.6 - lat.params.margin) / (0.15 * r)) ** 3
        upper = (1.6 / (0.15 * r)) ** 3
        assert lower <= lat.N <= upper


def _swept_indices(R, eps, space):
    """Every candidate cube of the box [-kmax, kmax)^n, swept in slabs along
    axis 0 with one norm per cube: the oracle for build_lattice."""
    kmax = int(math.ceil(R / eps)) + 1
    axis = np.arange(-kmax, kmax, dtype=np.int64)
    rows = []
    slab = max(1, 1_000_000 // len(axis) ** (space.n - 1))
    for start in range(0, len(axis), slab):
        grids = np.meshgrid(axis[start : start + slab], *([axis] * (space.n - 1)), indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        worst = np.maximum(np.abs(idx * eps), np.abs((idx + 1) * eps))
        rows.append(idx[norm_batch(worst, space) <= R])
    return np.concatenate(rows)


# every cut sequence with n <= 4, n = 1 included
CUT_SEQUENCES = [(0, *inner, n) for n in range(1, 5)
                 for k in range(n) for inner in itertools.combinations(range(1, n), k)]


class TestLatticeByColumns:
    @pytest.mark.parametrize("cuts", CUT_SEQUENCES, ids=lambda c: ",".join(map(str, c)))
    @given(p=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 2.0)),
           eps_frac=st.floats(0.05, 0.99), R_extra=st.floats(0.01, 6.0))
    @settings(max_examples=8)
    def test_matches_the_slab_sweep(self, cuts, p, eps_frac, R_extra):
        space = SpaceParams.create(p, cuts)
        eps = eps_frac * space.r_unit
        R = LatticeParams(space, 1e6, eps).margin + R_extra * eps
        lat = build_lattice(R, eps, space)
        swept = _swept_indices(R, eps, space)
        assert lat.indices.dtype == swept.dtype and lat.indices.shape == swept.shape
        assert np.array_equal(lat.indices, swept)  # the same rows in the same order
        assert [b.tolist() for b in lat.box] == [swept.min(axis=0).tolist(), swept.max(axis=0).tolist()]

    @pytest.mark.parametrize("p, cuts, R, eps", [
        (2.0, (0, 2), 2.5, 0.5),  # corner (3, 4) eps on the sphere
        (2.0, (0, 2), 1.25, 0.25),
        (2.0, (0, 2), 1.625, 0.125),  # corner (5, 12) eps
        (2.0, (0, 1, 2), 2.5, 0.5),  # the same through the lp path
        (1.0, (0, 1, 2), 2.0, 0.25),  # corners with k + l = 6 on the l1 sphere
        (1.0, (0, 1, 2, 3), 3.0, 0.25),
        (2.0, (0, 1), 1.0, 0.25),  # k eps = R on the line
        (1.5, (0, 1, 3), 1.5, 0.125),  # a block of one and a block of two
    ])
    def test_exact_boundary_corners(self, p, cuts, R, eps):
        space = SpaceParams.create(p, cuts)
        assert np.array_equal(build_lattice(R, eps, space).indices, _swept_indices(R, eps, space))

    def test_peak_memory_is_a_few_outputs(self):
        space = SpaceParams.create(1.5, (0, 1, 2, 3))
        build_lattice(2.0, 0.05, space)  # warm-up: first-call allocations are not the build's
        tracemalloc.start()
        try:
            lat = build_lattice(2.0, 0.05, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * lat.indices.nbytes


class TestCoverAndLocate:
    @pytest.mark.parametrize(
        "space, R, eps, probes",
        [
            (LINE, 1.0, 0.25, 20_000),
            (PLANE, 3.0 * PLANE.r_unit, 0.1, 10_000),
            (SpaceParams.create(2.0, (0, 1, 2, 3)), 1.6, 0.15, 5_000),
        ],
    )
    def test_shrunken_ball_is_covered(self, space, R, eps, probes):
        lat = build_lattice(R, eps, space)
        report = cover_check(lat, probes=probes, seed=7)
        assert report["ok"]
        assert report["covered"] == probes

    def test_locate_outside_returns_minus_one(self):
        lat = build_lattice(1.0, 0.25, LINE)
        rows = lat.locate(np.array([[5.0], [-3.0]]))
        assert rows.tolist() == [-1, -1]
        # inside the index bounding box but in an unlisted corner cube
        plat = small_plane_lattice()
        corner = (plat.indices.min(axis=0) + 0.5) * plat.params.eps
        assert plat.locate(corner[None, :])[0] == -1

    def test_locate_finds_the_right_cube(self):
        lat = build_lattice(1.0, 0.25, LINE)
        rows = lat.locate(np.array([[0.3], [-0.9]]))
        assert lat.indices[rows[0], 0] == 1
        assert lat.indices[rows[1], 0] == -4


class TestBuildGraph:
    def path_graph(self, k_indices, radius):
        """Collinear unit cubes with an explicit interaction radius."""
        params = LatticeParams(LINE, 10.0, 0.3)
        lat = Lattice(params, np.array(k_indices, dtype=np.int64).reshape(-1, 1))
        return build_graph(lat, radius=radius)

    def test_two_adjacent_cubes_one_edge(self):
        g = self.path_graph([[-1], [0]], radius=0.16)  # reps 0.3 apart, 2r = 0.32
        assert g.edge_count == 1
        assert g.neighbor_row(0).tolist() == [1]
        assert g.neighbor_row(1).tolist() == [0]

    def test_equal_distance_is_not_an_edge(self):
        g = self.path_graph([[-1], [0]], radius=0.15)  # 2r exactly 0.3, strict
        assert g.edge_count == 0

    def test_path_on_three_vertices(self):
        g = self.path_graph([[-1], [0], [1]], radius=0.2)
        assert g.degrees.tolist() == [1, 2, 1]
        mis = greedy_independent_set(g)
        assert mis.tolist() == [0, 2]

    def test_brute_force_adjacency_oracle(self):
        lat = small_plane_lattice(R_mult=2.0, eps=0.15)
        g = build_graph(lat)
        reps = lat.representatives()
        diffs = reps[:, None, :] - reps[None, :, :]
        dense = norm_batch(diffs.reshape(-1, 2), PLANE).reshape(lat.N, lat.N)
        expect = (dense < 2.0 * PLANE.r_unit) & ~np.eye(lat.N, dtype=bool)
        got = np.zeros_like(expect)
        for v in range(lat.N):
            got[v, g.neighbor_row(v)] = True
        assert (got == expect).all()

    def test_degree_bound_holds(self):
        for eps in (0.08, 0.12, 0.2):
            lat = small_plane_lattice(R_mult=2.5, eps=eps)
            g = build_graph(lat)
            assert g.max_degree + 1 <= g.degree_bound() * (1 + 1e-9)

    def test_neighbor_lists_sorted_and_symmetric(self):
        lat = small_plane_lattice(R_mult=2.0, eps=0.15)
        g = build_graph(lat)
        for v in range(g.N):
            row = g.neighbor_row(v)
            assert (np.diff(row) > 0).all()
            for u in row:
                assert v in g.neighbor_row(int(u))

    def test_bad_radius(self):
        lat = build_lattice(1.0, 0.25, LINE)
        with pytest.raises(InputError):
            build_graph(lat, radius=0.0)

    @pytest.mark.parametrize("radius", [float("inf"), float("nan")])
    def test_non_finite_radius(self, radius):
        lat = build_lattice(1.0, 0.25, LINE)
        with pytest.raises(InputError):
            build_graph(lat, radius=radius)

    def test_readme_case_packs_past_the_old_edge_cap(self, tmp_path, monkeypatch, capsys):
        # 52M edges, five times the 10M cap of an edge-list graph; the
        # advisory statistics must refuse it before counting any triangle
        def no_count(self):
            raise AssertionError("counted triangles")

        monkeypatch.setattr(GeoGraph, "triangles", no_count)
        cert = tmp_path / "cert.json"
        argv = ["pack", "--p", "1.5", "--cuts", "0,1,2", "--R", "8", "--eps", "0.05"]
        assert main(argv + ["--local-stats", "--out", str(cert)]) == 0
        summary = json.loads((tmp_path / "cert.summary.json").read_text())
        assert summary["edges"] > 10_000_000
        assert summary["count"] * (summary["max_degree"] + 1) >= summary["cubes"]
        assert set(summary["local_sparsity"]) == {"advisory", "skipped"}
        assert main(["verify", "--in", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True


def _all_pairs_greedy(adj: np.ndarray, order: np.ndarray) -> list[int]:
    blocked = np.zeros(len(adj), dtype=bool)
    chosen = []
    for v in order:
        if not blocked[v]:
            chosen.append(int(v))
            blocked |= adj[v]
    return sorted(chosen)


@st.composite
def stencil_cases(draw):
    """Small lattices, with radii that put stencil offsets exactly at 2r."""
    space = draw(spaces(max_n=3, p_strategy=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 2.0))))
    eps = draw(st.sampled_from([0.07, 0.1, 0.15, 0.2, 0.3]))
    R = LatticeParams(space, 1e6, eps).margin + eps * draw(st.floats(0.25, 2.0))
    # 2r = k eps: axis offsets of k cells sit at 2r, and for p = 2 so do
    # offsets like (3, 4) at k = 5; None keeps the unit-volume radius
    k = draw(st.sampled_from([None, 1, 2, 3, 4, 5]))
    return space, R, eps, None if k is None else k * eps / 2.0


class TestStencilGraph:
    @given(stencil_cases())
    def test_matches_all_pairs(self, case):
        space, R, eps, radius = case
        lat = build_lattice(R, eps, space)
        assume(lat.N <= 2500)
        g = build_graph(lat, radius=radius)
        reps = lat.representatives()
        adj = np.concatenate([
            norm_batch(reps[a : a + 256, None, :] - reps[None, :, :], space) < 2.0 * g.radius
            for a in range(0, lat.N, 256)
        ])
        np.fill_diagonal(adj, False)
        assert g.degrees.tolist() == adj.sum(axis=1).tolist()
        assert g.edge_count == int(adj.sum()) // 2
        for v in range(lat.N):
            assert g.neighbor_row(v).tolist() == np.flatnonzero(adj[v]).tolist()
        orders = {"mindeg": np.argsort(adj.sum(axis=1), kind="stable"), "lex": np.arange(lat.N)}
        for rule, order in orders.items():
            assert greedy_independent_set(g, rule).tolist() == _all_pairs_greedy(adj, order)

    def test_band_pairs_are_decided_once(self, monkeypatch):
        # 640 cubes and 12 band offsets: build_graph tests every band pair,
        # and nothing the graph answers afterwards measures a distance again
        g = build_graph(build_lattice(1.5, 0.1, SpaceParams.create(2.0, (0, 2))), radius=0.25)
        h = len(g.band) // 2
        assert g.N == 640 and h == 6 and g.links.shape == (12, 640) and g.links.dtype == bool
        for x in range(2 * h):
            u = g.table[g.codes + g.band[x]]
            v = np.flatnonzero(u >= 0)
            assert (g.links[x, v] == g.links[(x + h) % (2 * h), u[v]]).all()
            assert not g.links[x, u < 0].any()
        assert g.links.any() and not g.links.all()

        def refuse(*args, **kwargs):
            raise AssertionError("norm_batch called after build_graph")

        monkeypatch.setattr(lattice_graph, "norm_batch", refuse)
        g.triangles()
        mis = greedy_independent_set(g)
        assert g.independent(mis)
        for v in range(g.N):
            g.neighbor_row(v)


class TestNeighborhoodSandwich:
    """B(x, 2r - margin) cap B(0, R - margin) sits inside the closed
    neighborhood's cubes, which sit inside B(x, 2r + margin)."""

    def test_sandwich(self, rng):
        lat = small_plane_lattice(R_mult=3.0, eps=0.1)
        g = build_graph(lat)
        params = lat.params
        r2 = 2.0 * g.radius
        margin = params.margin
        reps = lat.representatives()
        for v in rng.choice(lat.N, size=6, replace=False):
            x = reps[v]
            closed = np.append(g.neighbor_row(v), v)
            closed_set = set(int(u) for u in closed)

            # inner: probes in the shrunken lens land in a listed cube
            probes = rng.uniform(-(r2 - margin), r2 - margin, size=(4000, 2))
            probes = probes[norm_batch(probes, PLANE) <= r2 - margin] + x
            probes = probes[norm_batch(probes, PLANE) <= params.R - margin]
            rows = lat.locate(probes)
            assert (rows >= 0).all()
            assert all(int(u) in closed_set for u in np.unique(rows))

            # outer: every cube of the closed neighborhood is near x
            idx = lat.indices[closed]
            lo_corner = idx * params.eps - x
            hi_corner = (idx + 1) * params.eps - x
            worst = np.maximum(np.abs(lo_corner), np.abs(hi_corner))
            assert (norm_batch(worst, PLANE) <= r2 + margin).all()


def _all_pairs_triangles(g: GeoGraph) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and twice the triangles through each vertex, from the dense adjacency."""
    reps, space = g.vertices, g.lattice.params.space
    adj = np.concatenate([
        norm_batch(reps[a : a + 256, None, :] - reps[None, :, :], space) < 2.0 * g.radius
        for a in range(0, g.N, 256)
    ])
    np.fill_diagonal(adj, False)
    A = adj.astype(np.float64)  # integer sums below 2^53 are exact in any order
    return A.sum(axis=1).astype(np.int64), ((A @ A) * A).sum(axis=1).astype(np.int64)


class TestSparsityStats:
    def complete_graph(self):
        lat = build_lattice(0.61, 0.3, LINE)  # four cubes, all within 2 r_unit
        return build_graph(lat)

    def test_complete_graph_triangles(self):
        g = self.complete_graph()
        assert g.N == 4 and g.edge_count == 6
        stats = local_sparsity_stats(g)
        # inside any K4 neighborhood every one of 3 vertices has degree 2
        assert stats["max_avg_neighborhood_degree"] == pytest.approx(2.0)
        assert stats["mean_avg_neighborhood_degree"] == pytest.approx(2.0)
        assert stats["advisory"] is True

    def test_reference_ratio_with_chain(self):
        g = self.complete_graph()
        chain = compute_constant_chain(2.0)
        stats = local_sparsity_stats(g, chain)
        K = 0.1 * (2.0 / chain.c_p)
        assert stats["reference_K"] == pytest.approx(K)
        assert stats["reference_D_over_K"] == pytest.approx(g.degree_bound() / K)

    def test_flop_guard(self, monkeypatch):
        g = self.complete_graph()
        monkeypatch.setattr(lattice_graph, "MAX_FLOPS", 1.0)
        with pytest.raises(ComputationError):
            local_sparsity_stats(g)

    def test_band_offsets_against_all_pairs_triangles(self):
        # p = 2 at this radius puts 12 offsets in the rounding band, so the
        # per-pair branch of GeoGraph.triangles feeds the triangle counts
        space = SpaceParams.create(2.0, (0, 2))
        lat = build_lattice(1.5, 0.1, space)
        g = build_graph(lat, radius=0.25)
        assert lat.N == 640 and len(g.band) == 12
        deg, tri2 = _all_pairs_triangles(g)
        avg = np.where(deg > 0, tri2 / np.maximum(deg, 1), 0.0)
        stats = local_sparsity_stats(g)
        assert stats["max_avg_neighborhood_degree"] == pytest.approx(avg.max(), rel=1e-12)
        assert stats["mean_avg_neighborhood_degree"] == pytest.approx(avg.mean(), rel=1e-12)

    @given(stencil_cases())
    @example((SpaceParams.create(2.0, (0, 2)), 3.0, 0.1, 0.25))  # 2,692 cubes, 12 band offsets
    @example((SpaceParams.create(2.0, (0, 3)), 0.7, 0.1, 0.3))  # 3D, 30 band offsets
    def test_triangles_match_all_pairs(self, case):
        space, R, eps, radius = case
        lat = build_lattice(R, eps, space)
        assume(lat.N <= 3000)
        g = build_graph(lat, radius=radius)
        deg, tri2 = _all_pairs_triangles(g)
        assert g.triangles().tolist() == tri2.tolist()
        avg = tri2 / np.maximum(deg, 1)
        stats = local_sparsity_stats(g)
        assert stats["max_avg_neighborhood_degree"] == float(avg.max())
        assert stats["mean_avg_neighborhood_degree"] == float(avg.mean())

    def test_edgeless_graph(self):
        lat = build_lattice(1.0, 0.25, LINE)
        g = build_graph(lat, radius=0.05)
        stats = local_sparsity_stats(g)
        assert stats["max_avg_neighborhood_degree"] == 0.0
        assert stats["edges"] == 0


class TestGreedyIndependentSet:
    def test_path_of_four_both_orders(self):
        params = LatticeParams(LINE, 10.0, 0.3)
        lat = Lattice(params, np.arange(4, dtype=np.int64).reshape(-1, 1))
        g = build_graph(lat, radius=0.25)
        assert g.degrees.tolist() == [1, 2, 2, 1]
        assert greedy_independent_set(g, "mindeg").tolist() == [0, 3]
        assert greedy_independent_set(g, "lex").tolist() == [0, 2]

    def test_edgeless_graph_takes_everything(self):
        lat = build_lattice(1.0, 0.25, LINE)
        g = build_graph(lat, radius=0.05)
        assert greedy_independent_set(g).tolist() == list(range(8))

    def test_result_is_independent_and_maximal(self, rng):
        lat = small_plane_lattice(R_mult=2.5, eps=0.12)
        g = build_graph(lat)
        for rule in ("mindeg", "lex"):
            mis = greedy_independent_set(g, rule)
            assert g.independent(mis)
            in_set = np.zeros(g.N, dtype=bool)
            in_set[mis] = True
            # maximality: every vertex outside has a chosen neighbor
            for v in range(g.N):
                if not in_set[v]:
                    assert in_set[g.neighbor_row(v)].any()
            assert len(mis) * (g.max_degree + 1) >= g.N

    def test_unknown_order_rule(self):
        lat = build_lattice(1.0, 0.25, LINE)
        g = build_graph(lat)
        with pytest.raises(InputError):
            greedy_independent_set(g, "random")


class TestIndependent:
    def band_graph(self):
        # p = 2 and 2r = 5 eps: offsets such as (5, 0) and (3, 4) sit exactly
        # at 2r, inside the rounding band, so rounding decides each pair
        return build_graph(build_lattice(3.0, 0.1, SpaceParams.create(2.0, (0, 2))), radius=5 * 0.1 / 2.0)

    def translates(self, g, shifts):
        """Every (v, u, adjacent) with u a listed cube at a shift of v."""
        for v in range(g.N):
            row = set(g.neighbor_row(v).tolist())
            for u in g.table[g.codes[v] + shifts].tolist():
                if u >= 0:
                    yield v, u, u in row

    def test_pair_along_a_sure_offset(self):
        g = self.band_graph()
        v, u, adjacent = next(self.translates(g, g.sure))
        assert adjacent
        assert not g.independent([v, u]) and not g.independent([u, v])
        assert g.independent([v]) and g.independent([])

    def test_pairs_along_band_offsets_take_the_exact_test(self):
        g = self.band_graph()
        assert len(g.band)
        pair = {}
        for v, u, adjacent in self.translates(g, g.band):
            pair.setdefault(adjacent, [v, u])
        assert set(pair) == {True, False}  # rounding falls on both sides of 2r
        assert not g.independent(pair[True])
        assert g.independent(pair[False])

    def test_greedy_set_plus_a_vertex_is_not_independent(self):
        g = self.band_graph()
        mis = greedy_independent_set(g)
        outside = np.setdiff1d(np.arange(g.N), mis)
        for v in outside[:: len(outside) // 40]:
            assert not g.independent(np.append(mis, v))

    def test_greedy_refuses_a_set_that_is_not_independent(self, monkeypatch):
        g = build_graph(small_plane_lattice(R_mult=2.5, eps=0.12))
        monkeypatch.setattr(GeoGraph, "independent", lambda self, vertices: False)
        with pytest.raises(ComputationError, match="not independent"):
            greedy_independent_set(g)


def _null_mapped(x):
    if isinstance(x, dict):
        return {k: _null_mapped(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_null_mapped(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


_json_leaves = st.one_of(
    st.floats(),  # with +-inf, nan, -0.0 and subnormals
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-320, 1e-310]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII included
    # rows of one width, as certificate centres are
    st.integers(1, 3).flatmap(lambda w: st.lists(st.lists(st.floats(), min_size=w, max_size=w), min_size=1, max_size=4)),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonText:
    @settings(max_examples=400)
    @given(_json_trees)
    @example({"": [], "a": {}, "b": [[], {}, ([],), [{"c": {}}]], "\u00e9\u4e2d": ["\u2603", 2**64 + 1, -(2**63) - 1]})
    @example([[[[]]], {"x": ({},)}])
    @example(float("nan"))
    @example({"centers": [[1.5, -0.0], (2.5, 5e-324)], "rows": [[1.0], [math.inf], [2.0]], "ints": [[1, 2], [3, 4]]})
    @example([[[1.5]], [[2.5]], [], [[]], [[], []], ["ab", "cd"], [[1.5, 2.5], [3.5]], [[1.5], [True]], [{"a": 1.5}]])
    def test_matches_json_dumps(self, x):
        expected = json.dumps(_null_mapped(x), indent=1, sort_keys=True, allow_nan=False) + "\n"
        assert lattice_graph.json_text(x) == expected


class TestWriteText:
    def test_failed_replace_keeps_target_and_leaves_no_tmp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(lattice_graph.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            lattice_graph.write_text(target, "new\n")
        assert target.read_text() == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []


class TestCertificates:
    def packed(self):
        lat = small_plane_lattice(R_mult=2.5, eps=0.12)
        g = build_graph(lat)
        return g, emit_packing(g, greedy_independent_set(g))

    def test_emit_recomputes_distances(self):
        g, cert = self.packed()
        assert cert.min_pairwise_distance >= 2.0 * g.radius
        assert cert.count == len(cert.centers)
        assert cert.density == pytest.approx(
            cert.count / (cert.R / PLANE.r_unit) ** 2
        )

    def test_emit_rejects_adjacent_pair(self):
        lat = small_plane_lattice(R_mult=2.5, eps=0.12)
        g = build_graph(lat)
        v = int(np.argmax(g.degrees))
        u = int(g.neighbor_row(v)[0])
        with pytest.raises(ComputationError):
            emit_packing(g, np.array([v, u]))

    def test_emit_rejects_empty_and_duplicates(self):
        g, _ = self.packed()
        with pytest.raises(InputError):
            emit_packing(g, np.array([], dtype=np.int64))
        with pytest.raises(InputError):
            emit_packing(g, np.array([0, 0]))

    def test_verify_accepts_good_certificate(self):
        _, cert = self.packed()
        ok, min_d = verify_packing(cert)
        assert ok
        assert min_d == cert.min_pairwise_distance

    def test_singleton_certificate(self):
        cert = PackingCertificate(
            space=LINE,
            R=1.0,
            radius=0.5,
            centers=np.array([[0.0]]),
            min_pairwise_distance=float("inf"),
            density=0.5,
        )
        ok, min_d = verify_packing(cert)
        assert ok and min_d == float("inf")

    def test_tampered_center_detected(self):
        _, cert = self.packed()
        centers = cert.centers.copy()
        diffs = centers[:, None, :] - centers[None, :, :]
        dense = norm_batch(diffs.reshape(-1, 2), PLANE).reshape(len(centers), -1)
        np.fill_diagonal(dense, np.inf)
        i, j = np.unravel_index(np.argmin(dense), dense.shape)
        # nudge one center a fifth of the exclusion toward its nearest peer
        step = (centers[j] - centers[i]) / dense[i, j]
        centers[i] = centers[i] + step * (0.2 * 2.0 * cert.radius)
        bad = PackingCertificate(
            cert.space, cert.R, cert.radius, centers,
            cert.min_pairwise_distance, cert.density,
        )
        ok, min_d = verify_packing(bad)
        assert not ok
        assert min_d < 2.0 * cert.radius

    @pytest.mark.parametrize("claims", [
        {"density": 10.0}, {"min_pairwise_distance": 99.0}, {"density": 10.0, "min_pairwise_distance": 99.0},
    ])
    def test_false_claims_detected(self, claims):
        _, cert = self.packed()
        data = cert.to_json()
        true_min = data["min_pairwise_distance"]
        for key, factor in claims.items():
            data[key] = data[key] * factor if key == "density" else factor
        ok, min_d = verify_packing(data)
        assert not ok
        assert min_d == true_min

    def test_center_outside_ball_detected(self):
        _, cert = self.packed()
        centers = cert.centers.copy()
        centers[0] = cert.R * 2.0
        bad = PackingCertificate(
            cert.space, cert.R, cert.radius, centers,
            cert.min_pairwise_distance, cert.density,
        )
        ok, _ = verify_packing(bad)
        assert not ok

    def test_save_load_round_trip(self, tmp_path):
        _, cert = self.packed()
        path = tmp_path / "cert.json"
        save_certificate(cert, path, meta={"tool": "superpack"})
        loaded = load_certificate(path)
        assert loaded.space.p == cert.space.p
        assert loaded.space.blocks.cuts == cert.space.blocks.cuts
        assert np.array_equal(loaded.centers, cert.centers)
        assert loaded.min_pairwise_distance == cert.min_pairwise_distance
        ok, _ = verify_packing(path)
        assert ok

    def test_verify_closes_the_certificate_file(self, tmp_path):
        _, cert = self.packed()
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert verify_packing(path)[0]
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_verify_accepts_dict(self):
        _, cert = self.packed()
        ok, _ = verify_packing(cert.to_json())
        assert ok

    def test_malformed_certificates(self, tmp_path):
        _, cert = self.packed()
        data = cert.to_json()
        for key in ("p", "cuts", "centers", "radius"):
            broken = dict(data)
            del broken[key]
            with pytest.raises(InputError):
                verify_packing(broken)
        ragged = dict(data)
        ragged["centers"] = [[0.0, 0.0], [1.0]]
        with pytest.raises(InputError):
            verify_packing(ragged)
        bad_file = tmp_path / "nope.json"
        bad_file.write_text("{ not json")
        with pytest.raises(InputError):
            verify_packing(str(bad_file))
        with pytest.raises(InputError):
            verify_packing(42)

    @pytest.mark.parametrize("field, value", [
        ("radius", -0.6), ("radius", 0.0), ("radius", float("nan")), ("R", 0.0),
        ("R", float("inf")), ("centers", float("nan")), ("centers", float("-inf")),
    ])
    def test_malformed_sizes_and_centers(self, field, value, tmp_path):
        _, cert = self.packed()
        if field == "centers":
            centers = cert.centers.copy()
            centers[0, 1] = value
            bad = dataclasses.replace(cert, centers=centers)
        else:
            bad = dataclasses.replace(cert, **{field: value})
        path = tmp_path / "cert.json"
        save_certificate(bad, path)
        for form in (bad, bad.to_json(), path):
            with pytest.raises(InputError):
                verify_packing(form)

    def test_schema_validation(self, tmp_path):
        import pathlib

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "schemas" / "certificate.schema.json").read_text()
        )
        _, cert = self.packed()
        path = tmp_path / "cert.json"
        save_certificate(cert, path, meta={"note": "round trip"})
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, schema)
        del payload["density"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)


class TestPackVerifyGolden:
    # SHA-256 of the certificate, its summary and the verify report as
    # produced by all-pairs certificate checks; the pair screen must
    # reproduce them byte for byte
    GOLDEN = [
        (["--p", "1.5", "--cuts", "0,1,2", "--R", "12", "--eps", "0.3"],
         ("e5a310944dedff709a08eeaf22eb607e4c7fa43fc52698e204dd3a58d49f88ce",
          "29df703feae0ecd077fea358068a6ca2f8ea4be8a191de9adf8378bb484a6959",
          "27152bd9115eca39b9195206cce6333d63fc5f388df8515f2a2aae215b914f59")),
        (["--p", "2", "--cuts", "0,1,2,3", "--R", "6", "--eps", "0.3", "--order", "lex"],
         ("a7b09d3dddb8e68eea5ad0324fdfa699f90718f708cb5665ac4a65cf5614104b",
          "a495075565e408bbbe418b3a883160a11af3d7a4d8dc06303e8e305e4a265c68",
          "e30b4b3d679cfc8348729f45a1bacde703b97eccc84eab0841fc2ad867ccee4f")),
        # rounding-band cases: 12 and 30 band offsets
        (["--p", "2", "--cuts", "0,2", "--R", "3", "--eps", "0.1", "--radius", "0.25", "--local-stats"],
         ("327ad168bb1fe3b1c7dcdeb74000d7993239c0356739dac37b5765271dbf4781",
          "1fc58a6e9bfffe417623b063c284515630c8beeb9161e60f9191da7e07583921",
          "c059ec1bf34fbed279e452466b7a74b0421169188f3ff08ba527cab64e1cfd48")),
        (["--p", "2", "--cuts", "0,3", "--R", "2", "--eps", "0.1", "--radius", "0.3"],
         ("1146b895456523b313fe5e1198991f982d66e862bf3f402e9230165dd9b6bc32",
          "a33e8fffe70985fae1a6f310ddfc6b0168fc48e4211efe463d2760fdfc72b2e6",
          "d73aa966e07bd546f2b6936d7cbe933856751d829aa037fc2e67fbd99b5a57e3")),
    ]

    @pytest.mark.parametrize("case", GOLDEN, ids=["plane-p1.5", "space-p2-lex", "band-plane-stats", "band-space"])
    def test_outputs_golden(self, case, tmp_path, monkeypatch, capsys):
        argv, digests = case
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SUPERPACK_OUT", raising=False)
        assert main(["pack", *argv, "--out", "cert.json"]) == 0
        assert main(["verify", "--in", "cert.json", "--out", "verify.json"]) == 0
        files = ("cert.json", "cert.summary.json", "verify.json")
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files)
        assert got == digests
