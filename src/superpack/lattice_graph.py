"""Cube lattice inside a superball, proximity graph, greedy packing.

The constructive pipeline tiles B(0, R) with axis cubes of side eps
drawn from the grid eps * Z^n, keeps the cubes that fit entirely inside
the ball, picks one representative per cube, joins representatives at
distance < 2r, and extracts a maximal independent set. Independent
representatives are centers of nonoverlapping superballs of radius r,
so the output is a packing, certified by recomputing every pairwise
distance from scratch.

Quantities that recur below:

    margin = 2 n^((p+2)/(2p)) eps

is a safe upper bound on the cube diameter in the block norm, so any
cube touching B(0, R - margin) lies inside B(0, R). That yields the
two-sided count bound

    ((R - margin)/(eps r_unit))^n <= N <= (R/(eps r_unit))^n

checked on every build, and the closed-neighborhood degree bound
((2r + margin)/(eps r_unit))^n checked on every graph.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .constants import ConstantChain
from .errors import ComputationError, InputError
from .geometry import BlockSpec, SpaceParams, SuperballRegion, min_pairwise, norm_batch

__all__ = [
    "MAX_EDGES",
    "LatticeParams",
    "Lattice",
    "build_lattice",
    "cover_check",
    "GeoGraph",
    "build_graph",
    "local_sparsity_stats",
    "greedy_independent_set",
    "PackingCertificate",
    "emit_packing",
    "verify_packing",
    "save_certificate",
    "write_text",
    "load_certificate",
]

MAX_EDGES = 10_000_000
CLAIM_RTOL = 1e-12  # claimed vs recomputed density and minimum distance in verify_packing


@dataclass(frozen=True)
class LatticeParams:
    space: SpaceParams
    R: float
    eps: float

    def __post_init__(self):
        if not (self.R > 0 and self.eps > 0):
            raise InputError("R and eps must be positive")
        r = self.space.r_unit
        if self.eps >= r:
            raise InputError(
                f"eps = {self.eps} is not smaller than the superball radius {r}"
            )
        n = self.space.n
        if self.corner_factor * self.eps / r >= n**-2.0:
            warnings.warn(
                "eps violates the smallness condition "
                f"n^((p+2)/(2p)) eps / r_unit < n^-2 (needs eps < {self.eps_threshold})",
                stacklevel=2,
            )
        if self.R <= self.margin:
            raise InputError(f"R = {self.R} must exceed the margin {self.margin}")

    @property
    def corner_factor(self) -> float:
        n, p = self.space.n, self.space.p
        return n ** ((p + 2.0) / (2.0 * p))

    @property
    def margin(self) -> float:
        return 2.0 * self.corner_factor * self.eps

    @property
    def eps_threshold(self) -> float:
        """Largest eps honoring the smallness condition."""
        return self.space.r_unit / (self.space.n**2 * self.corner_factor)


@dataclass(frozen=True)
class Lattice:
    """Inside-cube index list; cube i occupies eps*idx + [0, eps]^n."""

    params: LatticeParams
    indices: np.ndarray  # (N, n) int64

    @property
    def N(self) -> int:
        return len(self.indices)

    def representatives(self) -> np.ndarray:
        return (self.indices + 0.5) * self.params.eps

    def cube_codes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sorted linear codes, their lattice rows, and the index box.

        Returns (codes, rows, lo, dims) where codes is ascending and
        rows[k] is the lattice row whose cube has code codes[k].
        """
        lo = self.indices.min(axis=0)
        dims = self.indices.max(axis=0) - lo + 1
        codes = np.ravel_multi_index((self.indices - lo).T, dims)
        rows = np.argsort(codes).astype(np.int64)
        return codes[rows], rows, lo, dims

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Row index of the cube holding each point, -1 when none does."""
        points = np.atleast_2d(points)
        idx = np.floor(points / self.params.eps).astype(np.int64)
        out = np.full(len(points), -1, dtype=np.int64)
        found, rows = _lookup(idx, *self.cube_codes())
        out[found] = rows
        return out


def _lookup(idx, codes, rows, lo, dims) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of ``idx`` name a listed cube, and that cube's lattice row.

    ``codes, rows, lo, dims`` come from ``Lattice.cube_codes``.
    """
    shifted = idx - lo
    in_box = np.flatnonzero(((shifted >= 0) & (shifted < dims)).all(axis=1))
    cand = np.ravel_multi_index(shifted[in_box].T, dims)
    pos = np.clip(np.searchsorted(codes, cand), 0, len(codes) - 1)
    hit = codes[pos] == cand
    return in_box[hit], rows[pos[hit]]


def _worst_corner(indices: np.ndarray, eps: float) -> np.ndarray:
    """Per-coordinate farthest-from-zero corner of each cube."""
    a = np.abs(indices * eps)
    b = np.abs((indices + 1) * eps)
    return np.maximum(a, b)


def build_lattice(R: float, eps: float, space: SpaceParams) -> Lattice:
    """Enumerate the grid cubes lying entirely inside B(0, R).

    Containment is exact: by coordinatewise monotonicity the norm over
    a cube is maximized at its farthest-from-zero corner, so one norm
    evaluation per cube decides it.
    """
    params = LatticeParams(space, float(R), float(eps))
    n = space.n
    kmax = int(math.ceil(R / eps)) + 1
    axis = np.arange(-kmax, kmax, dtype=np.int64)

    rows = []
    # slab along axis 0 to bound peak memory for n = 3
    slab = max(1, int(4_000_000 // max(1, len(axis) ** (n - 1))))
    for start in range(0, len(axis), slab):
        chunk = axis[start : start + slab]
        grids = np.meshgrid(chunk, *([axis] * (n - 1)), indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=1)
        ok = norm_batch(_worst_corner(idx, eps), space) <= R
        if ok.any():
            rows.append(idx[ok])
    indices = np.concatenate(rows) if rows else np.empty((0, n), dtype=np.int64)

    N = len(indices)
    upper = (R / (eps * space.r_unit)) ** n
    lower = ((R - params.margin) / (eps * space.r_unit)) ** n
    slack = 1e-9 * upper + 1.0
    if not (lower - slack <= N <= upper + slack):
        raise ComputationError(
            f"cube count {N} escaped its sandwich [{lower}, {upper}]"
        )
    return Lattice(params, indices)


def cover_check(lattice: Lattice, probes: int = 100_000, seed: int = 0) -> dict:
    """Every point of B(0, R - margin) should lie in some listed cube."""
    params = lattice.params
    shrunk = SuperballRegion(params.R - params.margin)
    pts = shrunk.sample(params.space, np.random.default_rng(seed), probes)
    covered = int((lattice.locate(pts) >= 0).sum())
    return {"probes": probes, "covered": covered, "ok": covered == probes}


@dataclass(frozen=True)
class GeoGraph:
    """Symmetric proximity graph in CSR form (sorted neighbor lists)."""

    lattice: Lattice
    vertices: np.ndarray  # (N, n) representatives
    indptr: np.ndarray
    neighbors: np.ndarray
    radius: float

    @property
    def N(self) -> int:
        return len(self.vertices)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.N else 0

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    def neighbor_row(self, v: int) -> np.ndarray:
        return self.neighbors[self.indptr[v] : self.indptr[v + 1]]

    def degree_bound(self) -> float:
        """Closed-neighborhood cardinality bound from the cube argument."""
        params = self.lattice.params
        return (
            (2.0 * self.radius + params.margin)
            / (params.eps * params.space.r_unit)
        ) ** params.space.n


def build_graph(lattice: Lattice, radius: float | None = None) -> GeoGraph:
    """Join representatives closer than 2 * radius (strict).

    All representatives sit on one translated grid, so the candidate
    neighbors of any vertex are index translates by a fixed offset set;
    each candidate pair still gets an exact distance test. The edge
    list is capped at MAX_EDGES; denser graphs need a larger eps.
    """
    params = lattice.params
    space = params.space
    eps = params.eps
    if radius is None:
        radius = space.r_unit
    if not (radius > 0):
        raise InputError("radius must be positive")
    reps = lattice.representatives()
    N = lattice.N
    threshold = 2.0 * radius

    if N == 0:
        empty = np.zeros(1, dtype=np.int64)
        return GeoGraph(lattice, reps, empty, np.empty(0, dtype=np.int32), radius)

    # candidate index offsets: |delta_d| * eps <= |delta| * eps < 2r
    dmax = int(math.ceil(threshold / eps))
    axis = np.arange(-dmax, dmax + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * space.n), indexing="ij")
    deltas = np.stack([g.ravel() for g in grids], axis=1)
    # the rows come in lexicographic order, so those past the middle (zero)
    # row are the offsets whose first nonzero coordinate is positive
    deltas = deltas[len(deltas) // 2 + 1 :]
    deltas = deltas[norm_batch(deltas * eps, space) < threshold * (1.0 + 1e-12)]

    codes, rows, lo, dims = lattice.cube_codes()
    srcs = []
    dsts = []
    total = 0
    for delta in deltas:
        i, j = _lookup(lattice.indices + delta, codes, rows, lo, dims)
        keep = norm_batch(reps[i] - reps[j], space) < threshold
        i, j = i[keep], j[keep]
        total += len(i)
        if total > MAX_EDGES:
            raise ComputationError(
                f"edge count exceeded {MAX_EDGES}; increase eps to thin the lattice"
            )
        srcs.append(i)
        dsts.append(j)

    if srcs:
        i = np.concatenate(srcs)
        j = np.concatenate(dsts)
        adj = scipy.sparse.csr_matrix(
            (
                np.ones(2 * len(i), dtype=np.int8),
                (np.concatenate([i, j]), np.concatenate([j, i])),
            ),
            shape=(N, N),
        )
        adj.sort_indices()
        indptr = adj.indptr.astype(np.int64)
        neighbors = adj.indices.astype(np.int32)
    else:
        indptr = np.zeros(N + 1, dtype=np.int64)
        neighbors = np.empty(0, dtype=np.int32)

    graph = GeoGraph(lattice, reps, indptr, neighbors, float(radius))
    bound = graph.degree_bound()
    if graph.N and graph.max_degree + 1 > bound * (1.0 + 1e-9):
        raise ComputationError(
            f"closed neighborhood of size {graph.max_degree + 1} exceeded "
            f"its bound {bound}"
        )
    return graph


def local_sparsity_stats(
    graph: GeoGraph,
    chain: ConstantChain | None = None,
    max_flops: float = 5e9,
) -> dict:
    """Average degree inside each vertex's neighborhood, plus reference.

    Triangle counting goes through a sparse matrix square whose cost is
    roughly sum(deg^2); graphs past ``max_flops`` are refused rather
    than silently thrashing. The reference value D/K uses the degree
    bound for D and K = (1/10) (2/c_p)^n; it is an asymptotic guide
    only, reported but never asserted.
    """
    deg = graph.degrees.astype(np.float64)
    if float((deg**2).sum()) > max_flops:
        raise ComputationError(
            "neighborhood statistics would need too many operations; "
            "sample vertices instead or rebuild with larger eps"
        )
    N = graph.N
    report = {
        "vertices": N,
        "edges": graph.edge_count,
        "max_degree": graph.max_degree,
        "advisory": True,
    }
    if N == 0 or graph.edge_count == 0:
        report.update(max_avg_neighborhood_degree=0.0, mean_avg_neighborhood_degree=0.0)
    else:
        adj = scipy.sparse.csr_matrix(
            (
                np.ones(len(graph.neighbors), dtype=np.int64),
                graph.neighbors.astype(np.int64),
                graph.indptr,
            ),
            shape=(N, N),
        )
        # row sums of (A @ A) * A = twice the triangles through a vertex
        tri2 = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(deg > 0, tri2 / np.maximum(deg, 1), 0.0)
        report.update(
            max_avg_neighborhood_degree=float(avg.max()),
            mean_avg_neighborhood_degree=float(avg.mean()),
        )
    if chain is not None:
        n = graph.lattice.params.space.n
        K = 0.1 * (2.0 / chain.c_p) ** n
        report["reference_D_over_K"] = graph.degree_bound() / K
        report["reference_K"] = K
    return report


def greedy_independent_set(graph: GeoGraph, order_rule: str = "mindeg") -> np.ndarray:
    """Maximal independent set by one greedy sweep.

    ``mindeg`` sweeps vertices by ascending degree (ties by index),
    ``lex`` by index. The result is verified independent by direct
    adjacency inspection and carries the classical maximality guarantee
    of at least N/(max_degree + 1) vertices, asserted.
    """
    if order_rule == "mindeg":
        order = np.argsort(graph.degrees, kind="stable")
    elif order_rule == "lex":
        order = np.arange(graph.N)
    else:
        raise InputError(f"unknown order rule {order_rule!r}")

    blocked = np.zeros(graph.N, dtype=bool)
    chosen = []
    for v in order:
        if not blocked[v]:
            chosen.append(int(v))
            blocked[graph.neighbor_row(v)] = True
    chosen = np.array(sorted(chosen), dtype=np.int64)

    in_set = np.zeros(graph.N, dtype=bool)
    in_set[chosen] = True
    for v in chosen:
        if in_set[graph.neighbor_row(v)].any():
            raise ComputationError("greedy result is not independent")
    if graph.N and len(chosen) * (graph.max_degree + 1) < graph.N:
        raise ComputationError("greedy set fell below the maximality guarantee")
    return chosen


@dataclass(frozen=True)
class PackingCertificate:
    """Self-contained proof of a packing: geometry plus its centers."""

    space: SpaceParams
    R: float
    radius: float
    centers: np.ndarray
    min_pairwise_distance: float
    density: float

    @property
    def count(self) -> int:
        return len(self.centers)

    def to_json(self) -> dict:
        return {
            "p": self.space.p,
            "cuts": list(self.space.blocks.cuts),
            "radius": self.radius,
            "R": self.R,
            "centers": [[float(c) for c in row] for row in np.atleast_2d(self.centers)],
            "min_pairwise_distance": self.min_pairwise_distance,
            "density": self.density,
        }


def _density(count: int, R: float, space: SpaceParams) -> float:
    """Centers per unit volume of the ball of radius R."""
    return count / (R / space.r_unit) ** space.n


def emit_packing(graph: GeoGraph, independent_set: np.ndarray) -> PackingCertificate:
    """Certify the independent set as a packing of superballs.

    Nothing is trusted from the graph: the minimum pairwise distance is
    recomputed from the raw centers, and a violation is a construction
    bug surfaced as ComputationError.
    """
    independent_set = np.asarray(independent_set, dtype=np.int64)
    if len(independent_set) == 0:
        raise InputError("refusing to certify an empty packing")
    if len(np.unique(independent_set)) != len(independent_set):
        raise InputError("independent set contains duplicates")
    params = graph.lattice.params
    space = params.space
    centers = graph.vertices[independent_set]
    min_d = min_pairwise(centers, space)
    if not (min_d >= 2.0 * graph.radius):
        raise ComputationError(
            f"recomputed pairwise distance {min_d} is below the exclusion "
            f"{2 * graph.radius}; the graph construction is buggy"
        )
    if not (norm_batch(centers, space) <= params.R).all():
        raise ComputationError("a center escaped the enclosing ball")
    return PackingCertificate(
        space=space,
        R=params.R,
        radius=graph.radius,
        centers=centers,
        min_pairwise_distance=min_d,
        density=_density(len(centers), params.R, space),
    )


def _certificate_from_dict(data: dict) -> PackingCertificate:
    try:
        space = SpaceParams.create(float(data["p"]), BlockSpec(tuple(data["cuts"])).cuts)
        centers = np.asarray(data["centers"], dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != space.n:
            raise InputError(
                f"centers must be (count, {space.n}), got shape {centers.shape}"
            )
        return PackingCertificate(
            space=space,
            R=float(data["R"]),
            radius=float(data["radius"]),
            centers=centers,
            min_pairwise_distance=float(data["min_pairwise_distance"]),
            density=float(data["density"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate: {exc}") from exc


def load_certificate(path) -> PackingCertificate:
    try:
        data = json.loads(open(path).read())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("certificate must be a JSON object")
    return _certificate_from_dict(data)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, creating missing directories."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_certificate(cert: PackingCertificate, path, meta: dict | None = None) -> None:
    """Atomic write; optional _meta block is ignored by verification."""
    payload = cert.to_json()
    if meta:
        payload["_meta"] = meta
    write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def verify_packing(cert) -> tuple[bool, float]:
    """Re-derive validity from the centers alone.

    Accepts a PackingCertificate, a dict, or a path to a JSON file.
    Returns (valid, recomputed minimum pairwise distance); validity
    means every pairwise distance is at least 2 * radius, every center
    lies in the ball of radius R, and the claimed minimum distance and
    density agree with the recomputed ones to CLAIM_RTOL (relative:
    roundoff of an equivalent formula passes, a false claim does not).
    A radius or R that is not positive and finite, or a non-finite
    center, raises InputError.
    """
    if isinstance(cert, (str, os.PathLike)):
        cert = load_certificate(cert)
    elif isinstance(cert, dict):
        cert = _certificate_from_dict(cert)
    elif not isinstance(cert, PackingCertificate):
        raise InputError(f"cannot verify {type(cert).__name__}")
    centers = np.atleast_2d(cert.centers)
    if not (0 < cert.radius < math.inf and 0 < cert.R < math.inf and np.isfinite(centers).all()):
        raise InputError("certificate radius and R must be positive and finite, centers finite")
    min_d = min_pairwise(centers, cert.space)
    inside = bool((norm_batch(centers, cert.space) <= cert.R).all())
    density = _density(len(centers), cert.R, cert.space)
    claims = (math.isclose(cert.min_pairwise_distance, min_d, rel_tol=CLAIM_RTOL)
              and math.isclose(cert.density, density, rel_tol=CLAIM_RTOL))
    return (inside and claims and min_d >= 2.0 * cert.radius), min_d
