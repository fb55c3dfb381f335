"""Cube lattice inside a superball, proximity graph, greedy packing.

The constructive pipeline tiles B(0, R) with axis cubes of side eps
drawn from the grid eps * Z^n, keeps the cubes that fit entirely inside
the ball, picks one representative per cube, joins representatives at
distance < 2r, and extracts a maximal independent set. Independent
representatives are centers of nonoverlapping superballs of radius r,
so the output is a packing, certified by recomputing every pairwise
distance from scratch.

The graph is never materialised: representatives sit on the grid
(idx + 0.5) eps, so a vertex's neighbours are its translates by one
offset stencil, looked up in a dense cube table. Offsets clearly shorter
than 2r join every translate; for those within a rounding band of 2r the
graph build tests each pair once and keeps the outcome in a table. A
vertex's degree over a run of consecutive table shifts is a difference of
two prefix sums of the table's occupancy, and so are the common neighbours
that count its triangles.

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

import itertools
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .constants import ConstantChain
from .errors import ComputationError, InputError
from .geometry import BlockSpec, SpaceParams, SuperballRegion, min_pairwise, norm_batch

__all__ = [
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
    "json_text",
    "write_text",
    "load_certificate",
]

CLAIM_RTOL = 1e-12  # claimed vs recomputed density and minimum distance in verify_packing
MAX_FLOPS = 5e9  # sum(deg^2) above which local_sparsity_stats refuses a graph
SWEEP_CHUNK = 4096  # vertices per list the greedy sweep walks, to bound its Python ints


@dataclass(frozen=True)
class LatticeParams:
    space: SpaceParams
    R: float
    eps: float

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) for v in (self.R, self.eps)):
            raise InputError(f"R and eps must be positive and finite, got {self.R}, {self.eps}")
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

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis (lowest, highest) index, one column at a time."""
        return (np.array([c.min() for c in self.indices.T]), np.array([c.max() for c in self.indices.T]))

    def representatives(self) -> np.ndarray:
        return (self.indices + 0.5) * self.params.eps

    def table(self, pad=0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense cube table over the index box widened by ``pad`` per side:
        (rows, lo, dims, strides, codes), where rows[(idx - lo) @ strides] is the
        lattice row of the cube with index idx, or -1, for idx in lo + [0, dims),
        and codes[i] is that code for cube i. The index box lies in the
        (2 ceil(R/eps) + 2)^n candidate box and ``build_graph`` pads by at most
        its extent, so rows has at most 3^n times that many int64 entries."""
        lo = self.box[0] - pad
        dims = self.box[1] + pad + 1 - lo
        strides = np.cumprod(np.append(1, dims[:0:-1]))[::-1]
        codes = sum((column - a) * s for column, a, s in zip(self.indices.T, lo, strides))
        rows = np.full(int(np.prod(dims)), -1, dtype=np.int64)
        rows[codes] = np.arange(self.N)
        return rows, lo, dims, strides, codes

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Row index of the cube holding each point, -1 when none does."""
        idx = np.floor(np.atleast_2d(points) / self.params.eps).astype(np.int64)
        rows, lo, dims, strides, _ = self.table()
        inside = ((idx >= lo) & (idx < lo + dims)).all(axis=1)
        out = np.full(len(idx), -1, dtype=np.int64)
        out[inside] = rows[(idx[inside] - lo) @ strides]
        return out


def build_lattice(R: float, eps: float, space: SpaceParams) -> Lattice:
    """Enumerate the grid cubes lying entirely inside B(0, R), by columns.

    Containment is exact: by coordinatewise monotonicity the norm over
    a cube is maximized at its farthest-from-zero corner, so one norm
    evaluation per cube decides it. On the last axis that corner,
    max(|k eps|, |(k + 1) eps|), is symmetric about k = -1/2 and grows with
    |k + 1/2|, so over each prefix of the other n - 1 indices the inside
    cubes are k in [-K - 1, K]. One bisection over all (2 ceil(R/eps) + 2)^(n-1)
    prefixes finds every K in about log2(R/eps) norm batches; the rows are
    written in lexicographic order, last axis fastest, in O(N) memory.
    """
    params = LatticeParams(space, float(R), float(eps))
    n = space.n
    kmax = int(math.ceil(R / eps)) + 1  # candidate indices are -kmax .. kmax - 1 on every axis
    prefix = np.indices((2 * kmax,) * (n - 1)).reshape(n - 1, (2 * kmax) ** (n - 1)).T - kmax
    corner = np.empty((len(prefix), n))
    corner[:, :-1] = np.maximum(np.abs(prefix * eps), np.abs((prefix + 1) * eps))

    # per prefix K lies in [lo, hi): lo is inside (or -1, no cube), hi is not
    lo, hi = np.full(len(prefix), -1), np.full(len(prefix), kmax)
    active = np.arange(len(prefix))
    while len(active):
        mid = (lo[active] + hi[active]) // 2
        corner[active, -1] = (mid + 1) * eps  # the far corner of a cube with k >= 0
        inside = norm_batch(corner[active], space) <= R
        lo[active[inside]], hi[active[~inside]] = mid[inside], mid[~inside]
        active = active[hi[active] - lo[active] > 1]

    length = 2 * (lo + 1)
    N = int(length.sum())
    indices = np.empty((N, n), dtype=np.int64)
    for d in range(n - 1):
        indices[:, d] = np.repeat(prefix[:, d], length)
    indices[:, -1] = np.arange(N) - np.repeat(np.cumsum(length) - lo - 1, length)

    upper = (R / (eps * space.r_unit)) ** n
    lower = ((R - params.margin) / (eps * space.r_unit)) ** n
    slack = 1e-9 * upper + 1.0
    if not (lower - slack <= N <= upper + slack):
        raise ComputationError(f"cube count {N} escaped its sandwich [{lower}, {upper}]")
    return Lattice(params, indices)


def cover_check(lattice: Lattice, probes: int = 100_000, seed: int = 0) -> dict:
    """Every point of B(0, R - margin) should lie in some listed cube."""
    params = lattice.params
    shrunk = SuperballRegion(params.R - params.margin)
    pts = shrunk.sample(params.space, np.random.default_rng(seed), probes)
    covered = int((lattice.locate(pts) >= 0).sum())
    return {"probes": probes, "covered": covered, "ok": covered == probes}


def _run_sums(codes: np.ndarray, shifts: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Listed cubes at codes + shifts, per code, with cum[c] the listed codes
    below c: a maximal run [a, b] of shifts adds cum[codes + b + 1] - cum[codes + a]."""
    shifts = np.sort(shifts)
    total = np.zeros(len(codes), dtype=np.int64)
    for run in np.split(shifts, np.flatnonzero(np.diff(shifts) != 1) + 1):
        if len(run):
            total += cum[codes + (run[-1] + 1)] - cum[codes + run[0]]
    return total


@dataclass(frozen=True)
class GeoGraph:
    """Symmetric proximity graph held as a translate stencil.

    Vertex v's neighbours are the listed cubes at table code codes[v] + s
    for s in ``sure`` (each one an edge) and for s = band[x] where
    links[x, v] holds. Both stencils list the shifts of the offsets with
    first nonzero coordinate positive, then their negatives.
    """

    lattice: Lattice
    vertices: np.ndarray  # (N, n) representatives
    radius: float
    table: np.ndarray  # rows of Lattice.table, padded by the stencil reach
    codes: np.ndarray  # table code of every vertex
    sure: np.ndarray  # table shifts
    band: np.ndarray
    links: np.ndarray  # (len(band), N) bool: v + band[x] is listed and closer than 2r to v

    @property
    def N(self) -> int:
        return len(self.vertices)

    @cached_property
    def _cum(self) -> np.ndarray:
        """Listed codes below each code, the prefix sums ``_run_sums`` reads."""
        return np.concatenate(([0], np.cumsum(self.table >= 0)))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Sure offsets by ``_run_sums``, band offsets from ``links``."""
        return _run_sums(self.codes, self.sure, self._cum) + self.links.sum(axis=0)

    def triangles(self) -> np.ndarray:
        """Twice the triangles through each vertex: every edge (v, v + d), d in a
        half stencil, adds its ends' common neighbours v + e to both ends. With
        d, e and e - d sure they are the listed cubes at v + (sure cap (sure + d)),
        by run sums; band edges are read from ``links``. Listed cubes differ by at
        most hi - lo per axis and a shift by at most the reach, below the padded
        width together, so codes decide e - d exactly."""
        full, m = np.concatenate([self.sure, self.band]), len(self.sure)
        span = int(np.abs(full).max(initial=0))
        at = np.full(4 * span + 1, -2)  # of shift x at x + 2 span: -1 sure, its band index, or -2 none
        at[self.sure + 2 * span], at[self.band + 2 * span] = -1, np.arange(len(self.band))
        tri2 = np.zeros(self.N, dtype=np.int64)
        for x in [*range(m // 2), *range(m, m + len(self.band) // 2)]:  # d = full[x], a band shift when x >= m
            j = self.table[self.codes + full[x]]
            i = np.flatnonzero(j >= 0 if x < m else self.links[x - m])
            j, c = j[i], self.codes[i]
            k = at[full - full[x] + 2 * span]  # e - d for every e
            runs = (k[:m] == -1) & (x < m)  # d, e and e - d all sure
            common = _run_sums(c, self.sure[runs], self._cum)
            k[:m][runs] = -2
            for y in np.flatnonzero(k > -2):
                ok = self.links[y - m, i] if y >= m else self.table[c + full[y]] >= 0
                if k[y] >= 0:
                    ok &= self.links[k[y], j]
                common += ok
            tri2[i] += common
            tri2[j] += common
        return tri2

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.N else 0

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def independent(self, vertices) -> bool:
        """True when no two of ``vertices`` are adjacent: an adjacent pair has
        a member whose partner lies along a half stencil offset, so the half
        stencils are gathered in chunks; band partners count where ``links`` holds."""
        vertices = np.asarray(vertices, dtype=np.int64)
        mine = np.zeros(len(self.table), dtype=bool)
        mine[self.codes[vertices]] = True
        h = len(self.band) // 2
        sure, band = self.sure[: len(self.sure) // 2], self.band[:h]
        step = max(1, 2**18 // max(1, len(sure) + h))
        for a in range(0, len(vertices), step):
            v = vertices[a : a + step]
            c = self.codes[v][:, None]
            if mine[c + sure].any():
                return False
            if (mine[c + band] & self.links[:h, v].T).any():
                return False
        return True

    def neighbor_row(self, v: int) -> np.ndarray:
        """Sorted neighbours of v, gathered from the full stencil."""
        row = self.table[self.codes[v] + np.concatenate([self.sure, self.band[self.links[:, v]]])]
        return np.sort(row[row >= 0])

    def degree_bound(self) -> float:
        """Closed-neighborhood cardinality bound from the cube argument."""
        params = self.lattice.params
        return ((2.0 * self.radius + params.margin) / (params.eps * params.space.r_unit)) ** params.space.n


def build_graph(lattice: Lattice, radius: float | None = None) -> GeoGraph:
    """Join representatives closer than 2 * radius (strict), as a stencil.

    Candidate offsets delta satisfy |delta_d| eps <= |delta eps| < 2r; one
    longer than the index box on some axis has no translate, so the stencil
    is clipped to the box and the table padded by the same reach, keeping
    every code + shift inside it. An offset shorter than 2r by more than the
    rounding band is "sure" (every translate is an edge), one within the band
    is tested once per pair as an all-pairs check would, into ``links``; the
    rest have no edge. Degrees are computed here and checked against the bound."""
    params = lattice.params
    space = params.space
    eps = params.eps
    radius = space.superball_radius(radius)
    reps = lattice.representatives()
    threshold = 2.0 * radius

    lo, hi = lattice.box
    reach = np.minimum(int(math.ceil(threshold / eps)), hi - lo)
    grids = np.meshgrid(*[np.arange(-a, a + 1) for a in reach], indexing="ij")
    deltas = np.stack([g.ravel() for g in grids], axis=1)
    # the rows come in lexicographic order, so those past the middle (zero)
    # row are the offsets whose first nonzero coordinate is positive
    deltas = deltas[len(deltas) // 2 + 1 :]
    length = norm_batch(deltas * eps, space)

    # Rounding band. With u = 2^-53 and s = max |reps| (at the box ends): each rep coordinate
    # is (idx + 0.5) * eps rounded once (idx + 0.5 is exact), so off by at
    # most u s, and the subtraction adds u |delta_d eps|. The block norm is
    # at most the l1 norm, so a pair difference lies within
    # n u (2 s + |delta eps|) of delta eps in the norm, and fl(delta eps)
    # within n u |delta eps|. norm_batch has relative error below (n + 6) u
    # (squares, the block and outer sums, sqrt, and two powers within one ulp
    # each; the outer 1/p power undoes the inner one's p-fold error growth).
    # Near the threshold T the per-pair value and the stencil length thus
    # differ by less than 2 (n + 6) u T + 2 n u (s + T) < 4 (n + 6) u (s + T);
    # the band is twice that.
    band = 4 * (space.n + 6) * np.finfo(np.float64).eps * (np.abs((np.append(lo, hi) + 0.5) * eps).max() + threshold)
    rows, _, _, strides, codes = lattice.table(reach)
    sure = deltas[length < threshold - band] @ strides
    near = deltas[(length >= threshold - band) & (length < threshold + band)] @ strides
    # each pair along a half band shift is tested once and marked at both ends;
    # a - b is exactly -(b - a), so the reverse test would give the same answer
    links = np.zeros((2 * len(near), lattice.N), dtype=bool)
    for x, s in enumerate(near):
        j = rows[codes + s]
        i = np.flatnonzero(j >= 0)
        i = i[norm_batch(reps[i] - reps[j[i]], space) < threshold]
        links[x, i] = links[x + len(near), j[i]] = True
    graph = GeoGraph(lattice, reps, float(radius), rows, codes,
                     np.concatenate([sure, -sure]), np.concatenate([near, -near]), links)
    bound = graph.degree_bound()
    if graph.N and graph.max_degree + 1 > bound * (1.0 + 1e-9):
        raise ComputationError(f"closed neighborhood of size {graph.max_degree + 1} exceeded its bound {bound}")
    return graph


def local_sparsity_stats(graph: GeoGraph, chain: ConstantChain | None = None) -> dict:
    """Average degree inside each vertex's neighborhood, plus reference.

    Sum(deg^2) is the guard's proxy for the cost of ``GeoGraph.triangles``;
    graphs past ``MAX_FLOPS`` on it are refused first. The reference D/K
    takes D from the degree bound and K = (1/10) (2/c_p)^n; an asymptotic
    guide, reported but never asserted.
    """
    deg = graph.degrees.astype(np.float64)
    if float((deg**2).sum()) > MAX_FLOPS:
        raise ComputationError(
            "neighborhood statistics would need too many operations; "
            "sample vertices instead or rebuild with larger eps"
        )
    avg = graph.triangles() / np.maximum(deg, 1)  # a vertex of degree 0 is in no triangle
    report = {
        "vertices": graph.N,
        "edges": graph.edge_count,
        "max_degree": graph.max_degree,
        "advisory": True,
        "max_avg_neighborhood_degree": float(avg.max()),
        "mean_avg_neighborhood_degree": float(avg.mean()),
    }
    if chain is not None:
        n = graph.lattice.params.space.n
        K = 0.1 * (2.0 / chain.c_p) ** n
        report["reference_D_over_K"] = graph.degree_bound() / K
        report["reference_K"] = K
    return report


def greedy_independent_set(graph: GeoGraph, order_rule: str = "mindeg") -> np.ndarray:
    """Maximal independent set by one greedy sweep.

    ``mindeg`` sweeps vertices by ascending degree (ties by index),
    ``lex`` by index. The result is rechecked by ``GeoGraph.independent``
    and carries the classical maximality guarantee of at least
    N/(max_degree + 1) vertices, asserted.
    """
    if order_rule == "mindeg":
        order = np.argsort(graph.degrees, kind="stable")
    elif order_rule == "lex":
        order = np.arange(graph.N)
    else:
        raise InputError(f"unknown order rule {order_rule!r}")

    # blocked flags by table code, read as a bytearray and scattered through
    # a numpy view of it: a chosen vertex marks its sure translates without
    # filtering empty cells, and its band partners where ``links`` holds
    blocked = bytearray(len(graph.table))
    flags = np.frombuffer(blocked, dtype=np.uint8)
    chosen = []
    order_codes = graph.codes[order]
    for a in range(0, graph.N, SWEEP_CHUNK):
        for c in order_codes[a : a + SWEEP_CHUNK].tolist():
            if not blocked[c]:
                chosen.append(c)
                flags[c + graph.sure] = 1
                if len(graph.band):
                    flags[c + graph.band[graph.links[:, graph.table[c]]]] = 1
    chosen = np.sort(graph.table[np.array(chosen, dtype=np.int64)])
    if not graph.independent(chosen):
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
            "centers": np.atleast_2d(np.asarray(self.centers, dtype=np.float64)).tolist(),
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
    ordered = np.sort(independent_set)
    if (ordered[1:] == ordered[:-1]).any():
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
    return PackingCertificate(space, params.R, graph.radius, centers, min_d,
                              _density(len(centers), params.R, space))


def _certificate_from_dict(data: dict) -> PackingCertificate:
    try:
        space = SpaceParams.create(float(data["p"]), BlockSpec(tuple(data["cuts"])).cuts)
        centers = np.asarray(data["centers"], dtype=np.float64)
        min_d = data["min_pairwise_distance"]
        if centers.ndim != 2 or centers.shape[1] != space.n:
            raise InputError(
                f"centers must be (count, {space.n}), got shape {centers.shape}"
            )
        # json_text writes a single center's infinite minimum distance as null
        min_d = math.inf if min_d is None and len(centers) < 2 else float(min_d)
        return PackingCertificate(space, float(data["R"]), float(data["radius"]), centers, min_d,
                                  float(data["density"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate: {exc}") from exc


def load_certificate(path) -> PackingCertificate:
    try:
        with open(path) as fh:
            data = json.loads(fh.read())
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


def _encode(obj, indent: str) -> str:
    """``obj`` as json.dumps(indent=1, sort_keys=True) writes it at ``indent``."""
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    inner = indent + " "
    if isinstance(obj, (list, tuple)):
        # a row of floats, or rows of floats of one width (the bulk of a
        # certificate): one format of all the reprs
        item, flat = "%s", obj
        if obj and set(map(type, obj)) <= {list, tuple} and len(obj[0]) and len(set(map(len, obj))) == 1:
            item = "[\n" + inner + " " + (",\n " + inner).join(["%s"] * len(obj[0])) + "\n" + inner + "]"
            flat = itertools.chain.from_iterable(obj)
        try:
            text = ("[\n" + inner + (",\n" + inner).join([item] * len(obj)) + "\n" + indent + "]") % tuple(
                map(float.__repr__, flat)
            )
            if obj and "n" not in text:  # finite reprs have no "n"; inf and nan do
                return text
        except TypeError:  # an item that is not a float
            pass
        items = [_encode(v, inner) for v in obj]
        brackets = "[]"
    elif isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        brackets = "{}"
    else:
        return json.dumps(obj)  # str, int, bool or None; anything else raises TypeError
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def json_text(payload: dict) -> str:
    """Indented, key-sorted RFC 8259 JSON; non-finite floats become null.

    The bytes are those of ``json.dumps(payload, indent=1, sort_keys=True)``
    with every non-finite float replaced by None first, written without the
    pure-Python encoder that ``json.dumps`` falls back to when indenting.
    """
    return _encode(payload, "") + "\n"


def save_certificate(cert: PackingCertificate, path, meta: dict | None = None) -> None:
    """Atomic write; optional _meta block is ignored by verification."""
    payload = cert.to_json()
    if meta:
        payload["_meta"] = meta
    write_text(path, json_text(payload))


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
