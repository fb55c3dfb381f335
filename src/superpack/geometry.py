"""Block mixed-norm geometry.

Vectors in R^n are split into contiguous coordinate blocks by a cut
sequence 0 = k_1 < k_2 < ... < k_{m+1} = n. The block norm takes the
Euclidean norm inside each block and combines the block norms through
an outer lp sum:

    |x| = (sum_j |x_(j)|_2^p)^(1/p)

For p = 2 this is the plain Euclidean norm regardless of the cuts; with
every block of size one it is the classical lp norm. The norm is
monotone in the absolute value of every coordinate, which several
routines here exploit (cube containment, cell pruning, torus images).

Volumes are Lebesgue. ``r_unit`` is the radius at which the norm ball
has volume exactly one; superballs of that radius are the packing
objects used elsewhere in the package.

Norms go through squared block sums without rescaling, so coordinates
should stay inside roughly [1e-150, 1e150]; packing geometry lives at
O(1) scales and the hot paths are not taxed for robustness nobody uses.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import InputError

__all__ = [
    "BlockSpec",
    "SpaceParams",
    "SuperballRegion",
    "TorusRegion",
    "unit_ball_volume",
    "log_unit_ball_volume",
    "r_unit",
    "norm",
    "norm_batch",
    "distance",
    "distance_batch",
    "min_pairwise",
    "contains",
]


@dataclass(frozen=True)
class BlockSpec:
    """Cut sequence defining the coordinate blocks.

    ``cuts`` must start at 0, end at the dimension n, and be strictly
    increasing. Block j covers coordinates cuts[j] .. cuts[j+1]-1.
    """

    cuts: tuple[int, ...]

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if len(cuts) < 2:
            raise InputError("cuts needs at least two entries, got %r" % (cuts,))
        if cuts[0] != 0:
            raise InputError("cuts must start at 0, got %r" % (cuts,))
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise InputError("cuts must be strictly increasing, got %r" % (cuts,))

    @property
    def n(self) -> int:
        return self.cuts[-1]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.cuts, self.cuts[1:]))

    @property
    def m(self) -> int:
        """Number of blocks."""
        return len(self.cuts) - 1

    @cached_property
    def starts(self) -> np.ndarray:
        # reduceat segment starts; cached because the norm hot path uses it
        return np.asarray(self.cuts[:-1], dtype=np.intp)

    def to_json(self) -> dict:
        return {"cuts": list(self.cuts)}

    @classmethod
    def from_json(cls, obj: dict) -> "BlockSpec":
        try:
            return cls(tuple(obj["cuts"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed BlockSpec encoding: {obj!r}") from exc


def log_unit_ball_volume(p: float, blocks: BlockSpec) -> float:
    """log of the Lebesgue volume of the unit ball of the block norm.

    Closed form via the Dirichlet integral: the volume factorizes over
    blocks as prod_j V_{d_j} Gamma(d_j/p + 1) / Gamma(n/p + 1) where
    V_d is the Euclidean unit-ball volume in dimension d.
    """
    p = float(p)
    if not (p >= 1.0) or not math.isfinite(p):
        raise InputError(f"p must be a finite real >= 1, got {p}")
    n = blocks.n
    lv = -gammaln(n / p + 1.0)
    for d in blocks.block_dims:
        lv += (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0 + 1.0)
        lv += gammaln(d / p + 1.0)
    return float(lv)


def unit_ball_volume(p: float, blocks: BlockSpec) -> float:
    return math.exp(log_unit_ball_volume(p, blocks))


def r_unit(p: float, blocks: BlockSpec) -> float:
    """Radius of the unit-volume ball: vol(B(r_unit)) = 1."""
    return math.exp(-log_unit_ball_volume(p, blocks) / blocks.n)


@dataclass(frozen=True)
class SpaceParams:
    """Resolved norm parameters: exponent, blocks, conjugate, unit radius.

    Build through :meth:`create`. ``p`` may be any real >= 1 for norm
    and volume work; the convexity-constant machinery elsewhere is
    restricted to 1 < p <= 2 and p > 2 sets ``p_above_two`` plus a
    warning at construction.
    """

    p: float
    q: float
    blocks: BlockSpec
    r_unit: float
    p_above_two: bool = False

    @classmethod
    def create(cls, p: float, cuts) -> "SpaceParams":
        p = float(p)
        if not math.isfinite(p) or p < 1.0:
            raise InputError(f"p must be a finite real >= 1, got {p}")
        blocks = cuts if isinstance(cuts, BlockSpec) else BlockSpec(tuple(cuts))
        above = p > 2.0
        if above:
            warnings.warn(
                f"p={p} is outside (1, 2]; norms and volumes are fine but the "
                "convexity constant chain is unavailable",
                stacklevel=2,
            )
        q = p / (p - 1.0) if p > 1.0 else math.inf
        return cls(p=p, q=q, blocks=blocks, r_unit=r_unit(p, blocks), p_above_two=above)

    def __post_init__(self):
        # conjugate exponent identity and the unit-volume identity are
        # cheap to re-check and catch hand-built instances
        if abs(1.0 / self.p + (0.0 if math.isinf(self.q) else 1.0 / self.q) - 1.0) > 1e-12:
            raise InputError(f"q={self.q} is not conjugate to p={self.p}")
        vol = unit_ball_volume(self.p, self.blocks)
        if abs(vol * self.r_unit**self.n - 1.0) > 1e-9:
            raise InputError("r_unit does not normalize the unit ball volume")

    @property
    def n(self) -> int:
        return self.blocks.n

    def to_json(self) -> dict:
        return {"p": self.p, "cuts": list(self.blocks.cuts)}

    @classmethod
    def from_json(cls, obj: dict) -> "SpaceParams":
        try:
            return cls.create(obj["p"], tuple(obj["cuts"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed SpaceParams encoding: {obj!r}") from exc


def norm_batch(X, space: SpaceParams) -> np.ndarray:
    """Block norm along the last axis of ``X``.

    Accepts any array shape (..., n) and returns shape (...,).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != space.n:
        raise InputError(f"vector length {X.shape[-1]} does not match n={space.n}")
    if space.p == 2.0:
        return np.sqrt(np.einsum("...i,...i->...", X, X))
    sq = X * X
    if space.blocks.m == 1:
        block = np.sqrt(sq.sum(axis=-1))
        return block
    bs = np.add.reduceat(sq, space.blocks.starts, axis=-1)
    bn = np.sqrt(bs)
    if space.p == 1.0:
        return bn.sum(axis=-1)
    return np.power(np.power(bn, space.p).sum(axis=-1), 1.0 / space.p)


def norm(x, space: SpaceParams) -> float:
    return float(norm_batch(np.asarray(x, dtype=np.float64), space))


def _min_image(diff: np.ndarray, side: float) -> np.ndarray:
    # wraps each coordinate difference into (-L/2, L/2]; the block norm is
    # coordinatewise monotone so per-coordinate wrapping minimizes it
    return diff - side * np.rint(diff / side)


def distance_batch(X, y, space: SpaceParams, region=None) -> np.ndarray:
    """Distances from each row of ``X`` to the single point ``y``.

    ``y`` may also hold one point per row of ``X``, giving row-wise pair
    distances. On a torus region, the minimum-image convention applies.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = X - y
    if isinstance(region, TorusRegion):
        diff = _min_image(diff, region.side)
    return norm_batch(diff, space)


# relative margin between the cell side and the distances the grid must
# catch; it covers rounding in the cell coordinates (about ncell ulps)
_GRID_SLACK = 1e-9


class _CellGrid:
    """Uniform grid of cubic cells with side h >= ``side``.

    The grid spans the torus, the ball's bounding cube, or the cube of
    side ``span`` at the corner ``lo`` (per axis) when ``box`` = (lo,
    span) is given. A pair within h of each other on every axis sits in
    the same or an adjacent cell per axis (cyclically on a torus). Since
    |u_i - v_i| <= |u - v| for the block norm, that covers every pair at
    distance up to h. With fewer than 3 cells per axis every cell is
    adjacent to every other and the grid is unusable.
    """

    def __init__(self, space, region, side, box=None):
        self.torus = isinstance(region, TorusRegion)
        if box is None:
            box = (0.0, region.side) if self.torus else (-region.radius, 2.0 * region.radius)
        self.lo, span = box
        self.ncell = max(1, int(span / (side * (1.0 + _GRID_SLACK))))
        self.h = span / self.ncell
        self.n = space.n
        self.weights = self.ncell ** np.arange(space.n, dtype=np.int64)

    @cached_property
    def offsets(self):
        # 3^n rows: built on first use only, after pays() or the chain's
        # region rule has bounded n
        return np.array(list(itertools.product((-1, 0, 1), repeat=self.n)), dtype=np.int64)

    @property
    def usable(self) -> bool:
        return self.ncell >= 3

    def pays(self, t: int) -> bool:
        """Whether ``min_pairwise`` should enumerate pairs of t centres.

        The enumeration's fixed cost equals all pairs against 30-130
        centres (n <= 4, 64 query rows, measured), and each query row
        looks up 3^n cells, so t must reach both 64 and 3^n.
        """
        return self.usable and t >= max(64, 3**self.n)

    def coords(self, X):
        c = ((X - self.lo) / self.h).astype(np.int64)
        np.minimum(c, self.ncell - 1, out=c)
        return np.maximum(c, 0, out=c)

    def pairs(self, A, B, space, region, keys_per_chunk=2**15):
        """Candidate pairs (i, j, |A[i] - B[j]|) from the 3^n neighbour cells.

        The centres B are sorted by cell id once; rows of A look up their
        neighbour cells with searchsorted, keys_per_chunk // 3^n rows at a
        time, and each chunk's pairs are yielded. Cell ids may wrap in
        int64 on huge grids; a collision only adds candidates.
        """
        ids = self.coords(B) @ self.weights
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        rows = max(1, keys_per_chunk // len(self.offsets))
        for start in range(0, len(A), rows):
            near = self.coords(A[start : start + rows])[:, None, :] + self.offsets
            if self.torus:
                near %= self.ncell
            keys = near @ self.weights
            first = np.searchsorted(ids, keys, "left").ravel()
            counts = np.searchsorted(ids, keys, "right").ravel() - first
            if not self.torus:  # neighbours off the grid hold nothing
                counts[((near < 0) | (near >= self.ncell)).any(axis=-1).ravel()] = 0
            ends = np.cumsum(counts)
            j = order[np.arange(ends[-1]) + np.repeat(first - (ends - counts), counts)]
            i = start + np.repeat(np.arange(len(near)), counts.reshape(len(near), -1).sum(axis=1))
            yield i, j, distance_batch(A[i], B[j], space, region)


def min_pairwise(centers, space: SpaceParams, region=None) -> float:
    """Minimum distance over all pairs of rows of ``centers`` (inf below two).

    Exact, bit for bit. Candidate pairs come from a cell grid over the
    torus, or the centres' bounding cube, with cell side h starting at
    the typical spacing (volume / t)^(1/n). Every pair within h is a
    candidate, so the candidate minimum is exact once it is at most h;
    otherwise h doubles while the grid is usable and pays, and past that
    rows go 512 at a time against all rows. On a torus region, the
    minimum-image convention applies.
    """
    centers = np.asarray(centers, dtype=np.float64)
    t = len(centers)
    if t < 2:
        return math.inf
    if isinstance(region, TorusRegion):
        box = (0.0, region.side)
    else:  # a cube, so an axis of zero span (centres on a plane) needs no care
        lo = centers.min(axis=0)
        box = (lo, float((centers.max(axis=0) - lo).max()))
    side = box[1] / t ** (1.0 / space.n)
    while 0.0 < side < math.inf:  # also false for non-finite centres
        grid = _CellGrid(space, region, side, box)
        if not grid.pays(t):
            break
        best = math.inf
        for i, j, d in grid.pairs(centers, centers, space, region):
            best = min(best, float(d[i < j].min(initial=math.inf)))
        if best <= grid.h * (1.0 - _GRID_SLACK):
            return best
        side = 2.0 * grid.h
    best = math.inf
    for start in range(0, t, 512):
        block = centers[start : start + 512]
        d = distance_batch(block[:, None, :], centers[None, :, :], space, region)
        d[np.arange(len(block)), np.arange(start, start + len(block))] = math.inf  # self distances
        best = min(best, float(d.min()))
    return best


def distance(x, y, space: SpaceParams, region=None) -> float:
    return float(distance_batch(np.asarray(x, dtype=np.float64), y, space, region))


def contains(center, r: float, y, space: SpaceParams, region=None) -> bool:
    """Whether ``y`` lies in the closed ball of radius r about center."""
    if r < 0:
        raise InputError(f"radius must be nonnegative, got {r}")
    return distance(center, y, space, region) <= r


@dataclass(frozen=True)
class SuperballRegion:
    """Closed ball of the block norm centered at the origin, radius R."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 0) or not math.isfinite(self.radius):
            raise InputError(f"region radius must be positive, got {self.radius}")

    def volume(self, space: SpaceParams) -> float:
        return (self.radius / space.r_unit) ** space.n

    def contains_points(self, pts, space: SpaceParams) -> np.ndarray:
        return norm_batch(pts, space) <= self.radius

    def sample(self, space: SpaceParams, rng: np.random.Generator, size: int) -> np.ndarray:
        """Exact uniform points in the ball, O(n) per point, no rejection.

        Barthe, Guedon, Mendelson and Naor (Ann. Probab. 33 (2005)
        480-513): if X has density proportional to exp(-|X|^p) and
        W ~ Exp(1) is independent, X / (|X|^p + W)^(1/p) is uniform on
        the unit ball. For the block norm that density factorises over
        the blocks: block j of X is a uniform direction g_j/|g_j|_2 with
        g standard normal, times a radius G_j^(1/p) with
        G_j ~ Gamma(d_j/p), so |X|^p = sum_j G_j.

        One batch per call, drawn in this order: a (size, n) standard
        normal array, a (size, m) Gamma array with shapes d_j/p, then
        size Exp(1) values. The draw sequence is therefore a fixed
        function of the generator state and ``size``.
        """
        blocks, p = space.blocks, space.p
        dims = np.asarray(blocks.block_dims)
        g = rng.standard_normal((size, space.n))
        G = rng.standard_gamma(dims / p, size=(size, blocks.m))
        W = rng.standard_exponential(size)
        g_norm = np.sqrt(np.add.reduceat(g * g, blocks.starts, axis=-1))
        radial = np.power(G, 1.0 / p) / g_norm
        shrink = self.radius / np.power(G.sum(axis=-1) + W, 1.0 / p)
        return g * np.repeat(radial * shrink[:, None], dims, axis=-1)

    def to_json(self) -> dict:
        return {"kind": "ball", "size": self.radius}


@dataclass(frozen=True)
class TorusRegion:
    """Flat torus [0, L)^n with minimum-image metric."""

    side: float

    def __post_init__(self):
        if not (self.side > 0) or not math.isfinite(self.side):
            raise InputError(f"torus side must be positive, got {self.side}")

    def volume(self, space: SpaceParams) -> float:
        return self.side**space.n

    def contains_points(self, pts, space: SpaceParams) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return ((pts >= 0.0) & (pts < self.side)).all(axis=-1)

    def sample(self, space: SpaceParams, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random((size, space.n)) * self.side

    def to_json(self) -> dict:
        return {"kind": "torus", "size": self.side}


def region_from_json(obj: dict):
    try:
        kind = obj["kind"]
        size = float(obj["size"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed region encoding: {obj!r}") from exc
    if kind == "ball":
        return SuperballRegion(size)
    if kind == "torus":
        return TorusRegion(size)
    raise InputError(f"unknown region kind {kind!r}")
