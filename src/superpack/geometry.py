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

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


# cephes ``lgam`` (behind SciPy's gammaln): Stirling correction A,
# rational function B/C on [2, 3), log(sqrt(2 pi))
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178


def _polevl(coefs, x: float, acc: float = 0.0) -> float:
    # Horner's rule; acc = 1.0 prepends cephes p1evl's implicit leading 1
    for c in coefs:
        acc = acc * x + c
    return acc


def _lgamma(x: float) -> float:
    """log Gamma(x) for x >= 1, operation for operation as cephes ``lgam``,
    so bit-identical to SciPy's gammaln without importing SciPy."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(_LGAM_B, x) / _polevl(_LGAM_C, x, 1.0)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(_LGAM_A, p) / x


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
    lv = -_lgamma(n / p + 1.0)
    for d in blocks.block_dims:
        lv += (d / 2.0) * math.log(math.pi) - _lgamma(d / 2.0 + 1.0)
        lv += _lgamma(d / p + 1.0)
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
    restricted to 1 < p <= 2, and p > 2 warns at construction.
    """

    p: float
    q: float
    blocks: BlockSpec
    r_unit: float

    @classmethod
    def create(cls, p: float, cuts) -> "SpaceParams":
        p = float(p)
        if not math.isfinite(p) or p < 1.0:
            raise InputError(f"p must be a finite real >= 1, got {p}")
        blocks = cuts if isinstance(cuts, BlockSpec) else BlockSpec(tuple(cuts))
        if p > 2.0:
            warnings.warn(
                f"p={p} is outside (1, 2]; norms and volumes are fine but the "
                "convexity constant chain is unavailable",
                stacklevel=2,
            )
        q = p / (p - 1.0) if p > 1.0 else math.inf
        return cls(p=p, q=q, blocks=blocks, r_unit=r_unit(p, blocks))

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

    def superball_radius(self, radius: float | None) -> float:
        """``radius``, or ``r_unit`` for None; refused unless positive and finite."""
        radius = self.r_unit if radius is None else radius
        if not 0 < radius < math.inf:
            raise InputError(f"radius must be positive and finite, got {radius}")
        return radius

    def to_json(self) -> dict:
        return {"p": self.p, "cuts": list(self.blocks.cuts)}

    @classmethod
    def from_json(cls, obj: dict) -> "SpaceParams":
        try:
            return cls.create(obj["p"], tuple(obj["cuts"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed SpaceParams encoding: {obj!r}") from exc


def _rowsum(A: np.ndarray) -> np.ndarray:
    """``A.sum(axis=-1)`` bit for bit: below 8 terms numpy adds them in index order to +0.0."""
    if not 0 < A.shape[-1] < 8 or A.size < 64 * A.shape[-1]:  # pairwise sums, or under 64 rows
        return A.sum(axis=-1)
    return sum((A[..., c] for c in range(1, A.shape[-1])), A[..., 0] + 0.0)


def _block_norms(X: np.ndarray, space: SpaceParams) -> np.ndarray:
    """Euclidean norm of each block of ``X``'s last axis; lp blocks skip the sqrt(fl(x*x)) = |x| round trip."""
    return np.abs(X) if space.blocks.m == space.n else np.sqrt(np.add.reduceat(X * X, space.blocks.starts, axis=-1))


def norm_batch(X, space: SpaceParams) -> np.ndarray:
    """Block norm along the last axis of ``X``.

    Accepts any array shape (..., n) and returns shape (...,).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != space.n:
        raise InputError(f"vector length {X.shape[-1]} does not match n={space.n}")
    if space.p == 2.0:
        return np.sqrt(np.einsum("...i,...i->...", X, X))
    if space.blocks.m == 1:
        return np.sqrt(_rowsum(X * X))
    bn = _block_norms(X, space)
    if space.p == 1.0:
        return _rowsum(bn)
    return np.power(_rowsum(np.power(bn, space.p)), 1.0 / space.p)


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


# relative margin between the cell side and the distances the table must
# catch; it covers rounding in the cell coordinates (about ncell ulps)
_GRID_SLACK = 1e-9
# candidate slots gathered per row chunk of min_pairwise
_GATHER = 2**16


class _CellTable:
    """Dense table of cubic cells of side h >= ``side``, filed with centres.

    The cells tile the torus, the ball's bounding cube, or the cube of
    side ``span`` at the corner ``lo`` (per axis) when ``box`` = (lo,
    span) is given. Points within h of each other on every axis sit in
    the same or an adjacent cell per axis (cyclically on a torus), and
    |u_i - v_i| <= |u - v| for the block norm, so the 3^n neighbour cells
    of a point hold every centre within h of it.

    ``slots`` holds centre indices per cell in its first K columns, -1
    for an empty slot, and ``nbr`` the slot rows of each cell's
    neighbours (a box gets one layer of always-empty padding cells). The
    cells per axis k are capped so that (3k)^n <= BUDGET; with fewer than
    3 per axis or MIN_CELLS in all left, the table has one cell of
    infinite side whose only neighbour is itself, every pair is a
    candidate, and no 3^n array is built.

    ``load`` and ``near`` take points as cell codes (``code``). ``load``
    refiles the table with a new set: it clears only the slots
    the previous set filled and widens ``slots`` only when K outgrows
    it, so a reused table costs O(points) per load, not O(cells).
    ``near`` takes rows of the whole, contiguous ``nbr`` and ``slots``
    (columns past K hold -1): ``take`` from a view such as
    ``slots[:, :K]`` first copies the whole view, O(cells) per call.
    """

    MIN_CELLS, BUDGET = 64, 2**22  # below MIN_CELLS cells the gather does not pay

    def __init__(self, space, region, side, box=None):
        self.torus = isinstance(region, TorusRegion)
        if box is None:
            box = (0.0, region.side) if self.torus else (-region.radius, 2.0 * region.radius)
        self.lo, span = box
        n = space.n
        cells = span / (side * (1.0 + _GRID_SLACK))  # per axis; nan gives one cell
        k = int(min(cells, self.BUDGET ** (1.0 / n) / 3.0)) if cells >= 3.0 else 1
        if k < 3 or k**n < self.MIN_CELLS:
            k = 1
        self.ncell = k
        self.h = span / k if k > 1 else math.inf
        pad = 0 if self.torus or k == 1 else 1
        width = k + 2 * pad
        step = np.arange(-1, 2) if k > 1 else np.arange(1)  # neighbour offsets per axis
        nbr = np.zeros((k,) * n + step.shape * n, dtype=np.int64)  # axes c_(n-1), ..., c_0, o_0, ..., o_(n-1)
        for a in range(n):  # axis a's (k, 3) terms, broadcast into the one output array
            nbr += ((np.arange(k)[:, None] + pad + step) % width * width**a).reshape(
                (1,) * (n - 1 - a) + (k,) + (1,) * (2 * a) + step.shape + (1,) * (n - 1 - a))
        self.nbr = nbr.reshape(k**n, -1)
        self.centre = self.nbr.shape[1] // 2  # the (0, ..., 0) offset
        self.slots = np.full((width**n, 0), -1, dtype=np.int64)
        self.K = 0
        self.filed = (np.empty(0, dtype=np.int64),) * 2  # (row, slot) of every filed centre

    def code(self, X):  # sum_a c_a k^a over the cell coordinates c of each row
        c = ((X - self.lo) / self.h).astype(np.int64)
        np.minimum(c, self.ncell - 1, out=c)
        np.maximum(c, 0, out=c)
        code = c[:, -1]
        for a in range(c.shape[1] - 2, -1, -1):
            code = code * self.ncell + c[:, a]
        return code

    def near(self, codes):
        """(i, j) for every centre j in a neighbour cell of the point with cell code codes[i], row-major."""
        cells = self.nbr.take(codes, axis=0)
        width = cells.shape[1] * self.slots.shape[1]  # explicit, so that codes may be empty
        cand = self.slots.take(cells, axis=0).reshape(len(codes), width)
        f = np.flatnonzero(cand >= 0)
        return f // width, cand.take(f)

    def load(self, codes, bounded=True):
        """File the points of cell codes ``codes`` as centres 0, 1, ... in place of the last set.

        Returns False, changing nothing, when ``bounded`` and a crowded
        cell would take the slot table past BUDGET entries; a one-cell
        table takes any set.
        """
        home = self.nbr[codes, self.centre]
        order = np.argsort(home, kind="stable")
        home = home[order]
        rank = np.arange(len(codes)) - np.searchsorted(home, home)  # slot within the cell
        K = int(rank.max(initial=-1)) + 1
        if bounded and self.ncell > 1 and len(self.slots) * K > self.BUDGET:
            return False
        self.slots[self.filed] = -1
        if K > self.slots.shape[1]:
            self.slots = np.full((len(self.slots), K), -1, dtype=np.int64)
        self.filed, self.K = (home, rank), K
        self.slots[self.filed] = order
        return True


def min_pairwise(centers, space: SpaceParams, region=None) -> float:
    """Minimum distance over all pairs of rows of ``centers`` (inf below two).

    Exact, bit for bit, for finite centres. A ``_CellTable`` over the
    torus, or the centres' bounding cube, starts at the typical spacing
    (volume / t)^(1/n) as its cell side h and is walked in row chunks of
    at most _GATHER candidate slots. Every pair within h is a candidate,
    so the candidate minimum is exact once it is at most h; otherwise h
    doubles, until the table has one cell and every pair is a candidate.
    A crowded cell that would take the slot table past its budget also
    gets the one-cell table. On a torus region, the minimum-image
    convention applies.
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
    side = box[1] / t ** (1.0 / space.n) or math.inf  # coincident centres: one cell
    while True:
        table = _CellTable(space, region, side, box)
        codes = table.code(centers)
        if not table.load(codes):
            table = _CellTable(space, region, math.inf, box)
            codes = table.code(centers)
            table.load(codes)
        rows = max(1, _GATHER // table.nbr.shape[1] // table.K)
        best = math.inf
        for start in range(0, t, rows):
            i, j = table.near(codes[start : start + rows])
            i += start
            keep = i < j
            d = distance_batch(centers.take(i[keep], axis=0), centers.take(j[keep], axis=0), space, region)
            best = min(best, float(d.min(initial=math.inf)))
            if best == 0.0:  # no distance is smaller
                return best
        if best <= table.h * (1.0 - _GRID_SLACK):
            return best
        side = 2.0 * table.h


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
        shrink = self.radius / np.power(_rowsum(G) + W, 1.0 / p)
        scale = np.power(G, 1.0 / p) / _block_norms(g, space) * shrink[:, None]
        return g * (scale if blocks.m == space.n else np.repeat(scale, dims, axis=-1))

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
