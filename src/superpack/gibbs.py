"""Grand canonical hard superball model and its birth-death sampler.

The model places unordered configurations of superballs of radius r
(default: the unit-volume radius) in a bounded region S with activity
lam. Configurations with any pair of centers closer than 2r are
forbidden. Canonical weights are

    Zhat(t) = (1/t!) integral over S^t of the packing indicator,

with Zhat(0) = 1, and the grand partition function is
Z(lam) = sum_t lam^t Zhat(t). The occupancy density is
alpha = E|X| / vol(S); it equals lam times the expected free-volume
fraction, is nondecreasing in lam, and lam vol(S) alpha'(lam) equals
Var|X|. The sampler targets this measure with single insertions and
deletions accepted at the textbook grand canonical rates.

Canonical weights have closed forms for t <= 1 in any region and for
every t in one dimension (hard rods on the interval and the ring); a
Monte Carlo packing-probability estimator covers everything else and
reports its standard error. ``grand_partition`` composes closed forms
only.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import ConstantChain, compute_constant_chain
from .errors import ComputationError, InputError
from .geometry import (
    SpaceParams,
    SuperballRegion,
    TorusRegion,
    _CellTable,
    distance_batch,
    min_pairwise,
    norm_batch,
)

__all__ = [
    "ModelParams",
    "Configuration",
    "PartitionEstimate",
    "canonical_partition",
    "packing_hits",
    "GrandPartition",
    "grand_partition",
    "exact_moments",
    "ChainEstimate",
    "run_chain",
    "run_chains",
    "estimate_alpha_curve",
    "merge_estimates",
    "intersection_volume_mc",
    "IntersectionReport",
    "intersection_volume_check",
]

_TAIL_CUTOFF = 1e-15
FV_PROBES = 64  # free-volume probe points per probed step
FV_STRIDE = 8  # probe every FV_STRIDE-th recorded step
BLOCK = 64  # chain steps drawn together (a draw block)
VALIDATE_EVERY = 4096  # accepted moves between full hard-core rechecks
NBATCH = 32  # batch means behind a chain's standard errors


@dataclass(frozen=True)
class ModelParams:
    """Region, activity and superball radius of one hard-core model."""

    space: SpaceParams
    region: object
    fugacity: float
    radius: float | None = None

    def __post_init__(self):
        if not (self.fugacity > 0) or not math.isfinite(self.fugacity):
            raise InputError(f"fugacity must be positive and finite, got {self.fugacity}")
        object.__setattr__(self, "radius", self.space.superball_radius(self.radius))
        if not isinstance(self.region, (SuperballRegion, TorusRegion)):
            raise InputError(f"unsupported region {self.region!r}")
        if not (0 < self.volume < math.inf):
            raise InputError("region volume must be positive and finite")
        if isinstance(self.region, TorusRegion) and self.exclusion > self.region.side / 2:
            warnings.warn(
                "exclusion diameter exceeds half the torus side; every pair of "
                "centers interacts with its own image",
                stacklevel=2,
            )

    @property
    def exclusion(self) -> float:
        return 2.0 * self.radius

    @property
    def volume(self) -> float:
        return self.region.volume(self.space)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "region": self.region.to_json(),
            "fugacity": self.fugacity,
            "radius": self.radius,
        }


@dataclass
class Configuration:
    """A hard-core state: center array of shape (t, n)."""

    centers: np.ndarray
    params: ModelParams

    def validate(self) -> float:
        """Recheck the hard-core and membership invariants exactly.

        Returns the minimum pairwise distance (inf for t < 2); raises
        ComputationError on any violation.
        """
        C = np.asarray(self.centers, dtype=np.float64).reshape(-1, self.params.space.n)
        space, region = self.params.space, self.params.region
        if len(C) and not region.contains_points(C, space).all():
            raise ComputationError("configuration has a center outside the region")
        dmin = min_pairwise(C, space, region)
        if dmin < self.params.exclusion:
            raise ComputationError(
                f"hard-core violation: pair at distance {dmin} < {self.params.exclusion}"
            )
        return dmin


def _closed_form(t: int, params: ModelParams) -> float:
    """Zhat(t) for t <= 1 anywhere, and for hard rods at any t.

    Zhat(0) = 1 and Zhat(1) = V. Interval of length L:
    (L - (t-1) s)_+^t / t!. Ring of circumference L:
    L (L - t s)_+^(t-1) / t!. Both count unordered configurations with
    pairwise distance >= s = 2r.
    """
    s = params.exclusion
    L = params.volume
    if t == 0:
        return 1.0
    if t == 1:
        return L
    if isinstance(params.region, TorusRegion):
        gap = L - t * s
        return L * gap ** (t - 1) / math.factorial(t) if gap > 0 else 0.0
    gap = L - (t - 1) * s
    return gap**t / math.factorial(t) if gap > 0 else 0.0


def packing_hits(params: ModelParams, t: int, samples: int, rng) -> int:
    """How many of ``samples`` draws of t uniform points form a packing.

    Every pair of a configuration must be at least the exclusion apart
    (min-image on a torus). The expected fraction is Zhat(t) t! / V^t.
    Configurations are drawn in chunks, each one ``region.sample`` call
    of chunk * t points; t <= 1 always packs and draws nothing.
    """
    if t <= 1:
        return samples
    space, region = params.space, params.region
    chunk = max(1, min(samples, 4_000_000 // (t * space.n)))
    hits = 0
    for done in range(0, samples, chunk):
        m = min(chunk, samples - done)
        X = region.sample(space, rng, m * t).reshape(m, t, space.n)
        ok = np.ones(m, dtype=bool)
        for i, j in itertools.combinations(range(t), 2):
            ok &= distance_batch(X[:, i], X[:, j], space, region) >= params.exclusion
        hits += int(ok.sum())
    return hits


def _mc_partition(t, params, samples, seed):
    """(value, se) of Zhat(t) = phat V^t / t!; no packing gives (0, inf), a one-sided 3 V^t / (t! samples)."""
    if not (isinstance(samples, (int, np.integer)) and samples >= 1):
        raise InputError(f"mc_samples must be a positive integer, got {samples}")
    phat = packing_hits(params, t, samples, np.random.default_rng(seed)) / samples
    scale = math.exp(t * math.log(params.volume) - math.lgamma(t + 1))
    return phat * scale, scale * math.sqrt(phat * (1.0 - phat) / samples) if phat else math.inf


@dataclass(frozen=True)
class PartitionEstimate:
    t: int
    value: float
    se: float
    method: str


def canonical_partition(
    t: int,
    params: ModelParams,
    method: str = "auto",
    *,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> PartitionEstimate:
    """Canonical configuration integral Zhat(t) for t superballs.

    ``method`` chooses the route: "closed_form" (t <= 1 anywhere, any t
    in one dimension) with se = 0, or "mc", the packing-probability
    estimate from ``packing_hits`` with its standard error (inf when no
    sample packs). "auto" takes the closed form where one exists.
    """
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise InputError(f"t must be a nonnegative integer, got {t!r}")
    t = int(t)
    if method not in ("auto", "closed_form", "mc"):
        raise InputError(f"unknown method {method!r}")

    have_closed = t <= 1 or params.space.n == 1
    if method == "closed_form" and not have_closed:
        raise InputError("no closed form for this region and t")
    if method in ("closed_form", "auto") and have_closed:
        return PartitionEstimate(t, _closed_form(t, params), 0.0, "closed_form")

    value, se = _mc_partition(t, params, mc_samples, seed)
    return PartitionEstimate(t, value, se, "mc")


@dataclass(frozen=True)
class GrandPartition:
    value: float
    log_value: float
    log_terms: tuple[float, ...]  # log(lam^t Zhat(t)), -inf where Zhat = 0
    t_max: int
    capacity_truncated: bool


def _auto_t_max(lam: float, V: float) -> int:
    t = 1
    while True:
        log_term = (t + 1) * (math.log(lam) + math.log(V)) - math.lgamma(t + 2)
        if log_term < math.log(_TAIL_CUTOFF):
            return t
        t += 1
        if t > 100_000:
            raise ComputationError("tail of the grand series does not fall below 1e-15")


def grand_partition(params: ModelParams, t_max: int | None = None) -> GrandPartition:
    """Z(lam) summed over closed-form canonical values.

    The truncation point must make the crude tail term
    lam^t vol^t / t! fall below 1e-15 (a Poisson bound on everything
    dropped); an explicit t_max that fails this raises ComputationError.
    Regions with no closed form for some needed t (any t >= 2 when
    n >= 2) also raise.
    """
    lam = params.fugacity
    V = params.volume

    def exact_zhat(t):
        try:
            return canonical_partition(t, params, "closed_form").value
        except InputError as err:
            raise ComputationError(
                f"no deterministic route for Zhat({t}) in this region; "
                "grand_partition only composes exact terms"
            ) from err

    auto = _auto_t_max(lam, V)
    if t_max is None:
        t_max = auto
    elif t_max < auto:
        log_term = (t_max + 1) * (math.log(lam) + math.log(V)) - math.lgamma(t_max + 2)
        # a vanished canonical term means everything past it is zero too
        if log_term >= math.log(_TAIL_CUTOFF) and exact_zhat(t_max + 1) > 0.0:
            raise ComputationError(
                f"tail term at t_max={t_max} is above 1e-15; use t_max >= {auto}"
            )

    log_terms = []
    truncated = False
    for t in range(t_max + 1):
        zhat = exact_zhat(t)
        log_terms.append(t * math.log(lam) + math.log(zhat) if zhat > 0 else -math.inf)
        if zhat == 0.0 and t >= 1:
            truncated = True
            break
    arr = np.array(log_terms)
    finite = arr[np.isfinite(arr)]
    m = finite.max()
    log_value = float(m + np.log(np.sum(np.exp(finite - m))))
    if not log_value <= lam * V + 1e-9 * max(1.0, abs(lam * V)):
        raise ComputationError("log Z exceeded its ideal-gas ceiling lam*vol")
    return GrandPartition(
        value=float(math.exp(log_value)) if log_value < 700 else math.inf,
        log_value=log_value,
        log_terms=tuple(float(x) for x in arr),
        t_max=len(log_terms) - 1,
        capacity_truncated=truncated,
    )


def exact_moments(params: ModelParams, t_max: int | None = None) -> dict:
    """log Z, occupancy density, and count variance from exact weights."""
    gp = grand_partition(params, t_max)
    log_w = np.asarray(gp.log_terms)
    w = np.exp(log_w - gp.log_value)  # normalized, safe for any magnitude
    tvals = np.arange(len(w))
    mean = float((tvals * w).sum())
    mean2 = float((tvals**2 * w).sum())
    V = params.volume
    return {
        "log_z": gp.log_value,
        "mean_count": mean,
        "var_count": mean2 - mean**2,
        "alpha": mean / V,
        "t_max": gp.t_max,
    }


@dataclass(frozen=True)
class ChainEstimate:
    """Summary of one birth-death run.

    alpha_hat is the mean occupancy per unit volume over the recorded
    window, fv_hat the probe estimate of the free-volume fraction (None,
    as is fv_se, for a chain run with ``free_volume=False``), and
    var_count the sample variance of the count series (nan below two
    recorded steps). Standard errors come from 32 batch means
    (``NBATCH``). Counters satisfy accepted_births + accepted_deaths +
    rejections = steps, and births_blocked counts the rejections made by
    the exclusion screen.
    """

    alpha_hat: float
    alpha_se: float
    fv_hat: float | None
    fv_se: float | None
    var_count: float
    var_count_se: float
    mean_count: float
    steps: int
    burn_in: int
    accepted_births: int
    accepted_deaths: int
    births_blocked: int
    seed: int
    final_count: int
    trace: dict | None = field(default=None, compare=False, repr=False)
    final_configuration: Configuration | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (self.alpha_hat >= 0 and (self.fv_hat is None or 0.0 <= self.fv_hat <= 1.0)):
            raise ComputationError("chain summary out of range")
        if not 0 <= self.births_blocked <= self.rejections:
            raise ComputationError("move counters went inconsistent")

    @property
    def rejections(self) -> int:
        return self.steps - self.accepted_births - self.accepted_deaths

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        del out["trace"], out["final_configuration"]
        return {**out, "rejections": self.rejections}


def _batch_se(series: np.ndarray) -> float:
    m = len(series)
    if m < 2:
        return math.inf
    if m < 2 * NBATCH:
        return float(series.std(ddof=1) / math.sqrt(m))
    size = m // NBATCH
    bm = series[: NBATCH * size].reshape(NBATCH, size).mean(axis=1)
    return float(bm.std(ddof=1) / math.sqrt(NBATCH))


def _batch_var_se(series: np.ndarray) -> float:
    m = len(series)
    if m < 4 * NBATCH:
        return math.inf
    size = m // NBATCH
    bv = series[: NBATCH * size].reshape(NBATCH, size).var(ddof=1, axis=1)
    return float(bv.std(ddof=1) / math.sqrt(NBATCH))


def _blocks_per_span(table: _CellTable, free_volume: bool = True) -> int:
    """Draw blocks per chain screen, >= 1.

    A screen's fixed cost falls as 1/span, while the pairs of its queries
    with the labels drawn by their step grow as span^2 3^n / cells times
    the query rows per step; the optimum is span ~ sqrt(cells / 3^n /
    rows). The /3 was timed on probed chains, which query 0.5 proposals
    plus 64/8 probe rows a step (``FV_PROBES``, ``FV_STRIDE``). A chain
    run with ``free_volume=False`` queries only the 0.5 proposals, so its
    span is sqrt(8.5 / 0.5) = sqrt(17) times as long.
    """
    ratio = 1.0 if free_volume else (0.5 + FV_PROBES / FV_STRIDE) / 0.5
    return max(1, round(math.sqrt(len(table.nbr) / table.nbr.shape[1] * ratio) / 3))


def run_chain(
    params: ModelParams,
    steps: int,
    burn_in: int,
    seed: int,
    *,
    collect_trace: bool = False,
    free_volume: bool = True,
) -> ChainEstimate:
    """Birth-death Metropolis chain for the hard-core grand ensemble.

    Each step flips a fair coin. Insertion draws a uniform point of the
    region and, when it violates no exclusion, accepts with probability
    min(1, lam V / (t+1)); deletion picks a uniform existing center and
    accepts with min(1, t / (lam V)) (Geyer and Moller 1994). The chain
    starts empty. The schedule is fixed: estimates use the steps after
    ``burn_in``, and free-volume probes run on every 8th of those
    (``FV_STRIDE``) with 64 fresh uniform points each (``FV_PROBES``).
    With ``free_volume=False`` the probes are still drawn, so the draws,
    the trajectory and every other output are those of the probed chain,
    but no probe is screened: ``fv_hat`` and ``fv_se`` are None, the
    probe-hit series stays -1, and spans are longer (``_blocks_per_span``).

    Draws come in blocks of b = min(64, steps left) (``BLOCK``). A block
    draws from the one generator in this order: b coins (birth below
    1/2), one ``region.sample`` with a proposal per birth coin, b
    Metropolis uniforms, b death uniforms (a death picks center
    min(floor(u t), t - 1)), and one ``region.sample`` with 64 points
    for each probed step of the block, in step order. Unused draws are
    discarded, so the law is that of the step-by-step kernel and the
    run is bit-for-bit reproducible from the seed.

    Steps run in spans of m draw blocks (``_blocks_per_span``, 1 on a
    one-cell table). A span holds its centers as one list of labels in
    index order (label i: its i-th starting center; t0 + k: its proposal
    k): a birth appends, a death swaps the picked entry with the last
    and pops it. It makes its blocks' draws in turn, then one screen
    finds each query's partners within the exclusion distance among the
    labels drawn by its step: below t0 + k for proposal k, below t0 plus
    the birth coins up to its step for a probe. A proposal is blocked
    only by a partner alive at its step, so every accepted insertion
    clears all current centers, and the hard-core invariant holds by
    induction; it is also re-validated from scratch every 4096 accepted
    moves (``VALIDATE_EVERY``) and at the end, through
    ``geometry.min_pairwise``. A probe is free when no center lies
    within the exclusion distance at its step. Label j is a center at
    the end of step s when born_j <= s < died_j: span-start centers are
    born at -1 and labels never deleted die at ``steps``. The step loop
    sets them in int64 arrays; the span's probes are tested against them
    after it.

    The count and probe-hit series (-1 where no probe ran) are kept
    for every step; with ``collect_trace`` the estimate carries them,
    with the per-step acceptance and move type, as ``trace``.

    The screen goes through one ``geometry._CellTable`` with cell side
    at least the exclusion, built at step 0 and refiled at each span
    start with the span-start centers and the proposals, at a cost in
    points, not cells. One ``code`` call places these and the probes;
    each query gathers the labels of its 3^n neighbour cells, and only
    gathered labels under its bound get the exact distance test. Where
    the region leaves the table one cell (fewer than 3 cells per axis or
    64 cells in all), each proposal is paired with every label under its
    bound, and each probed step tests its probes against the centers of
    that step. Cell pruning is exact (coordinatewise monotonicity of the
    norm) and no screen draws random numbers, so the trajectory does not
    depend on which screen ran.
    """
    if not (steps > burn_in >= 0):
        raise InputError(f"need steps > burn_in >= 0, got {steps}, {burn_in}")
    space, region = params.space, params.region
    n = space.n
    V = params.volume
    lamV = params.fugacity * V
    excl = params.exclusion
    rng = np.random.default_rng(seed)
    table = _CellTable(space, region, excl)
    grid = table.ncell > 1  # else one cell: proposals meet every drawn label, probes every centre
    span = BLOCK * _blocks_per_span(table, free_volume)

    centers = np.empty((0, n))  # the span-start centres, in index order
    t = 0
    births = 0
    deaths = 0
    blocked = 0
    accepted_since_check = 0

    count = np.empty(steps, dtype=np.int64)
    fv_probe_hits = np.full(steps, -1, dtype=np.int64)
    if collect_trace:
        tr_birth = np.zeros(steps, dtype=np.uint8)

    for s0 in range(0, steps, span):
        b = min(span, steps - s0)
        first = max(s0, burn_in)
        first += -(first - burn_in) % FV_STRIDE  # the span's first probed step
        probed = range(first, s0 + b if free_volume else first, FV_STRIDE)  # the steps whose probes it screens
        draws = []
        for c0 in range(s0, s0 + b, BLOCK):  # each draw block's five calls, in order
            c = min(BLOCK, s0 + b - c0)
            coins = rng.random(c) < 0.5
            probed_here = len(range(first, c0 + c, FV_STRIDE)) - len(range(first, c0, FV_STRIDE))
            draws.append((coins, region.sample(space, rng, int(coins.sum())), rng.random(c), rng.random(c),
                          region.sample(space, rng, FV_PROBES * probed_here)))
        coins, Y, u_acc, u_die, probes = (np.concatenate(d) for d in zip(*draws))
        u_acc, u_die, probes = u_acc.tolist(), u_die.tolist(), probes.reshape(-1, FV_PROBES, n)[: len(probed)]

        # queries (rows t0 on of Q): the proposals, then with a table the
        # probes; query i meets the labels of X below bound[i], drawn by its step
        t0, nb = t, len(Y)
        X = np.concatenate([centers, Y])
        Q = np.concatenate([X, probes.reshape(-1, n)]) if grid else X
        bound = t0 + np.arange(nb)
        if grid:
            births_by = np.cumsum(coins)[first - s0 : probed.stop - s0 : FV_STRIDE]  # at each screened probe's step
            bound = np.concatenate([bound, np.repeat(t0 + births_by, FV_PROBES)])
            codes = table.code(Q)
            table.load(codes[: t0 + nb], bounded=False)  # hard-core cells, <= span proposals
            who, lbl = table.near(codes[t0:])
            keep = lbl < bound.take(who)
            who, lbl = who[keep], lbl[keep]
        else:
            who, lbl = np.nonzero(np.arange(t0 + nb) < bound[:, None])
        close = distance_batch(Q[t0:].take(who, axis=0), X.take(lbl, axis=0), space, region) < excl
        who, lbl = who[close], lbl[close]
        prop = who < nb
        partners = {}
        for k, j in zip(who[prop].tolist(), lbl[prop].tolist()):
            partners.setdefault(k, []).append(j)
        alive = [True] * t0 + [False] * nb
        born, died = np.full((2, t0 + nb), steps)
        born[:t0] = -1
        order = list(range(t0))  # the label of each centre, in index order
        cnt = []

        k = 0
        for r, birth in enumerate(coins.tolist()):
            step = s0 + r
            accepted = False
            if birth:
                near = partners.get(k)
                if near is not None and any(alive[j] for j in near):
                    blocked += 1
                elif u_acc[r] < lamV / (t + 1):  # u < 1: min(1, a) for free
                    order.append(t0 + k)
                    alive[t0 + k] = True
                    born[t0 + k] = step
                    t += 1
                    births += 1
                    accepted = True
                k += 1
            elif t > 0 and u_acc[r] < t / lamV:
                i = min(int(u_die[r] * t), t - 1)
                j, order[i] = order[i], order[-1]
                order.pop()
                alive[j] = False
                died[j] = step
                t -= 1
                deaths += 1
                accepted = True

            if accepted:
                accepted_since_check += 1
                if accepted_since_check >= VALIDATE_EVERY:
                    Configuration(X.take(order, axis=0), params).validate()
                    accepted_since_check = 0
            cnt.append(t)
            if not grid and step in probed:
                free = FV_PROBES
                if t:
                    d = distance_batch(probes[(step - first) // FV_STRIDE, :, None], X.take(order, axis=0)[None],
                                       space, region)
                    free = int((d.min(axis=1) >= excl).sum())
                fv_probe_hits[step] = free
        count[s0 : s0 + b] = cnt
        centers = X.take(order, axis=0)
        if grid and probed:
            # probe row q runs at step s; it is hit by a close label alive then
            q, j = who[~prop] - nb, lbl[~prop]
            s = first + q // FV_PROBES * FV_STRIDE
            hit = np.zeros(len(probed) * FV_PROBES, dtype=bool)
            hit[q[(born.take(j) <= s) & (s < died.take(j))]] = True
            fv_probe_hits[probed] = FV_PROBES - hit.reshape(-1, FV_PROBES).sum(axis=1)
        if collect_trace:
            tr_birth[s0 : s0 + b] = coins

    final = Configuration(centers, params)
    final.validate()

    counts_f = count[burn_in:].astype(np.float64)
    fv_arr = fv_probe_hits[burn_in::FV_STRIDE] / FV_PROBES
    est = ChainEstimate(
        alpha_hat=float(counts_f.mean() / V),
        alpha_se=_batch_se(counts_f) / V,
        fv_hat=float(fv_arr.mean()) if free_volume else None,
        fv_se=_batch_se(fv_arr) if free_volume else None,
        var_count=float(counts_f.var(ddof=1)) if len(counts_f) > 1 else math.nan,
        var_count_se=_batch_var_se(counts_f),
        mean_count=float(counts_f.mean()),
        steps=steps,
        burn_in=burn_in,
        accepted_births=births,
        accepted_deaths=deaths,
        births_blocked=blocked,
        seed=int(seed),
        final_count=t,
        trace=({"count": count, "fv_probe_hits": fv_probe_hits, "birth": tr_birth,  # an accepted move moves t
                "accepted": (np.diff(count, prepend=0) != 0).astype(np.uint8)} if collect_trace else None),
        final_configuration=final,
    )
    return est


def _run_task(task) -> ChainEstimate:
    # module level, so a pool can pickle it; looks run_chain up at call time
    params, steps, burn_in, seed, collect_trace, free_volume = task
    return run_chain(params, steps, burn_in, seed, collect_trace=collect_trace, free_volume=free_volume)


def run_chains(tasks, threads: int = 1) -> list[ChainEstimate]:
    """Run independent chains and return their estimates in input order.

    Each task is ``(params, steps, burn_in, seed, collect_trace,
    free_volume)`` for one ``run_chain`` call. With ``threads > 1`` and
    more than one task the calling process runs tasks
    ``i % threads == 0`` itself and a pool of ``threads - 1`` worker
    processes runs the rest. Every chain
    draws only from its own seed, so the estimates, and the first error
    in input order, are those of the serial run. The pool is shut down,
    pending tasks cancelled, before this returns or raises.

    The pool uses the platform's default start method (fork on Linux
    for the supported Pythons), so workers inherit the imported modules.
    """
    tasks = list(tasks)
    if threads <= 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    import concurrent.futures

    pool = concurrent.futures.ProcessPoolExecutor(max_workers=threads - 1)
    try:
        remote = {i: pool.submit(_run_task, t) for i, t in enumerate(tasks) if i % threads}
        return [remote[i].result() if i in remote else _run_task(t) for i, t in enumerate(tasks)]
    finally:
        pool.shutdown(cancel_futures=True)


def estimate_alpha_curve(
    params: ModelParams,
    fugacities,
    steps: int,
    burn_in: int,
    seed: int,
    *,
    threads: int = 1,
) -> list[tuple[float, ChainEstimate]]:
    """Independent chains across an activity grid, fresh seed per point.

    The chains run with ``free_volume=False``: their estimates carry the
    occupancy density, and no free-volume fraction.

    ``threads`` is the number of processes that share the chains
    (see ``run_chains``); the result does not depend on it.
    """
    fugacities = [float(x) for x in fugacities]
    if any(x <= 0 for x in fugacities):
        raise InputError("all fugacities must be positive")
    if any(b <= a for a, b in zip(fugacities, fugacities[1:])):
        raise InputError("fugacity grid must be strictly increasing")
    child_seeds = np.random.SeedSequence(seed).generate_state(len(fugacities), dtype=np.uint64)
    tasks = [
        (ModelParams(params.space, params.region, lam, params.radius), steps, burn_in, int(s), False, False)
        for lam, s in zip(fugacities, child_seeds)
    ]
    return list(zip(fugacities, run_chains(tasks, threads)))


def merge_estimates(estimates: list[ChainEstimate]) -> ChainEstimate:
    """Pool independent equal-length replicas into one summary.

    Point estimates average with equal weight; standard errors combine
    as for a mean of independent estimates. Counters add up; the seed
    reported is the first replica's.
    """
    if not estimates:
        raise InputError("nothing to merge")
    if len({e.steps for e in estimates}) > 1 or len({e.burn_in for e in estimates}) > 1:
        raise InputError("replicas must share steps and burn_in")
    k = len(estimates)

    def pool(vals, ses):
        return float(np.mean(vals)), float(np.sqrt(np.sum(np.square(ses))) / k)

    a, a_se = pool([e.alpha_hat for e in estimates], [e.alpha_se for e in estimates])
    f, f_se = pool([e.fv_hat for e in estimates], [e.fv_se for e in estimates])
    v, v_se = pool([e.var_count for e in estimates], [e.var_count_se for e in estimates])
    return ChainEstimate(
        alpha_hat=a,
        alpha_se=a_se,
        fv_hat=f,
        fv_se=f_se,
        var_count=v,
        var_count_se=v_se,
        mean_count=float(np.mean([e.mean_count for e in estimates])),
        steps=sum(e.steps for e in estimates),
        burn_in=estimates[0].burn_in,
        accepted_births=sum(e.accepted_births for e in estimates),
        accepted_deaths=sum(e.accepted_deaths for e in estimates),
        births_blocked=sum(e.births_blocked for e in estimates),
        seed=estimates[0].seed,
        final_count=estimates[-1].final_count,
    )


def intersection_volume_mc(
    space: SpaceParams, u, samples: int, seed: int
) -> tuple[float, float]:
    """MC volume of B(u, 2 r_unit) cap B(0, |u|) with its standard error.

    Sampling happens inside B(0, |u|); u = 0 gives exactly (0, 0).
    """
    u = np.asarray(u, dtype=np.float64)
    nu = float(norm_batch(u, space))
    if nu == 0.0:
        return 0.0, 0.0
    vol, se, _, _ = _lens_sample(space, u, nu, samples, seed)
    return vol, se


def _lens_sample(space, u, nu, samples, seed):
    """(vol, se, points, lens mask) for u != 0 with |u| = nu."""
    pts = SuperballRegion(nu).sample(space, np.random.default_rng(seed), samples)
    inside = norm_batch(pts - u, space) <= 2.0 * space.r_unit
    frac = float(inside.mean())
    vol_outer = (nu / space.r_unit) ** space.n
    return vol_outer * frac, vol_outer * math.sqrt(frac * (1 - frac) / samples), pts, inside


@dataclass(frozen=True)
class IntersectionReport:
    p: float
    n: int
    c_p: float
    records: tuple[dict, ...]
    all_ok: bool
    containment_ok: bool


def intersection_volume_check(
    space: SpaceParams,
    trials: int,
    seed: int,
    *,
    samples_per_trial: int = 20_000,
    chain: ConstantChain | None = None,
) -> IntersectionReport:
    """Random centers u in B(0, 2 r_unit): test the c_p^n volume bound.

    For each u the Monte Carlo intersection volume must satisfy
    vol <= c_p^n + 3 se. Whenever |u| >= x_p r_unit, the sampled
    intersection points are additionally required to lie in
    B(u/2, c'_p r_unit), the containment behind the bound.
    """
    if chain is None:
        chain = compute_constant_chain(space.p)
    r = space.r_unit
    bound = chain.c_p**space.n
    rng = np.random.default_rng(seed)
    us = SuperballRegion(2.0 * r).sample(space, rng, trials)
    sub_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)

    records = []
    all_ok = True
    containment_ok = True
    for u, s in zip(us, sub_seeds):
        nu = float(norm_batch(u, space))
        vol, se, pts, in_lens = _lens_sample(space, u, nu, samples_per_trial, int(s))
        ok = vol <= bound + 3.0 * se
        cont = True
        if nu >= chain.x_p * r:
            # recheck the two-ball containment on the sampled points
            if in_lens.any():
                d_mid = norm_batch(pts[in_lens] - u / 2.0, space)
                cont = bool((d_mid <= chain.c_prime * r * (1 + 1e-12)).all())
        records.append(
            {
                "u_norm": nu,
                "volume": vol,
                "se": se,
                "ok": ok,
                "containment_checked": nu >= chain.x_p * r,
                "containment_ok": cont,
            }
        )
        all_ok &= ok
        containment_ok &= cont
    return IntersectionReport(
        p=space.p,
        n=space.n,
        c_p=chain.c_p,
        records=tuple(records),
        all_ok=all_ok,
        containment_ok=containment_ok,
    )
