"""Pressure and entropy density of the hard superball gas.

Two normalized free energies of the grand canonical model:

    g(lambda) = (1/V) log Z(lambda)        the pressure
    f(t; V)   = (1/t) log( Zhat(t) t! / V^t )   the entropy density

g is recovered by thermodynamic integration: d(log Z)/d(lambda) is the
mean count over lambda, and with unit-volume balls the packing density
alpha equals mean count / V, so

    g(lambda) = integral_0^lambda alpha(x)/x dx.

The integrand is estimated by Monte Carlo chains on a log-spaced grid;
below the smallest grid point the gas is ideal to O(lambda_0^2) and the
segment contributes lambda_0 exactly in that approximation.

f has a direct probabilistic meaning: Zhat(t) t! / V^t is the chance
that t independent uniform points in the region form a packing, so a
rejection estimate of that probability gives f without any chain.

Both admit asymptotic lower-bound reference values, reported alongside
the estimates for context and never asserted: the finite-n gap terms
are unknown.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ConstantChain, compute_constant_chain
from .errors import ComputationError, InputError
from .gibbs import ModelParams, estimate_alpha_curve, packing_hits

__all__ = [
    "ThermoResult",
    "pressure_reference",
    "entropy_reference",
    "pressure_estimate",
    "entropy_estimate",
    "entropy_monotonicity_check",
]

MIN_SUCCESSES = 10


@dataclass(frozen=True)
class ThermoResult:
    kind: str
    value: float
    se: float
    V: float
    lam: float | None = None
    alpha: float | None = None
    t: int | None = None
    lower_bound_ref: float | None = None
    successes: int | None = None
    samples: int | None = None
    note: str | None = None

    def __post_init__(self):
        if self.kind not in ("pressure", "entropy"):
            raise InputError(f"unknown result kind {self.kind!r}")
        if self.kind == "pressure" and not self.value >= 0.0:
            raise ComputationError(f"pressure came out negative: {self.value}")
        if self.kind == "entropy" and not self.value <= 0.0:
            raise ComputationError(
                f"entropy density came out positive: {self.value}"
            )

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _chain_or_none(p: float) -> ConstantChain | None:
    try:
        return compute_constant_chain(p)
    except (InputError, ComputationError):
        return None


def pressure_reference(n: int, lam: float, p: float) -> float | None:
    """Asymptotic pressure floor ((log 2 + log(lam)/n)^2 / 2) n^2 / 2^n.

    Defined on the activity window (2^-n, c_p^-n] where the bound is
    stated; None outside it or when c_p itself is out of reach.
    """
    chain = _chain_or_none(p)
    if chain is None:
        return None
    if not (2.0**-n < lam <= chain.c_p**-n):
        return None
    return (math.log(2.0) + math.log(lam) / n) ** 2 / 2.0 * n**2 / 2.0**n


def entropy_reference(n: int, p: float) -> float | None:
    """Asymptotic entropy floor -n log(2/c_p), at its matched density."""
    chain = _chain_or_none(p)
    if chain is None:
        return None
    return -n * math.log(2.0 / chain.c_p)


def pressure_estimate(
    params: ModelParams,
    grid_size: int = 32,
    *,
    steps: int = 200_000,
    burn_in: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> ThermoResult:
    """Thermodynamic integration of the density over activity.

    The activity lambda is the model's, ``params.fugacity``. Runs one
    chain per grid point on a log-spaced activity grid from
    lambda * 1e-4 up to lambda, applies the trapezoid rule to
    alpha_hat(x)/x, and closes the ideal-gas segment below the grid
    with its leading term lambda_0 (bias O(lambda_0^2)). The standard
    error combines the chain errors through the trapezoid weights.
    Only alpha_hat and its error are read, so the chains draw their
    free-volume probes but do not screen them
    (``estimate_alpha_curve``).
    ``threads`` processes share the grid's chains
    (``gibbs.run_chains``); the result does not depend on it.
    """
    lam = params.fugacity
    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    if burn_in is None:
        burn_in = max(1, steps // 10)

    grid = np.geomspace(lam * 1e-4, lam, grid_size)
    curve = estimate_alpha_curve(
        params, grid, steps=steps, burn_in=burn_in, seed=seed, threads=threads
    )
    alpha = np.array([c.alpha_hat for _, c in curve])
    alpha_se = np.array([c.alpha_se for _, c in curve])

    weights = np.empty(grid_size)
    weights[0] = (grid[1] - grid[0]) / 2.0
    weights[-1] = (grid[-1] - grid[-2]) / 2.0
    weights[1:-1] = (grid[2:] - grid[:-2]) / 2.0

    lam0 = grid[0]
    value = lam0 + float(np.trapezoid(alpha / grid, grid))
    se = float(np.sqrt(((weights * alpha_se / grid) ** 2).sum()))
    space = params.space
    return ThermoResult(
        kind="pressure",
        value=value,
        se=se,
        V=params.volume,
        lam=float(lam),
        lower_bound_ref=pressure_reference(space.n, lam, space.p),
    )


def entropy_estimate(
    params: ModelParams, t: int, samples: int, seed: int = 0
) -> ThermoResult:
    """Entropy density from the packing probability of t uniform points.

    f_hat = (1/t) log p_hat where p_hat is the fraction of sampled
    t-point configurations with all pairwise distances at least 2r.
    The standard error is the delta-method value
    sqrt((1 - p_hat)/(p_hat N)) / t. Fewer than 10 successes make the
    estimate unreliable and the result says so; zero successes replace
    it with the one-sided bound (1/t) log(1/samples).
    """
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise InputError(f"t must be a positive integer, got {t}")
    if not (isinstance(samples, (int, np.integer)) and samples >= 1):
        raise InputError(f"samples must be a positive integer, got {samples}")
    successes = packing_hits(params, int(t), int(samples), np.random.default_rng(seed))

    V = params.volume
    common = dict(
        kind="entropy",
        V=V,
        alpha=t / V,
        t=int(t),
        successes=successes,
        samples=int(samples),
        lower_bound_ref=entropy_reference(params.space.n, params.space.p),
    )
    if successes == 0:
        return ThermoResult(
            value=math.log(1.0 / samples) / t,
            se=math.inf,
            note=(
                f"zero successes in {samples} samples; value is the "
                "one-sided upper bound log(1/samples)/t"
            ),
            **common,
        )
    p_hat = successes / samples
    value = math.log(p_hat) / t
    se = math.sqrt((1.0 - p_hat) / (p_hat * samples)) / t
    note = None
    if successes < MIN_SUCCESSES:
        note = (
            f"only {successes} successes (want >= {MIN_SUCCESSES}); "
            "estimate unreliable, increase samples"
        )
    return ThermoResult(value=value, se=se, note=note, **common)


def entropy_monotonicity_check(
    params: ModelParams,
    t_list,
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Advisory check that the entropy density decreases in t.

    At fixed region, more centers can only be harder to place, so
    estimates should satisfy f(t1) >= f(t2) - 3 (SE1 + SE2) for
    t1 < t2. Violations are reported, never raised; pairs involving a
    zero-success bound are listed as skipped.
    """
    t_list = [int(t) for t in t_list]
    if len(t_list) < 2 or any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise InputError("t_list must be strictly increasing with >= 2 entries")
    seeds = np.random.SeedSequence(seed).generate_state(len(t_list), dtype=np.uint64)
    estimates = [
        entropy_estimate(params, t, samples, seed=int(s))
        for t, s in zip(t_list, seeds)
    ]
    pairs = []
    all_ok = True
    for i in range(len(t_list)):
        for j in range(i + 1, len(t_list)):
            a, b = estimates[i], estimates[j]
            if a.successes == 0 or b.successes == 0:
                pairs.append(
                    {"t_lo": a.t, "t_hi": b.t, "ok": None, "skipped": True}
                )
                continue
            ok = bool(a.value >= b.value - 3.0 * (a.se + b.se))
            all_ok &= ok
            pairs.append(
                {
                    "t_lo": a.t,
                    "t_hi": b.t,
                    "ok": ok,
                    "slack": a.value - b.value + 3.0 * (a.se + b.se),
                    "skipped": False,
                }
            )
    return {
        "advisory": True,
        "all_ok": all_ok,
        "estimates": [e.to_json() for e in estimates],
        "pairs": pairs,
    }
