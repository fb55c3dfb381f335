"""Uniform convexity machinery and the intersection constant chain.

For 1 < p <= 2 the block norm is uniformly convex with modulus

    delta_p(eps) = 1 - (1 - (eps/2)^q)^(1/q),   q = p/(p-1),

and the Clarkson-type inequalities hold in the reversed sense (they
hold as stated for p >= 2). That convexity yields, for each p, a
constant c_p < 2 bounding the volume of the intersection of two
unit-volume superballs whose centers sit at the geometry appearing in
the grand canonical density bound: vol(B(u, 2r) cap B(0, |u|)) <= c_p^n.
The chain runs

    x_p  : smallest x in (1.5, 2) with threshold_curve(x, q) = 3^-q
    eps_p = 1 + x_p/2 - 2/x_p       (worst-case midpoint separation)
    c'_p  = max{ (x_p+2)/2, 2 - (2 delta_p(eps_p) - (2-x_p)/2) }
    c_p   = max{ x_p, c'_p }

and every step is exposed so tests can pin each value.

float64 limits: as p decreases toward 1, x_p approaches 2 faster than
the spacing of doubles near 2. Below roughly p = 1.03 the chain cannot
be represented and :func:`solve_x_p` raises ComputationError rather
than returning a collapsed value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError
from .geometry import SpaceParams, norm_batch

__all__ = [
    "delta_p",
    "threshold_curve",
    "solve_x_p",
    "ConstantChain",
    "compute_constant_chain",
    "ClarksonReport",
    "clarkson_residuals",
    "clarkson_check",
    "uniform_convexity_check",
    "lambert_w",
    "DensityBound",
    "density_lower_bound",
]

# bisection interval width; the nudge keeps the defining inequality strict
_BISECT_WIDTH = 1e-13
_NUDGE = 1e-9


def _require_p_in_unit_interval(p: float) -> float:
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise InputError(f"this quantity exists only for 1 < p <= 2, got p={p}")
    return p


def delta_p(eps: float, p: float) -> float:
    """Modulus of convexity of the block norm at separation ``eps``.

    Domain: 0 < eps <= 2 and 1 < p <= 2. Computed through expm1/log1p
    so that values far below float epsilon keep full relative precision.
    """
    p = _require_p_in_unit_interval(p)
    eps = float(eps)
    if not (0.0 < eps <= 2.0):
        raise InputError(f"eps must lie in (0, 2], got {eps}")
    q = p / (p - 1.0)
    z = (eps / 2.0) ** q
    if z >= 1.0:
        return 1.0
    return -math.expm1(math.log1p(-z) / q)


def threshold_curve(x: float, q: float):
    """Auxiliary curve whose crossing of 3^-q defines the case split.

    Increasing on [1.5, 2] for q >= 2; value 2^-q at x = 2.
    """
    x = np.asarray(x, dtype=np.float64)
    return (x / 4.0 + 0.5 - 1.0 / x) ** q + ((x + 2.0) / 4.0) ** q - 1.0


def solve_x_p(p: float) -> float:
    """Smallest root of threshold_curve(x, q) = 3^-q in (1.5, 2).

    Bisection to interval width 1e-13, nudged up by 1e-9 so the
    inequality holds strictly at the returned point; a 10^4-point grid
    check then confirms the curve stays at or above 3^-q on [x_p, 2].
    """
    p = _require_p_in_unit_interval(p)
    q = p / (p - 1.0)
    target = 3.0 ** (-q)

    # crossing scan; more than one sign change would invalidate "smallest
    # root found by bisection", so fail loudly if that ever shows up
    grid = np.linspace(1.5, 2.0, 2001)
    sign = np.sign(threshold_curve(grid, q) - target)
    changes = np.nonzero(np.diff(sign > 0))[0]
    if len(changes) != 1:
        raise ComputationError(
            f"expected exactly one crossing of the threshold curve for p={p}, "
            f"found {len(changes)}"
        )

    lo, hi = float(grid[changes[0]]), float(grid[changes[0] + 1])
    flo = float(threshold_curve(lo, q)) - target
    if flo >= 0.0:
        raise ComputationError(f"bracketing failed at p={p}")
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if float(threshold_curve(mid, q)) - target < 0.0:
            lo = mid
        else:
            hi = mid
    x_p = hi + _NUDGE

    if x_p >= 2.0 - 1e-13:
        raise ComputationError(
            f"x_p for p={p} is indistinguishable from 2 in float64; the "
            "constant chain is unavailable below roughly p = 1.03"
        )
    check = np.linspace(x_p, 2.0, 10_000)
    if not (threshold_curve(check, q) >= target).all():
        raise ComputationError(f"threshold curve dips below 3^-q on [x_p, 2] for p={p}")
    residual = float(threshold_curve(x_p, q)) - target
    if not (0.0 <= residual <= 1e-8):
        raise ComputationError(f"root residual {residual} out of [0, 1e-8] for p={p}")
    return float(x_p)


@dataclass(frozen=True)
class ConstantChain:
    """Every intermediate of the c_p derivation, for inspection and tests."""

    p: float
    q: float
    x_p: float
    eps_p: float
    delta_at_eps: float
    contraction_margin: float
    c_prime: float
    c_p: float
    residual_h: float

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def compute_constant_chain(p: float) -> ConstantChain:
    """Run the full chain from exponent to intersection constant.

    Raises ComputationError when float64 cannot support the chain
    (p below about 1.03) or when any positivity guarantee fails.
    """
    p = _require_p_in_unit_interval(p)
    q = p / (p - 1.0)
    x_p = solve_x_p(p)
    residual = float(threshold_curve(x_p, q)) - 3.0 ** (-q)

    eps_p = 1.0 + x_p / 2.0 - 2.0 / x_p
    if not (0.0 < eps_p <= 2.0):
        raise ComputationError(f"separation eps_p={eps_p} fell outside (0, 2] for p={p}")
    delta = delta_p(eps_p, p)

    # 2 - x_p is exact in float64 for x_p in (1.5, 2)
    margin = 2.0 * delta - (2.0 - x_p) / 2.0
    if not margin > 0.0:
        raise ComputationError(
            f"contraction margin {margin} is not positive for p={p}; "
            "the chain lost its float64 headroom"
        )
    c_prime = max((x_p + 2.0) / 2.0, 2.0 - margin)
    c_p = max(x_p, c_prime)
    if not (x_p < c_p < 2.0):
        raise ComputationError(f"c_p={c_p} escaped (x_p, 2) for p={p}")
    return ConstantChain(
        p=p,
        q=q,
        x_p=x_p,
        eps_p=eps_p,
        delta_at_eps=delta,
        contraction_margin=margin,
        c_prime=c_prime,
        c_p=c_p,
        residual_h=residual,
    )


@dataclass(frozen=True)
class ClarksonReport:
    """Signed residuals of the three two-point norm inequalities.

    Residuals follow the convention satisfied-side minus violated-side,
    so every entry should be >= -1e-9 * scale. The first inequality is
    two sided; ``r3`` exposes the binding side.
    """

    p: float
    direction: str  # "stated" for p >= 2, "reversed" for 1 < p <= 2
    r3_lower: float
    r3_upper: float
    r4: float
    r5: float
    scale3: float
    scale4: float
    scale5: float

    @property
    def r3(self) -> float:
        return min(self.r3_lower, self.r3_upper)

    @property
    def ok(self) -> bool:
        tol = 1e-9
        return (
            self.r3 >= -tol * self.scale3
            and self.r4 >= -tol * self.scale4
            and self.r5 >= -tol * self.scale5
        )


def clarkson_residuals(X, Y, space: SpaceParams) -> dict:
    """Vectorized residuals for batches of pairs; see ClarksonReport."""
    p = space.p
    if p <= 1.0:
        raise InputError("the two-point inequalities need p > 1 (finite conjugate)")
    q = space.q
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    nx = norm_batch(X, space)
    ny = norm_batch(Y, space)
    ns = norm_batch(X + Y, space)
    nd = norm_batch(X - Y, space)

    A = nx**p + ny**p
    S_p = ns**p + nd**p
    S_q = ns**q + nd**q
    A_q1 = A ** (q - 1.0)
    B_p1 = (nx**q + ny**q) ** (p - 1.0)

    if p >= 2.0:
        direction = "stated"
        r3_lower = S_p - 2.0 * A
        r3_upper = 2.0 ** (p - 1.0) * A - S_p
        r4 = S_q - 2.0 * A_q1
        r5 = 2.0 * B_p1 - S_p
    else:
        direction = "reversed"
        r3_lower = 2.0 * A - S_p
        r3_upper = S_p - 2.0 ** (p - 1.0) * A
        r4 = 2.0 * A_q1 - S_q
        r5 = S_p - 2.0 * B_p1

    scale3 = np.maximum(np.maximum(2.0 * A, S_p), 2.0 ** (p - 1.0) * A)
    scale4 = np.maximum(2.0 * A_q1, S_q)
    scale5 = np.maximum(S_p, 2.0 * B_p1)
    return {
        "direction": direction,
        "r3_lower": r3_lower,
        "r3_upper": r3_upper,
        "r4": r4,
        "r5": r5,
        "scale3": scale3,
        "scale4": scale4,
        "scale5": scale5,
    }


def clarkson_check(x, y, space: SpaceParams) -> ClarksonReport:
    r = clarkson_residuals(np.asarray(x)[None, :], np.asarray(y)[None, :], space)
    direction = r.pop("direction")
    return ClarksonReport(p=space.p, direction=direction, **{k: float(v[0]) for k, v in r.items()})


def uniform_convexity_check(x, y, eps: float, space: SpaceParams) -> bool:
    """Midpoint contraction for two unit vectors at separation >= eps.

    Preconditions (InputError if violated): |x| = |y| = 1 within 1e-9
    and |x - y| >= eps with eps in (0, 2]. Returns whether the midpoint
    norm is at most 1 - delta_p(eps) + 1e-12.
    """
    _require_p_in_unit_interval(space.p)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = float(norm_batch(x, space))
    ny = float(norm_batch(y, space))
    if abs(nx - 1.0) > 1e-9 or abs(ny - 1.0) > 1e-9:
        raise InputError(f"x and y must be unit vectors, got norms {nx}, {ny}")
    sep = float(norm_batch(x - y, space))
    if not (0.0 < eps <= 2.0):
        raise InputError(f"eps must lie in (0, 2], got {eps}")
    if sep < eps - 1e-12:
        raise InputError(f"|x - y| = {sep} is below the stated separation {eps}")
    mid = float(norm_batch((x + y) / 2.0, space))
    return mid <= 1.0 - delta_p(eps, space.p) + 1e-12


def _lambert_w_from_log(L: float) -> float:
    """The w > 0 with log(w) + w = L, by Newton on v = log w.

    v + e^v - L is convex and increasing in v and positive at the start
    (v = L for L <= 1, v = log L above), so the steps fall monotonically
    to the root. The result must solve the equation to 1e-12 relative in
    w: |v + w - L| <= 1e-12 (1 + w), the size of one more Newton step.
    """
    v = L if L <= 1.0 else math.log(L)
    for _ in range(200):
        ev = math.exp(v)
        step = (v + ev - L) / (1.0 + ev)
        v -= step
        if abs(step) <= 1e-15 * max(1.0, abs(v)):
            break
    w = math.exp(v)
    resid = abs(v + w - L) / (1.0 + w)
    if not resid <= 1e-12:
        raise ComputationError(f"lambert_w residual {resid} above 1e-12 at log x = {L}")
    return w


def lambert_w(x: float) -> float:
    """Principal Lambert W for x > 0: the w with w * e^w = x (``_lambert_w_from_log``)."""
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise InputError(f"lambert_w needs a positive finite argument, got {x}")
    return _lambert_w_from_log(math.log(x))


@dataclass(frozen=True)
class DensityBound:
    """Packing density floor in dimension n from the constant chain.

    ``bound`` is the large-n closed form log(2/c_p) * n / 2^n and
    ``fugacity_threshold`` = 1/(n c_p^n) is the activity at which the
    grand canonical argument reaches it. :meth:`alpha_floor` gives the
    finite-n floor at any activity.
    """

    n: int
    p: float
    c_p: float
    bound: float
    fugacity_threshold: float
    chain: ConstantChain

    def alpha_floor(self, fugacity: float) -> tuple[float, float]:
        """(z_star, floor): expected density per unit volume is >= floor.

        z_star = W(lam * 2^n * exp(2 * lam * c_p^n)) and the floor is
        lam * exp(-z_star). Computed through the log form so large n or
        large activity cannot overflow.
        """
        lam = float(fugacity)
        if not (lam > 0.0) or not math.isfinite(lam):
            raise InputError(f"fugacity must be positive and finite, got {lam}")
        cpn = self.c_p**self.n
        log_arg = math.log(lam) + self.n * math.log(2.0) + 2.0 * lam * cpn
        z_star = _lambert_w_from_log(log_arg)
        return z_star, lam * math.exp(-z_star)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "c_p": self.c_p,
            "bound": self.bound,
            "fugacity_threshold": self.fugacity_threshold,
        }


def density_lower_bound(n: int, p: float) -> DensityBound:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"dimension n must be a positive integer, got {n!r}")
    chain = compute_constant_chain(p)
    c_p = chain.c_p
    bound = math.log(2.0 / c_p) * n / 2.0**n
    threshold = c_p ** (-float(n)) / n
    return DensityBound(
        n=int(n),
        p=chain.p,
        c_p=c_p,
        bound=bound,
        fugacity_threshold=threshold,
        chain=chain,
    )
