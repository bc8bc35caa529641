"""Closed-form risk and error bounds, and their inversion into curves.

Four bound families are implemented:

* detection achievability: the minimized two-exponential Chernoff bound on the
  risk of the sum-of-inner-products threshold test;
* detection converse: an unconditional second-moment risk lower bound plus a
  sharper truncated variant driven by a subset-truncation schedule;
* recovery achievability: union bound on the exact-alignment error of the ML
  decoder;
* recovery converse: lower bound on the error of any alignment decoder.

All bound functions accept real-valued n and d (curves sample non-integer
grid points) and evaluate large powers in log space.  ``invert_for_rho2``
turns any of them into the squared correlation needed to meet a target risk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import parallel_map
from .errors import (
    ConditionViolatedError,
    DomainError,
    InversionUndefinedError,
)

BOUND_KINDS = ("det-ach", "det-conv", "rec-ach", "rec-conv")


# ---------------------------------------------------------------------------
# Chernoff exponents for the threshold test
# ---------------------------------------------------------------------------


def _as_float_or_array(x, scalar: bool):
    return float(x) if scalar else x


def g_fa(gamma):
    """False-alarm exponent of the threshold test at tuning parameter gamma.

    g_fa(gamma) = sqrt(1+gamma) - 1 - ln((1 + sqrt(1+gamma)) / 2),
    evaluated in a cancellation-free form (accurate down to gamma ~ 1e-300).
    Accepts scalars or arrays; nonnegative and increasing.
    """
    g = np.asarray(gamma, dtype=np.float64)
    scalar = g.ndim == 0
    if np.any(g < 0.0):
        raise DomainError("gamma must be nonnegative")
    s = np.expm1(0.5 * np.log1p(g))  # sqrt(1+gamma) - 1
    out = s - np.log1p(0.5 * s)
    return _as_float_or_array(out, scalar)


def g_md(gamma, rho):
    """Missed-detection exponent of the threshold test.

    g_md(gamma, rho) = (sqrt((1-rho^2)^2 + gamma) - sqrt(rho^2 * gamma))
    / (1-rho^2) - 1 - ln((1-rho^2 + sqrt((1-rho^2)^2 + gamma)) / 2).

    Collapses to ``g_fa`` at rho = 0 and tends to -ln(1-rho^2) as gamma -> 0.
    """
    rho = float(rho)
    if abs(rho) >= 1.0:
        raise DomainError("|rho| must be < 1")
    if rho == 0.0:
        return g_fa(gamma)
    g = np.asarray(gamma, dtype=np.float64)
    scalar = g.ndim == 0
    if np.any(g < 0.0):
        raise DomainError("gamma must be nonnegative")
    u = 1.0 - rho * rho
    q = np.hypot(u, np.sqrt(g))  # sqrt(u^2 + gamma)
    q_minus_u = g / (q + u)
    out = (
        q_minus_u / u
        - abs(rho) * np.sqrt(g) / u
        - math.log(u)
        - np.log1p(q_minus_u / (2.0 * u))
    )
    return _as_float_or_array(out, scalar)


def _two_exp_bound(gamma, d: float, rho: float):
    """exp(-d/2 g_fa) + exp(-d/2 g_md), in log space; vectorized in gamma."""
    la = -0.5 * d * np.asarray(g_fa(gamma))
    lb = -0.5 * d * np.asarray(g_md(gamma, rho))
    return np.exp(np.logaddexp(la, lb))


def _golden_min(f, a: float, b: float, rel_tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimization on [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        fbest = min(f1, f2)
        if abs(f1 - f2) <= rel_tol * max(abs(fbest), 1e-300):
            break
    return (x1, f1) if f1 < f2 else (x2, f2)


def minimize_two_exponent(d: float, rho2: float) -> tuple[float, float]:
    """Minimize the two-exponential risk bound over gamma in (0, 4 rho^2).

    A 64-point coarse scan guards against non-unimodality before a
    golden-section refinement; gamma = rho^2 (the balanced choice) is always
    kept as a candidate.  Returns (gamma, bound).
    """
    if not 0.0 < rho2 < 1.0:
        raise DomainError("rho2 must lie in (0, 1)")
    if d < 1.0:
        raise DomainError("d must be >= 1")
    rho = math.sqrt(rho2)
    hi = 4.0 * rho2
    eps = 1e-12 * hi
    grid = np.linspace(eps, hi - eps, 64)
    vals = _two_exp_bound(grid, d, rho)
    i = int(np.argmin(vals))
    lo_b = grid[max(i - 1, 0)]
    hi_b = grid[min(i + 1, grid.size - 1)]

    def f(gamma: float) -> float:
        return float(_two_exp_bound(gamma, d, rho))

    x, fx = _golden_min(f, float(lo_b), float(hi_b))
    candidates = [(x, fx), (float(grid[i]), float(vals[i])), (rho2, f(rho2))]
    return min(candidates, key=lambda t: t[1])


def detection_ach_risk(d: float, rho2: float) -> float:
    """Guaranteed risk of the optimally tuned threshold test.

    Always at most 2 exp(-d rho^2 / 60); d may be any real >= 1 so curves
    stay smooth.
    """
    return minimize_two_exponent(d, rho2)[1]


def chernoff_lambdas(t: float, n: float, d: float, rho: float) -> tuple[float, float]:
    """Closed-form optimizers of the two Chernoff objectives at threshold t.

    Requires 0 < t < |rho| n d.  The false-alarm optimizer lies in (0, 1/n)
    and the missed-detection optimizer in (0, 1/(n(1-|rho|))), matching the
    convergence strips of the statistic's moment generating functions.
    """
    rho = float(rho)
    if rho == 0.0 or abs(rho) >= 1.0:
        raise DomainError("rho must be nonzero with |rho| < 1")
    if not 0.0 < t < abs(rho) * n * d:
        raise DomainError(f"t must lie in (0, |rho| n d) = (0, {abs(rho) * n * d})")
    a = d / (2.0 * t)
    inv_n2 = 1.0 / (n * n)
    # sqrt(1/n^2 + a^2) - a without cancellation for large a
    lam_fa = inv_n2 / (math.hypot(1.0 / n, a) + a)
    u = 1.0 - rho * rho
    c = 1.0 / (n * u)
    lam_md = abs(rho) * c - c * c / (math.hypot(c, a) + a)
    return lam_fa, lam_md


def log_mgf_alt(lam: float, n: float, d: float, rho: float) -> float:
    """Log moment generating function of the statistic under the correlated law.

    -(d/2) ln(1 - 2 n lam |rho| - n^2 lam^2 (1-rho^2)), valid for
    lam in (-1/(n(1-|rho|)), 1/(n(1+|rho|))).  rho = 0 recovers the null MGF.
    Stays finite where ``mgf_alt`` underflows to 0 (large d).
    """
    rho = float(rho)
    if abs(rho) >= 1.0:
        raise DomainError("|rho| must be < 1")
    base = 1.0 - 2.0 * n * lam * abs(rho) - (n * lam) ** 2 * (1.0 - rho * rho)
    lo = -1.0 / (n * (1.0 - abs(rho)))
    hi = 1.0 / (n * (1.0 + abs(rho)))
    if not (lo < lam < hi) or base <= 0.0:
        raise DomainError(
            f"lambda = {lam} outside the MGF strip ({lo}, {hi}) "
            "(bound constraint 1 - 2 n lam |rho| - n^2 lam^2 (1-rho^2) > 0)"
        )
    return -0.5 * d * math.log(base)


def mgf_alt(lam: float, n: float, d: float, rho: float) -> float:
    """Moment generating function of the statistic under the correlated law.

    (1 - 2 n lam |rho| - n^2 lam^2 (1-rho^2))^(-d/2); see ``log_mgf_alt``.
    """
    return math.exp(log_mgf_alt(lam, n, d, rho))


def mgf_null(lam: float, n: float, d: float) -> float:
    """Moment generating function of the statistic under independence."""
    if not abs(lam) < 1.0 / n:
        raise DomainError(f"lambda must satisfy |lambda| < 1/n = {1.0 / n}")
    return math.exp(-0.5 * d * math.log1p(-(n * lam) ** 2))


# ---------------------------------------------------------------------------
# Detection converse bounds
# ---------------------------------------------------------------------------


def unconditional_converse_risk(n: float, d: float, rho2: float) -> float:
    """Second-moment risk lower bound: max(0, 1 - sqrt((1-rho^2)^(-dn) - 1))."""
    if not 0.0 <= rho2 < 1.0:
        raise DomainError("rho2 must lie in [0, 1)")
    e = -float(d) * float(n) * math.log1p(-rho2)  # dn ln(1/(1-rho^2)) >= 0
    if e > 700.0:
        return 0.0
    return max(0.0, 1.0 - math.sqrt(math.expm1(e)))


def default_k_star(n: float) -> int:
    """Default truncation depth: ceil(13 sqrt(n)), clamped to n."""
    return int(min(math.floor(n), math.ceil(13.0 * math.sqrt(n))))


@dataclass(frozen=True, eq=False)
class TruncationSchedule:
    """Per-subset-size thresholds defining the truncation event.

    For each subset size k in ``ks`` (k_star .. floor(n)) the event requires
    the squared norms over any k matched rows of either database to exceed
    ``w[k]`` while their aligned inner-product sum stays below ``v[k]``.
    """

    k_star: int
    ks: np.ndarray
    r: np.ndarray
    s: np.ndarray
    w: np.ndarray
    v: np.ndarray
    r_below_half_sqrt_d: bool
    r_above_floor: bool
    s_above_floor: bool
    w_positive: bool

    @property
    def valid(self) -> bool:
        return (
            self.r_below_half_sqrt_d
            and self.r_above_floor
            and self.s_above_floor
            and self.w_positive
        )


def truncation_schedule(
    n: float,
    d: float,
    rho2: float,
    k_star: int | None = None,
    margin: float = 0.1,
) -> TruncationSchedule:
    """Build the truncation thresholds r_k, s_k, w_k, v_k for k = k_star..n.

    ``r_k = (1+margin) sqrt(ln(en/k))`` and
    ``s_k = (1+margin) sqrt(ln(en/k)) max(2, sqrt((1-rho^2)/rho^2))``, which
    satisfy the strict floor inequalities for any margin > 0; the remaining
    flags (r_k < sqrt(d)/2, w_k > 0) depend on d and are recorded on the
    result.  Raises ``ConditionViolatedError`` when d < 4 ln(en/k_star),
    when k_star is out of range, or when margin <= 0.
    """
    if not 0.0 < rho2 < 1.0:
        raise ConditionViolatedError("truncation schedule requires 0 < rho2 < 1")
    if margin <= 0.0:
        raise ConditionViolatedError("margin must be > 0")
    n_top = int(math.floor(n))
    if k_star is None:
        k_star = default_k_star(n)
    if not 1 <= k_star <= n_top:
        raise ConditionViolatedError(f"k_star must lie in [1, {n_top}], got {k_star}")
    ln_star = 1.0 + math.log(n / k_star)  # ln(en/k_star)
    if d < 4.0 * ln_star:
        raise ConditionViolatedError(
            f"d >= 4 ln(en/k_star) fails: d = {d}, 4 ln(en/k_star) = {4.0 * ln_star}"
        )
    ks = np.arange(k_star, n_top + 1, dtype=np.float64)
    ln_terms = 1.0 + np.log(n / ks)
    floor_r = np.sqrt(ln_terms)
    mult = max(2.0, math.sqrt((1.0 - rho2) / rho2))
    r = (1.0 + margin) * floor_r
    s = r * mult
    rho = math.sqrt(rho2)
    sqrt_d = math.sqrt(d)
    w = d * ks - 2.0 * sqrt_d * ks * r
    v = rho * d * ks + 4.0 * rho * sqrt_d * ks * s
    return TruncationSchedule(
        k_star=int(k_star),
        ks=ks,
        r=r,
        s=s,
        w=w,
        v=v,
        r_below_half_sqrt_d=bool(np.all(r < 0.5 * sqrt_d)),
        r_above_floor=bool(np.all(r > floor_r)),
        s_above_floor=bool(np.all(s > floor_r * mult)),
        w_positive=bool(np.all(w > 0.0)),
    )


@dataclass(frozen=True)
class TruncationExponents:
    """Exponential rates governing the truncated converse.

    ``deficit_norm`` and ``deficit_cross`` control how unlikely the
    truncation event is to fail (norm tails and cross-term tails
    respectively); ``second_moment`` controls the truncated second moment's
    subset series.  The truncated bound is informative only when all three
    are positive.
    """

    deficit_norm: float
    deficit_cross: float
    second_moment: float


def truncation_exponents(
    schedule: TruncationSchedule, n: float, d: float, rho2: float
) -> TruncationExponents:
    """Minima over k of the three rate expressions for a given schedule."""
    rho = math.sqrt(rho2)
    u = 1.0 - rho2
    ks = schedule.ks
    ln_terms = 1.0 + np.log(n / ks)
    psi1 = float(np.min(schedule.r**2 - ln_terms))
    sqrt_d = math.sqrt(d)
    s = schedule.s
    four_way = np.minimum.reduce(
        [
            np.full_like(s, 1.0 / rho),
            np.full_like(s, 2.0 / math.sqrt(u)),
            s / (rho * sqrt_d),
            4.0 * rho * s / (u * sqrt_d),
        ]
    )
    psi2 = float(np.min((rho * sqrt_d * s / 4.0) * four_way - ln_terms))
    drift = schedule.w / ks - schedule.v / (ks * rho)
    psi = float(
        np.min(
            -(d * n / (2.0 * ks)) * (rho2**2 / (1.0 - rho2**2))
            - d * rho2 / u
            + (2.0 * rho2 / u) * drift
            + np.log(ks) - 1.0
        )
    )
    return TruncationExponents(deficit_norm=psi1, deficit_cross=psi2, second_moment=psi)


def truncated_converse_risk(
    n: float,
    d: float,
    rho2: float,
    k_star: int | None = None,
    margin: float = 0.1,
) -> float:
    """Truncated second-moment risk lower bound, never below the unconditional one.

    Combines the truncation-deficit bound D1 with the truncated second-moment
    bound B2 into max(0, 1 - (sqrt(B2 - 1 + 2 D1) + D1)).  Whenever the
    schedule preconditions or validity flags fail, or any rate is
    nonpositive, or an intermediate quantity overflows, the truncated part
    carries no information and the unconditional bound is returned instead.
    """
    if not 0.0 <= rho2 < 1.0:
        raise DomainError("rho2 must lie in [0, 1)")
    uncond = unconditional_converse_risk(n, d, rho2)
    if rho2 == 0.0:
        return uncond
    try:
        schedule = truncation_schedule(n, d, rho2, k_star=k_star, margin=margin)
    except ConditionViolatedError:
        return uncond
    if not schedule.valid:
        return uncond
    rates = truncation_exponents(schedule, n, d, rho2)
    m = min(rates.deficit_norm, rates.deficit_cross)
    psi = rates.second_moment
    if m <= 0.0 or psi <= 0.0:
        return uncond
    ks = schedule.k_star
    log_d1 = math.log(4.0) - ks * m - math.log(-math.expm1(-m))
    if log_d1 > 50.0:
        return uncond
    d1 = math.exp(log_d1)
    u = 1.0 - rho2
    t1 = 0.5 * d * n * (rho2 / u) ** 2 + d * ks * rho2 / u
    log_tail = -ks * psi - math.log(-math.expm1(-psi))
    if t1 > 700.0 or log_tail > 700.0:
        return uncond
    b2 = math.exp(t1) + math.exp(log_tail)
    value = 1.0 - (math.sqrt(b2 - 1.0 + 2.0 * d1) + d1)
    return max(0.0, value, uncond)


# ---------------------------------------------------------------------------
# Recovery bounds
# ---------------------------------------------------------------------------


def recovery_ach_perr(n: float, d: float, rho2: float) -> float:
    """Union bound on the ML alignment error: b (1 - b^n) / (1 - b).

    Here b = n (1-rho^2)^(d/4), handled in log space; the removable
    singularity at b = 1 takes its geometric-series limit value n.
    """
    if not 0.0 <= rho2 < 1.0:
        raise DomainError("rho2 must lie in [0, 1)")
    log_b = math.log(n) + 0.25 * d * math.log1p(-rho2)
    if log_b == 0.0:
        return float(n)
    a = n * log_b
    if a > 690.0:
        return math.inf
    ratio = math.expm1(a) / math.expm1(log_b)  # (1 - b^n) / (1 - b), sign-safe
    return math.exp(log_b) * ratio


def recovery_conv_perr(n: float, d: float, rho2: float, epsilon_d: float = 0.0) -> float:
    """Error lower bound for any alignment decoder: max(0, 1 - a^-2 - 4/a).

    Here a = n (1-rho^2)^((d/4)(1+epsilon_d)); the exponent correction
    epsilon_d must be supplied by the caller (it defaults to zero, the
    asymptotically exact choice).
    """
    if not 0.0 <= rho2 < 1.0:
        raise DomainError("rho2 must lie in [0, 1)")
    if epsilon_d < 0.0:
        raise DomainError("epsilon_d must be nonnegative")
    log_a = math.log(n) + 0.25 * d * (1.0 + epsilon_d) * math.log1p(-rho2)
    if log_a <= 0.0:
        # a <= 1 drives the expression to 1 - 1 - 4 or below.
        return 0.0
    return max(0.0, 1.0 - math.exp(-2.0 * log_a) - 4.0 * math.exp(-log_a))


# ---------------------------------------------------------------------------
# Monotone inversion and curves
# ---------------------------------------------------------------------------


def _bound_callable(kind, n, d, target_risk, k_star, margin, epsilon_d):
    """The decreasing function f(rho2) and its crossing target for a kind.

    Conventions (documented in the CLI manual):

    * ``det-ach``:  smallest rho2 with detection_ach_risk(d, rho2) <= target.
    * ``det-conv``: largest rho2 with truncated_converse_risk >= target
      (below the returned rho2 the certified risk exceeds the target, so no
      test can meet it).
    * ``rec-ach``:  smallest rho2 with recovery_ach_perr <= target / 2 (the
      alignment stage is granted half of the detection risk budget).
    * ``rec-conv``: largest rho2 with recovery_conv_perr >= target.
    """
    if kind == "det-ach":
        return (lambda r2: detection_ach_risk(d, r2)), target_risk, "ach"
    if kind == "det-conv":
        return (
            lambda r2: truncated_converse_risk(n, d, r2, k_star=k_star, margin=margin),
            target_risk,
            "conv",
        )
    if kind == "rec-ach":
        return (lambda r2: recovery_ach_perr(n, d, r2)), 0.5 * target_risk, "ach"
    if kind == "rec-conv":
        return (
            lambda r2: recovery_conv_perr(n, d, r2, epsilon_d=epsilon_d),
            target_risk,
            "conv",
        )
    raise DomainError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")


_PRESCAN = np.unique(
    np.concatenate(
        [
            np.geomspace(1e-13, 0.5, 21),
            1.0 - np.geomspace(1e-9, 0.5, 21),
        ]
    )
)


#: Absolute width in rho2 at which ``invert_for_rho2`` stops bisecting.
INVERT_TOL = 1e-10


def invert_for_rho2(
    bound_kind: str,
    n: float,
    d: float,
    target_risk: float,
    *,
    k_star: int | None = None,
    margin: float = 0.1,
    epsilon_d: float = 0.0,
) -> float:
    """Squared correlation at which a bound family meets a target risk.

    Every implemented bound decreases in rho2, which a coarse pre-scan
    asserts before bisecting to absolute width ``INVERT_TOL``.  The
    bisection brackets the end of the pre-scan prefix where the bound is
    still on the high side of the target (``> target`` for achievability,
    ``>= target`` for converses) and reports the bracket's high end for
    achievability, its low end for converses.  Raises
    ``InversionUndefinedError`` when the target is never crossed on (0, 1)
    or monotonicity fails.
    """
    if not 0.0 < target_risk < 1.0:
        raise DomainError("target_risk must lie in (0, 1)")
    f, target, mode = _bound_callable(
        bound_kind, n, d, target_risk, k_star, margin, epsilon_d
    )
    vals = np.array([f(float(r2)) for r2 in _PRESCAN])
    finite = vals[np.isfinite(vals)]
    if finite.size >= 2:
        increases = np.diff(finite) > 1e-9 * np.maximum(np.abs(finite[:-1]), 1.0)
        if np.any(increases):
            raise InversionUndefinedError(
                f"{bound_kind} bound is not decreasing in rho2; inversion undefined"
            )

    high = operator.gt if mode == "ach" else operator.ge
    high_side = high(vals, target)
    if not high_side[0]:
        if mode == "ach":
            return float(_PRESCAN[0])
        raise InversionUndefinedError(
            f"{bound_kind} bound is below target {target} everywhere on (0, 1)"
        )
    if high_side[-1]:
        if mode == "conv":
            return float(_PRESCAN[-1])
        raise InversionUndefinedError(
            f"{bound_kind} bound never reaches target {target} on (0, 1)"
        )
    j = int(np.argmin(high_side))  # first pre-scan point past the crossing
    lo, hi = float(_PRESCAN[j - 1]), float(_PRESCAN[j])
    while hi - lo > INVERT_TOL:
        mid = 0.5 * (lo + hi)
        if high(f(mid), target):
            lo = mid
        else:
            hi = mid
    return hi if mode == "ach" else lo


@dataclass(frozen=True)
class BoundCurvePoint:
    """One curve row: the axis value and up to four rho^2 bound values.

    The fields, in ``BOUND_KINDS`` order after ``axis``, are the columns of
    the curve report; None marks an undefined inversion.
    """

    axis: float
    rho2_det_ach: float | None
    rho2_det_conv: float | None
    rho2_rec_ach: float | None
    rho2_rec_conv: float | None

    @property
    def converse_exceeds_achievable(self) -> bool:
        """Whether the detection converse lies above the achievable rho^2.

        Both are bounds on the same threshold, so this ordering violation
        means one of them is wrong; undefined values never violate it.
        """
        return (
            self.rho2_det_ach is not None
            and self.rho2_det_conv is not None
            and self.rho2_det_conv > self.rho2_det_ach
        )


def _curve_point(args) -> tuple[BoundCurvePoint, list[str]]:
    axis_value, n, d, target_risk, k_star, margin, epsilon_d = args
    values: list[float | None] = []
    notes: list[str] = []
    for kind in BOUND_KINDS:
        try:
            values.append(
                invert_for_rho2(
                    kind,
                    n,
                    d,
                    target_risk,
                    k_star=k_star,
                    margin=margin,
                    epsilon_d=epsilon_d,
                )
            )
        except InversionUndefinedError as exc:
            values.append(None)
            notes.append(f"axis={axis_value!r} {kind}: {exc}")
    return BoundCurvePoint(float(axis_value), *values), notes


def curve_points(
    axis: str,
    values,
    *,
    n: float | None = None,
    d: float | None = None,
    target_risk: float = 0.1,
    k_star: int | None = None,
    margin: float = 0.1,
    epsilon_d: float = 0.0,
    workers: int = 1,
) -> tuple[list[BoundCurvePoint], list[str]]:
    """Evaluate all four bound inversions along a grid of d or n values.

    Returns the points in grid order along with diagnostic notes for grid
    points where an inversion was undefined (those fields are None).
    Evaluation is pure, so the result is identical for any worker count.
    """
    if axis not in ("d", "n"):
        raise DomainError("axis must be 'd' or 'n'")
    if axis == "d" and n is None:
        raise DomainError("axis='d' sweeps require a fixed n")
    if axis == "n" and d is None:
        raise DomainError("axis='n' sweeps require a fixed d")
    tasks = []
    for v in values:
        v = float(v)
        nn = v if axis == "n" else float(n)
        dd = v if axis == "d" else float(d)
        tasks.append((v, nn, dd, target_risk, k_star, margin, epsilon_d))
    results = parallel_map(_curve_point, tasks, workers)
    points = [p for p, _ in results]
    notes = [msg for _, msgs in results for msg in msgs]
    notes += [
        f"axis={p.axis!r}: detection converse exceeds achievable"
        for p in points
        if p.converse_exceeds_achievable
    ]
    return points, notes
