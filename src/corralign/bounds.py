"""Closed-form risk and error bounds, and their inversion into curves.

Four bound families are implemented:

* detection achievability: the minimized two-exponential Chernoff bound on the
  risk of the sum-of-inner-products threshold test;
* detection converse: an unconditional second-moment risk lower bound plus a
  sharper truncated variant driven by a subset-truncation schedule, which
  the converse evaluates at its two end subset sizes only;
* recovery achievability: union bound on the exact-alignment error of the ML
  decoder;
* recovery converse: lower bound on the error of any alignment decoder.

All bound functions accept real-valued n and d (curves sample non-integer
grid points) and evaluate large powers in log space.  ``invert_for_rho2``
turns any of them into the squared correlation needed to meet a target risk.

``invert_for_rho2``, ``minimize_two_exponent`` and ``detection_ach_risk``
also take arrays, one lane per point: ``curve_points`` inverts a block of
grid points at once.  Lanes step together but never mix, so each gets the
floats of its own scalar call (see docs/math_notes.md, section 3).
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


def _g_fa(g):
    s = np.expm1(0.5 * np.log1p(g))  # sqrt(1+gamma) - 1
    return s - np.log1p(0.5 * s)


def g_fa(gamma):
    """False-alarm exponent of the threshold test at tuning parameter gamma.

    g_fa(gamma) = sqrt(1+gamma) - 1 - ln((1 + sqrt(1+gamma)) / 2),
    evaluated in a cancellation-free form (accurate down to gamma ~ 1e-300).
    Accepts scalars or arrays; nonnegative and increasing.
    """
    g = np.asarray(gamma, dtype=np.float64)
    if np.any(g < 0.0):
        raise DomainError("gamma must be nonnegative")
    value = _g_fa(g)
    return float(value) if g.ndim == 0 else value


def _g_md(g, abs_rho, u, log_u):
    """``g_md`` without checks, elementwise; u = 1 - rho^2 and log_u = ln u."""
    root = np.sqrt(g)
    q = np.hypot(u, root)  # sqrt(u^2 + gamma)
    q_minus_u = g / (q + u)
    return q_minus_u / u - abs_rho * root / u - log_u - np.log1p(q_minus_u / (2.0 * u))


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
    if np.any(g < 0.0):
        raise DomainError("gamma must be nonnegative")
    u = 1.0 - rho * rho
    value = _g_md(g, abs(rho), u, math.log(u))
    return float(value) if g.ndim == 0 else value


def _two_exp_bound(gamma, neg_half_d, abs_rho, u, log_u):
    """exp(-d/2 g_fa) + exp(-d/2 g_md), in log space; elementwise in all arguments."""
    la = neg_half_d * _g_fa(gamma)
    lb = neg_half_d * _g_md(gamma, abs_rho, u, log_u)
    return np.exp(np.logaddexp(la, lb))


def _golden_min(f, a, b, *lane_args, rel_tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimization of many lanes at once; returns (x, f(x)).

    Lane i minimizes ``f(x, *(arg[i] for arg in lane_args))`` on
    [a[i], b[i]]; ``f`` is elementwise over arrays.  The lanes step together
    but never mix, and each stops at its own tolerance, so every lane
    follows the arithmetic of a search run on it alone.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x_out, f_out = np.empty(a.size), np.empty(a.size)
    lanes = np.arange(a.size)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1, *lane_args), f(x2, *lane_args)
    for _ in range(max_iter if a.size else 0):
        left = f1 < f2  # keep [a, x2], else [x1, b]
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        step = invphi * (b - a)
        x = np.where(left, b - step, a + step)
        fx = f(x, *lane_args)
        x1, f1, x2, f2 = (
            np.where(left, x, x2),
            np.where(left, fx, f2),
            np.where(left, x1, x),
            np.where(left, f1, fx),
        )
        fbest = np.minimum(f1, f2)
        done = np.abs(f1 - f2) <= rel_tol * np.maximum(np.abs(fbest), 1e-300)
        if done.any():
            first = f1[done] < f2[done]
            x_out[lanes[done]] = np.where(first, x1[done], x2[done])
            f_out[lanes[done]] = np.where(first, f1[done], f2[done])
            keep = ~done
            if not keep.any():
                return x_out, f_out
            lanes, a, b, x1, x2, f1, f2 = (v[keep] for v in (lanes, a, b, x1, x2, f1, f2))
            lane_args = tuple(v[keep] for v in lane_args)
    first = f1 < f2
    x_out[lanes] = np.where(first, x1, x2)
    f_out[lanes] = np.where(first, f1, f2)
    return x_out, f_out


#: Most lanes one lockstep ``minimize_two_exponent`` pass holds; a larger
#: call runs in passes of this many, so its scan stays near 130 kB per array.
LANE_CAP = 256


def minimize_two_exponent(d, rho2):
    """Minimize the two-exponential risk bound over gamma in (0, 4 rho^2).

    A 64-point coarse scan guards against non-unimodality before a
    golden-section refinement; gamma = rho^2 (the balanced choice) is always
    kept as a candidate.  Returns (gamma, bound): floats for scalar inputs.
    Array inputs broadcast to one lane per (d, rho^2) pair, and each lane
    gets the floats its scalar call would.  The lanes run in lockstep, at
    most ``LANE_CAP`` at a time.
    """
    d_in, r2_in = np.broadcast_arrays(
        np.asarray(d, dtype=np.float64), np.asarray(rho2, dtype=np.float64)
    )
    dd, r2 = d_in.ravel(), r2_in.ravel()
    if not np.all((0.0 < r2) & (r2 < 1.0)):
        raise DomainError("rho2 must lie in (0, 1)")
    if not np.all(dd >= 1.0):  # NaN fails this too
        raise DomainError("d must be >= 1")
    passes = [_minimize_lanes(dd[i : i + LANE_CAP], r2[i : i + LANE_CAP])
              for i in range(0, max(r2.size, 1), LANE_CAP)]
    if not d_in.shape:
        return float(passes[0][0][0]), float(passes[0][1][0])
    gamma, bound = (np.concatenate(parts).reshape(d_in.shape) for parts in zip(*passes))
    return gamma, bound


def _linspace_lanes(start, stop, num: int):
    """Row i is ``np.linspace(start[i], stop[i], num)``, bit for bit.

    An array call of ``np.linspace`` takes its divide-first path for every
    row once any row's step underflows to 0; here each row takes its own.
    """
    delta = (stop - start)[:, None]
    step = delta / (num - 1)
    k = np.arange(num, dtype=np.float64)
    rows = np.where(step == 0.0, k / (num - 1) * delta, k * step) + start[:, None]
    rows[:, -1] = stop
    return rows


def _minimize_lanes(d, rho2):
    """``minimize_two_exponent`` on 1-D lanes, all in one lockstep pass."""
    rho = np.sqrt(rho2)
    u = 1.0 - rho * rho
    # math.log, as the scalar g_md takes it; numpy's log may differ in the last bit.
    lane_args = (-0.5 * d, rho, u, np.array([math.log(x) for x in u.tolist()]))
    hi = 4.0 * rho2
    eps = 1e-12 * hi
    grid = _linspace_lanes(eps, hi - eps, 64)
    # At huge d a scan point can overflow to inf; it is never the minimum.
    with np.errstate(over="ignore"):
        vals = _two_exp_bound(grid, *(v[:, None] for v in lane_args))
    lanes = np.arange(rho2.size)
    i = np.argmin(vals, axis=1)
    lo_b = grid[lanes, np.maximum(i - 1, 0)]
    hi_b = grid[lanes, np.minimum(i + 1, grid.shape[1] - 1)]
    gamma, bound = _golden_min(_two_exp_bound, lo_b, hi_b, *lane_args)
    # The first smallest of (golden, scan, balanced), as min() over the three.
    candidates = ((grid[lanes, i], vals[lanes, i]), (rho2, _two_exp_bound(rho2, *lane_args)))
    for cand_gamma, cand_bound in candidates:
        better = cand_bound < bound
        gamma = np.where(better, cand_gamma, gamma)
        bound = np.where(better, cand_bound, bound)
    return gamma, bound


def detection_ach_risk(d, rho2):
    """Guaranteed risk of the optimally tuned threshold test.

    Always at most 2 exp(-d rho^2 / 60); d may be any real >= 1 so curves
    stay smooth.  Array inputs give one risk per lane, as in
    ``minimize_two_exponent``.
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


#: Most subset sizes (k_star .. floor(n)) ``truncation_schedule`` builds; a
#: longer schedule raises ``ConditionViolatedError``.  The converse reads only
#: the two end sizes, so the cap does not bind there.
SCHEDULE_CAP = 10**6


@dataclass(frozen=True, eq=False)
class TruncationSchedule:
    """Per-subset-size thresholds defining the truncation event.

    For each subset size k in ``ks`` (k_star .. floor(n)) the event requires
    the squared norms over any k matched rows of either database to exceed
    ``w[k]`` while their aligned inner-product sum stays below ``v[k]``.
    ``valid`` says whether every k meets the conditions the truncated
    converse needs: sqrt(ln(en/k)) < r_k < sqrt(d)/2, s_k above its floor
    sqrt(ln(en/k)) max(2, sqrt((1-rho^2)/rho^2)), and w_k > 0.  The arrays
    are read-only.
    """

    k_star: int
    ks: np.ndarray
    r: np.ndarray
    s: np.ndarray
    w: np.ndarray
    v: np.ndarray
    valid: bool


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


def _schedule_k_star(n: float, d: float, k_star: int | None, margin: float) -> int:
    """The schedule preconditions, but for the length cap; returns k_star or its default."""
    if not math.isfinite(d * n):
        raise ConditionViolatedError(f"d * n overflows the float range: d = {d}, n = {n}")
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
    return k_star


def _schedule(n, d, rho2, k_star, ks, margin) -> TruncationSchedule:
    """The thresholds at the subset sizes ``ks``, with ``valid`` over those sizes."""
    floor_r = np.sqrt(1.0 + np.log(n / ks))  # sqrt(ln(en/k)), the floor r_k must exceed
    r = (1.0 + margin) * floor_r
    w = d * ks - 2.0 * math.sqrt(d) * ks * r
    mult = max(2.0, math.sqrt((1.0 - rho2) / rho2))
    s = r * mult
    rho = math.sqrt(rho2)
    v = rho * d * ks + 4.0 * rho * math.sqrt(d) * ks * s
    valid = bool(
        np.all(r < 0.5 * math.sqrt(d))
        and np.all(r > floor_r)
        and np.all(w > 0.0)
        and np.all(s > floor_r * mult)
    )
    for values in (ks, r, s, w, v):
        values.setflags(write=False)
    return TruncationSchedule(int(k_star), ks, r, s, w, v, valid)


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
    satisfy the strict floor inequalities for any margin > 0; the conditions
    that depend on d (r_k < sqrt(d)/2, w_k > 0) go into ``valid``.  Raises
    ``ConditionViolatedError`` when d * n is not finite, when margin <= 0,
    when k_star is out of range, when d < 4 ln(en/k_star), or when the
    schedule would have more than ``SCHEDULE_CAP`` subset sizes.  All arrays
    are read-only.
    """
    if not 0.0 < rho2 < 1.0:
        raise ConditionViolatedError("truncation schedule requires 0 < rho2 < 1")
    k_star = _schedule_k_star(n, d, k_star, margin)
    n_top = int(math.floor(n))
    if n_top - k_star + 1 > SCHEDULE_CAP:
        raise ConditionViolatedError(
            f"schedule of {n_top - k_star + 1} subset sizes exceeds the cap {SCHEDULE_CAP}"
        )
    ks = np.arange(k_star, n_top + 1, dtype=np.float64)
    return _schedule(n, d, rho2, k_star, ks, margin)


def truncation_exponents(
    schedule: TruncationSchedule, n: float, d: float, rho2: float
) -> TruncationExponents:
    """Minima over k of the three rate expressions for a given schedule.

    Reads ``ks``, ``r``, ``s``, ``w`` and ``v`` of the schedule, so a
    schedule with edited thresholds gets the rates of its own values.
    """
    ks, s = schedule.ks, schedule.s
    ln_terms = 1.0 + np.log(n / ks)  # ln(en/k)
    rho = math.sqrt(rho2)
    u = 1.0 - rho2
    sqrt_d = math.sqrt(d)
    # Minima are exact, so the order of the four-way minimum is free.
    four_way = np.minimum(
        np.minimum(s / (rho * sqrt_d), 4.0 * rho * s / (u * sqrt_d)),
        min(1.0 / rho, 2.0 / math.sqrt(u)),
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
    return TruncationExponents(
        deficit_norm=float(np.min(schedule.r**2 - ln_terms)),
        deficit_cross=psi2,
        second_moment=psi,
    )


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
    schedule preconditions or validity conditions fail, or any rate is
    nonpositive, or an intermediate quantity overflows, the truncated part
    carries no information and the unconditional bound is returned instead.
    Every minimum over k sits at k_star or floor(n) (docs/math_notes.md,
    section 3), so the schedule is built on those two sizes alone.
    """
    if not 0.0 <= rho2 < 1.0:
        raise DomainError("rho2 must lie in [0, 1)")
    uncond = unconditional_converse_risk(n, d, rho2)
    if rho2 == 0.0:
        return uncond
    try:
        k_star = _schedule_k_star(n, d, k_star, margin)
    except ConditionViolatedError:
        return uncond
    u = 1.0 - rho2
    t1 = 0.5 * d * n * (rho2 / u) ** 2 + d * k_star * rho2 / u
    if t1 > 700.0:
        # B2 overflows whatever the schedule, so it is checked first.
        return uncond
    ends = np.unique(np.array([k_star, math.floor(n)], dtype=np.float64))
    schedule = _schedule(n, d, rho2, k_star, ends, margin)
    if not schedule.valid:
        return uncond
    rates = truncation_exponents(schedule, n, d, rho2)
    m = min(rates.deficit_norm, rates.deficit_cross)
    psi = rates.second_moment
    if m <= 0.0 or psi <= 0.0:
        return uncond
    log_d1 = math.log(4.0) - k_star * m - math.log(-math.expm1(-m))
    if log_d1 > 50.0:
        return uncond
    d1 = math.exp(log_d1)
    log_tail = -k_star * psi - math.log(-math.expm1(-psi))
    if log_tail > 700.0:
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


def _lane_risk(kind, n, d, k_star, margin, epsilon_d):
    """The bound of one (n, d) lane as a scalar function of rho2.

    Not used for ``det-ach``, whose lanes are evaluated together by array
    calls of ``detection_ach_risk``.
    """
    if kind == "det-conv":
        return lambda r2: truncated_converse_risk(n, d, r2, k_star, margin)
    if kind == "rec-ach":
        return lambda r2: recovery_ach_perr(n, d, r2)
    return lambda r2: recovery_conv_perr(n, d, r2, epsilon_d=epsilon_d)


def _invert_lanes(risk, lanes: int, bound_kind: str, target: float, mode: str) -> list:
    """The bracket-and-bisect search, run for ``lanes`` lanes in lockstep.

    ``risk(sel, rho2)`` evaluates lanes ``sel`` at the rho2 values, one
    each.  Returns, per lane, the float or the ``InversionUndefinedError``.
    """
    sel = np.repeat(np.arange(lanes), _PRESCAN.size)
    table = risk(sel, np.tile(_PRESCAN, lanes)).reshape(lanes, _PRESCAN.size)
    high = operator.gt if mode == "ach" else operator.ge
    out: list = []
    lo, hi = np.zeros(lanes), np.zeros(lanes)
    for lane, vals in enumerate(table):
        finite = vals[np.isfinite(vals)]
        increases = np.diff(finite) > 1e-9 * np.maximum(np.abs(finite[:-1]), 1.0)
        high_side = high(vals, target)
        if np.any(np.isnan(vals)):
            out.append(InversionUndefinedError(
                f"{bound_kind} bound is NaN on the rho2 pre-scan; inversion undefined"
            ))
        elif np.any(increases):
            out.append(InversionUndefinedError(
                f"{bound_kind} bound is not decreasing in rho2; inversion undefined"
            ))
        elif not high_side[0]:
            out.append(float(_PRESCAN[0]) if mode == "ach" else InversionUndefinedError(
                f"{bound_kind} bound is below target {target} everywhere on (0, 1)"
            ))
        elif high_side[-1]:
            out.append(float(_PRESCAN[-1]) if mode == "conv" else InversionUndefinedError(
                f"{bound_kind} bound never reaches target {target} on (0, 1)"
            ))
        else:
            j = int(np.argmin(high_side))  # first pre-scan point past the crossing
            lo[lane], hi[lane] = _PRESCAN[j - 1], _PRESCAN[j]
            out.append(None)
    bracketed = np.array([lane for lane, v in enumerate(out) if v is None], dtype=np.intp)
    active = bracketed
    while (active := active[hi[active] - lo[active] > INVERT_TOL]).size:
        mid = 0.5 * (lo[active] + hi[active])
        up = high(risk(active, mid), target)
        lo[active[up]] = mid[up]
        hi[active[~up]] = mid[~up]
    for lane in bracketed:
        out[lane] = float(hi[lane] if mode == "ach" else lo[lane])
    return out


def invert_for_rho2(
    bound_kind: str,
    n,
    d,
    target_risk: float,
    *,
    k_star: int | None = None,
    margin: float = 0.1,
    epsilon_d: float = 0.0,
):
    """Squared correlation at which a bound family meets a target risk.

    Conventions (documented in the CLI manual):

    * ``det-ach``:  smallest rho2 with detection_ach_risk(d, rho2) <= target.
    * ``det-conv``: largest rho2 with truncated_converse_risk >= target
      (below the returned rho2 the certified risk exceeds the target, so no
      test can meet it).
    * ``rec-ach``:  smallest rho2 with recovery_ach_perr <= target / 2 (the
      alignment stage is granted half of the detection risk budget).
    * ``rec-conv``: largest rho2 with recovery_conv_perr >= target.

    Every implemented bound decreases in rho2, which a coarse pre-scan
    asserts before bisecting to absolute width ``INVERT_TOL``.  The
    bisection brackets the end of the pre-scan prefix where the bound is
    still on the high side of the target (``> target`` for achievability,
    ``>= target`` for converses) and reports the bracket's high end for
    achievability, its low end for converses.  Raises
    ``InversionUndefinedError`` when the target is never crossed on (0, 1),
    monotonicity fails or the pre-scan holds a NaN.

    ``n`` and ``d`` may also be arrays, broadcast to a block of lanes.  The
    block is inverted at once and a list comes back with, per lane, the
    float or the ``InversionUndefinedError`` a scalar call would raise; the
    floats are those of the scalar calls.  ``det-ach`` lanes run in
    lockstep, one per distinct d (its bound ignores n), with the 42-point
    pre-scan and each bisection step as one ``detection_ach_risk`` call; the
    pre-scan holds 42 x 64 doubles per distinct d.  The other kinds are
    scalar code, called once per lane and rho2, with all lanes bisecting in
    lockstep.
    """
    if not 0.0 < target_risk < 1.0:
        raise DomainError("target_risk must lie in (0, 1)")
    if bound_kind not in BOUND_KINDS:
        raise DomainError(f"unknown bound kind {bound_kind!r}; expected one of {BOUND_KINDS}")
    target = 0.5 * target_risk if bound_kind == "rec-ach" else target_risk
    mode = bound_kind.split("-")[1]
    scalar = np.ndim(n) == 0 and np.ndim(d) == 0
    n_lanes, d_lanes = (np.ravel(x) for x in np.broadcast_arrays(n, d))
    if bound_kind == "det-ach":
        ds, lane_of = np.unique(d_lanes.astype(np.float64), return_inverse=True)
        found = _invert_lanes(
            lambda sel, r2: detection_ach_risk(ds[sel], r2), ds.size, bound_kind, target, mode
        )
        results = [found[i] for i in lane_of]
    else:
        fs = [
            _lane_risk(bound_kind, nn, dd, k_star, margin, epsilon_d)
            for nn, dd in zip(n_lanes.tolist(), d_lanes.tolist())
        ]

        def risk(sel, r2):
            return np.array([fs[i](x) for i, x in zip(sel.tolist(), r2.tolist())])

        results = _invert_lanes(risk, len(fs), bound_kind, target, mode)
    if not scalar:
        return results
    (result,) = results
    if isinstance(result, InversionUndefinedError):
        raise result
    return result


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


def _curve_block(args) -> tuple[list[BoundCurvePoint], list[str]]:
    axis_values, n, d, target_risk, k_star, margin, epsilon_d = args
    columns = [
        invert_for_rho2(
            kind,
            np.array(n),
            np.array(d),
            target_risk,
            k_star=k_star,
            margin=margin,
            epsilon_d=epsilon_d,
        )
        for kind in BOUND_KINDS
    ]
    points: list[BoundCurvePoint] = []
    notes: list[str] = []
    for axis_value, row in zip(axis_values, zip(*columns)):
        cells: list[float | None] = []
        for kind, value in zip(BOUND_KINDS, row):
            if isinstance(value, InversionUndefinedError):
                notes.append(f"axis={axis_value!r} {kind}: {value}")
                value = None
            cells.append(value)
        points.append(BoundCurvePoint(axis_value, *cells))
    return points, notes


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
    The grid is cut into one block per worker, of at most ``LANE_CAP``
    points, and each block is inverted by one ``invert_for_rho2`` call per
    kind.  Evaluation is pure and lanes never mix, so the result is
    identical for any worker count.
    """
    if axis not in ("d", "n"):
        raise DomainError("axis must be 'd' or 'n'")
    if axis == "d" and n is None:
        raise DomainError("axis='d' sweeps require a fixed n")
    if axis == "n" and d is None:
        raise DomainError("axis='n' sweeps require a fixed d")
    grid = [float(v) for v in values]
    size = max(1, min(LANE_CAP, -(-len(grid) // max(workers, 1))))
    tasks = []
    for start in range(0, len(grid), size):
        block = grid[start : start + size]
        nn = block if axis == "n" else [float(n)] * len(block)
        dd = block if axis == "d" else [float(d)] * len(block)
        tasks.append((block, nn, dd, target_risk, k_star, margin, epsilon_d))
    results = parallel_map(_curve_block, tasks, workers)
    points = [p for block_points, _ in results for p in block_points]
    notes = [msg for _, msgs in results for msg in msgs]
    return points, notes
