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

``invert_for_rho2``, ``g_fa``, ``g_md``, ``minimize_two_exponent`` and the
bound of every kind (``detection_ach_risk``, ``truncated_converse_risk``,
``unconditional_converse_risk``, ``recovery_ach_perr`` and
``recovery_conv_perr``) also take arrays, one lane per point:
``curve_points`` inverts a block of grid points at once, with one bound call
per kind for the pre-scan and one per search step.  Lanes step together
but never mix, so each gets the floats of its own scalar call (see
docs/math_notes.md, section 3).  A scalar call runs the same lane path and
pays its fixed numpy cost (``recovery_ach_perr`` takes about 30 us), so a
caller looping over points should pass them as arrays instead.
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
# Lanes: every bound on arrays, with scalar-call bits
# ---------------------------------------------------------------------------


def _lanes(*values):
    """Broadcast the values to one float64 lane each; returns (shape, 1-D lanes)."""
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    if any(a.shape != arrays[0].shape for a in arrays):
        arrays = np.broadcast_arrays(*arrays)
    return arrays[0].shape, [a.ravel() for a in arrays]


def _shaped(values, shape):
    """The lane values in the caller's shape: a float for scalar inputs."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _first_lanes(*columns):
    """(lane_of, first): each lane's first lane with its values in ``columns``,
    and a dict from each distinct row of values to its first lane."""
    first: dict = {}
    rows = zip(*(column.tolist() for column in columns))
    return [first.setdefault(row, lane) for lane, row in enumerate(rows)], first


def _math_lanes(f, x, where=None):
    """``f``, a scalar Python function, applied lane by lane where ``where``; NaN elsewhere.

    numpy's ufuncs may differ from ``math`` in the last bit (``expm1`` on
    about 10% of inputs), so the bounds' ``math`` steps stay ``math`` calls
    per lane, and so does ``x ** 2``, which Python takes from libm's ``pow``.
    """
    if where is None:
        return np.array([f(v) for v in x.ravel().tolist()], dtype=np.float64).reshape(x.shape)
    out = np.empty(x.shape)
    out.fill(math.nan)
    out[where] = [f(v) for v in x[where].tolist()]
    return out


def _float_errstate():
    """numpy's error state for Python float arithmetic, which overflows to inf
    and makes NaN (inf - inf, inf * 0) without a warning."""
    return np.errstate(over="ignore", invalid="ignore")


def _checked_lanes(n, d, rho2):
    """``_lanes`` of (n, d, rho2), rejecting rho2 outside [0, 1), a NaN n or
    d, n <= 0 and d < 0.

    ``max(0.0, nan)`` would turn a NaN size into a converse risk of 0, so
    every (n, d, rho2) bound rejects it.
    """
    shape, (n, d, rho2) = _lanes(n, d, rho2)
    if not ((0.0 <= rho2) & (rho2 < 1.0)).all():
        raise DomainError("rho2 must lie in [0, 1)")
    if not ((n > 0.0) & (d >= 0.0)).all():
        nan = np.isnan(n) | np.isnan(d)
        if nan.any():
            i = int(np.argmax(nan))
            raise DomainError(f"n and d must not be NaN, got n = {n[i]}, d = {d[i]}")
        if np.any(n <= 0.0):
            raise DomainError(f"n must be > 0, got n = {n[np.argmax(n <= 0.0)]}")
        raise DomainError(f"d must be >= 0, got d = {d[np.argmax(d < 0.0)]}")
    return shape, (n, d, rho2)


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
    shape, (g,) = _lanes(gamma)
    if np.any(g < 0.0):
        raise DomainError("gamma must be nonnegative")
    return _shaped(_g_fa(g), shape)


def _g_md(g, abs_rho, u, log_u):
    """``g_md`` without checks, elementwise; u = 1 - rho^2 and log_u = ln u.

    ``log_u`` comes from ``log1p(-rho^2)``: below rho^2 ~ 1.1e-16, u rounds
    to 1 and ``log(u)`` would drop the -ln(1 - rho^2) term, about rho^2.
    """
    root = np.sqrt(g)
    q = np.hypot(u, root)  # sqrt(u^2 + gamma)
    q_minus_u = g / (q + u)
    return q_minus_u / u - abs_rho * root / u - log_u - np.log1p(q_minus_u / (2.0 * u))


def g_md(gamma, rho):
    """Missed-detection exponent of the threshold test.

    g_md(gamma, rho) = (sqrt((1-rho^2)^2 + gamma) - sqrt(rho^2 * gamma))
    / (1-rho^2) - 1 - ln((1-rho^2 + sqrt((1-rho^2)^2 + gamma)) / 2).

    Collapses to ``g_fa`` at rho = 0 and tends to -ln(1-rho^2) as gamma -> 0.
    Array inputs broadcast to one exponent per (gamma, rho) lane.
    """
    shape, (g, rho) = _lanes(gamma, rho)
    if np.any(np.abs(rho) >= 1.0):
        raise DomainError("|rho| must be < 1")
    if np.any(g < 0.0):
        raise DomainError("gamma must be nonnegative")
    rho_sq = rho * rho
    value = _g_md(g, np.abs(rho), 1.0 - rho_sq, _math_lanes(math.log1p, -rho_sq))
    return _shaped(np.where(rho == 0.0, _g_fa(g), value), shape)


def _two_exp(neg_half_d, fa, md):
    """exp(-d/2 fa) + exp(-d/2 md), in log space; elementwise in all arguments."""
    return np.exp(np.logaddexp(neg_half_d * fa, neg_half_d * md))


def _two_exp_bound(gamma, neg_half_d, abs_rho, u, log_u):
    """``_two_exp`` of the two exponents at gamma; elementwise in all arguments."""
    return _two_exp(neg_half_d, _g_fa(gamma), _g_md(gamma, abs_rho, u, log_u))


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


#: Most lanes one ``minimize_two_exponent`` scan step holds, and most distinct
#: rho^2 rows it builds at once, so each scan array stays near 130 kB.
LANE_CAP = 256


def minimize_two_exponent(d, rho2):
    """Minimize the two-exponential risk bound over gamma in (0, 4 rho^2).

    A 64-point coarse scan guards against non-unimodality before a
    golden-section refinement; gamma = rho^2 (the balanced choice) is always
    kept as a candidate.  Returns (gamma, bound): floats for scalar inputs.
    Array inputs broadcast to one lane per (d, rho^2) pair, and each lane
    gets the floats its scalar call would.  The scan grid and its two
    exponents are built once per distinct rho^2 and scanned ``LANE_CAP``
    lanes at a time; one golden-section pass then refines every lane.
    """
    shape, (dd, r2) = _lanes(d, rho2)
    if not np.all((0.0 < r2) & (r2 < 1.0)):
        raise DomainError("rho2 must lie in (0, 1)")
    if not np.all(dd >= 1.0):  # NaN fails this too
        raise DomainError("d must be >= 1")
    gamma, bound = _minimize_lanes(dd, r2)
    return _shaped(gamma, shape), _shaped(bound, shape)


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


def _md_lane_args(rho2):
    """(|rho|, u, ln u) per lane of ``rho2``, the trailing arguments of ``_g_md``."""
    rho = np.sqrt(rho2)
    rho_sq = rho * rho
    return rho, 1.0 - rho_sq, _math_lanes(math.log1p, -rho_sq)


def _minimize_lanes(d, rho2):
    """``minimize_two_exponent`` on 1-D lanes.

    The scan grid and its ``_g_fa``/``_g_md`` rows depend on rho^2 alone, so
    they are built once per distinct rho^2 (at most ``LANE_CAP`` rows at a
    time) and gathered per lane, ``LANE_CAP`` lanes per scan step.  Gathers
    and ``np.where`` only select, so each lane gets its scalar call's bits.
    """
    lane_of, first = _first_lanes(rho2)
    at = np.array(list(first.values()), dtype=np.intp)  # ascending
    row = np.searchsorted(at, lane_of)  # each lane's distinct-rho2 row
    md_rows = _md_lane_args(rho2[at])
    hi = 4.0 * rho2[at]
    eps = 1e-12 * hi
    neg_half_d = -0.5 * d
    lo_b, hi_b, scan_gamma, scan_bound = (np.empty(d.size) for _ in range(4))
    for r in range(0, at.size, LANE_CAP):
        rows = slice(r, r + LANE_CAP)
        grid = _linspace_lanes(eps[rows], hi[rows] - eps[rows], 64)
        g_fa, g_md = _g_fa(grid), _g_md(grid, *(v[rows, None] for v in md_rows))
        in_rows = np.flatnonzero((row >= r) & (row < r + LANE_CAP))
        for i in range(0, in_rows.size, LANE_CAP):
            lanes = in_rows[i : i + LANE_CAP]
            k = row[lanes] - r
            # At huge d a scan point can overflow to inf; it is never the minimum.
            with np.errstate(over="ignore"):
                vals = _two_exp(neg_half_d[lanes, None], g_fa[k], g_md[k])
            j = np.argmin(vals, axis=1)
            lo_b[lanes] = grid[k, np.maximum(j - 1, 0)]
            hi_b[lanes] = grid[k, np.minimum(j + 1, grid.shape[1] - 1)]
            scan_gamma[lanes] = grid[k, j]
            scan_bound[lanes] = vals[np.arange(lanes.size), j]
    lane_args = (neg_half_d, *(v[row] for v in md_rows))
    gamma, bound = _golden_min(_two_exp_bound, lo_b, hi_b, *lane_args)
    # The first smallest of (golden, scan, balanced), as min() over the three.
    candidates = ((scan_gamma, scan_bound), (rho2, _two_exp_bound(rho2, *lane_args)))
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


def unconditional_converse_risk(n, d, rho2):
    """Second-moment risk lower bound: max(0, 1 - sqrt((1-rho^2)^(-dn) - 1)).

    Array inputs broadcast to one risk per lane, each with the bits of its
    scalar call; a scalar call returns a float.
    """
    shape, (n, d, rho2) = _checked_lanes(n, d, rho2)
    return _shaped(_unconditional_lanes(n, d, rho2), shape)


def _unconditional_lanes(n, d, rho2):
    """``unconditional_converse_risk`` on checked 1-D lanes."""
    with _float_errstate():
        e = -d * n * _math_lanes(math.log1p, -rho2)  # dn ln(1/(1-rho^2)) >= 0
    # Where e > 700 the root is NaN, and max(0, NaN) is 0, as is the bound there.
    value = 1.0 - np.sqrt(_math_lanes(math.expm1, e, ~(e > 700.0)))
    return np.where(value > 0.0, value, 0.0)


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
    are read-only.  The converse builds one schedule for many lanes: the
    arrays then have one row per lane, and ``k_star`` and ``valid`` are
    arrays of one value per lane.
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
    """The thresholds at the subset sizes ``ks``, with ``valid`` over those sizes.

    ``ks`` may carry a leading lane axis, with ``n``, ``d`` and ``rho2`` as
    columns of one value per lane; ``valid`` then holds one flag per lane.
    """
    floor_r = np.sqrt(1.0 + np.log(n / ks))  # sqrt(ln(en/k)), the floor r_k must exceed
    r = (1.0 + margin) * floor_r
    sqrt_d = np.sqrt(d)
    w = d * ks - 2.0 * sqrt_d * ks * r
    mult = np.maximum(2.0, np.sqrt((1.0 - rho2) / rho2))
    s = r * mult
    rho = np.sqrt(rho2)
    v = rho * d * ks + 4.0 * rho * sqrt_d * ks * s
    valid = np.all((r < 0.5 * sqrt_d) & (r > floor_r) & (w > 0.0) & (s > floor_r * mult), axis=-1)
    for values in (ks, r, s, w, v):
        values.setflags(write=False)
    return TruncationSchedule(k_star, ks, r, s, w, v, bool(valid) if valid.ndim == 0 else valid)


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
    schedule: TruncationSchedule, n, d, rho2
) -> TruncationExponents:
    """Minima over k of the three rate expressions for a given schedule.

    Reads ``ks``, ``r``, ``s``, ``w`` and ``v`` of the schedule, so a
    schedule with edited thresholds gets the rates of its own values.  A
    schedule with a leading lane axis, and ``n``, ``d``, ``rho2`` as columns
    of one value per lane, gives arrays of one rate per lane.
    """
    ks, s = schedule.ks, schedule.s
    ln_terms = 1.0 + np.log(n / ks)  # ln(en/k)
    rho = np.sqrt(rho2)
    u = 1.0 - rho2
    sqrt_d = np.sqrt(d)
    rho2_sq = _math_lanes(lambda x: x**2, np.asarray(rho2, dtype=np.float64))
    # Minima are exact, so the order of the four-way minimum is free.
    four_way = np.minimum(
        np.minimum(s / (rho * sqrt_d), 4.0 * rho * s / (u * sqrt_d)),
        np.minimum(1.0 / rho, 2.0 / np.sqrt(u)),
    )
    psi2 = np.min((rho * sqrt_d * s / 4.0) * four_way - ln_terms, axis=-1)
    drift = schedule.w / ks - schedule.v / (ks * rho)
    psi = np.min(
        -(d * n / (2.0 * ks)) * (rho2_sq / (1.0 - rho2_sq))
        - d * rho2 / u
        + (2.0 * rho2 / u) * drift
        + np.log(ks) - 1.0,
        axis=-1,
    )
    rates = (np.min(schedule.r**2 - ln_terms, axis=-1), psi2, psi)
    if ks.ndim == 1:
        rates = tuple(float(x) for x in rates)
    return TruncationExponents(*rates)


#: Most lanes one pass of ``truncated_converse_risk``'s schedule arithmetic
#: holds; at about 45 live doubles per lane, a pass peaks near 1.5 MB.
CONVERSE_LANE_CAP = 16 * LANE_CAP


def truncated_converse_risk(n, d, rho2, k_star: int | None = None, margin: float = 0.1):
    """Truncated second-moment risk lower bound, never below the unconditional one.

    Combines the truncation-deficit bound D1 with the truncated second-moment
    bound B2 into max(0, 1 - (sqrt(B2 - 1 + 2 D1) + D1)).  Whenever the
    schedule preconditions or validity conditions fail, or any rate is
    nonpositive, or an intermediate quantity overflows, the truncated part
    carries no information and the unconditional bound is returned instead.
    Every minimum over k sits at k_star or floor(n) (docs/math_notes.md,
    section 3), so the schedule is built on those two sizes alone.  Array
    inputs broadcast to one risk per lane, each with the bits of its scalar
    call; a scalar call returns a float.
    """
    shape, (n, d, rho2) = _checked_lanes(n, d, rho2)
    out = _unconditional_lanes(n, d, rho2)
    # The schedule preconditions do not involve rho2, so they are checked once
    # per distinct (n, d); k_star = 0 marks a failure.  A lane failing them,
    # or at rho2 = 0, keeps the unconditional bound.
    lane_of, first = _first_lanes(n, d)
    k_at = {}
    for (nn, dd), lane in first.items():
        try:
            k_at[lane] = _schedule_k_star(nn, dd, k_star, margin)
        except ConditionViolatedError:
            k_at[lane] = 0
    ks = np.array([k_at[lane] for lane in lane_of], dtype=np.float64)
    live = np.flatnonzero((ks > 0.0) & (rho2 != 0.0))
    for i in range(0, live.size, CONVERSE_LANE_CAP):
        at = live[i : i + CONVERSE_LANE_CAP]
        out[at] = _truncated_lanes(n[at], d[at], rho2[at], ks[at], out[at], margin)
    return _shaped(out, shape)


def _truncated_lanes(n, d, rho2, ks, uncond, margin):
    """``truncated_converse_risk`` on 1-D lanes that meet the schedule
    preconditions, with k_star ``ks`` and unconditional bound ``uncond``."""
    cols = (n[:, None], d[:, None], rho2[:, None])
    with _float_errstate():
        u = 1.0 - rho2
        t1 = 0.5 * d * n * _math_lanes(lambda x: x**2, rho2 / u) + d * ks * rho2 / u
        # {k_star, floor(n)}: the size may repeat, which min and all ignore.
        schedule = _schedule(*cols, ks, np.stack([ks, np.floor(n)], axis=1), margin)
        rates = truncation_exponents(schedule, *cols)
        norm, cross, psi = rates.deficit_norm, rates.deficit_cross, rates.second_moment
        m = np.where(cross < norm, cross, norm)  # min(norm, cross)
        # B2 overflows where t1 > 700, whatever the schedule.
        ok = ~(t1 > 700.0) & schedule.valid & ~(m <= 0.0) & ~(psi <= 0.0)
        # A positive rate is at least 2^-52, so log_d1 < 38 and log_tail < 37
        # (docs/math_notes.md, section 3): neither exp below can overflow.
        log_d1 = math.log(4.0) - ks * m - _math_lanes(_log_one_minus_exp_neg, m, ok)
        log_tail = -ks * psi - _math_lanes(_log_one_minus_exp_neg, psi, ok)
        d1 = _math_lanes(math.exp, log_d1, ok)
        b2 = _math_lanes(math.exp, t1, ok) + _math_lanes(math.exp, log_tail, ok)
        value = 1.0 - (np.sqrt(b2 - 1.0 + 2.0 * d1) + d1)
    best = np.where(value > 0.0, value, 0.0)  # max(0.0, value, uncond)
    return np.where(ok & ~(uncond > best), best, uncond)


def _log_one_minus_exp_neg(x: float) -> float:
    """ln(1 - e^-x) for x > 0."""
    return math.log(-math.expm1(-x))


# ---------------------------------------------------------------------------
# Recovery bounds
# ---------------------------------------------------------------------------


def recovery_ach_perr(n, d, rho2):
    """Union bound on the ML alignment error: b (1 - b^n) / (1 - b).

    Here b = n (1-rho^2)^(d/4), handled in log space; the removable
    singularity at b = 1 takes its geometric-series limit value n.  Array
    inputs broadcast to one bound per lane, each with the bits of its scalar
    call; a scalar call returns a float.
    """
    shape, (n, d, rho2) = _checked_lanes(n, d, rho2)
    with _float_errstate():
        log_b = _math_lanes(math.log, n) + 0.25 * d * _math_lanes(math.log1p, -rho2)
        a = n * log_b
        live = (log_b != 0.0) & ~(a > 690.0)
        # (1 - b^n) / (1 - b), sign-safe
        ratio = _math_lanes(math.expm1, a, live) / _math_lanes(math.expm1, log_b, live)
        value = _math_lanes(math.exp, log_b, live) * ratio
    value = np.where(a > 690.0, math.inf, value)
    return _shaped(np.where(log_b == 0.0, n, value), shape)


def recovery_conv_perr(n, d, rho2, epsilon_d: float = 0.0):
    """Error lower bound for any alignment decoder: max(0, 1 - a^-2 - 4/a).

    Here a = n (1-rho^2)^((d/4)(1+epsilon_d)); the exponent correction
    epsilon_d must be supplied by the caller (it defaults to zero, the
    asymptotically exact choice).  Array inputs broadcast to one bound per
    lane, each with the bits of its scalar call; a scalar call returns a
    float.
    """
    if epsilon_d < 0.0:
        raise DomainError("epsilon_d must be nonnegative")
    shape, (n, d, rho2) = _checked_lanes(n, d, rho2)
    with _float_errstate():
        log_a = _math_lanes(math.log, n) + 0.25 * d * (1.0 + epsilon_d) * _math_lanes(
            math.log1p, -rho2
        )
        # a <= 1 drives the expression to 1 - 1 - 4 or below: NaN there, then 0.
        live = log_a > 0.0
        value = 1.0 - _math_lanes(math.exp, -2.0 * log_a, live) - 4.0 * _math_lanes(
            math.exp, -log_a, live
        )
    return _shaped(np.where(value > 0.0, value, 0.0), shape)


# ---------------------------------------------------------------------------
# Monotone inversion and curves
# ---------------------------------------------------------------------------


# Both geomspaces end at 0.5 exactly; the second's copy is dropped.  (Sorting
# rather than a numpy dedup keeps numpy.ma, about 1.4 MB and 12 ms, out of import.)
_PRESCAN = np.sort(
    np.concatenate(
        [
            np.geomspace(1e-13, 0.5, 21),
            1.0 - np.geomspace(1e-9, 0.5, 21)[:-1],
        ]
    )
)


#: Relative width at which ``invert_for_rho2`` stops narrowing a bracket
#: [lo, hi] of rho2: hi - lo <= INVERT_RTOL * hi.
INVERT_RTOL = 1e-12

#: Most search steps after the pre-scan.  Geometric bisection alone takes the
#: widest pre-scan bracket (a factor of 4.3 in rho2) to ``INVERT_RTOL`` in 41
#: steps; the regula falsi takes 8-17 on the reference grids.  A lane still
#: wider at the cap reports its bracket end, which keeps the convention.
INVERT_MAX_STEPS = 64


def _invert_lanes(risk, lanes: int, bound_kind: str, target: float, mode: str) -> list:
    """The pre-scan and bracket search, run for ``lanes`` lanes in lockstep.

    ``risk(sel, rho2)`` evaluates lanes ``sel`` at the rho2 values, one
    each.  Returns, per lane, the float or the ``InversionUndefinedError``.
    """
    sel = np.repeat(np.arange(lanes), _PRESCAN.size)
    table = risk(sel, np.tile(_PRESCAN, lanes)).reshape(lanes, _PRESCAN.size)
    high = operator.gt if mode == "ach" else operator.ge
    # Each finite value against the finite value before it in its row,
    # skipping the infinite ones.
    finite = np.isfinite(table)
    last = np.maximum.accumulate(np.where(finite, np.arange(_PRESCAN.size), -1), axis=1)[:, :-1]
    prev = np.take_along_axis(table, np.maximum(last, 0), axis=1)
    with np.errstate(invalid="ignore"):
        rise = table[:, 1:] - prev > 1e-9 * np.maximum(np.abs(prev), 1.0)
    increases = (finite[:, 1:] & (last >= 0) & rise).any(axis=1).tolist()
    nan = np.isnan(table).any(axis=1).tolist()
    high_side = high(table, target)
    first_high, last_high = high_side[:, 0].tolist(), high_side[:, -1].tolist()
    cross = np.argmin(high_side, axis=1)  # first pre-scan point past the crossing
    out: list = []
    for lane in range(lanes):
        if nan[lane]:
            out.append(InversionUndefinedError(
                f"{bound_kind} bound is NaN on the rho2 pre-scan; inversion undefined"
            ))
        elif increases[lane]:
            out.append(InversionUndefinedError(
                f"{bound_kind} bound is not decreasing in rho2; inversion undefined"
            ))
        elif not first_high[lane]:
            out.append(float(_PRESCAN[0]) if mode == "ach" else InversionUndefinedError(
                f"{bound_kind} bound is below target {target} everywhere on (0, 1)"
            ))
        elif last_high[lane]:
            out.append(float(_PRESCAN[-1]) if mode == "conv" else InversionUndefinedError(
                f"{bound_kind} bound never reaches target {target} on (0, 1)"
            ))
        else:
            out.append(None)
    bracketed = np.array([lane for lane, v in enumerate(out) if v is None], dtype=np.intp)
    cross = cross[bracketed]
    lo, hi = _regula_falsi(
        risk, bracketed, _PRESCAN[cross - 1], _PRESCAN[cross],
        table[bracketed, cross - 1], table[bracketed, cross], target, high,
    )
    for lane, value in zip(bracketed.tolist(), (hi if mode == "ach" else lo).tolist()):
        out[lane] = value
    return out


def _regula_falsi(risk, lanes, lo, hi, risk_lo, risk_hi, target: float, high):
    """Narrow each bracket [lo, hi] to ``INVERT_RTOL``; returns the final (lo, hi).

    ``lo`` is on the high side of the target (``high(risk, target)``) and
    ``hi`` is not, with ``risk_lo`` and ``risk_hi`` the bound there.  Each
    step is one ``risk`` call for all live lanes: Illinois regula falsi on
    f = ln(risk / target) against ln rho2, where the end kept twice in a row
    has its f halved.  The secant point is held at least 0.4 * INVERT_RTOL * hi
    inside the bracket, so after a point lands on the root the next one
    falls just past it and closes the bracket; where an end's f is not
    finite (a risk of inf, or a converse clamped to 0), the step is the
    geometric midpoint instead.
    """
    log_target = math.log(target)
    with np.errstate(divide="ignore"):
        f_lo, f_hi = np.log(risk_lo) - log_target, np.log(risk_hi) - log_target
    moved = np.zeros(lanes.size, dtype=np.int8)  # +1: lo moved last step, -1: hi moved
    live = np.arange(lanes.size)
    for _ in range(INVERT_MAX_STEPS):
        if not (live := live[hi[live] - lo[live] > INVERT_RTOL * hi[live]]).size:
            break
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        secant = np.isfinite(fa) & np.isfinite(fb) & (fa > fb)
        log_a = np.log(a)
        gap = 0.4 * INVERT_RTOL * b
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = np.exp(log_a + fa / (fa - fb) * (np.log(b) - log_a))
        x = np.where(secant, np.minimum(np.maximum(x, a + gap), b - gap), np.sqrt(a * b))
        r = risk(lanes[live], x)
        up = high(r, target)
        with np.errstate(divide="ignore"):
            fx = np.log(r) - log_target
        # Illinois: halve the f of an end kept for the second step running.
        last = moved[live]
        lo[live] = np.where(up, x, a)
        hi[live] = np.where(up, b, x)
        f_lo[live] = np.where(up, fx, np.where(last == -1, 0.5 * fa, fa))
        f_hi[live] = np.where(up, np.where(last == 1, 0.5 * fb, fb), fx)
        moved[live] = np.where(up, 1, -1)
    return lo, hi


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
    asserts.  The search brackets the end of the pre-scan prefix where the
    bound is still on the high side of the target (``> target`` for
    achievability, ``>= target`` for converses) and narrows the bracket by
    safeguarded Illinois regula falsi on ln(risk / target) against ln rho2
    until its width is at most ``INVERT_RTOL`` times its high end (at most
    ``INVERT_MAX_STEPS`` steps).  It reports the bracket's high end for
    achievability, its low end for converses.  Raises
    ``InversionUndefinedError`` when the target is never crossed on (0, 1),
    monotonicity fails or the pre-scan holds a NaN.

    ``n`` and ``d`` may also be arrays, broadcast to a block of lanes.  The
    block is inverted at once and a list comes back with, per lane, the
    float or the ``InversionUndefinedError`` a scalar call would raise; the
    floats are those of the scalar calls.  One lane runs per distinct input
    of the kind's bound: d for ``det-ach`` (its bound ignores n), (n, d) for
    the others.  The lanes search in lockstep, and the 41-point pre-scan and
    each search step are one array call of the kind's bound.
    """
    if not 0.0 < target_risk < 1.0:
        raise DomainError("target_risk must lie in (0, 1)")
    if bound_kind not in BOUND_KINDS:
        raise DomainError(f"unknown bound kind {bound_kind!r}; expected one of {BOUND_KINDS}")
    target = 0.5 * target_risk if bound_kind == "rec-ach" else target_risk
    mode = bound_kind.split("-")[1]
    shape, (n_lanes, d_lanes) = _lanes(n, d)
    # Built per call, so the bounds are looked up by module name then.  Each
    # kind's (n, d, rho2) bound comes with the inputs it reads, and one lane
    # runs per distinct value of those.
    nd = (n_lanes, d_lanes)
    bound, reads = {
        "det-ach": (lambda nn, dd, r2: detection_ach_risk(dd, r2), (d_lanes,)),
        "det-conv": (lambda nn, dd, r2: truncated_converse_risk(nn, dd, r2, k_star, margin), nd),
        "rec-ach": (recovery_ach_perr, nd),
        "rec-conv": (lambda nn, dd, r2: recovery_conv_perr(nn, dd, r2, epsilon_d), nd),
    }[bound_kind]
    lane_of, first = _first_lanes(*reads)
    at = np.array(list(first.values()), dtype=np.intp)
    nn, dd = n_lanes[at], d_lanes[at]
    found = dict(zip(first.values(), _invert_lanes(
        lambda sel, r2: bound(nn[sel], dd[sel], r2), at.size, bound_kind, target, mode)))
    results = [found[lane] for lane in lane_of]
    if shape != ():
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
