"""Closed-form risk and error bounds, and their inversion into curves.

Four bound families are implemented:

* detection achievability: the two-exponential Chernoff bound on the risk of
  the sum-of-inner-products threshold test, minimized over its tuning by a
  scan and a root search on its stationarity condition;
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
``curve_points`` inverts its grid in blocks of ``LANE_CAP`` points, with one
bound call per kind for a block's pre-scan and one per search step.  Lanes
step together but never mix, so each gets the floats of its own scalar call
(see docs/math_notes.md, section 3).  A scalar call runs the same lane path
and pays its fixed numpy cost (``recovery_ach_perr`` takes about 17 us on a
2-core Xeon), so a caller looping over points should pass them as arrays
instead.
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


def _float_errstate():
    """numpy's error state for the bounds, which compute on every lane: an
    overflow to inf, a log of 0 and a NaN (inf - inf, inf * 0) pass silently
    to the selects that replace them."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


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
    The first two terms, (q - u - |rho| sqrt(gamma)) / u with
    q = sqrt(u^2 + gamma), are each about sqrt(gamma) / u as u -> 0, so they
    are taken as sqrt(gamma) / (q + u) * (_root_gap - |rho|), in which u
    cancels exactly.
    """
    root = np.sqrt(g)
    q = np.hypot(u, root)  # sqrt(u^2 + gamma)
    q_plus_u = q + u
    return (root / q_plus_u * (_root_gap(g, root, abs_rho, u, q) - abs_rho)
            - log_u - np.log1p(g / q_plus_u / (2.0 * u)))


def _root_gap(g, root, abs_rho, u, q):
    """(sqrt(gamma) - |rho| q) / u, q = sqrt(u^2 + gamma), without dividing by u.

    With 1 - rho^2 = u, (sqrt(gamma) - |rho| q)(sqrt(gamma) + |rho| q)
    = u (gamma - rho^2 u), so the quotient is
    (gamma - rho^2 u) / (sqrt(gamma) + |rho| q).  NaN, with numpy's
    invalid-value warning, at gamma = rho = 0.
    """
    return (g - abs_rho * abs_rho * u) / (root + abs_rho * q)


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
    with np.errstate(invalid="ignore"):  # gamma = rho = 0 gives NaN; g_fa replaces it
        value = _g_md(g, np.abs(rho), 1.0 - rho_sq, np.log1p(-rho_sq))
    return _shaped(np.where(rho == 0.0, _g_fa(g), value), shape)


def _two_exp_bound(gamma, neg_half_d, abs_rho, u, log_u):
    """exp(-d/2 g_fa) + exp(-d/2 g_md) at gamma, in log space; elementwise."""
    fa, md = _g_fa(gamma), _g_md(gamma, abs_rho, u, log_u)
    return np.exp(np.logaddexp(neg_half_d * fa, neg_half_d * md))


def _slope_log_ratio(g, abs_rho, u):
    """ln F' - ln(-M') at gamma, F = g_fa and M = g_md; elementwise.

    The two-exponential bound h = exp(-d/2 F) + exp(-d/2 M) has slope
    -(d/2)(F' exp(-d/2 F) + M' exp(-d/2 M)), where F' > 0 and M' < 0 on
    (0, 4 rho^2).  So h falls exactly where
    phi = ln F' - ln(-M') - (d/2)(F - M) > 0.  With s = sqrt(1+gamma) - 1
    and q = sqrt(u^2 + gamma), F' = 1 / (2 (2 + s)) and
    -M' = (|rho| (u+q) - sqrt(gamma)) / (2 u sqrt(gamma) (u+q)), whose
    numerator is u (|rho| - ``_root_gap``), so u cancels.  Where -M'
    rounds to 0 or below (at 4 rho^2) both terms fall: the ratio is +inf.
    """
    root = np.sqrt(g)
    q = np.hypot(u, root)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        neg_md_slope = (abs_rho - _root_gap(g, root, abs_rho, u, q)) / (2.0 * root * (u + q))
        ratio = -np.log(2.0 + 2.0 * np.sqrt(1.0 + g)) - np.log(neg_md_slope)
    return np.where(neg_md_slope > 0.0, ratio, np.inf)


def _phi(ratio, neg_half_d, fa, md):
    """phi = ratio - (d/2)(fa - md): positive where the two-exponential bound
    falls (see ``_slope_log_ratio``); elementwise."""
    with np.errstate(invalid="ignore", over="ignore"):
        return ratio + neg_half_d * (fa - md)


def _phi_at(gamma, neg_half_d, abs_rho, u, log_u):
    """``_phi`` at gamma; elementwise in all arguments."""
    return _phi(_slope_log_ratio(gamma, abs_rho, u), neg_half_d, _g_fa(gamma),
                _g_md(gamma, abs_rho, u, log_u))


#: Relative width in gamma at which ``minimize_two_exponent`` stops its root
#: search.  Near the minimum the bound's relative error is about
#: (h'' gamma^2 / h) w^2 / 2 at width w, and h'' gamma^2 / h is about
#: ((d/2) F)^2 <= 745^2 wherever h has not underflowed to 0 (F ~ gamma/4 for
#: small gamma), so w = 1e-9 leaves at most 3e-13.
MINIMIZE_RTOL = 1e-9


#: Most lanes one ``minimize_two_exponent`` scan step holds, and most distinct
#: rho^2 rows it builds at once, so each scan array stays near 130 kB.
LANE_CAP = 256


def minimize_two_exponent(d, rho2):
    """Minimize the two-exponential risk bound over gamma in (0, 4 rho^2).

    A 64-point coarse scan guards against non-unimodality: the bound first
    rises from gamma = 0, then falls, and can rise and fall again.  It
    falls where phi = ln F' - ln(-M') - (d/2)(F - M) > 0, with F = g_fa and
    M = g_md (``_slope_log_ratio``).  So the first change of phi from + to
    - among the scan's smallest point and its two neighbours brackets the
    minimum.  Where there is none and the smallest point is an end of the
    first scan cell, which spans ten decades, ``PROBE`` log-spaced points
    of that cell are searched for one too.  A root search on phi
    (``_illinois``) narrows each bracket to a relative width of
    ``MINIMIZE_RTOL``, and the first smallest of the bracket's ends, the
    scan point and gamma = rho^2 (the balanced choice) is returned.
    Returns (gamma, bound): floats for scalar inputs.  Array inputs
    broadcast to one lane per (d, rho^2) pair, and each lane gets the floats
    its scalar call would.  The scan grid and its two exponents are built
    once per distinct rho^2 and scanned ``LANE_CAP`` lanes at a time; one
    root search then refines every lane (docs/math_notes.md, section 3).
    """
    shape, (dd, r2) = _lanes(d, rho2)
    if not np.all((0.0 < r2) & (r2 < 1.0)):
        raise DomainError("rho2 must lie in (0, 1)")
    if not np.all(dd >= 1.0):  # NaN fails this too
        raise DomainError("d must be >= 1")
    gamma, bound, _ = _minimize_lanes(dd, r2)
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
    return rho, 1.0 - rho_sq, np.log1p(-rho_sq)


#: Points at which ``minimize_two_exponent`` probes the first scan cell,
#: [1e-12, 1/63] times 4 rho^2, log-spaced about 0.5 e-folds apart.
PROBE = 48

#: Relative half-width of a warm-start bracket of ``_minimize_lanes``: a
#: lane's previous minimizer, as a fraction of 4 rho^2, times 1 -/+ this.
WARM_WIDTH = 1e-3


def _first_turn(x, phi):
    """Per row, the first neighbouring points x[i] < x[i+1] with
    phi[i] > 0 >= phi[i+1], where the bound turns from falling to rising.

    Returns (lo, hi, phi_lo, phi_hi, found); a row without a turn gets its
    first two points and found False.
    """
    turns = (phi[:, :-1] > 0.0) & (phi[:, 1:] <= 0.0)
    i = np.argmax(turns, axis=1)
    n = np.arange(x.shape[0])
    return x[n, i], x[n, i + 1], phi[n, i], phi[n, i + 1], turns[n, i]


def _minimize_lanes(d, rho2, warm=None):
    """``minimize_two_exponent`` on 1-D lanes; returns (gamma, bound, settled).

    Each lane's bracket of the minimum comes from ``_scan_lanes``, and one
    root search then refines every bracket.  ``warm``, where given, holds a
    previous minimizer per lane as a fraction of 4 rho^2, NaN for none.  A
    lane where phi turns from + to - across that fraction times
    1 -/+ ``WARM_WIDTH`` takes that bracket instead of a scan, and its
    candidates are the bracket's ends and the balanced point.  ``settled``
    marks the lanes whose bracket is such a warm one or a turn of the scan
    outside the first-cell probe, so a later call may warm-start them
    (docs/math_notes.md, section 3).  Gathers and ``np.where`` only select,
    so each lane's floats depend on its own inputs alone: without ``warm``,
    they are those of its scalar ``minimize_two_exponent`` call.
    """
    lane_args = (-0.5 * d, *_md_lane_args(rho2))
    if warm is None:
        lo, hi, f_lo, f_hi, turn, settled, scan_gamma, scan_bound = _scan_lanes(d, rho2)
    else:
        lo, hi, f_lo, f_hi, scan_gamma = (np.full(d.size, np.nan) for _ in range(5))
        scan_bound = np.full(d.size, np.inf)  # never a better candidate
        turn = np.zeros(d.size, dtype=bool)
        start = np.flatnonzero(~np.isnan(warm))
        x = (4.0 * rho2[start] * warm[start])[:, None] * [1.0 - WARM_WIDTH, 1.0 + WARM_WIDTH]
        phi = _phi_at(x, *(v[start, None] for v in lane_args))
        held = (phi[:, 0] > 0.0) & (phi[:, 1] <= 0.0)
        at = start[held]
        lo[at], hi[at], f_lo[at], f_hi[at] = x[held, 0], x[held, 1], phi[held, 0], phi[held, 1]
        turn[at] = True
        settled = turn.copy()
        scan = np.flatnonzero(~turn)
        if scan.size:
            found = _scan_lanes(d[scan], rho2[scan])
            for out, v in zip((lo, hi, f_lo, f_hi, turn, settled, scan_gamma, scan_bound), found):
                out[scan] = v
    # Where the bound underflows to 0 at the scan's smallest point there is
    # nothing left to refine.
    bracket = np.flatnonzero(turn & (scan_bound > 0.0))
    turn_args = tuple(v[bracket] for v in lane_args)

    def step(live, g):
        phi = _phi_at(g, *(v[live] for v in turn_args))
        return phi > 0.0, phi

    lo[bracket], hi[bracket] = _illinois(
        step, lo[bracket], hi[bracket], f_lo[bracket], f_hi[bracket], MINIMIZE_RTOL
    )
    # The first smallest of (bracket low end, high end, scan, balanced): the
    # better end of the bracket, then min() over it, the scan and balanced.
    # The three bounds are one stacked call, elementwise like three.
    at_lo, at_hi, balanced = _two_exp_bound(np.stack([lo, hi, rho2]), *lane_args)
    gamma, bound = lo, at_lo
    candidates = ((hi, at_hi), (scan_gamma, scan_bound), (rho2, balanced))
    for cand_gamma, cand_bound in candidates:
        better = cand_bound < bound
        gamma = np.where(better, cand_gamma, gamma)
        bound = np.where(better, cand_bound, bound)
    return gamma, bound, settled & (scan_bound > 0.0)


def _scan_lanes(d, rho2):
    """The scan of ``minimize_two_exponent`` on 1-D lanes.

    Returns per lane (lo, hi, phi_lo, phi_hi, turn, scanned, gamma, bound):
    the bracket of a turn and phi at its ends, whether a turn was found,
    whether the 3-point scan (not the first-cell probe) found it, and the
    scan's smallest point and its bound.  The scan grid and its
    ``_g_fa``/``_g_md`` rows depend on rho^2 alone, so they are built once
    per distinct rho^2 (at most ``LANE_CAP`` rows at a time) and gathered
    per lane, ``LANE_CAP`` lanes per scan step.  The scan compares the bound
    scaled by a per-lane power of e, which keeps the smallest point between
    1 and 2, and evaluates the bound itself only there.
    """
    lane_of, first = _first_lanes(rho2)
    at = np.array(list(first.values()), dtype=np.intp)  # ascending
    row = np.searchsorted(at, lane_of)  # each lane's distinct-rho2 row
    md_rows = _md_lane_args(rho2[at])
    span = 4.0 * rho2[at]
    # Below rho^2 ~ 6e-313, 1e-12 span underflows to 0: the grid still starts above 0.
    eps = np.maximum(1e-12 * span, 5e-324)
    neg_half_d = -0.5 * d
    lane_args = (neg_half_d, *(v[row] for v in md_rows))
    first_cell, first_fm = np.empty((at.size, 2)), np.empty((2, at.size))
    lo, hi, f_lo, f_hi, scan_gamma, scan_log = (np.empty(d.size) for _ in range(6))
    turn, j = np.empty(d.size, dtype=bool), np.empty(d.size, dtype=np.intp)
    for r in range(0, at.size, LANE_CAP):
        rows = slice(r, r + LANE_CAP)
        grid = _linspace_lanes(eps[rows], span[rows] - eps[rows], 64)
        g_fa, g_md = _g_fa(grid), _g_md(grid, *(v[rows, None] for v in md_rows))
        first_cell[rows], first_fm[:, rows] = grid[:, :2], (g_fa[:, 0], g_md[:, 0])
        # With c = -d/2 < 0, the bound over exp(c t) is exp(c (F - t)) +
        # exp(c (M - t)), t = max(min(F, M)) over the row: at least 1 at every
        # point and at most 2 at the smallest.  Points that overflow to inf
        # are never the smallest.
        t = np.minimum(g_fa, g_md).max(axis=1, keepdims=True)
        fa_t, md_t = g_fa - t, g_md - t
        in_rows = np.flatnonzero((row >= r) & (row < r + LANE_CAP))
        for i in range(0, in_rows.size, LANE_CAP):
            lanes = in_rows[i : i + LANE_CAP]
            k = row[lanes] - r
            c = neg_half_d[lanes, None]
            with np.errstate(over="ignore"):
                j[lanes] = np.argmin(np.exp(c * fa_t[k]) + np.exp(c * md_t[k]), axis=1)
            # A turn of the bound from falling to rising between two of the
            # scan's smallest point and its neighbours is the minimum.
            at3 = (k[:, None], np.clip(j[lanes, None] + np.arange(-1, 2), 0, grid.shape[1] - 1))
            x, fa, md = grid[at3], g_fa[at3], g_md[at3]
            ratio = _slope_log_ratio(x, *(v[lanes, None] for v in lane_args[1:3]))
            lo[lanes], hi[lanes], f_lo[lanes], f_hi[lanes], turn[lanes] = _first_turn(
                x, _phi(ratio, c, fa, md))
            scan_gamma[lanes] = x[:, 1]
            with np.errstate(over="ignore"):
                scan_log[lanes] = np.logaddexp(c[:, 0] * fa[:, 1], c[:, 0] * md[:, 1])
    scanned = turn.copy()
    # The first cell spans ten decades, and the bound can dip and rise
    # again inside it when d is small and rho^2 near 1.  It is probed on a
    # log grid where the smallest point is one of its ends and phi can be
    # positive in it: phi <= R(grid[1]) - (d/2) D(grid[0]) on the cell, as
    # the slope ratio R and D = F - M both increase.
    probe = np.flatnonzero(~turn & (j <= 1))
    cell = _phi(_slope_log_ratio(first_cell[row[probe], 1], *(v[probe] for v in lane_args[1:3])),
                neg_half_d[probe], *first_fm[:, row[probe]])
    probe = probe[cell > 0.0]
    if probe.size:
        need = np.zeros(at.size, dtype=bool)
        need[row[probe]] = True
        need = np.flatnonzero(need)
        x = np.exp(_linspace_lanes(*np.log(first_cell[need].T), PROBE))
        x_args = tuple(v[need, None] for v in md_rows)
        at_p = np.searchsorted(need, row[probe])
        ratio, fa, md = (v[at_p] for v in (
            _slope_log_ratio(x, *x_args[:2]), _g_fa(x), _g_md(x, *x_args)))
        found = _first_turn(x[at_p], _phi(ratio, neg_half_d[probe, None], fa, md))
        better = probe[found[4]]
        for out, v in zip((lo, hi, f_lo, f_hi, turn), found):
            out[better] = v[found[4]]
    return lo, hi, f_lo, f_hi, turn, scanned, scan_gamma, np.exp(scan_log)


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
    lam in (-1/(n(1-|rho|)), 1/(n(1+|rho|))).  rho = 0 gives the null MGF's
    log, by ``log1p``.  Stays finite where ``mgf_alt`` underflows or overflows.
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
    return -0.5 * d * (math.log(base) if rho else math.log1p(-(n * lam) ** 2))


def mgf_alt(lam: float, n: float, d: float, rho: float) -> float:
    """Moment generating function of the statistic under the correlated law.

    (1 - 2 n lam |rho| - n^2 lam^2 (1-rho^2))^(-d/2), the null MGF at rho = 0;
    inf past the float range.  See ``log_mgf_alt``.
    """
    log_mgf = log_mgf_alt(lam, n, d, rho)
    try:
        return math.exp(log_mgf)
    except OverflowError:
        return math.inf


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
        # dn ln(1/(1-rho^2)) >= 0; where it overflows expm1, the value is -inf.
        value = 1.0 - np.sqrt(np.expm1(-d * n * np.log1p(-rho2)))
    return np.where(value > 0.0, value, 0.0)


def default_k_star(n):
    """Default truncation depth, elementwise: ceil(13 sqrt(n)) clamped to floor(n), NaN at n < 0."""
    with _float_errstate():
        return np.minimum(np.floor(n), np.ceil(13.0 * np.sqrt(n)))


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


def _k_stars(n, d, k_star: int | None, margin: float):
    """The schedule preconditions but its length cap, on 1-D lanes of (n, d):
    d n finite, margin > 0, 1 <= k_star <= floor(n) and d >= 4 ln(en/k_star).

    Returns each lane's k_star as a float (``default_k_star`` for None), 0
    where a precondition fails, and the index of its first failed one, 4 if
    none.  An explicit k_star is compared with floor(n) as a Python int and
    made a float only if a lane passes.  None of the tests reads rho^2.
    """
    with _float_errstate():
        fails = [~np.isfinite(d * n), np.full(n.size, not margin > 0.0)]  # NaN fails too
        if k_star is None:
            ks = default_k_star(n)
            fails.append(~(ks >= 1.0))
        else:
            fails.append(~np.array([1 <= k_star <= top for top in np.floor(n).tolist()],
                                   dtype=bool))
            usable = not (fails[0] | fails[1] | fails[2]).all()
            ks = np.full(n.size, float(k_star) if usable else 0.0)
        fails.append(d < 4.0 * (1.0 + np.log(n / ks)))  # ln(en/k_star)
    first = np.argmax(np.stack([*fails, np.ones(n.size, dtype=bool)]), axis=0)
    return np.where(first == len(fails), ks, 0.0), first


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
    _, (failed,) = _k_stars(*_lanes(n, d)[1], k_star, margin)
    if failed == 0:
        raise ConditionViolatedError(f"d * n overflows the float range: d = {d}, n = {n}")
    if failed == 1:
        raise ConditionViolatedError("margin must be > 0")
    n_top = int(math.floor(n))
    if k_star is None:  # a default out of range is 0, or NaN at n < 0
        k_star = int(default_k_star(n)) if failed > 2 else 0
    if failed == 2:
        raise ConditionViolatedError(f"k_star must lie in [1, {n_top}], got {k_star}")
    if failed == 3:
        raise ConditionViolatedError(f"d >= 4 ln(en/k_star) fails: d = {d}, "
                                     f"4 ln(en/k_star) = {4.0 * (1.0 + math.log(n / k_star))}")
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
    rho2_sq = np.square(rho2)
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
    # A lane failing the schedule preconditions (k_star 0), or at rho2 = 0,
    # keeps the unconditional bound.
    ks, _ = _k_stars(n, d, k_star, margin)
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
        t1 = 0.5 * d * n * np.square(rho2 / u) + d * ks * rho2 / u
        # {k_star, floor(n)}: the size may repeat, which min and all ignore.
        schedule = _schedule(*cols, ks, np.stack([ks, np.floor(n)], axis=1), margin)
        rates = truncation_exponents(schedule, *cols)
        norm, cross, psi = rates.deficit_norm, rates.deficit_cross, rates.second_moment
        m = np.where(cross < norm, cross, norm)  # min(norm, cross)
        # ln(1 - e^-x) is -inf at a rate x = 0 and NaN below, and B2 >= e^700
        # where t1 > 700, so value is -inf, NaN or below 0 there, and the
        # unconditional bound is kept.  A positive rate is at least 2^-52, so
        # log_d1 < 38 and log_tail < 37 (docs/math_notes.md, section 3).
        log_d1 = math.log(4.0) - ks * m - np.log(-np.expm1(-m))
        log_tail = -ks * psi - np.log(-np.expm1(-psi))
        d1 = np.exp(log_d1)
        b2 = np.exp(t1) + np.exp(log_tail)
        value = 1.0 - (np.sqrt(b2 - 1.0 + 2.0 * d1) + d1)
    best = np.where(value > 0.0, value, 0.0)  # max(0.0, value, uncond)
    return np.where(schedule.valid & ~(uncond > best), best, uncond)


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
        log_b = np.log(n) + 0.25 * d * np.log1p(-rho2)
        a = n * log_b
        # (1 - b^n) / (1 - b), sign-safe
        value = np.exp(log_b) * (np.expm1(a) / np.expm1(log_b))
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
    if not epsilon_d >= 0.0:  # NaN fails this too
        raise DomainError("epsilon_d must be nonnegative")
    shape, (n, d, rho2) = _checked_lanes(n, d, rho2)
    with _float_errstate():
        log_a = np.log(n) + 0.25 * d * (1.0 + epsilon_d) * np.log1p(-rho2)
        # a <= 1 drives the expression to 1 - 1 - 4 or below, then to 0.
        value = 1.0 - np.exp(-2.0 * log_a) - 4.0 * np.exp(-log_a)
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

#: Where a converse is below its target at 1e-13, it is evaluated on these
#: decades in turn: 1e-14 down to 1e-307, the last above the least normal float.
_DECADES = [10.0**-k for k in range(14, 308)]

#: Relative width at which ``invert_for_rho2`` stops narrowing a bracket
#: [lo, hi] of rho2: hi - lo <= INVERT_RTOL * hi.
INVERT_RTOL = 1e-12

#: Most steps of a ``_illinois`` search: after the pre-scan, after the
#: ``det-ach`` confirmation, and in each ``minimize_two_exponent`` call.
#: Geometric bisection alone takes the widest pre-scan bracket (a factor of
#: 4.3 in rho2) to ``INVERT_RTOL`` in 41 steps, and a decade in 42; the regula
#: falsi takes 8-17 on the reference grids, and none after a confirmation
#: there.  A lane still wider at the cap reports its bracket end, which keeps
#: the convention.
INVERT_MAX_STEPS = 64


def _invert_lanes(risk, search, lanes: int, bound_kind: str, target: float, mode: str) -> list:
    """The pre-scan and bracket search, run for ``lanes`` lanes in lockstep.

    ``risk(sel, rho2)`` evaluates lanes ``sel`` at the rho2 values, one
    each, and ``search`` does so for the search steps.  Where ``search`` is
    not ``risk`` (it may differ from it in the last digits), one call of
    ``risk`` confirms each final bracket's ends and a point half a stop
    width outside each, and a lane whose new bracket is still wide searches
    on with ``risk``.  Returns, per lane, the float or the
    ``InversionUndefinedError``.
    """
    ends = float(_PRESCAN[0]), float(_PRESCAN[-1])
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
    increases = (finite[:, 1:] & (last >= 0) & rise).any(axis=1)
    nan = np.isnan(table).any(axis=1)
    high_side = high(table, target)
    first_high, last_high = high_side[:, 0], high_side[:, -1].tolist()
    cross = np.argmin(high_side, axis=1)  # first pre-scan point past the crossing
    rows = np.arange(lanes)
    lo, hi = _PRESCAN[cross - 1], _PRESCAN[cross]
    v_lo, v_hi = table[rows, cross - 1], table[rows, cross]
    # A converse already below the target at the first pre-scan point steps
    # down ``_DECADES``, one array call per decade, until it is on the high
    # side; that decade and the one above it are its bracket.
    live = np.flatnonzero(~(first_high | nan | increases)) if mode == "conv" else rows[:0]
    above, v_above = ends[0], table[live, 0]
    for r2 in _DECADES:
        if not live.size:
            break
        vals = risk(live, np.full(live.size, r2))
        up = high(vals, target)
        hit = live[up]
        lo[hit], hi[hit], v_lo[hit], v_hi[hit] = r2, above, vals[up], v_above[up]
        first_high[hit] = True
        live, above, v_above = live[~up], r2, vals[~up]
        if r2 == _DECADES[0] and live.size:
            # The bound decreases in rho2, so a lane still below the target
            # at the last decade meets it at none and leaves the scan now.
            keep = high(risk(live, np.full(live.size, _DECADES[-1])), target)
            live, v_above = live[keep], v_above[keep]
    low = ends[0] if mode == "ach" else _DECADES[-1]
    scanned = f"the scanned range [{low!r}, {ends[1]!r}] of rho2"
    out: list = []
    for lane in range(lanes):
        if nan[lane] or increases[lane]:
            why = "NaN on the rho2 pre-scan" if nan[lane] else "not decreasing in rho2"
            out.append(InversionUndefinedError(f"{bound_kind} bound is {why}; inversion undefined"))
        elif not first_high[lane]:
            out.append(float(_PRESCAN[0]) if mode == "ach" else InversionUndefinedError(
                f"{bound_kind} bound is below target {target} everywhere on {scanned}"))
        elif last_high[lane]:
            out.append(float(_PRESCAN[-1]) if mode == "conv" else InversionUndefinedError(
                f"{bound_kind} bound never reaches target {target} on {scanned}"))
        else:
            out.append(None)
    bracketed = np.array([lane for lane, v in enumerate(out) if v is None], dtype=np.intp)
    # The search runs on f = ln(risk / target), infinite where the risk is
    # inf or a converse is clamped to 0; the bracket's low end is on the high
    # side of the target, its high end not.
    log_target = math.log(target)

    def narrow(bound, at, lo, hi, v_lo, v_hi):
        def step(live, x):
            r = bound(at[live], x)
            with np.errstate(divide="ignore"):
                return high(r, target), np.log(r) - log_target

        with np.errstate(divide="ignore"):
            f_lo, f_hi = np.log(v_lo) - log_target, np.log(v_hi) - log_target
        return _illinois(step, lo, hi, f_lo, f_hi, INVERT_RTOL)

    lo, hi, v_lo, v_hi = (v[bracketed] for v in (lo, hi, v_lo, v_hi))
    s_lo, s_hi = narrow(search, bracketed, lo.copy(), hi.copy(), v_lo, v_hi)
    if search is not risk and bracketed.size:
        # Per lane, the pre-scan's ends, the search's ends and a point half a
        # stop width outside each, in order, with ``risk`` at the middle four
        # in one call; the first point not on the high side and the one
        # before it are the bracket.  Most are the search's own ends, or one
        # of them and its neighbour, and need no further step.
        gap = 0.5 * INVERT_RTOL
        points = np.stack([lo, np.maximum(s_lo * (1.0 - gap), lo), s_lo,
                           s_hi, np.minimum(s_hi * (1.0 + gap), hi), hi], axis=1)
        values = np.empty_like(points)
        values[:, 0], values[:, -1] = v_lo, v_hi
        values[:, 1:-1] = risk(np.repeat(bracketed, 4), points[:, 1:-1].ravel()).reshape(-1, 4)
        k = np.argmin(high(values, target), axis=1)
        rows = np.arange(bracketed.size)
        s_lo, s_hi = narrow(risk, bracketed, points[rows, k - 1], points[rows, k],
                            values[rows, k - 1], values[rows, k])
    for lane, value in zip(bracketed.tolist(), (s_hi if mode == "ach" else s_lo).tolist()):
        out[lane] = value
    return out


def _warm_ach_search(d):
    """The ``det-ach`` bound for one inversion's search steps, on lanes of ``d``.

    Each lane keeps its last minimizer as a fraction of 4 rho^2, and the
    next step's ``_minimize_lanes`` warm-starts from it where it settled.
    """
    warm = np.full(d.size, np.nan)

    def risk(sel, rho2):
        gamma, bound, settled = _minimize_lanes(d[sel], rho2, warm[sel])
        warm[sel] = np.where(settled, gamma / (4.0 * rho2), np.nan)
        return bound

    return risk


def _illinois(step, lo, hi, f_lo, f_hi, rtol: float):
    """Narrow each bracket [lo, hi] (positive) to hi - lo <= rtol * hi, at
    most ``INVERT_MAX_STEPS`` steps; returns the final (lo, hi) arrays.

    f is positive at ``lo`` and not at ``hi``, with ``f_lo`` and ``f_hi``
    its values there.  ``step(live, x)`` evaluates f for the lanes ``live``
    at the points x, one each, and returns (whether f > 0 there, f).  All
    live lanes step together: Illinois regula falsi on f against ln x, where
    the end kept twice in a row has its f halved.  The secant point is held
    at least 0.4 * rtol * hi inside the bracket, so after a point lands on
    the root the next one falls just past it and closes the bracket; where
    an end's f is not finite, the step is the geometric midpoint instead,
    held inside the same way.
    """
    # The live lanes' brackets, values and last move (+1: lo moved, -1: hi
    # moved), packed; a lane's bracket is written back when it is done.
    live, a, b, fa, fb = np.arange(lo.size), lo, hi, f_lo, f_hi
    moved = np.zeros(lo.size, dtype=np.int8)
    for _ in range(INVERT_MAX_STEPS):
        if not (wide := b - a > rtol * b).all():
            lo[live], hi[live] = a, b
            live, a, b, fa, fb, moved = (v[wide] for v in (live, a, b, fa, fb, moved))
        if not live.size:
            break
        secant = np.isfinite(fa) & np.isfinite(fb) & (fa > fb)
        log_a = np.log(a)
        gap = 0.4 * rtol * b
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = np.exp(log_a + fa / (fa - fb) * (np.log(b) - log_a))
        # a b underflows below about 1e-154; sqrt(a) sqrt(b) keeps the midpoint there.
        mid = np.where(a * b >= np.finfo(float).tiny, np.sqrt(a * b), np.sqrt(a) * np.sqrt(b))
        x = np.minimum(np.maximum(np.where(secant, x, mid), a + gap), b - gap)
        up, fx = step(live, x)
        # Illinois: halve the f of an end kept for the second step running.
        a, b, fa, fb = (
            np.where(up, x, a),
            np.where(up, b, x),
            np.where(up, fx, np.where(moved == -1, 0.5 * fa, fa)),
            np.where(up, np.where(moved == 1, 0.5 * fb, fb), fx),
        )
        moved = np.where(up, 1, -1)
    lo[live], hi[live] = a, b
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

    Conventions (README, "Curve inversion conventions"):

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
    achievability, its low end for converses.  The pre-scan spans
    [1e-13, 1 - 1e-9]: a bound already on the low side of the target at
    1e-13 gives 1e-13 for achievability, and one still on the high side at
    1 - 1e-9 gives 1 - 1e-9 for converses.  A converse below the target at
    1e-13 steps down by decades (1e-14, ..., 1e-307) until it is not; one
    still below it at 1e-14 is evaluated at 1e-307 next, and leaves the
    scan at once if it is below it there too.  A converse below it down to
    1e-307, or an achievability bound above it at 1 - 1e-9, raises
    ``InversionUndefinedError``, naming the range scanned; so do a failed
    monotonicity check and a NaN in the scan.

    ``det-ach``'s search steps warm-start each lane's minimization over the
    test's tuning from its last step's minimizer, within the call
    (``_minimize_lanes``).  That bound can differ from
    ``detection_ach_risk`` in its last digits, so one
    ``detection_ach_risk`` call then confirms each lane's final bracket,
    and the reported value keeps the convention with the public bound
    (docs/math_notes.md, section 3).

    ``n`` and ``d`` may also be arrays, broadcast to a block of lanes.  The
    block is inverted at once and a list comes back with, per lane, the
    float or the ``InversionUndefinedError`` a scalar call would raise; the
    floats are those of the scalar calls.  One lane runs per distinct input
    of the kind's bound: d for ``det-ach`` (its bound ignores n), (n, d) for
    the others.  The lanes search in lockstep, and the 41-point pre-scan and
    each search step are one array call of the kind's bound (for
    ``det-ach``, a step is one call of its warm-started minimizer).
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

    def risk(sel, r2):
        return bound(nn[sel], dd[sel], r2)

    search = _warm_ach_search(dd) if bound_kind == "det-ach" else risk
    found = dict(zip(first.values(), _invert_lanes(
        risk, search, at.size, bound_kind, target, mode)))
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
    The grid is cut into consecutive blocks of ``LANE_CAP`` points, each
    inverted by one ``invert_for_rho2`` call per kind; ``workers`` only sets
    how many processes share them, so any worker count makes the same calls,
    and a grid of at most ``LANE_CAP`` points is one block, run in process.
    """
    if axis not in ("d", "n"):
        raise DomainError("axis must be 'd' or 'n'")
    if axis == "d" and n is None:
        raise DomainError("axis='d' sweeps require a fixed n")
    if axis == "n" and d is None:
        raise DomainError("axis='n' sweeps require a fixed d")
    grid = [float(v) for v in values]
    tasks = []
    for start in range(0, len(grid), LANE_CAP):
        block = grid[start : start + LANE_CAP]
        nn = block if axis == "n" else [float(n)] * len(block)
        dd = block if axis == "d" else [float(d)] * len(block)
        tasks.append((block, nn, dd, target_risk, k_star, margin, epsilon_d))
    results = parallel_map(_curve_block, tasks, workers)
    points = [p for block_points, _ in results for p in block_points]
    notes = [msg for _, msgs in results for msg in msgs]
    return points, notes
