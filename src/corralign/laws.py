"""Exact laws of the model, each computed in one place: E_0 L^2, the null
second moment of the permutation-mixture likelihood ratio, over the cycle
types of S_n (``exact_second_moment``), on which the detection converse
rests; and the tail of a Gaussian quadratic form sum_j w_j Z_j^2, such as the
detection statistic, by Imhof's formula (``quadratic_form_tail``,
``docs/math_notes.md`` section 6).

This module imports only the standard library, numpy, ``core`` and
``errors``, so ``bounds``, ``detect`` and ``oracle`` may all import it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import CycleType, cycle_type_count, enumerate_cycle_types
from .errors import DomainError, SizeCapError

#: cycle-type cap for the exact second moment.
SECOND_MOMENT_CAP = 10
#: Most values one array of a chunked loop holds (``_imhof_sums``, ``oracle._pair_chunks``).
ARRAY_BUDGET = 4096 * 50


def cycle_type_weight(t: CycleType, d: float, rho2: float) -> float:
    """Product over cycle lengths k of (1 - rho^(2k))^(-d N_k); inf past the float range."""
    if not 0.0 <= rho2 < 1.0:
        raise DomainError("rho2 must lie in [0, 1)")
    acc = 0.0
    for k, count in enumerate(t.counts, start=1):
        if count:
            acc += count * math.log1p(-(rho2**k))
    try:
        return math.exp(-d * acc)
    except OverflowError:
        return math.inf


def second_moment_reduction(
    type_counts, n: int, d: float, rho2: float
) -> float:
    """Shared reduction sum((count / n!) * weight) in the given sequence order.

    Both the cycle-type formula and the brute-force permutation census reduce
    through this function, so agreement between them is exact, not
    approximate.
    """
    total = math.factorial(n)
    acc = 0.0
    for t, count in type_counts:
        acc += (count / total) * cycle_type_weight(t, d, rho2)
    return acc


def exact_second_moment(n: int, d: float, rho2: float) -> float:
    """E_0 L^2 summed over cycle types with exact integer multiplicities."""
    if n > SECOND_MOMENT_CAP:
        raise SizeCapError(
            f"cycle-type second moment is capped at n = {SECOND_MOMENT_CAP}, got {n}"
        )
    return second_moment_reduction(_cycle_type_counts(n), n, d, rho2)


@functools.lru_cache(maxsize=None)
def _cycle_type_counts(n: int) -> tuple[tuple[CycleType, int], ...]:
    """``(type, class size)`` for every cycle type of S_n, in ``enumerate_cycle_types`` order."""
    return tuple((t, cycle_type_count(t)) for t in enumerate_cycle_types(n))


#: Absolute accuracy ``quadratic_form_tail`` aims for, for each of its
#: truncation and its aliasing.
TAIL_TOL = 1e-10
#: Most nodes one ``quadratic_form_tail`` call sums.  With fewer than about
#: four nonzero weights ``TAIL_TOL`` would take far more (about 3e10 for two
#: unit weights); there the integral stops early and the returned error
#: says by how much.
TAIL_NODE_CAP = 1 << 20


def quadratic_form_tail(weights, x):
    """P(sum_j w_j X_j^2 > x) for independent N(0, 1) X_j, and an error bound.

    Imhof's inversion formula (docs/math_notes.md, section 6) gives
    P = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du, where
    theta(u) = sum_j arctan(w_j u) / 2 - x u / 2 and
    rho(u) = prod_j (1 + w_j^2 u^2)^(1/4); the integrand tends to
    (sum_j w_j - x) / 2 as u -> 0.  It is summed by the trapezoid rule on
    the grid of ``_imhof_grid``.  Returns (tail, error), shaped like ``x``:
    error is the difference between the rules with steps h and 2h plus the
    truncation bound, over pi.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    xs = np.asarray(x, dtype=np.float64)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(xs))):
        raise DomainError("weights and x must be finite")
    vals, counts = np.unique(w[w != 0.0], return_counts=True)
    if vals.size == 0:
        raise DomainError("weights must have a nonzero entry")
    mult = counts.astype(np.float64)
    flat = xs.reshape(-1)
    h, nodes, truncation = _imhof_grid(vals, mult, flat)
    fine, coarse = _imhof_sums(vals, mult, flat, h, nodes)
    tail = 0.5 + h * fine / math.pi
    error = (np.abs(h * fine - 2.0 * h * coarse) + truncation) / math.pi
    return tail.reshape(xs.shape), error.reshape(xs.shape)


def _imhof_grid(vals, mult, xs) -> tuple[float, int, float]:
    """(h, nodes, truncation): the trapezoid step and node count for
    ``quadratic_form_tail``, and the bound on the integral past the last node.

    The integrand is even in u and analytic near the real axis, so the
    trapezoid rule with step h errs only by aliasing: it gives the tail at
    x plus the tails of Q - x beyond 4 pi / h.  The step puts 2 pi / h past
    |x - sum w| plus the Laurent-Massart deviation of level ``TAIL_TOL``,
    so the rule with step 2h is accurate too.  The integral stops at the
    first U at which Imhof's bound 2 / (m U^(m/2) prod_j |w_j|^(1/2)) on
    its remainder is at most pi ``TAIL_TOL`` (m nonzero weights with
    multiplicity), or at ``TAIL_NODE_CAP`` nodes.
    """
    level = -math.log(TAIL_TOL)
    deviation = (2.0 * math.sqrt(float(mult @ (vals * vals)) * level)
                 + 2.0 * float(np.abs(vals).max()) * level)
    h = 2.0 * math.pi / (float(np.abs(xs - mult @ vals).max(initial=0.0)) + deviation)
    m = float(mult.sum())
    log_root_prod = 0.5 * float(mult @ np.log(np.abs(vals)))
    log_end = (math.log(2.0 / (math.pi * m * TAIL_TOL)) - log_root_prod) / (0.5 * m)
    nodes = math.ceil(math.exp(min(log_end - math.log(h), math.log(TAIL_NODE_CAP))))
    truncation = math.exp(math.log(2.0 / m) - 0.5 * m * math.log(nodes * h) - log_root_prod)
    return h, nodes, truncation


def _imhof_sums(vals, mult, xs, h: float, nodes: int):
    """(fine, coarse) per x: half the integrand at 0 plus its sum over nodes
    1..``nodes`` of step h, and over the even nodes alone.

    Equal weights come once, with their multiplicity, and the nodes go in
    chunks, so no array holds more than ``ARRAY_BUDGET`` values.
    """
    fine = 0.25 * (mult @ vals - xs)  # half the u -> 0 limit
    coarse = fine.copy()
    chunk = max(ARRAY_BUDGET // max(vals.size, xs.size), 1)
    for start in range(1, nodes + 1, chunk):
        u = h * np.arange(start, min(start + chunk, nodes + 1), dtype=np.float64)
        wu = u[:, None] * vals
        phase = 0.5 * (np.arctan(wu) @ mult)
        amp = np.exp(-0.5 * (np.log(np.hypot(1.0, wu)) @ mult)) / u
        g = np.sin(phase - 0.5 * xs[:, None] * u) * amp
        fine += g.sum(axis=1)
        coarse += g[:, start % 2 :: 2].sum(axis=1)
    return fine, coarse
