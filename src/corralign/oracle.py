"""Independent verification oracles for every closed form in the package.

Everything here recomputes a quantity by a second route — brute-force
enumeration, Monte Carlo, or dense linear algebra — and compares it against
the closed form used elsewhere.  The ``verify`` entry point runs the whole
named-check suite and returns a structured report; the CLI surfaces it.

All Monte-Carlo checks accept at 3 sigma (with a rule-of-three floor for
degenerate counts) and derive their generators from (master seed, check
name, batch index) so reruns and worker counts cannot change results.
Each job has one implementation: both tail bounds count exceedances in
``_tail_check``, both statistic MGFs run through ``_mgf_mc_check``, and every
worst-case fold is ``_worst``, which lets a NaN through so it fails its check.

The draws never change: each check keeps its streams, draw count and draw
order.  The batch arithmetic around them may change only where every bit of
the pinned rows holds (``test_refactored_rows_are_pinned`` and
``test_batched_rows_are_pinned``), so a faster form must compute the same
floats, not merely close ones.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .core import (
    CycleType,
    MCEstimate,
    Permutation,
    ProblemParams,
    SeedSpec,
    as_seedspec,
    binomial_ci,
    count_failures,
    cycle_decompose,
    cycle_type_count,
    enumerate_cycle_types,
    enumerate_permutations,
    parallel_map,
)
from .errors import DomainError, SizeCapError
from .gen import DatabasePair, sample_alt

#: cycle-type cap for the exact second moment.
SECOND_MOMENT_CAP = 10
#: cap for Monte-Carlo likelihood statistics.
MC_CAP = 6
#: largest cycle length for the circulant determinant check.
CIRCULANT_CAP = 50
#: fixed-point-set size above which subset enumeration is refused.
ENUMERATE_CAP = 12

_BATCH = 4096


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    statistic: float
    reference: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "statistic", float(self.statistic))
        object.__setattr__(self, "reference", float(self.reference))


@dataclass(frozen=True)
class VerifyReport:
    """All check results from one ``verify`` run."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


# ---------------------------------------------------------------------------
# Likelihood ratio of the permutation mixture
# ---------------------------------------------------------------------------


def _log_ratio_matrix(x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """M[i, j] = log of the per-row density quotient when x_i pairs with y_j.

    Written in the symmetric form
    -(d/2) ln(1-rho^2) - (rho^2 (|x|^2 + |y|^2) - 2 rho <x, y>) / (2 (1-rho^2)),
    which equals the conditional-density quotient N_rho(y|x) / N(y) exactly.
    """
    d = x.shape[-1]
    u = 1.0 - rho * rho
    sx = np.sum(x * x, axis=-1)
    sy = np.sum(y * y, axis=-1)
    g = x @ np.swapaxes(y, -1, -2)
    quad = rho * rho * (sx[..., :, None] + sy[..., None, :]) - 2.0 * rho * g
    return -0.5 * d * math.log(u) - quad / (2.0 * u)


def _logsumexp(v: np.ndarray, axis=-1) -> np.ndarray:
    m = np.max(v, axis=axis, keepdims=True)
    out = m[..., 0] + np.log(np.sum(np.exp(v - m), axis=axis))
    return out


def _batched_log_l(xs: np.ndarray, ys: np.ndarray, rho: float) -> np.ndarray:
    """Vector of log likelihood ratios for a batch of (x, y) pairs."""
    n = xs.shape[-2]
    m = _log_ratio_matrix(xs, ys, rho)
    perms = enumerate_permutations(n)
    vals = m[..., np.arange(n)[None, :], perms].sum(axis=-1)
    return _logsumexp(vals, axis=-1) - math.log(math.factorial(n))


def log_likelihood_ratio(pair: DatabasePair, rho: float) -> float:
    """Log of the uniform permutation-mixture likelihood ratio, via log-sum-exp."""
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    return float(_batched_log_l(pair.x[None], pair.y[None], rho)[0])


# ---------------------------------------------------------------------------
# Second moment via cycle types
# ---------------------------------------------------------------------------


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
    types = enumerate_cycle_types(n)
    return second_moment_reduction(
        [(t, cycle_type_count(t)) for t in types], n, d, rho2
    )


def _mc_cap(n: int) -> None:
    if n > MC_CAP:
        raise SizeCapError(f"Monte-Carlo likelihood statistics are capped at n = {MC_CAP}")


def _worst(values, floor: float = -math.inf) -> float:
    """Largest of ``values`` and ``floor`` (a violation where positive).

    NaN propagates: Python's ``max`` drops a NaN that is not its first
    argument, which would let a broken closed form pass its check.
    """
    return float(np.max(values, initial=floor))


def _batches(spec: SeedSpec, trials: int):
    """Yield ``(rng, size)`` for each batch of ``trials`` draws.

    Batch b holds up to ``_BATCH`` draws from ``spec.rng(b)``.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    for batch, start in enumerate(range(0, trials, _BATCH)):
        yield spec.rng(batch), min(_BATCH, trials - start)


def _mc_mean(spec: SeedSpec, trials: int, draw) -> tuple[float, float]:
    """Sample mean of ``draw(rng, size)`` values and its 3-sigma radius.

    The values come in ``_batches``; the radius uses the sample variance.
    """
    total = 0.0
    total_sq = 0.0
    for rng, size in _batches(spec, trials):
        w = draw(rng, size)
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return mean, 3.0 * math.sqrt(var / trials)


def _mc_likelihood_reduce(n, d, rho, trials, seed, transform):
    """Stream batches of null draws through transform(log_l) and average."""

    def draw(rng, size):
        xs = rng.standard_normal((size, n, d))
        ys = rng.standard_normal((size, n, d))
        return transform(_batched_log_l(xs, ys, rho))

    return _mc_mean(as_seedspec(seed, "oracle/likelihood-mc"), trials, draw)


def mc_second_moment(n: int, d: int, rho: float, trials: int, seed):
    """Monte-Carlo E_0 L^2 with a 3-sigma sample-variance interval.

    The interval is honest only where E_0 L^4 is finite (small rho^2); see
    the caller notes in the tests for the divergence threshold.
    """
    _mc_cap(n)
    mean, ci = _mc_likelihood_reduce(
        n, d, rho, trials, seed, lambda log_l: np.exp(2.0 * log_l)
    )
    return MCEstimate(value=mean, ci_radius=ci, trials=trials)


def tv_risk_lower_bound_mc(n: int, d: int, rho: float, trials: int, seed):
    """Risk floor 1 - E_0 |L - 1| estimated by Monte Carlo."""
    _mc_cap(n)
    mean, ci = _mc_likelihood_reduce(
        n, d, rho, trials, seed, lambda log_l: np.abs(np.expm1(log_l))
    )
    return MCEstimate(value=1.0 - mean, ci_radius=ci, trials=trials)


# ---------------------------------------------------------------------------
# Gaussian quadratic-form MGFs
# ---------------------------------------------------------------------------


def _require_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise DomainError("matrix must be symmetric")
    return a


def _quadratic_form(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row t's x_t' A x_t for each row of ``x``.

    Adds the products (x_i A_ij) x_j in row-major (i, j) order, starting
    from 0, as the three-operand ``np.einsum("ti,ij,tj->t", ...)`` does, so
    the values keep its bits; zero entries of A add nothing and are skipped.
    """
    out = np.zeros(x.shape[0])
    cols = np.ascontiguousarray(x.T)
    for i, j in zip(*np.nonzero(a)):
        out += (cols[i] * a[i, j]) * cols[j]
    return out


def quadratic_mgf_check(R: np.ndarray, b: np.ndarray, trials: int, seed) -> CheckResult:
    """MC mean of exp(X'RX/2 + X'b) against the Gaussian closed form."""
    r = _require_symmetric(R)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    dim = r.shape[0]
    if b.shape[0] != dim:
        raise DomainError("b must have one entry per dimension of R")
    eye = np.eye(dim)
    try:
        np.linalg.cholesky(eye - r)
    except np.linalg.LinAlgError:
        raise DomainError("I - R must be positive definite") from None
    sign, logdet = np.linalg.slogdet(eye - r)
    closed = math.exp(0.5 * float(b @ np.linalg.solve(eye - r, b)) - 0.5 * logdet)

    def draw(rng, size):
        x = rng.standard_normal((size, dim))
        return np.exp(0.5 * _quadratic_form(x, r) + x @ b)

    mean, ci = _mc_mean(as_seedspec(seed, "oracle/quadratic-mgf"), trials, draw)
    return CheckResult(
        name="quadratic-mgf",
        passed=abs(mean - closed) <= ci + 1e-12,
        statistic=mean,
        reference=closed,
        detail=f"3-sigma half-width {ci:.3e} over {trials} draws",
    )


def pair_mgf_check(a: float, b: float, d: int, trials: int, seed) -> CheckResult:
    """MC and block-matrix routes to E exp(-a|X|^2 - a|Y|^2 + b X'Y).

    The closed form ((1+2a)^2 - b^2)^(-d/2) must agree with the generic
    quadratic-form formula applied to the 2d-dimensional block matrix, and
    the MC mean must agree with both.
    """
    if 1.0 + 2.0 * a <= 0.0 or abs(1.0 + 2.0 * a) <= abs(b):
        raise DomainError("need 1 + 2a > 0 and |1 + 2a| > |b| for convergence")
    closed = ((1.0 + 2.0 * a) ** 2 - b * b) ** (-0.5 * d)
    eye = np.eye(d)
    r = np.block([[-2.0 * a * eye, b * eye], [b * eye, -2.0 * a * eye]])
    inner = quadratic_mgf_check(r, np.zeros(2 * d), trials, seed)
    forms_agree = abs(inner.reference - closed) <= 1e-10 * closed
    return CheckResult(
        name="pair-mgf",
        passed=bool(inner.passed and forms_agree),
        statistic=inner.statistic,
        reference=closed,
        detail=f"block-form reference {inner.reference!r}; {inner.detail}",
    )


def circulant_det_check(cycle_len: int, rho: float) -> CheckResult:
    """Dense determinant of the cycle coupling matrix vs its closed form.

    The length-L circulant has first row (rho^2/(1-rho^4)) *
    (-2 rho^2, 1, 0, ..., 0, 1) with the two off-center entries folded
    together for L <= 2; det(I - R) must equal
    (1 - rho^(2L))^2 / (1 - rho^4)^L to 1e-8 relative.
    """
    if not 1 <= cycle_len <= CIRCULANT_CAP:
        raise SizeCapError(f"cycle length must lie in [1, {CIRCULANT_CAP}]")
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise DomainError("|rho| must be < 1")
    r2 = rho * rho
    f = r2 / (1.0 - r2 * r2)
    length = cycle_len
    row = np.zeros(length)
    row[0] = -2.0 * r2 * f
    row[1 % length] += f
    row[-1 % length] += f
    idx = (np.arange(length)[None, :] - np.arange(length)[:, None]) % length
    mat = np.eye(length) - row[idx]
    sign, logdet = np.linalg.slogdet(mat)
    target_log = 2.0 * math.log1p(-(r2**length)) - length * math.log1p(-(r2 * r2))
    rel = abs(math.expm1(logdet - target_log)) if sign > 0 else math.inf
    return CheckResult(
        name=f"circulant-det-L{cycle_len}",
        passed=rel <= 1e-8,
        statistic=float(sign * math.exp(logdet)),
        reference=math.exp(target_log),
        detail=f"relative error {rel:.3e}",
    )


# ---------------------------------------------------------------------------
# Concentration tail checks
# ---------------------------------------------------------------------------


def _tail_check(name: str, spec: SeedSpec, trials: int, dim: int, t_grid,
                statistic, bound) -> CheckResult:
    """Largest excess of the empirical P(statistic >= t) over its bound.

    ``statistic`` maps a (size, dim) block of N(0, I) rows, drawn in
    ``_batches``, to one value per row; ``bound`` maps the t grid to its
    per-t tail bounds.  The check passes iff no grid point's exceedance rate
    tops its bound by more than ``binomial_ci``.
    """
    ts = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    if ts.size == 0:
        raise DomainError("t grid must be nonempty")
    if np.any(ts <= 0.0):
        raise DomainError("t grid must be positive")
    counts = np.zeros(ts.shape[0], dtype=np.int64)
    for rng, size in _batches(spec, trials):
        s = statistic(rng.standard_normal((size, dim)))
        counts += (s[:, None] >= ts[None, :]).sum(axis=0)
    worst = _worst([c / trials - (bnd + binomial_ci(int(c), trials))
                    for c, bnd in zip(counts, bound(ts))])
    return CheckResult(name, worst <= 0.0, worst, 0.0,
                       f"max (empirical - bound - 3sigma) over {ts.shape[0]} grid points")


def laurent_massart_check(d: int, alpha, t_grid, trials: int, seed) -> CheckResult:
    """Lower-tail bound for weighted chi-square sums, on a grid of t values.

    Passes iff the empirical P(sum alpha_i (X_i^2 - 1) <= -t) never exceeds
    exp(-t^2 / (4 |alpha|_2^2)) by more than 3 sigma.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != d:
        raise DomainError("alpha must have d entries")
    if np.any(alpha < 0.0):
        raise DomainError("alpha entries must be nonnegative")
    norm_sq = float(alpha @ alpha)
    if norm_sq == 0.0:
        raise DomainError("alpha must have a positive entry")
    return _tail_check(
        "tail-squares", as_seedspec(seed, "oracle/laurent-massart"), trials, d, t_grid,
        lambda x: -((x * x - 1.0) @ alpha),
        lambda ts: np.exp(-(ts**2) / (4.0 * norm_sq)),
    )


def aligned_cross_term_matrix(rho: float, block_dim: int) -> np.ndarray:
    """Quadratic-form matrix of the aligned inner-product deviation.

    The statistic sign(rho) sum <X_i, Y_i> over block_dim aligned
    coordinates is Z'AZ for the stacked Gaussian Z; A's off-diagonal part
    has eigenvalues +-sqrt(1-rho^2)/2, which is what its chaos tail bound
    uses.
    """
    rho = float(rho)
    if not 0.0 < abs(rho) < 1.0:
        raise DomainError("rho must be nonzero with |rho| < 1")
    u = math.sqrt(1.0 - rho * rho)
    eye = np.eye(block_dim)
    a = np.block([[2.0 * rho * eye, u * eye], [u * eye, np.zeros((block_dim, block_dim))]])
    return 0.5 * math.copysign(1.0, rho) * a


def gaussian_chaos_check(A: np.ndarray, t_grid, trials: int, seed) -> CheckResult:
    """Upper-tail bound for centered Gaussian quadratic forms on a t grid.

    The bound is 2 exp(-(t/16) min{t / (2 |alpha|_2^2), 1 / |alpha|_inf,
    t / (2 |lambda|_2^2), 1 / |lambda|_inf}) with alpha the diagonal of A
    and lambda the eigenvalues of its off-diagonal part.
    """
    a = _require_symmetric(A)
    alpha = np.diag(a).copy()
    off = a - np.diag(alpha)
    lam = np.linalg.eigvalsh(off)

    def half_rate(v: np.ndarray, t: float) -> float:
        two_norm_sq = float(v @ v)
        inf_norm = float(np.abs(v).max()) if v.size else 0.0
        terms = []
        if two_norm_sq > 0.0:
            terms.append(t / (2.0 * two_norm_sq))
        if inf_norm > 0.0:
            terms.append(1.0 / inf_norm)
        return min(terms) if terms else math.inf

    def bound(t: float) -> float:
        rate = min(half_rate(alpha, t), half_rate(lam, t))
        return min(2.0 * math.exp(-(t / 16.0) * rate), 1.0)

    trace = float(np.trace(a))
    return _tail_check(
        "tail-chaos", as_seedspec(seed, "oracle/gaussian-chaos"), trials, a.shape[0], t_grid,
        lambda x: _quadratic_form(x, a) - trace,
        lambda ts: [bound(float(t)) for t in ts],
    )


# ---------------------------------------------------------------------------
# Truncation event
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _subsets(n1: int, k: int) -> np.ndarray:
    """The size-k subsets of range(n1) as rows, in ``itertools.combinations`` order.

    The array is read-only, as every caller shares it; ``ENUMERATE_CAP``
    bounds n1, so the cache holds at most 78 arrays.
    """
    rows = np.array(list(itertools.combinations(range(n1), k)))
    rows.flags.writeable = False
    return rows


def truncation_event_holds(
    pair: DatabasePair,
    perm: Permutation,
    schedule: "bounds.TruncationSchedule",
    rho_sign: float,
    method: str = "sorted",
) -> bool:
    """Whether the subset-truncation event holds at a realized pair.

    The event constrains every size-k subset (k >= k_star) of the
    permutation's fixed points: both row-norm sums must exceed w_k while the
    aligned inner-product sum stays below v_k.  For each k the methods find
    the extremal subset sums (the two smallest norm sums and the largest
    cross sum), which are then tested once.  Both methods are exact:
    ``sorted`` takes them from sorted prefix sums at any size;
    ``enumerate`` scans every subset (fixed-point sets up to 12) and is the
    reference that ``sorted`` is tested against.
    """
    if rho_sign not in (1.0, -1.0, 1, -1):
        raise DomainError(f"rho_sign must be +1 or -1, got {rho_sign}")
    if method not in ("sorted", "enumerate"):
        raise DomainError(f"unknown method {method!r}")
    fixed = np.nonzero(perm.map == np.arange(perm.n))[0]
    n1 = fixed.shape[0]
    k_star = schedule.k_star
    if n1 < k_star:
        return True
    x = pair.x[fixed]
    y = pair.y[fixed]
    # Rows: norm sums of x, of y, and the cross sums negated, so the
    # extremal size-k sum of every row is its smallest.
    products = np.empty((3,) + x.shape)
    np.multiply(x, x, out=products[0])
    np.multiply(y, y, out=products[1])
    np.multiply(x, y, out=products[2])
    terms = products.sum(axis=2)
    terms[2] *= -float(rho_sign)
    if method == "sorted":
        smallest = np.cumsum(np.sort(terms, axis=1), axis=1)[:, k_star - 1 :]
    else:
        if n1 > ENUMERATE_CAP:
            raise SizeCapError(f"subset enumeration is capped at {ENUMERATE_CAP} fixed points")
        smallest = np.stack([terms[:, _subsets(n1, k)].sum(axis=2).min(axis=1)
                             for k in range(k_star, n1 + 1)], axis=1)
    w = schedule.w[: smallest.shape[1]]
    v = schedule.v[: smallest.shape[1]]
    return not ((smallest[:2] <= w).any() or (-smallest[2] >= v).any())


def _event_fails(rng, params: ProblemParams, perm: Permutation, schedule) -> bool:
    """Whether the truncation event fails on one pair drawn with ``perm`` planted."""
    pair = sample_alt(params, perm, rng)
    return not truncation_event_holds(pair, perm, schedule, params.rho_sign)


def truncated_first_moment_check(
    n: int,
    d: int,
    rho: float,
    k_star: int,
    margin: float,
    trials: int,
    seed,
) -> CheckResult:
    """Empirical truncation-event failure rate vs its union-bound deficit.

    Draws correlated pairs with the identity permutation planted and counts
    how often the event fails; the rate must stay below the closed-form
    deficit bound plus 3 sigma.  Requires a schedule whose rates are
    positive.
    """
    params = ProblemParams(n=n, d=d, rho=rho)
    schedule = bounds.truncation_schedule(n, d, params.rho2, k_star=k_star, margin=margin)
    rates = bounds.truncation_exponents(schedule, n, d, params.rho2)
    m = min(rates.deficit_norm, rates.deficit_cross)
    if not schedule.valid or m <= 0.0:
        return CheckResult(
            name="truncation-first-moment",
            passed=False,
            statistic=m,
            reference=0.0,
            detail="schedule preconditions failed; no deficit bound available",
        )
    deficit = 4.0 * math.exp(-k_star * m) / -math.expm1(-m)
    arm = ((params, Permutation.identity(n), schedule),
           as_seedspec(seed, "oracle/truncation-first-moment"))
    (failures,) = count_failures(_event_fails, [arm], trials)
    rate = failures / trials
    ci = binomial_ci(failures, trials)
    return CheckResult(
        name="truncation-first-moment",
        passed=rate <= deficit + ci,
        statistic=rate,
        reference=deficit,
        detail=f"{failures} event failures in {trials} planted trials; 3-sigma {ci:.2e}",
    )


# ---------------------------------------------------------------------------
# Named verification suite
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, object] = {}


def _check(name: str):
    def wrap(fn):
        _REGISTRY[name] = fn
        return fn

    return wrap


@_check("exponent-floor-fa")
def _chk_floor_fa(spec: SeedSpec) -> CheckResult:
    gam = np.linspace(1e-9, 1.0, 10_000)
    excess = _worst((math.sqrt(2.0) - 1.0) / 2.0 * gam - bounds.g_fa(gam))
    return CheckResult("exponent-floor-fa", excess <= 0.0, excess, 0.0,
                       "min over grid of g_fa(gamma) - (sqrt(2)-1)/2 * gamma")


@_check("exponent-floor-md")
def _chk_floor_md(spec: SeedSpec) -> CheckResult:
    r2 = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    vals = bounds.g_md(r2, np.sqrt(r2))
    excess = _worst(r2 / 30.0 - vals)
    return CheckResult("exponent-floor-md", excess <= 0.0, excess, 0.0,
                       "balanced-tuning missed-detection exponent vs rho^2/30")


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


@_check("closed-min-quadratic")
def _chk_closed_min(spec: SeedSpec) -> CheckResult:
    rng = spec.rng(0)
    draws = np.array([(rng.uniform(1.0, 200.0), rng.uniform(-300.0, 300.0)) for _ in range(100)])
    d, a = draws[np.abs(draws[:, 1]) >= 1e-3].T

    def f(x, a, d):
        # Scalar math per lane, so each lane keeps the bits of a search run alone.
        return np.array([a_ * x_ + 0.5 * d_ * math.log(1.0 / (1.0 - x_ * x_))
                         for x_, a_, d_ in zip(x.tolist(), a.tolist(), d.tolist())])

    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 10_000)
    log_term = np.log(1.0 / (1.0 - xs * xs))
    i = np.array([np.argmin(a_ * xs + 0.5 * d_ * log_term) for a_, d_ in zip(a, d)])
    _, f_best = _golden_min(f, xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, xs.size - 1)],
                            a, d, rel_tol=1e-14)
    errors = []
    for f_, a_, d_ in zip(f_best.tolist(), a.tolist(), d.tolist()):
        root = math.sqrt((2.0 * a_ / d_) ** 2 + 1.0)
        errors.append(abs(f_ - 0.5 * d_ * (math.log((root + 1.0) / 2.0) + 1.0 - root)))
    worst = _worst(errors, 0.0)
    return CheckResult("closed-min-quadratic", worst <= 1e-8, worst, 0.0,
                       "closed-form minimum vs 1e4-point grid plus refinement")


@_check("sqrt-cube-envelope")
def _chk_sqrt_cube(spec: SeedSpec) -> CheckResult:
    x = np.linspace(0.0, 1.0, 10_000)
    mid = np.sqrt(1.0 + x**3) - 1.0
    lo = x**2 * (np.sqrt(1.0 + x) - 1.0)
    hi = x * (np.sqrt(1.0 + x) - 1.0)
    excess = _worst(np.concatenate([lo - mid, mid - hi]))
    return CheckResult("sqrt-cube-envelope", excess <= 1e-14, excess, 0.0,
                       "two-sided envelope of sqrt(1+x^3)-1 on [0, 1]")


@_check("balanced-tuning-slack")
def _chk_balanced_slack(spec: SeedSpec) -> CheckResult:
    x = np.linspace(1e-6, 1.0 - 1e-9, 10_000)
    lhs = (np.log((np.sqrt(1.0 - x + x * x) + 1.0 - x) / (np.sqrt(1.0 + x) + 1.0))
           + (x - np.sqrt(1.0 - x + x * x)) / (1.0 - x)
           + np.sqrt(1.0 + x))
    rhs = (math.sqrt(2.0) - 1.0) ** 2 * x
    excess = _worst(lhs - rhs)
    return CheckResult("balanced-tuning-slack", excess <= 1e-12, excess, 0.0,
                       "exponent-difference envelope at gamma = rho^2")


@_check("sqrt-floor-family")
def _chk_sqrt_floor(spec: SeedSpec) -> CheckResult:
    rng = spec.rng(0)
    excesses = []
    for _ in range(100):
        x0 = float(rng.uniform(1.0, 5.0))
        c = float(rng.uniform(0.0, 1.0)) * math.sqrt((x0 - 1.0) / (x0 + 1.0))
        xs = np.linspace(x0 * x0 - 1.0, x0 * x0 - 1.0 + 50.0, 100)
        excesses.append(_worst(c * np.sqrt(xs) - (np.sqrt(1.0 + xs) - 1.0)))
    worst = _worst(excesses)
    return CheckResult("sqrt-floor-family", worst <= 1e-12, worst, 0.0,
                       "sqrt(1+x) - 1 >= c sqrt(x) under the admissible-c condition")


@_check("chernoff-identity")
def _chk_chernoff_identity(spec: SeedSpec) -> CheckResult:
    rng = spec.rng(0)
    errors = []
    for _ in range(50):
        n = int(rng.integers(2, 200))
        d = int(rng.integers(2, 2000))
        rho = float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
        t = float(rng.uniform(0.05, 0.95)) * abs(rho) * n * d
        gamma = (2.0 * t / (d * n)) ** 2
        lam_fa, lam_md = bounds.chernoff_lambdas(t, n, d, rho)
        lhs_fa = -lam_fa * t - 0.5 * d * math.log1p(-((n * lam_fa) ** 2))
        rhs_fa = -0.5 * d * bounds.g_fa(gamma)
        lhs_md = lam_md * t + bounds.log_mgf_alt(-lam_md, n, d, rho)
        rhs_md = -0.5 * d * bounds.g_md(gamma, rho)
        scale = max(1.0, abs(rhs_fa), abs(rhs_md))
        errors += [abs(lhs_fa - rhs_fa) / scale, abs(lhs_md - rhs_md) / scale]
    worst = _worst(errors, 0.0)
    return CheckResult("chernoff-identity", worst <= 1e-9, worst, 0.0,
                       "optimized exponential bounds equal the two closed exponents")


def _column_sum_stats(rng, size: int, n: int, d: int, rho: float = 0.0) -> np.ndarray:
    """The statistic <sum_i x_i, sum_i y_i> of ``size`` database pairs.

    Draws the (size, n, d) blocks y, then z, and sets x = rho y +
    sqrt(1-rho^2) z in place of z.
    """
    ys = rng.standard_normal((size, n, d))
    xs = rng.standard_normal((size, n, d))
    if rho:  # at rho = 0, x = z exactly
        xs *= math.sqrt(1.0 - rho * rho)
        xs += rho * ys
    return np.einsum("tj,tj->t", xs.sum(axis=1), ys.sum(axis=1))


def _mgf_mc_check(spec: SeedSpec, name: str, closed: float, lam: float,
                  n: int, d: int, rho: float = 0.0) -> CheckResult:
    """MC mean of exp(lam T) over 200,000 column-sum statistics vs ``closed``."""
    mean, ci = _mc_mean(
        spec, 200_000, lambda rng, size: np.exp(lam * _column_sum_stats(rng, size, n, d, rho)))
    at = f"lambda={lam}, n={n}, d={d}" + (f", rho={rho}" if rho else "")
    return CheckResult(name, abs(mean - closed) <= ci, mean, closed, f"3-sigma {ci:.2e} at {at}")


@_check("null-mgf-mc")
def _chk_null_mgf(spec: SeedSpec) -> CheckResult:
    return _mgf_mc_check(spec, "null-mgf-mc", bounds.mgf_null(0.05, 3, 4), 0.05, 3, 4)


@_check("alt-mgf-mc")
def _chk_alt_mgf(spec: SeedSpec) -> CheckResult:
    return _mgf_mc_check(spec, "alt-mgf-mc", bounds.mgf_alt(0.05, 2, 3, 0.5), 0.05, 2, 3, 0.5)


@_check("statistic-moments")
def _chk_stat_moments(spec: SeedSpec) -> CheckResult:
    n, d, rho = 4, 8, 0.5
    trials = 100_000
    t_null = np.empty(trials)
    t_alt = np.empty(trials)
    done = 0
    for rng, size in _batches(spec, trials):
        t_null[done:done + size] = _column_sum_stats(rng, size, n, d)
        t_alt[done:done + size] = _column_sum_stats(rng, size, n, d, rho)
        done += size
    checks = [
        (abs(t_null.mean()), 3.0 * t_null.std() / math.sqrt(trials)),
        (abs(t_alt.mean() - rho * n * d),
         3.0 * t_alt.std() / math.sqrt(trials)),
        (abs(t_null.var() - n * n * d),
         3.0 * np.var((t_null - t_null.mean()) ** 2) ** 0.5 / math.sqrt(trials)),
    ]
    worst = _worst([stat - tol for stat, tol in checks])
    return CheckResult("statistic-moments", worst <= 0.0, worst, 0.0,
                       "null mean 0, correlated mean |rho|nd, null variance n^2 d")


@_check("likelihood-unit-mean")
def _chk_unit_mean(spec: SeedSpec) -> CheckResult:
    mean, ci = _mc_likelihood_reduce(2, 2, 0.4, 200_000, spec, np.exp)
    return CheckResult("likelihood-unit-mean", abs(mean - 1.0) <= ci, mean, 1.0,
                       f"3-sigma {ci:.2e}")


@_check("likelihood-single-row")
def _chk_single_row(spec: SeedSpec) -> CheckResult:
    rng = spec.rng(0)
    errors = []
    for _ in range(100):
        d = int(rng.integers(1, 6))
        rho = float(rng.uniform(-0.9, 0.9))
        x = rng.standard_normal((1, d))
        y = rng.standard_normal((1, d))
        pair = DatabasePair(x=x, y=y)
        got = log_likelihood_ratio(pair, rho)
        u = 1.0 - rho * rho
        direct = (-0.5 * d * math.log(u)
                  - 0.5 * (float(np.sum((y - rho * x) ** 2)) / u - float(np.sum(y**2))))
        errors.append(abs(got - direct) / max(1.0, abs(direct)))
    worst = _worst(errors, 0.0)
    return CheckResult("likelihood-single-row", worst <= 1e-10, worst, 0.0,
                       "n=1 log ratio vs direct density quotient")


@_check("likelihood-logsumexp-naive")
def _chk_lse_naive(spec: SeedSpec) -> CheckResult:
    rng = spec.rng(0)
    errors = []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        rho = float(rng.uniform(-0.7, 0.7))
        x = 0.5 * rng.standard_normal((n, d))
        y = 0.5 * rng.standard_normal((n, d))
        pair = DatabasePair(x=x, y=y)
        got = log_likelihood_ratio(pair, rho)
        m = _log_ratio_matrix(x, y, rho)
        perms = enumerate_permutations(n)
        naive = np.mean([
            math.prod(math.exp(m[i, p[i]]) for i in range(n)) for p in perms
        ])
        if naive > 0.0 and math.isfinite(naive):
            errors.append(abs(math.log(naive) - got) / max(1.0, abs(got)))
    worst = _worst(errors, 0.0)
    return CheckResult("likelihood-logsumexp-naive", worst <= 1e-8, worst, 0.0,
                       "log-sum-exp vs naive product evaluation where it is stable")


@_check("second-moment-census")
def _chk_second_moment_census(spec: SeedSpec) -> CheckResult:
    n, d, rho2 = 5, 3, 0.16
    via_formula = exact_second_moment(n, d, rho2)
    counts: dict[CycleType, int] = {}
    for p in enumerate_permutations(n):
        t = cycle_decompose(Permutation(p))
        counts[t] = counts.get(t, 0) + 1
    census = second_moment_reduction(
        [(t, counts[t]) for t in enumerate_cycle_types(n)], n, d, rho2
    )
    match = census == via_formula
    return CheckResult("second-moment-census", match, census, via_formula,
                       "cycle-type multiplicities from S_n census, identical reduction")


@_check("second-moment-mc")
def _chk_second_moment_mc(spec: SeedSpec) -> CheckResult:
    n, d, rho = 2, 2, 0.3
    est = mc_second_moment(n, d, rho, 100_000, spec)
    exact = exact_second_moment(n, d, rho * rho)
    return CheckResult("second-moment-mc", abs(est.value - exact) <= est.ci_radius,
                       est.value, exact, f"3-sigma {est.ci_radius:.2e}")


@_check("second-moment-dominance")
def _chk_second_moment_dom(spec: SeedSpec) -> CheckResult:
    excesses = []
    for n, d, rho2 in itertools.product(range(1, 11), (1, 5, 20), (0.01, 0.1, 0.3, 0.6)):
        cap = math.exp(-d * n * math.log1p(-rho2))
        excesses.append((exact_second_moment(n, d, rho2) - cap) / cap)
    worst = _worst(excesses)
    return CheckResult("second-moment-dominance", worst <= 1e-12, worst, 0.0,
                       "E0 L^2 never exceeds (1-rho^2)^(-dn)")


@_check("jensen-consistency")
def _chk_jensen(spec: SeedSpec) -> CheckResult:
    n, d, rho = 3, 2, 0.3
    mean_abs, ci_abs = _mc_likelihood_reduce(
        n, d, rho, 100_000, spec, lambda log_l: np.abs(np.expm1(log_l)))
    exact = exact_second_moment(n, d, rho * rho)
    lhs = mean_abs * mean_abs
    rhs = exact - 1.0 + 5.0 * ci_abs
    return CheckResult("jensen-consistency", lhs <= rhs, lhs, rhs,
                       "(E|L-1|)^2 <= E L^2 - 1 with 5-sigma slack")


@_check("tv-vs-unconditional")
def _chk_tv_bound(spec: SeedSpec) -> CheckResult:
    n, d, rho2 = 4, 2, 0.001
    est = tv_risk_lower_bound_mc(n, d, math.sqrt(rho2), 100_000, spec)
    closed = bounds.unconditional_converse_risk(n, d, rho2)
    return CheckResult("tv-vs-unconditional", est.value >= closed - est.ci_radius,
                       est.value, closed, f"3-sigma {est.ci_radius:.2e}")


@_check("quadratic-mgf")
def _chk_quadratic_mgf(spec: SeedSpec) -> CheckResult:
    r = np.diag([0.3, -0.2])
    return quadratic_mgf_check(r, np.array([1.0, 0.0]), 400_000, spec)


@_check("pair-mgf")
def _chk_pair_mgf(spec: SeedSpec) -> CheckResult:
    return pair_mgf_check(0.2, 0.3, 3, 400_000, spec)


@_check("circulant-dets")
def _chk_circulant(spec: SeedSpec) -> CheckResult:
    worst = ""
    ok = True
    for length in (1, 2, 3, 7, 50):
        for rho in (0.3, 0.5, 0.9):
            res = circulant_det_check(length, rho)
            if not res.passed:
                ok = False
                worst = res.name
    return CheckResult("circulant-dets", ok, 0.0, 0.0,
                       worst or "all cycle lengths in {1,2,3,7,50} matched")


@_check("tail-squares")
def _chk_tail_squares(spec: SeedSpec) -> CheckResult:
    alpha = np.concatenate([np.ones(30), np.linspace(0.1, 2.0, 20)])
    return laurent_massart_check(50, alpha, [1.0, 5.0, 10.0, 20.0], 400_000, spec)


@_check("tail-chaos")
def _chk_tail_chaos(spec: SeedSpec) -> CheckResult:
    a = aligned_cross_term_matrix(0.6, 5)
    res = gaussian_chaos_check(a, [1.0, 4.0, 8.0, 16.0], 400_000, spec)
    diag = gaussian_chaos_check(
        np.diag(np.linspace(0.2, 1.0, 6)), [2.0, 6.0, 12.0], 200_000,
        spec.stream("diag"))
    passed = res.passed and diag.passed
    return CheckResult("tail-chaos", passed, _worst([res.statistic, diag.statistic]), 0.0,
                       "cross-term block matrix and diagonal special case")


@_check("truncation-event-methods")
def _chk_trunc_methods(spec: SeedSpec) -> CheckResult:
    n, d, rho = 8, 30, 0.4
    params = ProblemParams(n=n, d=d, rho=rho)
    schedule = bounds.truncation_schedule(n, d, params.rho2, k_star=3, margin=0.5)
    # A second, artificially tightened schedule so both outcomes occur.
    tightened = dataclasses.replace(schedule, w=schedule.w * 6.0, v=schedule.v * 0.22)
    identity = Permutation.identity(n)
    disagreements = 0
    holds = 0
    for index in range(200):
        rng = spec.rng(index)
        pair = sample_alt(params, identity, rng)
        for sched in (schedule, tightened):
            a = truncation_event_holds(pair, identity, sched, 1.0, method="sorted")
            b = truncation_event_holds(pair, identity, sched, 1.0, method="enumerate")
            disagreements += int(a != b)
            holds += int(a)
    return CheckResult("truncation-event-methods", disagreements == 0,
                       float(disagreements), 0.0,
                       f"sorted vs enumerate on 200 draws ({holds}/400 events held)")


@_check("truncation-first-moment")
def _chk_trunc_first_moment(spec: SeedSpec) -> CheckResult:
    return truncated_first_moment_check(
        n=12, d=40, rho=math.sqrt(0.2), k_star=4, margin=1.0, trials=2000, seed=spec)


@_check("truncated-vs-unconditional")
def _chk_trunc_vs_uncond(spec: SeedSpec) -> CheckResult:
    grid = np.array(list(itertools.product((100.0, 1000.0, 10_000.0), (100.0, 1000.0),
                                           (1e-8, 1e-6, 1e-4, 1e-2)))).T
    worst = _worst(bounds.unconditional_converse_risk(*grid)
                   - bounds.truncated_converse_risk(*grid))
    return CheckResult("truncated-vs-unconditional", worst <= 0.0, worst, 0.0,
                       "truncated converse is never below the unconditional one")


@_check("curve-ordering")
def _chk_curve_ordering(spec: SeedSpec) -> CheckResult:
    points, notes = bounds.curve_points(
        "d", np.geomspace(100.0, 10_000.0, 5), n=10_000.0, target_risk=0.1)
    bad = sum(p.converse_exceeds_achievable for p in points)
    return CheckResult("curve-ordering", bad == 0, float(bad), 0.0,
                       f"{len(points)} grid points; notes: {len(notes)}")


#: Deterministic execution order of the verification suite.
VERIFY_CHECKS: tuple[str, ...] = tuple(_REGISTRY)


def _run_named(args: tuple[str, int]) -> CheckResult:
    name, master = args
    fn = _REGISTRY[name]
    return fn(SeedSpec(master_seed=master, stream_label=f"verify/{name}"))


def verify(seed: int = 0, workers: int = 1) -> VerifyReport:
    """Run every named oracle check with generators derived from one seed.

    The report is identical for any worker count: each check seeds itself
    from (seed, its own name) and results are collected in registry order.
    """
    master = int(seed)
    tasks = [(name, master) for name in VERIFY_CHECKS]
    return VerifyReport(checks=tuple(parallel_map(_run_named, tasks, workers)))
