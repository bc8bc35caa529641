"""Independent verification oracles for every closed form in the package.

Everything here recomputes a quantity by a second route — brute-force
enumeration, Monte Carlo, quadrature, numerical inversion, or dense linear
algebra — and compares it against the closed form used elsewhere, or
against an exact law from ``laws``.  The ``verify`` entry point runs the
whole named-check suite and returns a structured report; the CLI surfaces it.

All Monte-Carlo checks accept at 3 sigma (with a rule-of-three floor for
degenerate counts) and derive their generators from (master seed, check
name, batch index) so reruns and worker counts cannot change results.
Each job has one implementation: both tail bounds take their exact tails
from ``laws.quadratic_form_tail``, every Gaussian MGF runs through
``quadratic_mgf_check`` (80-node Gauss-Hermite quadrature in R's eigenbasis,
held to ``MGF_RTOL``), and every worst-case fold is ``_worst``, which lets a
NaN through so it fails its check.

The tail rows, the Gaussian MGF rows and the column-sum rows draw nothing,
so they read the same at every seed.  The column-sum rows take the
detection statistic's MGFs and moments from the law of its two column sums
(``docs/math_notes.md`` section 5) by that quadrature; ``null-mgf-mc`` and
``alt-mgf-mc`` keep their Monte-Carlo-era names, on which the benchmark's
per-check timings key.

Arithmetic around the draws may change only where the pinned rows keep
every bit (``test_refactored_rows_are_pinned``,
``test_batched_rows_are_pinned`` and ``test_rows_not_redrawn_are_pinned``):
a faster form must compute the same floats, not merely close ones.
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
    cycle_decompose,
    enumerate_cycle_types,
    enumerate_permutations,
    parallel_map,
    sign_factor,
)
from .errors import DomainError, SizeCapError
from .gen import DatabasePair, sample_alt_stack
from .laws import ARRAY_BUDGET, exact_second_moment, quadratic_form_tail, second_moment_reduction

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


def _batched_log_l(xs: np.ndarray, ys: np.ndarray, rho: float) -> np.ndarray:
    """log L per pair, by the floats each pair gets alone: every sum runs per trial."""
    n, d = xs.shape[-2:]
    step = max(1, 8 * _BATCH // math.factorial(n))  # (n!, step) arrays stay in cache
    if len(xs) > step:
        return np.concatenate([_batched_log_l(xs[i:i + step], ys[i:i + step], rho)
                               for i in range(0, len(xs), step)])
    u = 1.0 - rho * rho
    xt, yt = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (xs, ys))
    g = np.zeros((n, n, len(xs)))
    for k in range(d):
        g += xt[:, None, k] * yt[None, :, k]
    g = g.reshape(n * n, -1)
    cols = (np.arange(n) * n + enumerate_permutations(n)).T
    s = np.take(g, cols[0], axis=0)
    for c in cols[1:]:
        s += np.take(g, c, axis=0)
    s *= rho / u
    top = np.max(s, axis=0)
    np.exp(s - top, out=s)
    lse = top + np.log(np.sum(s.T.copy(), axis=-1))
    sq = sum(np.sum((a * a).reshape(len(a), -1), axis=-1) for a in (xs, ys))
    return (lse - math.log(math.factorial(n)) - 0.5 * n * d * math.log(u)
            - rho * rho * sq / (2.0 * u))


def log_likelihood_ratio(pair: DatabasePair, rho: float) -> float:
    """Log of the uniform permutation-mixture likelihood ratio; with u = 1 - rho^2,
    -(nd/2) ln u - rho^2 (sum|x_i|^2 + sum|y_j|^2)/(2u) - ln n! + (max-shifted)
    log sum_sigma exp((rho/u) sum_i <x_i, y_sigma(i)>) (``docs/math_notes.md`` 1).
    """
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    return float(_batched_log_l(pair.x[None], pair.y[None], rho)[0])


def _mc_cap(n: int) -> None:
    if n > MC_CAP:
        raise SizeCapError(f"Monte-Carlo likelihood statistics are capped at n = {MC_CAP}")


def _worst(values, floor: float = -math.inf) -> float:
    """Largest of ``values`` and ``floor`` (a violation where positive).

    NaN propagates: Python's ``max`` drops a NaN that is not its first
    argument, which would let a broken closed form pass its check.
    """
    return float(np.max(values, initial=floor))


def _mc_mean(spec: SeedSpec, trials: int, draw) -> tuple[float, float]:
    """Sample mean of ``draw(rng, size)`` values and its 3-sigma radius.

    Batch b holds up to ``_BATCH`` draws from ``spec.rng(b)``; the radius
    uses the sample variance.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    total = 0.0
    total_sq = 0.0
    for batch, start in enumerate(range(0, trials, _BATCH)):
        w = draw(spec.rng(batch), min(_BATCH, trials - start))
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
    if not np.isfinite(a).all():
        raise DomainError("matrix must be finite")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise DomainError("matrix must be symmetric")
    return a


def _require_float_mgf(log_mgf: float) -> None:
    """``DomainError`` unless e^log_mgf is a normal float: not inf, nor (nearly) 0."""
    if not abs(log_mgf) < math.log(np.finfo(float).max):
        raise DomainError(f"the MGF, e^{log_mgf:.6g}, lies outside the float range")


#: Relative tolerance of the two MGF rows.
MGF_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 80-node Gauss-Hermite rule for E f(Z), Z ~ N(0, 1)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def quadratic_mgf_check(R: np.ndarray, b: np.ndarray) -> CheckResult:
    """E exp(X'RX/2 + X'b), X ~ N(0, I), by quadrature against the closed form
    det(I - R)^(-1/2) exp(b'(I - R)^(-1) b / 2); passes at ``MGF_RTOL``.

    With R = Q diag(lam) Q', c = Q'b and s = (1 - lam)^(-1/2), the mean is
    prod_i s_i E exp(s_i c_i Z) (``docs/math_notes.md`` section 7); each
    factor is the 80-node rule, accurate to 1e-12 for |s_i c_i| <= 10.
    """
    r = _require_symmetric(R)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if b.shape[0] != r.shape[0]:
        raise DomainError("b must have one entry per dimension of R")
    if not np.isfinite(b).all():
        raise DomainError("b must be finite")
    i_r = np.eye(b.size) - r
    sign, log_det = np.linalg.slogdet(i_r)
    if not sign > 0.0:  # a singular I - R has no solve
        raise DomainError("I - R must be positive definite")
    log_closed = 0.5 * float(b @ np.linalg.solve(i_r, b)) - 0.5 * log_det
    _require_float_mgf(log_closed)
    lam, q = np.linalg.eigh(r)
    if not lam.max(initial=-math.inf) < 1.0:
        raise DomainError("I - R must be positive definite")
    s = 1.0 / np.sqrt(1.0 - lam)
    slopes = s * (q.T @ b)
    if np.abs(slopes).max(initial=0.0) > 10.0:
        raise DomainError("a factor's slope |s_i c_i| exceeds 10, where the 80-node rule "
                          "misses 1e-12 (the MGF exceeds e^50)")
    nodes, weights = _hermite_rule()
    quad = float(np.prod(s * (np.exp(np.outer(slopes, nodes)) @ weights)))
    closed = math.exp(log_closed)
    rel = abs(quad - closed) / closed
    return CheckResult("quadratic-mgf", rel <= MGF_RTOL, quad, closed,
                       f"relative error {rel:.3e} (80-node Gauss-Hermite per eigenvalue)")


def pair_mgf_check(a: float, b: float, d: int) -> CheckResult:
    """Quadrature and block-matrix routes to E exp(-a|X|^2 - a|Y|^2 + b X'Y).

    The closed form ((1+2a)^2 - b^2)^(-d/2) must agree with the generic
    quadratic-form formula applied to the 2d-dimensional block matrix to
    1e-10, and the quadrature on that matrix with it to ``MGF_RTOL``.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("a and b must be finite")
    if 1.0 + 2.0 * a <= 0.0 or abs(1.0 + 2.0 * a) <= abs(b):
        raise DomainError("need 1 + 2a > 0 and |1 + 2a| > |b| for convergence")
    base = (1.0 + 2.0 * a) ** 2 - b * b
    _require_float_mgf(-0.5 * d * math.log(base))
    eye = np.eye(d)
    r = np.block([[-2.0 * a * eye, b * eye], [b * eye, -2.0 * a * eye]])
    return _block_mgf_check("pair-mgf", r, base ** (-0.5 * d))


def _block_mgf_check(name: str, r: np.ndarray, closed: float) -> CheckResult:
    """``quadratic_mgf_check`` on r (b = 0) against a row's own closed form: the
    generic closed form must meet it to 1e-10, the quadrature to ``MGF_RTOL``."""
    inner = quadratic_mgf_check(r, np.zeros(r.shape[0]))
    forms_agree = abs(inner.reference - closed) <= 1e-10 * closed
    rel = abs(inner.statistic - closed) / closed
    return CheckResult(name, inner.passed and forms_agree and rel <= MGF_RTOL,
                       inner.statistic, closed,
                       f"block-form reference {inner.reference!r}; relative error {rel:.3e}")


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


def _positive_grid(t_grid) -> np.ndarray:
    """The t grid as a nonempty 1-D array of positive values.

    An empty grid would pass its check with statistic -inf.
    """
    ts = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    if ts.size == 0:
        raise DomainError("t grid must be nonempty")
    if not np.all(ts > 0.0):
        raise DomainError("t grid must be positive")
    return ts


def _bound_excess(name: str, tail, error, bound) -> CheckResult:
    """Largest (exact tail + error - bound) over a t grid; passes iff <= 0."""
    worst = _worst(tail + error - bound)
    return CheckResult(name, worst <= 0.0, worst, 0.0,
                       f"max (exact + error - bound) over {tail.size} grid points; "
                       f"error <= {float(error.max()):.1e}")


def laurent_massart_check(d: int, alpha, t_grid) -> CheckResult:
    """Lower-tail bound for weighted chi-square sums, on a grid of t values.

    Passes iff the exact P(sum alpha_i (X_i^2 - 1) <= -t), plus its error
    (``quadratic_form_tail``), never exceeds exp(-t^2 / (4 |alpha|_2^2)).
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != d:
        raise DomainError("alpha must have d entries")
    if np.any(alpha < 0.0):
        raise DomainError("alpha entries must be nonnegative")
    norm_sq = float(alpha @ alpha)
    if norm_sq == 0.0:
        raise DomainError("alpha must have a positive entry")
    ts = _positive_grid(t_grid)
    upper, error = quadratic_form_tail(alpha, alpha.sum() - ts)
    return _bound_excess("tail-squares", 1.0 - upper, error,
                         np.exp(-(ts**2) / (4.0 * norm_sq)))


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


def gaussian_chaos_check(A: np.ndarray, t_grid) -> CheckResult:
    """Upper-tail bound for centered Gaussian quadratic forms on a t grid.

    The bound is 2 exp(-(t/16) min{t / (2 |alpha|_2^2), 1 / |alpha|_inf,
    t / (2 |lambda|_2^2), 1 / |lambda|_inf}) with alpha the diagonal of A
    and lambda the eigenvalues of its off-diagonal part.  X'AX - tr A is
    sum_j mu_j Z_j^2 - tr A over the eigenvalues mu of A, so its exact tail
    at t, plus its error, comes from ``quadratic_form_tail`` at t + tr A.
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

    ts = _positive_grid(t_grid)
    tail, error = quadratic_form_tail(np.linalg.eigvalsh(a), ts + float(np.trace(a)))
    return _bound_excess("tail-chaos", tail, error, np.array([bound(float(t)) for t in ts]))


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
    return bool(_events_hold(pair.x[None], pair.y[None], perm, schedule, rho_sign, method)[0])


def _events_hold(xs, ys, perm: Permutation, schedule, rho_sign: float,
                 method: str = "sorted") -> np.ndarray:
    """``truncation_event_holds`` on each pair of the (k, n, d) stacks xs, ys.

    Every sum runs along the last axis, so pair j gets the floats that it
    gets alone.
    """
    sign = sign_factor(rho_sign)
    if method not in ("sorted", "enumerate"):
        raise DomainError(f"unknown method {method!r}")
    fixed = np.nonzero(perm.map == np.arange(perm.n))[0]
    n1 = fixed.shape[0]
    k_star = schedule.k_star
    if n1 < k_star:
        return np.ones(xs.shape[0], dtype=bool)
    x, y = (xs, ys) if n1 == xs.shape[1] else (xs[:, fixed], ys[:, fixed])
    # Rows: norm sums of x, of y, and the cross sums negated, so the
    # extremal size-k sum of every row is its smallest.
    products = np.empty((3,) + x.shape)
    np.multiply(x, x, out=products[0])
    np.multiply(y, y, out=products[1])
    np.multiply(x, y, out=products[2])
    terms = products.sum(axis=-1)
    terms[2] *= -sign
    if method == "sorted":
        smallest = np.cumsum(np.sort(terms, axis=-1), axis=-1)[..., k_star - 1 :]
    else:
        if n1 > ENUMERATE_CAP:
            raise SizeCapError(f"subset enumeration is capped at {ENUMERATE_CAP} fixed points")
        smallest = np.stack([terms[..., _subsets(n1, k)].sum(axis=-1).min(axis=-1)
                             for k in range(k_star, n1 + 1)], axis=-1)
    w = schedule.w[: smallest.shape[-1]]
    v = schedule.v[: smallest.shape[-1]]
    return ~((smallest[:2] <= w).any(axis=(0, 2)) | (-smallest[2] >= v).any(axis=-1))


def _pair_chunks(params: ProblemParams, perm: Permutation, spec: SeedSpec, trials: int,
                 method: str = "sorted"):
    """Yield (xs, ys) stacks of ``sample_alt_stack`` over trials 0 .. trials - 1.

    Every trial draws from the one generator ``spec.rng(0)``, in trial
    order.  A chunk holds as many trials as keep every array of the draw
    and of ``_events_hold`` with ``method`` within ``ARRAY_BUDGET`` values.
    """
    n, d = params.n, params.d
    per_trial = 3 * n * d
    if method == "enumerate":
        per_trial = max(per_trial, 3 * max(math.comb(n, k) * k for k in range(n + 1)))
    chunk = max(ARRAY_BUDGET // per_trial, 1)
    rng = spec.rng(0)
    for start in range(0, trials, chunk):
        yield sample_alt_stack(params, perm, rng, min(chunk, trials - start))


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
    positive.  The event is tested on stacks of trials (``_pair_chunks``).
    """
    params = ProblemParams(n=n, d=d, rho=rho)
    schedule = bounds.truncation_schedule(n, d, params.rho2, k_star=k_star, margin=margin)
    rates = bounds.truncation_exponents(schedule, n, d, params.rho2)
    m = min(rates.deficit_norm, rates.deficit_cross)
    if not schedule.valid or m <= 0.0:
        return CheckResult("truncation-first-moment", False, m, 0.0,
                           "schedule preconditions failed; no deficit bound available")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    deficit = 4.0 * math.exp(-k_star * m) / -math.expm1(-m)
    identity = Permutation.identity(n)
    spec = as_seedspec(seed, "oracle/truncation-first-moment")
    failures = 0
    for xs, ys in _pair_chunks(params, identity, spec, trials):
        failures += int(np.count_nonzero(
            ~_events_hold(xs, ys, identity, schedule, params.rho_sign)))
    rate = failures / trials
    ci = binomial_ci(failures, trials)
    return CheckResult("truncation-first-moment", rate <= deficit + ci, rate, deficit,
                       f"{failures} event failures in {trials} planted trials; 3-sigma {ci:.2e}")


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


@_check("closed-min-quadratic")
def _chk_closed_min(spec: SeedSpec) -> CheckResult:
    rng = spec.rng(0)
    draws = np.array([(rng.uniform(1.0, 200.0), rng.uniform(-300.0, 300.0)) for _ in range(100)])
    d, a = draws[np.abs(draws[:, 1]) >= 1e-3].T
    root = np.sqrt((2.0 * a / d) ** 2 + 1.0)
    closed = 0.5 * d * (np.log((root + 1.0) / 2.0) + 1.0 - root)
    worst = _worst(np.abs(_quadratic_log_min(a, d) - closed), 0.0)
    return CheckResult("closed-min-quadratic", worst <= 1e-8, worst, 0.0,
                       "closed-form minimum vs 1e4-point grid plus refinement")


def _quadratic_log_min(a, d):
    """Per lane, the minimum of f(x) = a x + (d/2) ln(1 / (1 - x^2)) on
    (-1, 1): a 10,000-point grid, then a root search on f'.

    f is strictly convex, so its minimizer is the one root of
    f'(x) = a + d x / (1 - x^2), between the grid neighbours of the grid's
    smallest point (|a| <= 300 and d >= 1 keep it in |x| <= 0.9984).
    ``bounds._illinois`` narrows that bracket on -f'(t - 1), positive left
    of the root, against t = 1 + x, and the smaller f at its ends is taken.
    """
    def f(x):
        return a * x + 0.5 * d * np.log(1.0 / (1.0 - x * x))

    def step(live, t):
        x = t - 1.0
        neg_slope = -(a[live] + d[live] * x / (1.0 - x * x))
        return neg_slope > 0.0, neg_slope

    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 10_000)
    log_term = np.log(1.0 / (1.0 - xs * xs))
    i = np.array([np.argmin(a_ * xs + 0.5 * d_ * log_term) for a_, d_ in zip(a, d)])
    lo, hi, lanes = 1.0 + xs[i - 1], 1.0 + xs[i + 1], np.arange(a.size)
    lo, hi = bounds._illinois(step, lo, hi, step(lanes, lo)[1], step(lanes, hi)[1],
                              bounds.INVERT_RTOL)
    return np.minimum(f(lo - 1.0), f(hi - 1.0))


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
        lhs_fa = -lam_fa * t + bounds.log_mgf_alt(lam_fa, n, d, 0.0)
        rhs_fa = -0.5 * d * bounds.g_fa(gamma)
        lhs_md = lam_md * t + bounds.log_mgf_alt(-lam_md, n, d, rho)
        rhs_md = -0.5 * d * bounds.g_md(gamma, rho)
        scale = max(1.0, abs(rhs_fa), abs(rhs_md))
        errors += [abs(lhs_fa - rhs_fa) / scale, abs(lhs_md - rhs_md) / scale]
    worst = _worst(errors, 0.0)
    return CheckResult("chernoff-identity", worst <= 1e-9, worst, 0.0,
                       "optimized exponential bounds equal the two closed exponents")


def _statistic_mgf_check(name, lam, n, d, rho) -> CheckResult:
    """E exp(lam T) against ``bounds.mgf_alt``: with T = n <rho g1 + sqrt(1-rho^2) g2, g1>
    (``docs/math_notes.md`` section 5), lam T = Z'RZ/2 for Z = (g1, g2) and
    R = lam n [[2 rho I, sqrt(1-rho^2) I], [sqrt(1-rho^2) I, 0]]."""
    eye = np.eye(d)
    c = math.sqrt(1.0 - rho * rho) * eye
    r = lam * n * np.block([[2.0 * rho * eye, c], [c, np.zeros((d, d))]])
    return _block_mgf_check(name, r, bounds.mgf_alt(lam, n, d, rho))


@_check("null-mgf-mc")
def _chk_null_mgf(spec: SeedSpec) -> CheckResult:
    return _statistic_mgf_check("null-mgf-mc", 0.05, 3, 4, 0.0)


@_check("alt-mgf-mc")
def _chk_alt_mgf(spec: SeedSpec) -> CheckResult:
    return _statistic_mgf_check("alt-mgf-mc", 0.05, 2, 3, 0.5)


def _coordinate_moments(n: int, rho: float, powers) -> list[float]:
    """E t^k, k in ``powers``, of one coordinate t = n (rho g1 + sqrt(1-rho^2) g2) g1 of
    T by the 80 x 80 product of ``_hermite_rule``, exact to degree 159 in g1 and g2."""
    nodes, weights = _hermite_rule()
    t = n * (rho * nodes[:, None] + math.sqrt(1.0 - rho * rho) * nodes) * nodes[:, None]
    w = weights[:, None] * weights
    return [float(np.sum(w * t**k)) for k in powers]


@_check("statistic-moments")
def _chk_stat_moments(spec: SeedSpec) -> CheckResult:
    n, d, rho = 4, 8, 0.5
    # T sums d independent coordinates.  The null mean, 0, is held in units
    # of T's null standard deviation n sqrt(d); the others relative.
    mean0, square0 = _coordinate_moments(n, 0.0, (1, 2))
    (mean1,) = _coordinate_moments(n, rho, (1,))
    errors = [abs(d * mean0) / (n * math.sqrt(d)),
              abs(d * mean1 - rho * n * d) / (rho * n * d),
              abs(d * (square0 - mean0 * mean0) - n * n * d) / (n * n * d)]
    worst = _worst(errors, 0.0)
    return CheckResult("statistic-moments", worst <= MGF_RTOL, worst, 0.0,
                       "null mean 0, correlated mean |rho|nd, null variance n^2 d "
                       "by the 80 x 80 Gauss-Hermite product rule")


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
                       "factored log-sum-exp vs naive product of the log ratio matrix")


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
    return quadratic_mgf_check(np.diag([0.3, -0.2]), np.array([1.0, 0.0]))


@_check("pair-mgf")
def _chk_pair_mgf(spec: SeedSpec) -> CheckResult:
    return pair_mgf_check(0.2, 0.3, 3)


@_check("circulant-dets")
def _chk_circulant(spec: SeedSpec) -> CheckResult:
    failed = []
    for length in (1, 2, 3, 7, 50):
        for rho in (0.3, 0.5, 0.9):
            res = circulant_det_check(length, rho)
            if not res.passed:
                failed.append(f"L={length} rho={rho}: {res.detail}")
    return CheckResult("circulant-dets", not failed, 0.0, 0.0,
                       "; ".join(failed) or "all cycle lengths in {1,2,3,7,50} matched")


@_check("tail-squares")
def _chk_tail_squares(spec: SeedSpec) -> CheckResult:
    alpha = np.concatenate([np.ones(30), np.linspace(0.1, 2.0, 20)])
    return laurent_massart_check(50, alpha, [1.0, 5.0, 10.0, 20.0])


@_check("tail-chaos")
def _chk_tail_chaos(spec: SeedSpec) -> CheckResult:
    a = aligned_cross_term_matrix(0.6, 5)
    res = gaussian_chaos_check(a, [1.0, 4.0, 8.0, 16.0])
    diag = gaussian_chaos_check(np.diag(np.linspace(0.2, 1.0, 6)), [2.0, 6.0, 12.0])
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
    for xs, ys in _pair_chunks(params, identity, spec, 200, method="enumerate"):
        for sched in (schedule, tightened):
            a = _events_hold(xs, ys, identity, sched, 1.0, method="sorted")
            b = _events_hold(xs, ys, identity, sched, 1.0, method="enumerate")
            disagreements += int(np.count_nonzero(a != b))
            holds += int(np.count_nonzero(a))
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


#: Deterministic report order of the verification suite.
VERIFY_CHECKS: tuple[str, ...] = tuple(_REGISTRY)

#: ``VERIFY_CHECKS`` in the order ``verify`` hands them to its workers:
#: heaviest first, by serial time per check, so the last tasks to start are
#: short and the workers finish together.  The README's ``verify`` cost
#: paragraph gives the command that re-times the checks; a new check must
#: be placed here too.
DISPATCH_ORDER: tuple[str, ...] = (
    "tv-vs-unconditional", "likelihood-unit-mean", "jensen-consistency",
    "truncation-first-moment", "second-moment-mc", "curve-ordering", "likelihood-single-row",
    "truncation-event-methods", "likelihood-logsumexp-naive", "tail-chaos",
    "closed-min-quadratic", "chernoff-identity", "sqrt-floor-family", "second-moment-census",
    "second-moment-dominance", "exponent-floor-md", "circulant-dets",
    "truncated-vs-unconditional", "balanced-tuning-slack", "null-mgf-mc", "sqrt-cube-envelope",
    "tail-squares", "pair-mgf", "alt-mgf-mc", "quadratic-mgf", "exponent-floor-fa",
    "statistic-moments",
)


def _run_named(args: tuple[str, int]) -> CheckResult:
    name, master = args
    fn = _REGISTRY[name]
    return fn(SeedSpec(master_seed=master, stream_label=f"verify/{name}"))


def verify(seed: int = 0, workers: int = 1) -> VerifyReport:
    """Run every named oracle check with generators derived from one seed.

    The report is identical for any worker count: each check seeds itself
    from (seed, its own name), the checks start in ``DISPATCH_ORDER`` and
    the results are reported in ``VERIFY_CHECKS`` order.
    """
    master = int(seed)
    order = sorted(VERIFY_CHECKS, key=DISPATCH_ORDER.index)
    results = parallel_map(_run_named, [(name, master) for name in order], workers)
    by_name = dict(zip(order, results))
    return VerifyReport(checks=tuple(by_name[name] for name in VERIFY_CHECKS))
