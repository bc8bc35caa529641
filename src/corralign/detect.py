"""Sum-of-inner-products detection: statistic, threshold tests, MC risk.

The statistic ``T = sign(rho) * <sum of X rows, sum of Y rows>`` costs O(nd)
and its law under the correlated hypothesis does not depend on the hidden
permutation (it is a function of column sums only), so Monte-Carlo risk
estimation may plant the identity permutation without loss of generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .core import ProblemParams, as_seedspec, binomial_ci, chunks, parallel_map
from .errors import DomainError
from .gen import DatabasePair


@dataclass(frozen=True)
class RiskEstimate:
    """Monte-Carlo estimate of the two error rates of a threshold test.

    ``ci_radius`` is the larger of the two per-rate 3-sigma binomial
    half-widths (rule-of-three 3/trials when a count is degenerate).
    """

    fa_rate: float
    md_rate: float
    trials: int
    ci_radius: float

    def __post_init__(self) -> None:
        for name, rate in (("fa_rate", self.fa_rate), ("md_rate", self.md_rate)):
            if not 0.0 <= rate <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {rate}")
        if self.trials < 1:
            raise DomainError("trials must be positive")
        if self.ci_radius < 0.0:
            raise DomainError("ci_radius must be nonnegative")

    def risk(self) -> float:
        """Estimated total risk: false-alarm plus missed-detection rate."""
        return self.fa_rate + self.md_rate


def sip_statistic(pair: DatabasePair, rho_sign: float) -> float:
    """T = rho_sign * <column sum of X, column sum of Y>, in O(nd)."""
    if rho_sign not in (1.0, -1.0, 1, -1):
        raise DomainError(f"rho_sign must be +1 or -1, got {rho_sign}")
    return float(rho_sign) * float(pair.x.sum(axis=0) @ pair.y.sum(axis=0))


def threshold_test(t_stat: float, threshold: float) -> int:
    """Decide 1 (correlated) iff t_stat >= threshold; ties go to 1."""
    if not math.isfinite(threshold):
        raise DomainError("threshold must be finite")
    return 1 if t_stat >= threshold else 0


def nominal_threshold(params: ProblemParams) -> float:
    """The default operating threshold |rho| d n / 2.

    This is the threshold sqrt(gamma) d n / 2 at the balanced tuning
    gamma = rho^2; it sits strictly between the null mean 0 and the
    correlated-law mean |rho| d n.
    """
    params.require_alt()
    return abs(params.rho) * params.d * params.n / 2.0


def optimal_gamma(params: ProblemParams) -> tuple[float, float]:
    """Best tuning parameter and its guaranteed risk bound for these params."""
    params.require_alt()
    return bounds.minimize_two_exponent(float(params.d), params.rho2)


def _risk_chunk(args) -> int:
    """Count threshold-test errors over one batch of seeded trials.

    Mirrors the samplers' draw order on reused buffers (null: X then Y;
    correlated: Y then noise Z, X = rho Y + sqrt(1-rho^2) Z with the planted
    identity) and evaluates T through its column-sum form, pushing the
    correlated mixture through the sums by linearity so each trial costs
    only the Gaussian draws plus two row reductions.
    """
    params, threshold, arm, seed_spec, start, size = args
    sign = params.rho_sign
    shape = (params.n, params.d)
    correlated = arm == "alt" and params.rho != 0.0
    rho = params.rho
    noise = math.sqrt(1.0 - params.rho2)
    first = np.empty(shape)
    second = np.empty(shape)
    first_sum = np.empty(params.d)
    second_sum = np.empty(params.d)
    errors = 0
    for index in range(start, start + size):
        rng = seed_spec.rng(index)
        rng.standard_normal(out=first)
        rng.standard_normal(out=second)
        np.sum(first, axis=0, out=first_sum)
        np.sum(second, axis=0, out=second_sum)
        if correlated:
            # first = Y, second = Z: column sums of X are rho ysum + noise zsum.
            t_stat = float((rho * first_sum + noise * second_sum) @ first_sum)
        else:
            t_stat = float(first_sum @ second_sum)
        label = threshold_test(sign * t_stat, threshold)
        if arm == "null":
            errors += label  # false alarm
        else:
            errors += 1 - label  # missed detection
    return errors


def monte_carlo_risk(
    params: ProblemParams,
    threshold: float,
    trials: int,
    seed,
    workers: int = 1,
) -> RiskEstimate:
    """Estimate both error rates over `trials` draws per hypothesis.

    The missed-detection arm plants the identity permutation (the statistic's
    correlated law is permutation-invariant); with rho = 0 it degenerates to
    a second independent null arm.  Each trial derives its generator from
    (seed, arm, trial index) alone, so results are identical for any worker
    count.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not math.isfinite(threshold):
        raise DomainError("threshold must be finite")
    base = as_seedspec(seed, "detect/monte-carlo-risk")
    tasks = [
        (params, threshold, arm, base.stream(arm), start, size)
        for arm in ("null", "alt")
        for start, size in chunks(trials)
    ]
    counts = parallel_map(_risk_chunk, tasks, workers)
    fa = sum(c for t, c in zip(tasks, counts) if t[2] == "null")
    md = sum(c for t, c in zip(tasks, counts) if t[2] == "alt")
    return RiskEstimate(
        fa_rate=fa / trials,
        md_rate=md / trials,
        trials=trials,
        ci_radius=max(binomial_ci(fa, trials), binomial_ci(md, trials)),
    )
