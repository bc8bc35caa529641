"""Sum-of-inner-products detection: statistic, threshold tests, MC risk.

The statistic ``T = sign(rho) * <sum of X rows, sum of Y rows>`` costs O(nd)
and is a function of the column sums only.  Under either hypothesis each
coordinate pair of the two sums is N(0, n [[1, r], [r, 1]]) with r = 0 or
rho, whatever the hidden permutation, so T / n = c1 A - c2 B with A, B
independent chi-square_d, c1 = (1 + |r|) / 2 and c2 = (1 - |r|) / 2
(``docs/math_notes.md`` section 5).  Monte-Carlo risk estimation draws A and
B: O(1) per trial instead of O(nd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds
from .core import ProblemParams, as_seedspec, binomial_ci, count_failures
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


def _test_errs(rng, d, n, c1, c2, threshold, error_label) -> bool:
    """Whether the threshold test errs on one seeded trial of one arm.

    The trial draws A, B independent chi-square_d and takes
    T = n (c1 A - c2 B): the law of ``sip_statistic`` on the samplers' draws,
    sign(rho) included, at O(1) per trial.  The arm's correlation r enters
    only through c1 = (1 + |r|) / 2 and c2 = (1 - |r|) / 2; the test errs
    when it decides ``error_label``.
    """
    a, b = rng.chisquare(d, 2).tolist()  # Python floats: faster arithmetic
    return threshold_test(n * (c1 * a - c2 * b), threshold) == error_label


def monte_carlo_risk(
    params: ProblemParams,
    threshold: float,
    trials: int,
    seed,
    workers: int = 1,
) -> RiskEstimate:
    """Estimate both error rates over `trials` draws per hypothesis.

    Each trial draws the statistic from its exact two-chi-square law, not
    the n x d databases, so it costs O(1) time and memory (see
    ``_test_errs``); that law is the one of ``sip_statistic`` on
    ``gen.sample_null``/``sample_alt``, whatever the planted permutation.
    With rho = 0 the missed-detection arm is a second independent null arm.
    Each trial derives its generator from (seed, arm, trial index) alone, so
    results are identical for any worker count.
    """
    if not math.isfinite(threshold):
        raise DomainError("threshold must be finite")
    base = as_seedspec(seed, "detect/monte-carlo-risk")
    r = abs(params.rho)
    arms = [  # a null trial errs on deciding 1 (false alarm), an alt one on 0
        ((params.d, params.n, 0.5, 0.5, threshold, 1), base.stream("null")),
        ((params.d, params.n, (1.0 + r) / 2.0, (1.0 - r) / 2.0, threshold, 0),
         base.stream("alt")),
    ]
    fa, md = count_failures(_test_errs, arms, trials, workers)
    return RiskEstimate(
        fa_rate=fa / trials,
        md_rate=md / trials,
        trials=trials,
        ci_radius=max(binomial_ci(fa, trials), binomial_ci(md, trials)),
    )
