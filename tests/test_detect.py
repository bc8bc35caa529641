import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from corralign.bounds import minimize_two_exponent
from corralign.core import Permutation, ProblemParams, binomial_ci
from corralign.detect import (
    RiskEstimate,
    monte_carlo_risk,
    nominal_threshold,
    optimal_gamma,
    sip_statistic,
    threshold_test,
)
from corralign.errors import DomainError, InvalidAlternateError
from corralign.gen import sample_alt, sample_null


def _chi2_difference_sf(c1, c2, t, d):
    """P(c1 A - c2 B >= t) for independent chi-square_d variables A and B."""
    lo, hi = stats.chi2.ppf(1e-16, d), stats.chi2.isf(1e-16, d)
    value, _ = integrate.quad(
        lambda b: stats.chi2.pdf(b, d) * stats.chi2.sf((t + c2 * b) / c1, d),
        lo, hi, limit=400, points=[d],
    )
    return value


def _exact_rates(params, threshold):
    """Exact (false alarm, missed detection) rates of the threshold test.

    T/n = ((1+|rho|)/2) A - ((1-|rho|)/2) B with A, B independent chi2_d;
    rho = 0 gives the null law.
    """
    r = abs(params.rho)
    t = threshold / params.n
    fa = _chi2_difference_sf(0.5, 0.5, t, params.d)
    md = 1.0 - _chi2_difference_sf((1.0 + r) / 2.0, (1.0 - r) / 2.0, t, params.d)
    return fa, md


def _double_sum(pair, rho_sign):
    total = 0.0
    for i in range(pair.n):
        for j in range(pair.n):
            total += float(pair.x[i] @ pair.y[j])
    return rho_sign * total


class TestStatistic:
    def test_column_sum_identity(self):
        # O(nd) column-sum form vs the O(n^2 d) double sum, 200 random pairs.
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 6))
            p = ProblemParams(n=n, d=d, rho=0.4)
            pair = sample_null(p, rng)
            sign = 1.0 if trial % 2 == 0 else -1.0
            fast = sip_statistic(pair, sign)
            slow = _double_sum(pair, sign)
            assert abs(fast - slow) <= 1e-9 * n * d * max(1.0, abs(slow))

    def test_sign_validation(self):
        p = ProblemParams(n=2, d=2, rho=0.4)
        pair = sample_null(p, np.random.default_rng(0))
        sip_statistic(pair, 1)
        sip_statistic(pair, -1.0)
        with pytest.raises(DomainError):
            sip_statistic(pair, 0.5)

    def test_moments(self):
        # E0 T = 0, Var0 T = n^2 d, E1 T = |rho| n d, each within 3 sigma.
        n, d, rho = 5, 6, 0.55
        p = ProblemParams(n=n, d=d, rho=rho)
        trials = 20_000
        rng = np.random.default_rng(42)
        t0 = np.empty(trials)
        t1 = np.empty(trials)
        ident = Permutation.identity(n)
        for i in range(trials):
            t0[i] = sip_statistic(sample_null(p, rng), 1.0)
            t1[i] = sip_statistic(sample_alt(p, ident, rng), 1.0)
        se0 = t0.std(ddof=1) / np.sqrt(trials)
        assert abs(t0.mean()) <= 3 * se0
        se1 = t1.std(ddof=1) / np.sqrt(trials)
        assert abs(t1.mean() - rho * n * d) <= 3 * se1
        # CI for the sample variance via the empirical fourth moment.
        v = t0.var(ddof=1)
        centered = t0 - t0.mean()
        var_of_var = (np.mean(centered**4) - v**2) / trials
        assert abs(v - n * n * d) <= 3 * np.sqrt(var_of_var)

    def test_permutation_invariance_of_alt_law(self):
        # T's distribution under the alternate does not depend on sigma:
        # two-sample KS between identity and a 4-cycle at 1e4 samples each.
        n, d = 4, 4
        p = ProblemParams(n=n, d=d, rho=0.6)
        ident = Permutation.identity(n)
        cycle = Permutation(np.array([1, 2, 3, 0]))
        rng = np.random.default_rng(7)
        m = 10_000
        a = np.array([sip_statistic(sample_alt(p, ident, rng), 1.0) for _ in range(m)])
        b = np.array([sip_statistic(sample_alt(p, cycle, rng), 1.0) for _ in range(m)])
        result = stats.ks_2samp(a, b)
        assert result.pvalue > 0.0027  # 3-sigma significance level


class TestThreshold:
    def test_boundary_inclusive(self):
        assert threshold_test(1.0, 1.0) == 1
        assert threshold_test(0.999, 1.0) == 0
        assert threshold_test(2.0, 1.0) == 1

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(DomainError):
            threshold_test(0.0, float("nan"))

    def test_nominal_threshold(self):
        p = ProblemParams(n=10, d=20, rho=-0.5)
        assert nominal_threshold(p) == pytest.approx(0.5 * 10 * 20 / 2)
        with pytest.raises(InvalidAlternateError):
            nominal_threshold(ProblemParams(n=10, d=20, rho=0.0))


class TestOptimalGamma:
    def test_matches_bounds_module(self):
        p = ProblemParams(n=50, d=500, rho=0.3)
        g, b = optimal_gamma(p)
        g2, b2 = minimize_two_exponent(500, 0.09)
        assert g == g2 and b == b2

    def test_bound_no_worse_than_balanced_choice(self):
        from corralign.bounds import g_fa, g_md
        import math

        for d, rho in [(100, 0.4), (1000, 0.15), (30, 0.8)]:
            p = ProblemParams(n=10, d=d, rho=rho)
            _, bound = optimal_gamma(p)
            r2 = rho * rho
            at_r2 = math.exp(-0.5 * d * g_fa(r2)) + math.exp(-0.5 * d * g_md(r2, rho))
            assert bound <= at_r2 + 1e-12

    def test_rho_zero_rejected(self):
        with pytest.raises(InvalidAlternateError):
            optimal_gamma(ProblemParams(n=5, d=5, rho=0.0))


class TestRiskEstimate:
    def test_risk_sum(self):
        e = RiskEstimate(fa_rate=0.1, md_rate=0.2, trials=100, ci_radius=0.01)
        assert e.risk() == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(DomainError):
            RiskEstimate(fa_rate=-0.1, md_rate=0.2, trials=100, ci_radius=0.01)
        with pytest.raises(DomainError):
            RiskEstimate(fa_rate=0.1, md_rate=1.2, trials=100, ci_radius=0.01)


class TestMonteCarloRisk:
    def test_zero_trials_rejected(self):
        p = ProblemParams(n=3, d=3, rho=0.5)
        with pytest.raises(DomainError):
            monte_carlo_risk(p, 1.0, 0, 0)

    def test_worker_independence(self):
        p = ProblemParams(n=6, d=10, rho=0.5)
        t = nominal_threshold(p)
        a = monte_carlo_risk(p, t, 300, 17, workers=1)
        b = monte_carlo_risk(p, t, 300, 17, workers=3)
        assert a == b

    def test_seed_sensitivity(self):
        p = ProblemParams(n=6, d=10, rho=0.5)
        t = nominal_threshold(p)
        a = monte_carlo_risk(p, t, 300, 17)
        b = monte_carlo_risk(p, t, 300, 18)
        assert a != b

    def test_null_vs_null_at_rho_zero(self):
        # rho = 0 turns the alternate arm into a second null sample; with
        # threshold 0 both rejection rates sit near 1/2 by symmetry of T.
        p = ProblemParams(n=4, d=4, rho=0.0)
        est = monte_carlo_risk(p, 0.0, 4000, 23)
        assert abs(est.fa_rate - 0.5) <= est.ci_radius
        assert abs((1.0 - est.md_rate) - 0.5) <= est.ci_radius

    def test_large_correlation_small_risk(self):
        p = ProblemParams(n=10, d=400, rho=0.8)
        est = monte_carlo_risk(p, nominal_threshold(p), 400, 3)
        assert est.risk() <= 0.02


LAW_TRIALS = 20_000

#: (params, threshold as a multiple of the nominal one).
LAW_CASES = [
    (ProblemParams(n=5, d=20, rho=math.sqrt(0.1)), 1.0),
    (ProblemParams(n=5, d=20, rho=-math.sqrt(0.1)), 1.0),
    (ProblemParams(n=5, d=20, rho=math.sqrt(0.1)), 1.5),
]
LAW_IDS = ["rho+", "rho-", "rho+-high-threshold"]

#: Cases only the O(1) draw can afford at LAW_TRIALS: the ``detect``
#: benchmark's size, and a negative rho at a larger d.
DRAW_CASES = [
    (ProblemParams(n=100, d=2000, rho=math.sqrt(0.005)), 1.0),
    (ProblemParams(n=30, d=600, rho=-math.sqrt(0.02)), 1.2),
]
DRAW_IDS = ["bench-size", "rho--d600"]


def _assert_law(fa, md, params, threshold):
    p_fa, p_md = _exact_rates(params, threshold)
    assert abs(fa / LAW_TRIALS - p_fa) <= binomial_ci(fa, LAW_TRIALS), (fa, p_fa)
    assert abs(md / LAW_TRIALS - p_md) <= binomial_ci(md, LAW_TRIALS), (md, p_md)


class TestRiskLaw:
    """Both draw paths against the exact law of T.

    ``monte_carlo_risk`` draws T from its two-chi-square law; the samplers
    draw whole databases.  Tying each to the exact law (computed here by
    quadrature, not by the same draw) ties them to each other.
    """

    @pytest.mark.parametrize("params,scale", LAW_CASES + DRAW_CASES, ids=LAW_IDS + DRAW_IDS)
    def test_column_sum_path(self, params, scale):
        threshold = scale * nominal_threshold(params)
        est = monte_carlo_risk(params, threshold, LAW_TRIALS, 31)
        fa = round(est.fa_rate * LAW_TRIALS)
        md = round(est.md_rate * LAW_TRIALS)
        _assert_law(fa, md, params, threshold)

    @pytest.mark.parametrize("params,scale", LAW_CASES, ids=LAW_IDS)
    def test_full_matrix_path(self, params, scale):
        threshold = scale * nominal_threshold(params)
        rng = np.random.default_rng(32)
        planted = Permutation(np.roll(np.arange(params.n), 1))
        sign = params.rho_sign
        fa = md = 0
        for _ in range(LAW_TRIALS):
            fa += threshold_test(sip_statistic(sample_null(params, rng), sign), threshold)
            pair = sample_alt(params, planted, rng)
            md += 1 - threshold_test(sip_statistic(pair, sign), threshold)
        _assert_law(fa, md, params, threshold)


def test_monte_carlo_risk_memory_does_not_grow_with_n():
    # An n x d draw at the first size would take 40 MB per buffer, and two
    # d-vectors at the second (the d axis) 160 MB; a trial draws two
    # chi-square values.
    for n, d in [(100_000, 50), (10, 10**7)]:
        p = ProblemParams(n=n, d=d, rho=0.3)
        tracemalloc.start()
        try:
            monte_carlo_risk(p, nominal_threshold(p), 64, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (n, d, peak)


@pytest.mark.parametrize(
    "fn, args, match",
    [(RiskEstimate, (0.1, 0.1, 0, 0.1), "trials must be positive"),
     (RiskEstimate, (0.1, 0.1, 10, -0.1), "ci_radius must be nonnegative"),
     (monte_carlo_risk, (ProblemParams(4, 8, 0.5), math.nan, 10, 0), "threshold must be finite"),
     (monte_carlo_risk, (ProblemParams(4, 8, 0.5), math.inf, 10, 0), "threshold must be finite")],
    ids=["risk-trials-0", "risk-negative-radius", "mc-nan-threshold", "mc-inf-threshold"],
)
def test_input_checks_raise_domain_errors(fn, args, match):
    with pytest.raises(DomainError, match=match):
        fn(*args)
