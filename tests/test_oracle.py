import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from corralign import bounds, laws, oracle
from corralign.core import (
    Permutation,
    ProblemParams,
    SeedSpec,
    binomial_ci,
    cycle_decompose,
    cycle_type_count,
    enumerate_cycle_types,
    enumerate_permutations,
    uniform_permutation,
)
from corralign.detect import sip_statistic
from corralign.errors import DomainError, SizeCapError
from corralign.gen import DatabasePair, sample_alt, sample_alt_stack, sample_null
from corralign.laws import (
    SECOND_MOMENT_CAP,
    exact_second_moment,
    quadratic_form_tail,
    second_moment_reduction,
)
from corralign.oracle import (
    CIRCULANT_CAP,
    DISPATCH_ORDER,
    ENUMERATE_CAP,
    MC_CAP,
    VERIFY_CHECKS,
    _batched_log_l,
    _log_ratio_matrix,
    circulant_det_check,
    gaussian_chaos_check,
    laurent_massart_check,
    log_likelihood_ratio,
    mc_second_moment,
    pair_mgf_check,
    quadratic_mgf_check,
    truncated_first_moment_check,
    truncation_event_holds,
    tv_risk_lower_bound_mc,
    verify,
)


def _pair(rng, n, d):
    return DatabasePair(x=rng.standard_normal((n, d)), y=rng.standard_normal((n, d)))


class TestLikelihood:
    def test_single_row_matches_density_quotient(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            rho = float(rng.uniform(-0.9, 0.9))
            pair = _pair(rng, 1, d)
            x, y = pair.x[0], pair.y[0]
            u = 1.0 - rho * rho
            direct = (
                -0.5 * d * math.log(u)
                - (rho * rho * (x @ x + y @ y) - 2.0 * rho * (x @ y)) / (2.0 * u)
            )
            assert log_likelihood_ratio(pair, rho) == pytest.approx(direct, abs=1e-10)

    def test_logsumexp_vs_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            rho = float(rng.uniform(-0.6, 0.6))
            pair = _pair(rng, n, d)
            u = 1.0 - rho * rho
            total = 0.0
            for perm in enumerate_permutations(n):
                prod = 1.0
                for i in range(n):
                    x, y = pair.x[i], pair.y[perm[i]]
                    prod *= u ** (-d / 2) * math.exp(
                        -(rho * rho * (x @ x + y @ y) - 2 * rho * (x @ y)) / (2 * u)
                    )
                total += prod
            naive = math.log(total / math.factorial(n))
            got = log_likelihood_ratio(pair, rho)
            assert abs(got - naive) <= 1e-8 * max(1.0, abs(naive))

    def test_unit_mean_under_null(self):
        p = ProblemParams(n=3, d=2, rho=0.45)
        trials = 40_000
        spec = SeedSpec(3, "unit-mean")
        total = 0.0
        total_sq = 0.0
        for i in range(trials // 4000):
            rng = spec.rng(i)
            xs = rng.standard_normal((4000, 3, 2))
            ys = rng.standard_normal((4000, 3, 2))
            w = np.exp(_batched_log_l(xs, ys, 0.45))
            total += w.sum()
            total_sq += (w * w).sum()
        mean = total / trials
        var = total_sq / trials - mean * mean
        assert abs(mean - 1.0) <= 3.0 * math.sqrt(var / trials)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("n", range(1, MC_CAP + 1))
    def test_factored_form_matches_symmetric_form(self, n, d, rho):
        # The factored log L against the per-row symmetric form: the log
        # ratio matrix summed along each permutation, then log-mean-exp'd.
        rng = np.random.default_rng([n, d, int(10 * rho) + 10])
        xs = rng.standard_normal((64, n, d))
        ys = rng.standard_normal((64, n, d))
        m = _log_ratio_matrix(xs, ys, rho)
        per_perm = m[:, np.arange(n), enumerate_permutations(n)].sum(axis=-1)
        ref = special.logsumexp(per_perm, axis=-1) - math.log(math.factorial(n))
        got = _batched_log_l(xs, ys, rho)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("n, d, rho", [(1, 3, 0.5), (2, 2, 0.4), (3, 2, -0.3),
                                           (4, 2, 0.0316), (5, 1, 0.9), (6, 5, -0.9)])
    def test_trial_value_does_not_depend_on_its_batch(self, n, d, rho):
        # Bit for bit, so batching never moves a pinned row; at n = 5 and 6
        # the 300 trials also span several chunks.
        rng = np.random.default_rng(n)
        xs = rng.standard_normal((300, n, d))
        ys = rng.standard_normal((300, n, d))
        batch = _batched_log_l(xs, ys, rho)
        alone = [_batched_log_l(xs[k:k + 1], ys[k:k + 1], rho)[0] for k in range(300)]
        assert batch.tobytes() == np.array(alone).tobytes()

    def test_cap(self):
        rng = np.random.default_rng(3)
        pair = _pair(rng, 9, 2)
        with pytest.raises(SizeCapError):
            log_likelihood_ratio(pair, 0.5)


class TestSecondMoment:
    def test_matches_census_exactly(self):
        # Same arithmetic path: census counts fed through the identical
        # reduction give bit-identical floats.
        for n in (2, 3, 4, 5):
            census: dict[tuple[int, ...], int] = {}
            for row in enumerate_permutations(n):
                t = cycle_decompose(Permutation(row.copy()))
                census[t.counts] = census.get(t.counts, 0) + 1
            types = enumerate_cycle_types(n)
            assert set(census) == {t.counts for t in types}
            seq = [(t, census[t.counts]) for t in types]
            for d in (1, 3):
                for rho2 in (0.05, 0.3):
                    assert second_moment_reduction(seq, n, d, rho2) == exact_second_moment(
                        n, d, rho2
                    )

    def test_closed_form_n2(self):
        # n=2: identity (weight (1-r)^(-2d)) and the swap ((1-r^2)^(-d)).
        d, r = 3, 0.2
        expect = 0.5 * (1.0 - r) ** (-2 * d) + 0.5 * (1.0 - r * r) ** (-d)
        assert exact_second_moment(2, d, r) == pytest.approx(expect, rel=1e-14)

    def test_dominance(self):
        for n in range(1, SECOND_MOMENT_CAP + 1):
            for d in (1, 5, 20):
                for rho2 in (0.01, 0.1, 0.3, 0.6):
                    bound = (1.0 - rho2) ** (-d * n)
                    assert exact_second_moment(n, d, rho2) <= bound * (1 + 1e-12)

    def test_mc_agrees(self):
        val = mc_second_moment(2, 2, 0.25, 60_000, 4)
        exact = exact_second_moment(2, 2, 0.0625)
        assert abs(val.value - exact) <= val.ci_radius

    def test_mc_cap(self):
        with pytest.raises(SizeCapError):
            mc_second_moment(MC_CAP + 1, 2, 0.3, 10, 0)

    def test_exact_cap(self):
        with pytest.raises(SizeCapError):
            exact_second_moment(SECOND_MOMENT_CAP + 1, 2, 0.3)

    def test_overflow_is_inf(self):
        # The identity's weight (1 - 0.6)^(-1000) is about 1e398.
        assert exact_second_moment(10, 100, 0.6) == math.inf
        assert exact_second_moment(2, 3, 0.2) < math.inf


class TestTvLowerBound:
    def test_against_unconditional_converse(self):
        n, d, rho = 4, 2, math.sqrt(0.001)
        est = tv_risk_lower_bound_mc(n, d, rho, 50_000, 5)
        floor = bounds.unconditional_converse_risk(n, d, 0.001)
        assert est.value >= floor - est.ci_radius

    def test_jensen_consistency(self):
        # (E|L-1|)^2 <= E L^2 - 1, with MC slack on the left side.
        n, d, rho = 3, 2, 0.3
        est = tv_risk_lower_bound_mc(n, d, rho, 50_000, 6)
        e_abs = 1.0 - est.value
        rhs = exact_second_moment(n, d, rho * rho) - 1.0
        assert (max(e_abs - 5.0 / 3.0 * est.ci_radius, 0.0)) ** 2 <= rhs


def _diagonal_mgf(lam, b) -> float:
    """E exp(X'RX/2 + X'b) for R = diag(lam): prod (1 - lam)^(-1/2) exp(b^2 / (2 (1 - lam)))."""
    return math.prod((1.0 - x) ** -0.5 * math.exp(c * c / (2.0 * (1.0 - x)))
                     for x, c in zip(lam, b))


class TestQuadraticMgf:
    def test_rejects_bad_matrix(self):
        with pytest.raises(DomainError):
            quadratic_mgf_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
        # The exponent is X'RX/2 + X'b, so I - R must be positive definite.
        with pytest.raises(DomainError):
            quadratic_mgf_check(np.eye(2) * 1.5, np.zeros(2))

    def test_diagonal_case(self):
        res = quadratic_mgf_check(np.diag([0.2, -0.3]), np.array([0.5, 0.0]))
        assert res.passed, res.detail
        assert abs(res.statistic - _diagonal_mgf([0.2, -0.3], [0.5, 0.0])) <= 1e-12 * res.statistic

    def test_accurate_where_an_unscaled_rule_is_not(self):
        # The rule runs on Z after y = s z with s = (1 - lam)^(-1/2); run on
        # y's own weight exp(-y^2/2), the same 80 nodes miss by about 100% at
        # lam = 0.99 and lam = -1e6.
        rng = np.random.default_rng(36)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 6.0
        m -= (np.linalg.eigvalsh(m).max() - 0.5) * np.eye(6)  # top eigenvalue 0.5
        eye = np.eye(50)
        cases = [
            (np.diag([0.99]), np.array([0.5]), _diagonal_mgf([0.99], [0.5])),
            (np.diag([-1e6, 0.2]), np.array([3.0, 1.0]), _diagonal_mgf([-1e6, 0.2], [3.0, 1.0])),
            (m, rng.standard_normal(6), None),
            (np.block([[-0.4 * eye, 0.3 * eye], [0.3 * eye, -0.4 * eye]]), np.zeros(100),
             (1.4**2 - 0.09) ** -25.0),
        ]
        for r, b, exact in cases:
            res = quadratic_mgf_check(r, b)
            assert res.passed, res.detail
            assert abs(res.statistic - res.reference) <= 1e-12 * res.reference
            if exact is not None:
                assert abs(res.statistic - exact) <= 1e-12 * exact

    def test_row_is_exact_at_every_seed(self):
        # The rows draw nothing, so every seed gives the seed-0 row.
        for name in ("quadratic-mgf", "pair-mgf"):
            rows = {oracle._REGISTRY[name](SeedSpec(seed, f"verify/{name}"))
                    for seed in (0, 10, 224, 234)}
            (row,) = rows
            assert row.passed
            assert abs(row.statistic - row.reference) <= 1e-12 * row.reference

    @pytest.mark.parametrize(
        "r, b, match",
        [
            (np.array([[0.1, np.nan], [np.nan, 0.1]]), [0.0, 0.0], "matrix must be finite"),
            (np.diag([0.1, np.inf]), [0.0, 0.0], "matrix must be finite"),
            (np.diag([0.1, 0.2]), [np.nan, 0.0], "b must be finite"),
            (np.diag([0.1, 0.2]), [0.0, -np.inf], "b must be finite"),
            # lam = 0.99 gives s = 10, so c = 1.01 is a slope of 10.1.
            (np.diag([0.99, 0.0]), [1.01, 0.0], "slope"),
            (np.diag([0.0]), [10.5], "slope"),
        ],
    )
    def test_input_checks_name_the_cause(self, r, b, match):
        with pytest.raises(DomainError, match=match):
            quadratic_mgf_check(r, np.array(b))

    def test_slope_cap_is_inclusive(self):
        # |s c| = 10 is the largest slope the rule is held to.
        res = quadratic_mgf_check(np.diag([0.0]), np.array([10.0]))
        assert res.passed, res.detail

    def test_pair_mgf(self):
        res = pair_mgf_check(0.15, 0.25, 2)
        assert res.passed, res.detail
        assert "0." in res.detail  # records the block-form reference value
        assert abs(res.statistic - (1.3**2 - 0.0625) ** -1.0) <= 1e-12 * res.statistic

    def test_pair_mgf_domain(self):
        with pytest.raises(DomainError):
            pair_mgf_check(0.1, 1.3, 2)  # |b| >= 1 + 2a

    @pytest.mark.parametrize("a, b", [(math.nan, 0.25), (0.15, math.nan), (math.inf, 0.25)])
    def test_pair_mgf_rejects_non_finite(self, a, b):
        with pytest.raises(DomainError, match="a and b must be finite"):
            pair_mgf_check(a, b, 2)


class TestCirculant:
    def test_matches_direct_determinant(self):
        for length in (1, 2, 3, 5, CIRCULANT_CAP):
            for rho in (0.3, 0.8):
                res = circulant_det_check(length, rho)
                assert res.passed, res.detail

    def test_cap(self):
        with pytest.raises(SizeCapError):
            circulant_det_check(CIRCULANT_CAP + 1, 0.3)

    def test_verify_row_names_a_failing_length(self, monkeypatch):
        # Every failing (L, rho) is listed with its relative error, in order.
        def check(length, rho):
            res = circulant_det_check(length, rho)
            forced = (length, rho) in {(3, 0.5), (7, 0.3)}
            return dataclasses.replace(res, passed=res.passed and not forced)

        monkeypatch.setattr(oracle, "circulant_det_check", check)
        res = oracle._REGISTRY["circulant-dets"](SeedSpec(0, "verify/circulant-dets"))
        assert not res.passed
        errors = [circulant_det_check(*case).detail for case in ((3, 0.5), (7, 0.3))]
        assert res.detail == f"L=3 rho=0.5: {errors[0]}; L=7 rho=0.3: {errors[1]}"


class TestConcentration:
    def test_laurent_massart(self):
        alpha = np.linspace(0.5, 2.0, 30)
        res = laurent_massart_check(30, alpha, [1.0, 5.0, 15.0])
        assert res.passed, res.detail

    def test_gaussian_chaos_cross_term(self):
        from corralign.oracle import aligned_cross_term_matrix

        A = aligned_cross_term_matrix(0.6, 4)
        res = gaussian_chaos_check(A, [1.0, 3.0, 8.0])
        assert res.passed, res.detail

    def test_gaussian_chaos_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            gaussian_chaos_check(np.array([[0.0, 1.0], [0.5, 0.0]]), [1.0])

    def test_empty_grid_is_rejected(self):
        # An empty grid would pass with statistic -inf.
        with pytest.raises(DomainError, match="nonempty"):
            laurent_massart_check(3, [1.0, 1.0, 1.0], [])
        with pytest.raises(DomainError, match="nonempty"):
            gaussian_chaos_check(np.eye(2), [])

    def test_zero_alpha_is_rejected(self):
        with pytest.raises(DomainError, match="positive entry"):
            laurent_massart_check(3, [0.0, 0.0, 0.0], [1.0])


@pytest.mark.parametrize(
    "helper, args",
    [
        (truncated_first_moment_check, (12, 40, math.sqrt(0.2), 4, 1.0)),
        (mc_second_moment, (2, 2, 0.3)),
        (tv_risk_lower_bound_mc, (2, 2, 0.3)),
    ],
    ids=["truncated_first_moment_check-args0", "mc_second_moment-args3",
         "tv_risk_lower_bound_mc-args4"],
)
def test_zero_trials_is_domain_error(helper, args):
    # Every Monte-Carlo rate or mean divides by the trial count.
    with pytest.raises(DomainError, match="trials"):
        helper(*args, 0, 0)


@pytest.mark.parametrize(
    "helper, args",
    [
        (laurent_massart_check, (2, [1, 1])),
        (gaussian_chaos_check, (np.eye(2),)),
    ],
)
@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_nonpositive_t_is_domain_error(helper, args, t):
    # A tail bound is stated for t > 0 alone, and a NaN t would compare as
    # no excess.
    with pytest.raises(DomainError, match="positive"):
        helper(*args, [1.0, t])


def _squares_row_form():
    alpha = np.concatenate([np.ones(30), np.linspace(0.1, 2.0, 20)])
    return alpha, alpha.sum() - np.array([1.0, 5.0, 10.0, 20.0])


def _chaos_row_forms():
    cross = oracle.aligned_cross_term_matrix(0.6, 5)
    diag = np.linspace(0.2, 1.0, 6)
    return [(np.linalg.eigvalsh(cross), np.array([1.0, 4.0, 8.0, 16.0]) + np.trace(cross)),
            (diag, np.array([2.0, 6.0, 12.0]) + diag.sum())]


class TestExactTail:
    @pytest.mark.parametrize("d", [5, 50])
    def test_equal_weights_match_chi2_sf(self, d):
        xs = np.array([0.0, 0.5, 2.0, d / 2.0, d, 2.0 * d, 4.0 * d])
        tail, error = quadratic_form_tail(np.ones(d), xs)
        assert np.all(np.abs(tail - stats.chi2.sf(xs, d)) <= 1e-8)
        assert np.all(error <= 1e-9)

    def test_row_tails_are_pinned(self):
        # The verify rows' exact tails, to 1e-6 absolute: the lower tail of
        # the squares row, then the cross-term block of the chaos row.
        alpha, xs = _squares_row_form()
        lower = 1.0 - quadratic_form_tail(alpha, xs)[0]
        assert np.allclose(lower, [0.4935901, 0.3435785, 0.1782833, 0.0171229], rtol=0, atol=1e-6)
        (lam, xs), _ = _chaos_row_forms()
        upper = quadratic_form_tail(lam, xs)[0]
        assert np.allclose(upper, [0.2896688, 0.0780750, 0.0108458, 0.0001470], rtol=0, atol=1e-6)

    def test_cross_term_tail_matches_its_chi2_difference(self):
        # The cross-term block's eigenvalues are 0.8 and -0.2, five each, so
        # its tail is P(0.8 A - 0.2 B > x) for independent chi2_5 A and B.
        (lam, xs), _ = _chaos_row_forms()
        assert np.allclose(np.sort(lam), [-0.2] * 5 + [0.8] * 5, atol=1e-12)
        for x, tail in zip(xs, quadratic_form_tail(lam, xs)[0]):
            ref, _ = integrate.quad(
                lambda b: stats.chi2.pdf(b, 5) * stats.chi2.sf((x + 0.2 * b) / 0.8, 5),
                0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
            assert abs(tail - ref) <= 1e-8, (x, tail, ref)

    def test_mixed_sign_form_matches_monte_carlo(self):
        # The one tie between the sampler and the law: 400,000 fixed-seed
        # draws of the cross-term statistic x'Ax - tr A, at 3 sigma.
        a = oracle.aligned_cross_term_matrix(0.6, 5)
        ts = np.array([0.5, 1.0, 4.0, 8.0])
        rng = np.random.default_rng(2024)
        trials, counts = 400_000, np.zeros(ts.size, dtype=np.int64)
        for _ in range(trials // 4000):
            x = rng.standard_normal((4000, a.shape[0]))
            stat = np.einsum("ti,ij,tj->t", x, a, x) - np.trace(a)
            counts += (stat[:, None] > ts).sum(axis=0)
        tail, _ = quadratic_form_tail(np.linalg.eigvalsh(a), ts + np.trace(a))
        for count, p in zip(counts, tail):
            assert abs(count / trials - p) <= binomial_ci(int(count), trials), (count, p)

    @pytest.mark.parametrize(
        "weights, xs",
        [_squares_row_form(), *_chaos_row_forms(), (np.ones(5), np.array([1.0, 5.0, 20.0])),
         (np.array([1.0, -1.0, 0.5, -2.0, 0.3]), np.array([-1.0, 0.5, 2.0]))],
        ids=["squares", "cross-term", "diagonal", "chi2-5", "five-mixed"],
    )
    def test_error_bound_holds_against_ten_times_the_nodes(self, weights, xs):
        tail, error = quadratic_form_tail(weights, xs)
        vals, counts = np.unique(weights, return_counts=True)
        mult = counts.astype(np.float64)
        h, nodes, _ = laws._imhof_grid(vals, mult, xs)
        fine, _ = laws._imhof_sums(vals, mult, xs, h / 10.0, 10 * nodes)
        assert np.all(np.abs(tail - (0.5 + h / 10.0 * fine / math.pi)) <= error)

    @pytest.mark.parametrize("d", [1, 2])
    def test_few_weights_state_their_truncation(self, d):
        # With one or two weights the node cap stops the integral early; the
        # error it states must still cover the true tail.
        xs = np.array([0.1, 1.0, 3.0])
        tail, error = quadratic_form_tail(np.ones(d), xs)
        assert np.all(np.abs(tail - stats.chi2.sf(xs, d)) <= error)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="nonzero"):
            quadratic_form_tail([0.0, 0.0], [1.0])
        with pytest.raises(DomainError, match="finite"):
            quadratic_form_tail([1.0, math.nan], [1.0])
        with pytest.raises(DomainError, match="finite"):
            quadratic_form_tail([1.0, 2.0], [math.inf])

    def test_rows_draw_nothing(self):
        # The two rows no longer depend on the seed: same bytes at 0 and 7.
        for name in ("tail-squares", "tail-chaos"):
            r0, r7 = (oracle._REGISTRY[name](SeedSpec(seed, f"verify/{name}")) for seed in (0, 7))
            assert r0 == r7 and r0.passed and r0.statistic.hex() == r7.statistic.hex()


class TestTruncationEvent:
    def _setup(self, n=8, d=30, rho=0.4, k_star=3, margin=0.5):
        p = ProblemParams(n=n, d=d, rho=rho)
        sch = bounds.truncation_schedule(n, d, rho * rho, k_star=k_star, margin=margin)
        return p, sch

    def test_enumerate_matches_sorted(self):
        p, sch = self._setup()
        spec = SeedSpec(11, "events")
        for i in range(50):
            rng = spec.rng(i)
            perm = Permutation(rng.permutation(p.n))
            pair = sample_alt(p, perm, rng)
            a = truncation_event_holds(pair, perm, sch, 1.0, method="sorted")
            b = truncation_event_holds(pair, perm, sch, 1.0, method="enumerate")
            assert a == b

    def test_vacuous_when_too_few_fixed_points(self):
        p, sch = self._setup(k_star=7)
        # A permutation with a single fixed point: nothing to constrain.
        perm = Permutation(np.array([1, 2, 3, 4, 5, 6, 0, 7]))
        pair = sample_alt(p, perm, SeedSpec(13, "t"))
        assert truncation_event_holds(pair, perm, sch, 1.0)

    def test_first_moment_direction_with_enumeration(self):
        # Planted identity at small n: the truncation event holds at least
        # as often as 1 - deficit - 3 sigma, with the event checked by full
        # subset enumeration.
        n, d, rho = 8, 40, math.sqrt(0.2)
        sch = bounds.truncation_schedule(n, d, 0.2, k_star=3, margin=1.0)
        ex = bounds.truncation_exponents(sch, n, d, 0.2)
        m = min(ex.deficit_norm, ex.deficit_cross)
        deficit = 4.0 * math.exp(-sch.k_star * m) / -math.expm1(-m)
        p = ProblemParams(n=n, d=d, rho=rho)
        ident = Permutation.identity(n)
        spec = SeedSpec(14, "first-moment")
        trials = 400
        fails = 0
        for i in range(trials):
            pair = sample_alt(p, ident, spec.rng(i))
            if not truncation_event_holds(pair, ident, sch, 1.0, method="enumerate"):
                fails += 1
        rate = fails / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1.0 / trials) / trials)
        assert rate <= deficit + 3.0 * sigma

    def test_enumerate_capped(self):
        n = ENUMERATE_CAP + 1
        p, sch = self._setup(n=n, d=60)
        ident = Permutation.identity(n)
        pair = sample_alt(p, ident, SeedSpec(16, "t"))
        with pytest.raises(SizeCapError, match="capped"):
            truncation_event_holds(pair, ident, sch, 1.0, method="enumerate")
        truncation_event_holds(pair, ident, sch, 1.0, method="sorted")

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"method": "sample"}, "unknown method"), ({"method": "both"}, "unknown method")],
    )
    def test_method_errors(self, kwargs, message):
        p, sch = self._setup()
        ident = Permutation.identity(p.n)
        pair = sample_alt(p, ident, SeedSpec(17, "t"))
        with pytest.raises(DomainError, match=message):
            truncation_event_holds(pair, ident, sch, 1.0, **kwargs)

    def test_first_moment_check_helper(self):
        res = truncated_first_moment_check(12, 40, math.sqrt(0.2), 4, 1.0, 500, 15)
        assert res.passed, res.detail

    def test_first_moment_check_fails_without_a_schedule(self):
        res = truncated_first_moment_check(12, 40, math.sqrt(0.2), 4, 10.0, 10, 0)
        assert not res.passed
        assert "schedule preconditions failed" in res.detail


class TestStackedEvent:
    @pytest.mark.parametrize("rho", [0.4, -0.4])
    def test_stack_matches_each_pair(self, rho):
        # The stacked evaluator against the one-pair call on every pair:
        # both methods; fixed points on all 8 rows, on 5 (0 < fixed < n) and
        # on 2 (fewer than k_star = 3); and schedules scaled so that the
        # event holds on some draws and fails on others.
        n, d = 8, 30
        p = ProblemParams(n=n, d=d, rho=rho)
        sch = bounds.truncation_schedule(n, d, p.rho2, k_star=3, margin=0.5)
        schedules = (sch, dataclasses.replace(sch, v=sch.v * 0.3),
                     dataclasses.replace(sch, w=sch.w * 3.0))
        spec = SeedSpec(31, "stacked-event")
        outcomes = {}
        for mapping in ([0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 0, 3, 4, 5, 6, 7],
                        [1, 2, 3, 4, 5, 0, 6, 7]):
            perm = Permutation(np.array(mapping))
            xs, ys = sample_alt_stack(p, perm, [spec.rng(i) for i in range(40)])
            for j, s in enumerate(schedules):
                for method in ("sorted", "enumerate"):
                    stacked = oracle._events_hold(xs, ys, perm, s, p.rho_sign, method)
                    lone = [truncation_event_holds(DatabasePair(x=x, y=y), perm, s,
                                                   p.rho_sign, method)
                            for x, y in zip(xs, ys)]
                    assert stacked.dtype == bool and stacked.tolist() == lone
                    outcomes[perm.fixed_point_count(), j] = set(lone)
        assert outcomes[8, 1] == outcomes[5, 1] == outcomes[5, 2] == {True, False}
        assert all(outcomes[2, j] == {True} for j in range(3))

    @pytest.mark.parametrize("rho", [math.sqrt(0.2), -math.sqrt(0.2)])
    def test_first_moment_count_matches_a_per_trial_loop(self, rho):
        # At k_star = 1 and a thin margin some of the 400 trials fail (3 at
        # rho > 0, 2 at rho < 0), spread over three stacks of trials; the
        # count must be that of one draw and one event test per trial.
        n, d, k_star, margin, trials = 12, 40, 1, 0.02, 400
        res = truncated_first_moment_check(n, d, rho, k_star, margin, trials, 0)
        p = ProblemParams(n=n, d=d, rho=rho)
        sch = bounds.truncation_schedule(n, d, p.rho2, k_star=k_star, margin=margin)
        ident = Permutation.identity(n)
        spec = SeedSpec(0, "oracle/truncation-first-moment")
        fails = sum(not truncation_event_holds(sample_alt(p, ident, spec.rng(i)), ident, sch,
                                               p.rho_sign)
                    for i in range(trials))
        assert fails > 0
        assert res.statistic == fails / trials
        assert res.detail.startswith(f"{fails} event failures in {trials} ")

    def test_first_moment_row_memory_stays_chunked(self):
        # The row tests its 2,000 trials in stacks of at most ARRAY_BUDGET
        # values per array (a peak of about 5 MB); one stack of all 2,000
        # trials took about 30 MB.
        check = oracle._REGISTRY["truncation-first-moment"]
        tracemalloc.start()
        try:
            check(SeedSpec(0, "verify/truncation-first-moment"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak


class TestVerify:
    def test_registry_names_unique_and_nonempty(self):
        assert len(VERIFY_CHECKS) == len(set(VERIFY_CHECKS))
        assert len(VERIFY_CHECKS) >= 20

    def test_dispatch_order_is_a_permutation_of_the_registry(self):
        # A check missing from DISPATCH_ORDER, or listed twice, fails here.
        assert len(DISPATCH_ORDER) == len(set(DISPATCH_ORDER))
        assert set(DISPATCH_ORDER) == set(VERIFY_CHECKS)

    def test_full_suite_passes(self):
        # The checks start in DISPATCH_ORDER; the report keeps registry
        # order and its values whatever the worker count.
        report = verify(seed=0, workers=2)
        failed = [c.name for c in report.failures]
        assert report.passed, f"failing checks: {failed}"
        assert tuple(c.name for c in report.checks) == VERIFY_CHECKS
        assert verify(seed=0, workers=1) == report
        assert verify(seed=0, workers=3) == report


@pytest.mark.parametrize(
    "n, d, rho, seed",
    [(3, 4, 0.0, 0), (2, 3, 0.5, 1), (4, 8, 0.0, 2), (4, 8, 0.5, 3)],
    ids=["null-mgf-mc", "alt-mgf-mc", "statistic-moments-null", "statistic-moments-alt"],
)
def test_column_sum_law_matches_the_databases(n, d, rho, seed):
    # The column-sum rows draw T from the law of the column sums; at each
    # row's (n, d, rho) that law must be the one of sip_statistic on whole
    # databases (a non-identity permutation planted under the alternate).
    rng = np.random.default_rng(seed)
    m = 10_000
    params = ProblemParams(n=n, d=d, rho=rho)
    shift = Permutation(np.roll(np.arange(n), 1))
    if rho:
        db = [sip_statistic(sample_alt(params, shift, rng), 1.0) for _ in range(m)]
    else:
        db = [sip_statistic(sample_null(params, rng), 1.0) for _ in range(m)]
    db = np.array(db)
    cs = oracle._column_sum_stats(rng, m, n, d, rho)
    assert stats.ks_2samp(db, cs).pvalue > 0.0027  # 3-sigma significance level

    def var_of_var(t):  # sampling variance of the sample variance
        return np.var((t - t.mean()) ** 2) / m

    assert abs(db.mean() - cs.mean()) <= 3.0 * math.sqrt((db.var() + cs.var()) / m)
    assert abs(db.var() - cs.var()) <= 3.0 * math.sqrt(var_of_var(db) + var_of_var(cs))


def test_statistic_moment_radii_are_the_exact_deviations():
    # statistic-moments takes its radii from the exact standard deviations
    # of T (null and alternate) and of T^2 under the null
    # (docs/math_notes.md section 5); 200,000 draws give each to about 1%,
    # and a wrong constant (say 2d^2 + 2d for T^2) is off by about 10%.
    n, d, rho, m = 4, 8, 0.5, 200_000
    rng = np.random.default_rng(2)
    t_null = oracle._column_sum_stats(rng, m, n, d)
    t_alt = oracle._column_sum_stats(rng, m, n, d, rho)
    exact = [n * math.sqrt(d), n * math.sqrt(d * (1.0 + rho * rho)),
             n * n * math.sqrt(2.0 * d * d + 6.0 * d)]
    sample = [t_null.std(), t_alt.std(), (t_null**2).std()]
    assert np.allclose(sample, exact, rtol=0.03, atol=0.0), (sample, exact)


@pytest.mark.parametrize(
    "closed_form, name",
    [("unconditional_converse_risk", "truncated-vs-unconditional"),
     ("g_md", "chernoff-identity")],
)
def test_nan_closed_form_fails_its_check(monkeypatch, closed_form, name):
    # A NaN must reach the folded statistic instead of being dropped by max().
    monkeypatch.setattr(bounds, closed_form, lambda *args: math.nan)
    result = oracle._REGISTRY[name](SeedSpec(0, f"verify/{name}"))
    assert not result.passed
    assert math.isnan(result.statistic)


def test_chernoff_identity_holds_at_every_seed():
    # Large-d draws underflow mgf_alt to 0; the check must work in log space.
    check = oracle._REGISTRY["chernoff-identity"]
    for seed in range(60):
        result = check(SeedSpec(master_seed=seed, stream_label="verify/chernoff-identity"))
        assert result.passed, (seed, result)


def _row_digest(names) -> str:
    """SHA-256 of the named checks' rows, bit for bit, at seeds 1 and 7."""
    rows = []
    for seed in (1, 7):
        for name in names:
            r = oracle._REGISTRY[name](SeedSpec(seed, f"verify/{name}"))
            rows.append(f"{r.name}|{int(r.passed)}|{r.statistic.hex()}|"
                        f"{r.reference.hex()}|{r.detail}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_refactored_rows_are_pinned():
    # Bits of the checks that share the exact tail, the MGF helper and the
    # truncation event; a refactor of those paths must keep every row.
    names = ("null-mgf-mc", "alt-mgf-mc", "tail-squares", "tail-chaos",
             "truncation-event-methods", "truncation-first-moment")
    assert _row_digest(names) == "c3d85424fa6808bc99559fc7aae97d2a7c9a02914e76e77bbd39a8fd6dbd4ca5"


def test_floor_md_matches_scalar_g_md_loop():
    # The check evaluates g_md(x, sqrt(x)) as one array call; the scalar
    # loop it replaced is the reference, bit for bit.
    r2 = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    loop = np.array([bounds.g_md(x, math.sqrt(x)) for x in r2])
    assert np.array_equal(bounds._g_md(r2, *bounds._md_lane_args(r2)), loop)
    result = oracle._REGISTRY["exponent-floor-md"](SeedSpec(0, "verify/exponent-floor-md"))
    assert result.statistic == float(np.max(r2 / 30.0 - loop))


def test_batched_rows_are_pinned():
    # Bits of the checks whose arithmetic was rewritten (the column-sum
    # blend); every row must keep its bits.  closed-min-quadratic was
    # re-pinned when its golden-section refinement became a root search on
    # f', and quadratic-mgf and pair-mgf when Gauss-Hermite quadrature in
    # R's eigenbasis replaced their Monte Carlo: they draw nothing and read
    # the same at every seed.  statistic-moments
    # missed its 3-sigma band at seed 7 when it drew whole databases; drawing
    # the column sums from their law, it passes at seeds 1 and 7, and a
    # future miss is pinned as it stands.  Its radii are the exact standard
    # deviations of T and T^2, not sample ones.
    names = ("closed-min-quadratic", "quadratic-mgf", "pair-mgf", "statistic-moments")
    assert _row_digest(names) == "9265575ca1307a7e62cd8921be9d1ce1fa8fa2b22c79304627f3f432c7d3da8c"


def test_rows_not_redrawn_are_pinned():
    # Bits of every row outside the three column-sum rows, whose draws
    # changed to the column sums' own law; the others kept their streams,
    # so they keep their bits.  A check added to the registry moves this
    # digest and must be pinned here.  The likelihood rows were re-pinned
    # when log L took its sigma-free part out of the sum over permutations:
    # same draws, values moved by rounding (a few ulp), no pass/fail changed.
    # closed-min-quadratic was re-pinned with its root search on f', and
    # quadratic-mgf and pair-mgf with their quadrature.
    redrawn = ("null-mgf-mc", "alt-mgf-mc", "statistic-moments")
    names = [name for name in VERIFY_CHECKS if name not in redrawn]
    assert _row_digest(names) == "c7f759e67002178f7de696aa2e8dd68d9a91a67092f1c8725fc84d7969aa3f37"


def _closed_min(a: float, d: float) -> float:
    """min over (-1, 1) of a x + (d/2) ln(1 / (1 - x^2)), in closed form."""
    root = math.sqrt((2.0 * a / d) ** 2 + 1.0)
    return 0.5 * d * (math.log((root + 1.0) / 2.0) + 1.0 - root)


def test_closed_min_refines_the_seed_297_lane():
    # Lane 64 of seed 297: a golden-section refinement stopped there when its
    # probes straddled the minimizer at near-equal heights, 2.2e-5 apart and
    # 1.37e-8 above the minimum, and the row failed its 1e-8 limit.
    rng = SeedSpec(297, "verify/closed-min-quadratic").rng(0)
    d, a = np.array([(rng.uniform(1.0, 200.0), rng.uniform(-300.0, 300.0))
                     for _ in range(100)])[64]
    assert (a, d) == pytest.approx((266.835, 38.882), abs=1e-3)
    refined = float(oracle._quadratic_log_min(np.array([a]), np.array([d]))[0])
    closed = _closed_min(a, d)
    assert abs(refined - closed) <= 1e-12 * abs(closed)


def test_closed_min_row_passes_at_every_seed():
    # The refinement is a root search on f' narrowed to a relative width of
    # 1e-12, so the row reads at rounding level at every seed, far inside
    # its 1e-8 limit.
    for seed in range(300):
        result = oracle._REGISTRY["closed-min-quadratic"](
            SeedSpec(seed, "verify/closed-min-quadratic"))
        assert result.passed and result.statistic <= 1e-12, seed


class TestTruncationEventNegativeRho:
    def test_sorted_matches_enumerate_at_negative_rho(self):
        n, d, rho = 8, 30, -0.4
        p = ProblemParams(n=n, d=d, rho=rho)
        sch = bounds.truncation_schedule(n, d, p.rho2, k_star=3, margin=0.5)
        # The second schedule tightens only the cross-sum limit.
        tightened = dataclasses.replace(sch, v=sch.v * 0.22)
        spec = SeedSpec(23, "negative-rho")
        outcomes = set()
        for i in range(60):
            # A random cycle on 2 to 4 rows leaves 4 to 6 fixed points.
            rng = spec.rng(i)
            moved = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
            mapping = np.arange(n)
            mapping[moved] = np.roll(moved, 1)
            perm = Permutation(mapping)
            assert 4 <= perm.fixed_point_count() < n
            pair = sample_alt(p, perm, rng)
            mirror = DatabasePair(x=pair.x, y=-pair.y)
            for s in (sch, tightened):
                a = truncation_event_holds(pair, perm, s, -1.0, method="sorted")
                b = truncation_event_holds(pair, perm, s, -1.0, method="enumerate")
                # Negating y turns the negative-rho pair into a positive-rho one.
                assert a == b == truncation_event_holds(mirror, perm, s, 1.0), i
                outcomes.add(a)
        assert outcomes == {True, False}

    def test_cached_subsets_are_read_only(self):
        p, ident = ProblemParams(n=6, d=20, rho=-0.4), Permutation.identity(6)
        sch = bounds.truncation_schedule(6, 20, 0.16, k_star=2, margin=0.5)
        truncation_event_holds(sample_alt(p, ident, SeedSpec(24, "t")), ident, sch, -1.0,
                               method="enumerate")
        rows = oracle._subsets(6, 3)
        assert rows is oracle._subsets(6, 3)
        assert rows.shape == (20, 3) and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 5
