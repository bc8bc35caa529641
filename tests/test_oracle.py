import dataclasses
import hashlib
import math

import numpy as np
import pytest

from corralign import bounds, oracle
from corralign.core import (
    Permutation,
    ProblemParams,
    SeedSpec,
    cycle_decompose,
    cycle_type_count,
    enumerate_cycle_types,
    enumerate_permutations,
    uniform_permutation,
)
from corralign.errors import DomainError, SizeCapError
from corralign.gen import DatabasePair, sample_alt, sample_null
from corralign.oracle import (
    CIRCULANT_CAP,
    ENUMERATE_CAP,
    MC_CAP,
    SECOND_MOMENT_CAP,
    VERIFY_CHECKS,
    circulant_det_check,
    exact_second_moment,
    gaussian_chaos_check,
    laurent_massart_check,
    log_likelihood_ratio,
    mc_second_moment,
    pair_mgf_check,
    quadratic_mgf_check,
    second_moment_reduction,
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
            from corralign.oracle import _batched_log_l

            w = np.exp(_batched_log_l(xs, ys, 0.45))
            total += w.sum()
            total_sq += (w * w).sum()
        mean = total / trials
        var = total_sq / trials - mean * mean
        assert abs(mean - 1.0) <= 3.0 * math.sqrt(var / trials)

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


class TestQuadraticMgf:
    def test_rejects_bad_matrix(self):
        with pytest.raises(DomainError):
            quadratic_mgf_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 100, 0)
        # The exponent is X'RX/2 + X'b, so I - R must be positive definite.
        with pytest.raises(DomainError):
            quadratic_mgf_check(np.eye(2) * 1.5, np.zeros(2), 100, 0)

    def test_diagonal_case(self):
        res = quadratic_mgf_check(np.diag([0.2, -0.3]), np.array([0.5, 0.0]), 200_000, 7)
        assert res.passed

    def test_pair_mgf(self):
        res = pair_mgf_check(0.15, 0.25, 2, 200_000, 8)
        assert res.passed
        assert "0." in res.detail  # records the block-form reference value

    def test_pair_mgf_domain(self):
        with pytest.raises(DomainError):
            pair_mgf_check(0.1, 1.3, 2, 100, 0)  # |b| >= 1 + 2a


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
        def check(length, rho):
            res = circulant_det_check(length, rho)
            return dataclasses.replace(res, passed=res.passed and length != 7)

        monkeypatch.setattr(oracle, "circulant_det_check", check)
        res = oracle._REGISTRY["circulant-dets"](SeedSpec(0, "verify/circulant-dets"))
        assert not res.passed
        assert res.detail == "circulant-det-L7"


class TestConcentration:
    def test_laurent_massart(self):
        alpha = np.linspace(0.5, 2.0, 30)
        res = laurent_massart_check(30, alpha, [1.0, 5.0, 15.0], 150_000, 9)
        assert res.passed, res.detail

    def test_gaussian_chaos_cross_term(self):
        from corralign.oracle import aligned_cross_term_matrix

        A = aligned_cross_term_matrix(0.6, 4)
        res = gaussian_chaos_check(A, [1.0, 3.0, 8.0], 150_000, 10)
        assert res.passed, res.detail

    def test_gaussian_chaos_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            gaussian_chaos_check(np.array([[0.0, 1.0], [0.5, 0.0]]), [1.0], 100, 0)

    def test_empty_grid_is_rejected(self):
        # An empty grid would pass with statistic -inf.
        with pytest.raises(DomainError, match="nonempty"):
            laurent_massart_check(3, [1.0, 1.0, 1.0], [], 1000, 0)
        with pytest.raises(DomainError, match="nonempty"):
            gaussian_chaos_check(np.eye(2), [], 1000, 0)

    def test_zero_alpha_is_rejected(self):
        with pytest.raises(DomainError, match="positive entry"):
            laurent_massart_check(3, [0.0, 0.0, 0.0], [1.0], 1000, 0)


@pytest.mark.parametrize(
    "helper, args",
    [
        (truncated_first_moment_check, (12, 40, math.sqrt(0.2), 4, 1.0)),
        (quadratic_mgf_check, (np.diag([0.3, -0.2]), [1.0, 0.0])),
        (pair_mgf_check, (0.15, 0.25, 2)),
        (mc_second_moment, (2, 2, 0.3)),
        (tv_risk_lower_bound_mc, (2, 2, 0.3)),
        (laurent_massart_check, (2, [1, 1], [1.0])),
        (gaussian_chaos_check, (np.eye(2), [1.0])),
    ],
)
def test_zero_trials_is_domain_error(helper, args):
    # Every Monte-Carlo rate or mean divides by the trial count.
    with pytest.raises(DomainError, match="trials"):
        helper(*args, 0, 0)


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


class TestVerify:
    def test_registry_names_unique_and_nonempty(self):
        assert len(VERIFY_CHECKS) == len(set(VERIFY_CHECKS))
        assert len(VERIFY_CHECKS) >= 20

    def test_full_suite_passes(self):
        report = verify(seed=0, workers=2)
        failed = [c.name for c in report.failures]
        assert report.passed, f"failing checks: {failed}"
        assert tuple(c.name for c in report.checks) == VERIFY_CHECKS


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


def test_refactored_rows_are_pinned():
    # Bits of the checks that share the tail loop, the MGF helper and the
    # truncation event; a refactor of those paths must keep every row.
    names = ("null-mgf-mc", "alt-mgf-mc", "tail-squares", "tail-chaos",
             "truncation-event-methods", "truncation-first-moment")
    rows = []
    for seed in (1, 7):
        for name in names:
            r = oracle._REGISTRY[name](SeedSpec(seed, f"verify/{name}"))
            rows.append(f"{r.name}|{int(r.passed)}|{r.statistic.hex()}|"
                        f"{r.reference.hex()}|{r.detail}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "8ee039f355e9888dca7dab99f6a7a95aaf156f7b93bd5d5b2d6213edbf1cf3ad"


def test_floor_md_matches_scalar_g_md_loop():
    # The check evaluates g_md(x, sqrt(x)) as one array call; the scalar
    # loop it replaced is the reference, bit for bit.
    r2 = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    loop = np.array([bounds.g_md(x, math.sqrt(x)) for x in r2])
    assert np.array_equal(bounds._g_md(r2, *bounds._md_lane_args(r2)), loop)
    result = oracle._REGISTRY["exponent-floor-md"](SeedSpec(0, "verify/exponent-floor-md"))
    assert result.statistic == float(np.max(r2 / 30.0 - loop))


def test_batched_rows_are_pinned():
    # Bits of the checks whose batch arithmetic is rewritten around
    # unchanged draws (the quadratic forms, the lane-wise closed-min search,
    # the column-sum blend); every row must keep its bits.  statistic-moments
    # misses its 3-sigma band at seed 7; the row is pinned as it stands.
    names = ("closed-min-quadratic", "quadratic-mgf", "pair-mgf", "statistic-moments")
    rows = []
    for seed in (1, 7):
        for name in names:
            r = oracle._REGISTRY[name](SeedSpec(seed, f"verify/{name}"))
            rows.append(f"{r.name}|{int(r.passed)}|{r.statistic.hex()}|"
                        f"{r.reference.hex()}|{r.detail}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "79ff6940fdc9297777694fab33863224c40eb21bf90a821d35aa69a1f2e63b75"


def _closed_min_loop(spec):
    # The check as one scalar _golden_min per draw: the reference for the
    # lane-wise search.
    rng = spec.rng(0)
    errors = []
    for _ in range(100):
        d = float(rng.uniform(1.0, 200.0))
        a = float(rng.uniform(-300.0, 300.0))
        if abs(a) < 1e-3:
            continue
        gamma = (2.0 * a / d) ** 2
        closed = 0.5 * d * (math.log((math.sqrt(gamma + 1.0) + 1.0) / 2.0)
                            + 1.0 - math.sqrt(gamma + 1.0))

        def f(x: float) -> float:
            return a * x + 0.5 * d * math.log(1.0 / (1.0 - x * x))

        xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 10_000)
        i = int(np.argmin(a * xs + 0.5 * d * np.log(1.0 / (1.0 - xs * xs))))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        _, f_best = oracle._golden_min(
            lambda xs: np.array([f(x) for x in xs.tolist()]), [lo], [hi], rel_tol=1e-14)
        errors.append(abs(float(f_best[0]) - closed))
    return max(errors + [0.0])


@pytest.mark.parametrize("seed", [0, 1, 7, 12])
def test_closed_min_is_one_lane_wise_search(monkeypatch, seed):
    spec = SeedSpec(seed, "verify/closed-min-quadratic")
    reference = _closed_min_loop(spec)
    real, calls = oracle._golden_min, []

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_golden_min", counted)
    result = oracle._REGISTRY["closed-min-quadratic"](spec)
    assert result.statistic.hex() == reference.hex()
    assert len(calls) == 1 and calls[0] > 90


def test_quadratic_form_keeps_einsum_bits():
    # np.einsum("ti,ij,tj->t") is the reference the checks' quadratic forms
    # replaced; dense matrices check the summation order, sparse ones the
    # skipped zeros.
    rng = np.random.default_rng(21)
    dense = rng.standard_normal((10, 10))
    sparse = np.where(rng.random((7, 7)) < 0.3, rng.standard_normal((7, 7)), 0.0)
    mats = [np.diag([0.3, -0.2]), np.diag(np.linspace(0.2, 1.0, 6)),
            np.block([[-0.4 * np.eye(3), 0.3 * np.eye(3)], [0.3 * np.eye(3), -0.4 * np.eye(3)]]),
            oracle.aligned_cross_term_matrix(0.6, 5), oracle.aligned_cross_term_matrix(-0.3, 4),
            dense + dense.T, sparse + sparse.T, np.zeros((3, 3))]
    for a in mats:
        x = rng.standard_normal((513, a.shape[0]))
        want = np.einsum("ti,ij,tj->t", x, a, x)
        assert np.array_equal(oracle._quadratic_form(x, a).view(np.int64), want.view(np.int64))


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
