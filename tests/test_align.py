import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from corralign import assignment
from corralign.align import (
    BRUTE_FORCE_CAP,
    brute_force_decode,
    ml_decode,
    recovery_error_mc,
    score_matrix,
)
from corralign.assignment import max_assignment
from corralign.core import (
    ProblemParams,
    SeedSpec,
    enumerate_permutations,
    uniform_permutation,
)
from corralign.errors import DomainError, InvalidAlternateError, SizeCapError
from corralign.gen import DatabasePair, sample_alt, sample_null


def _random_pair(rng, n, d):
    return DatabasePair(x=rng.standard_normal((n, d)), y=rng.standard_normal((n, d)))


@st.composite
def _small_int_scores(draw):
    n = draw(st.integers(1, 7))
    entries = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=np.float64).reshape(n, n)


@st.composite
def _tie_heavy_scores(draw):
    n = draw(st.integers(8, 40))
    return draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 1.0, 2.0])))


def _tol(score):
    return 1e-9 * max(1.0, float(np.abs(score).max()))


def _jv_contract_inputs():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(0.5, 2.0, 30), rng.uniform(-2.0, 2.0, 30)
    k = np.arange(30)
    twice = np.repeat(np.arange(15), 2)
    return {
        "n=1": np.array([[3.5]]),
        "all-equal": np.full((30, 30), 2.0),
        "rank-one": a[:, None] * b[None, :],
        "integer-valued": ((k[:, None] * k[None, :]) % 7).astype(np.float64),
        "duplicated": rng.standard_normal((15, 15))[np.ix_(twice, twice)],
        "scaled-1e6": 1e6 * rng.standard_normal((40, 40)),
        "normal-50": rng.standard_normal((50, 50)),
        "normal-200": rng.standard_normal((200, 200)),
    }


@pytest.fixture
def jv_calls(monkeypatch):
    """Count the solves that reach the JV core rather than the argmax path."""
    calls = []
    jv_min = assignment._jv_min

    def spy(cost):
        calls.append(cost.shape[0])
        return jv_min(cost)

    monkeypatch.setattr(assignment, "_jv_min", spy)
    return calls


class TestScoreMatrix:
    def test_values(self):
        rng = np.random.default_rng(0)
        pair = _random_pair(rng, 4, 3)
        s = score_matrix(pair, 1.0)
        assert s.shape == (4, 4)
        assert s[1, 2] == pytest.approx(float(pair.x[1] @ pair.y[2]))
        s_neg = score_matrix(pair, -1.0)
        assert np.array_equal(s_neg, -s)


class TestMaxAssignment:
    def test_simple_exact(self):
        score = np.array([[10.0, 1.0], [1.0, 10.0]])
        sol = max_assignment(score)
        assert sol.cols_of_rows.tolist() == [0, 1]
        assert sol.value == pytest.approx(20.0)

    def test_certificate_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            score = rng.standard_normal((n, n)) * rng.uniform(0.1, 50)
            sol = max_assignment(score)
            assert sol.certificate_gap(score) <= 1e-7

    def test_lexicographic_tie_break(self):
        # Constant matrix: every permutation optimal, identity is lex-smallest.
        sol = max_assignment(np.zeros((4, 4)))
        assert sol.cols_of_rows.tolist() == [0, 1, 2, 3]

    def test_structured_tie(self):
        # Two optimal matchings; (0,1)->(1,0) and (0,1)->(0,1) tie, identity
        # wins lexicographically.
        score = np.array([[1.0, 1.0], [1.0, 1.0]])
        sol = max_assignment(score)
        assert sol.cols_of_rows.tolist() == [0, 1]

    def test_tie_tolerance_is_per_edge(self):
        # The swap scores 2e6 + 1e-4, the identity 2e6; edges within
        # 1e-9 * max|S| = 1e-3 of tight count as tied, so the lex-min
        # identity is returned.  The guarantee is optimal up to that
        # tolerance, not exact.
        score = np.array([[1e6, 1e6 + 1e-4], [1e6, 1e6]])
        sol = max_assignment(score)
        assert sol.cols_of_rows.tolist() == [0, 1]
        assert sol.value == 2e6
        assert score[[0, 1], [1, 0]].sum() - sol.value <= 2 * 1e-9 * np.abs(score).max()

    @given(_small_int_scores())
    @settings(max_examples=300, deadline=None)
    def test_lex_min_over_all_permutations(self, score):
        # Integer entries: tolerance-tight means exactly tight, so the result
        # must be the first optimum in lexicographic order.
        n = score.shape[0]
        perms = enumerate_permutations(n)
        totals = score[np.arange(n), perms].sum(axis=1)
        expected = perms[np.argmax(totals == totals.max())]
        assert max_assignment(score).cols_of_rows.tolist() == expected.tolist()

    def test_dense_tie_is_identity(self):
        assert max_assignment(np.zeros((200, 200))).cols_of_rows.tolist() == list(range(200))

    def test_dense_tie_scales_to_n_1000(self):
        # All-tied input: column reduction holds one column and each free row
        # takes a free tied column in one search step, about n steps in all.
        start = time.perf_counter()
        sol = max_assignment(np.zeros((1000, 1000)))
        assert time.perf_counter() - start < 10.0
        assert sol.cols_of_rows.tolist() == list(range(1000))

    @given(_tie_heavy_scores())
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_optimum_and_certificate(self, score):
        # Beyond brute force: entries in {0, 1, 2} make totals exact, so the
        # value must equal scipy's optimum and the certificate must hold.
        sol = max_assignment(score)
        rows, cols = linear_sum_assignment(score, maximize=True)
        assert sorted(sol.cols_of_rows.tolist()) == list(range(score.shape[0]))
        assert sol.value == score[rows, cols].sum()
        assert sol.certificate_gap(score) <= _tol(score)

    @pytest.mark.parametrize(
        "cost", [pytest.param(cost, id=name) for name, cost in _jv_contract_inputs().items()]
    )
    def test_jv_min_contract(self, cost):
        # The JV core alone: a perfect matching, duals feasible everywhere and
        # tight on matched edges, and scipy's minimum total.
        n = cost.shape[0]
        tol = _tol(cost)
        cols_of_rows, u, v = assignment._jv_min(cost)
        assert sorted(cols_of_rows.tolist()) == list(range(n))
        resid = cost - u[:, None] - v[None, :]
        assert resid.min() >= -tol
        assert np.abs(resid[np.arange(n), cols_of_rows]).max() <= tol
        rows, cols = linear_sum_assignment(cost)
        expected = cost[rows, cols].sum()
        assert cost[np.arange(n), cols_of_rows].sum() == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_matches_scipy_on_both_paths(self, n, jv_calls):
        d = 300
        planted = uniform_permutation(n, SeedSpec(n, "planted"))
        null = sample_null(ProblemParams(n=n, d=d, rho=0.9), SeedSpec(n, "null"))
        alt = sample_alt(ProblemParams(n=n, d=d, rho=0.9), planted, SeedSpec(n, "alt"))
        cases = [(score_matrix(null, 1.0), 1, None), (score_matrix(alt, 1.0), 0, planted)]
        # One row of the planted case with its top-two gap in (tol, n * tol]:
        # the argmax is still a permutation, but the solve must go to JV.
        near = score_matrix(alt, 1.0)
        row = n // 2
        top = near[row].argmax()
        near[row, (top + 1) % n] = near[row, top] - 2 * _tol(near)
        top2 = np.sort(near[row])[-2:]
        assert _tol(near) < top2[1] - top2[0] <= n * _tol(near)
        cases.append((near, 1, planted))
        for score, jv_expected, expected in cases:
            before = len(jv_calls)
            sol = max_assignment(score)
            assert len(jv_calls) - before == jv_expected
            rows, cols = linear_sum_assignment(score, maximize=True)
            assert sol.value == pytest.approx(score[rows, cols].sum(), rel=1e-9)
            assert sol.certificate_gap(score) <= _tol(score)
            if expected is not None:
                assert sol.cols_of_rows.tolist() == expected.map.tolist()

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            max_assignment(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            max_assignment(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestMlDecode:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            pair = _random_pair(rng, n, d)
            rho = float(rng.uniform(-0.9, 0.9))
            if abs(rho) < 0.05:
                rho = 0.5
            ml = ml_decode(pair, rho)
            bf = brute_force_decode(pair, rho)
            assert ml.score == bf.score
            assert ml.perm == bf.perm  # ties resolved identically (lex)

    def test_rho_zero_rejected(self):
        rng = np.random.default_rng(3)
        pair = _random_pair(rng, 3, 3)
        with pytest.raises(InvalidAlternateError):
            ml_decode(pair, 0.0)
        with pytest.raises(InvalidAlternateError):
            brute_force_decode(pair, 0.0)

    def test_rho_out_of_range_rejected(self):
        rng = np.random.default_rng(4)
        pair = _random_pair(rng, 3, 3)
        with pytest.raises(DomainError):
            ml_decode(pair, 1.0)

    def test_brute_force_cap(self):
        rng = np.random.default_rng(5)
        pair = _random_pair(rng, BRUTE_FORCE_CAP + 1, 2)
        with pytest.raises(SizeCapError):
            brute_force_decode(pair, 0.5)

    @given(st.floats(min_value=0.01, max_value=1000.0), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, scale, seed):
        # Multiplying either database by a positive scalar scales every score
        # equally and must not change the decoded permutation.
        rng = np.random.default_rng(seed)
        pair = _random_pair(rng, 5, 3)
        base = ml_decode(pair, 0.7).perm
        scaled_x = DatabasePair(x=pair.x * scale, y=pair.y)
        scaled_y = DatabasePair(x=pair.x, y=pair.y * scale)
        assert ml_decode(scaled_x, 0.7).perm == base
        assert ml_decode(scaled_y, 0.7).perm == base

    def test_negative_rho_recovers_planted(self):
        p = ProblemParams(n=20, d=150, rho=-0.9)
        planted = uniform_permutation(20, SeedSpec(6, "planted"))
        pair = sample_alt(p, planted, SeedSpec(6, "data"))
        assert ml_decode(pair, -0.9).perm == planted

    def test_decoded_score_definition(self):
        rng = np.random.default_rng(7)
        pair = _random_pair(rng, 5, 4)
        res = ml_decode(pair, 0.4)
        manual = sum(float(pair.x[i] @ pair.y[res.perm.map[i]]) for i in range(5))
        assert res.score == pytest.approx(manual, rel=1e-12)


class TestRecovery:
    def test_recovery_error_mc_deterministic_across_workers(self):
        p = ProblemParams(n=8, d=12, rho=0.6)
        a = recovery_error_mc(p, 150, 9, workers=1)
        b = recovery_error_mc(p, 150, 9, workers=3)
        assert a == b

    def test_strong_signal_recovers(self):
        p = ProblemParams(n=10, d=300, rho=0.95)
        est = recovery_error_mc(p, 100, 1)
        assert est.value == 0.0

    def test_zero_trials_rejected(self):
        p = ProblemParams(n=4, d=4, rho=0.5)
        with pytest.raises(DomainError):
            recovery_error_mc(p, 0, 0)

    def test_rho_zero_rejected(self):
        p = ProblemParams(n=4, d=4, rho=0.0)
        with pytest.raises(InvalidAlternateError):
            recovery_error_mc(p, 10, 0)
