import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corralign
from corralign import core
from corralign.core import (
    FACTORIAL_CAP,
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
    uniform_permutation,
)
from corralign.errors import DomainError, InvalidAlternateError, SizeCapError


class TestProblemParams:
    def test_fields_and_derived(self):
        p = ProblemParams(n=5, d=3, rho=-0.5)
        assert p.rho2 == 0.25
        assert p.rho_sign == -1

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            ProblemParams(n=2, d=2, rho=1.0)
        with pytest.raises(ValueError):
            ProblemParams(n=2, d=2, rho=-1.5)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ProblemParams(n=0, d=2, rho=0.1)
        with pytest.raises(ValueError):
            ProblemParams(n=2, d=0, rho=0.1)

    def test_require_alt(self):
        with pytest.raises(InvalidAlternateError):
            ProblemParams(n=2, d=2, rho=0.0).require_alt()
        p = ProblemParams(n=2, d=2, rho=0.3)
        assert p.require_alt() is p


class TestSeedSpec:
    def test_same_label_same_draws(self):
        a = SeedSpec(master_seed=7, stream_label="x").rng(3).random(4)
        b = SeedSpec(master_seed=7, stream_label="x").rng(3).random(4)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = SeedSpec(7, "x").rng(0).random(4)
        b = SeedSpec(7, "y").rng(0).random(4)
        assert not np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = SeedSpec(7, "x").rng(0).random(4)
        b = SeedSpec(7, "x").rng(1).random(4)
        assert not np.array_equal(a, b)

    def test_stream_extends_label(self):
        s = SeedSpec(7, "a").stream("b")
        assert s.stream_label == "a/b"
        assert s.master_seed == 7

    def test_as_seedspec_passthrough(self):
        s = SeedSpec(9, "keep-me")
        assert as_seedspec(s, "ignored") is s
        fresh = as_seedspec(11, "lbl")
        assert fresh == SeedSpec(11, "lbl")


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.fixed_point_count() == 4
        assert len(p) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            Permutation(np.array([0, 3, 1]))
        with pytest.raises(ValueError):
            Permutation(np.array([[0, 1]]))

    def test_eq(self):
        assert Permutation(np.array([1, 0])) == Permutation(np.array([1, 0]))
        assert Permutation(np.array([1, 0])) != Permutation(np.array([0, 1]))

    def test_uniform_deterministic(self):
        a = uniform_permutation(10, SeedSpec(3, "perm"))
        b = uniform_permutation(10, SeedSpec(3, "perm"))
        assert a == b

    def test_uniform_covers_all_for_tiny_n(self):
        seen = set()
        for i in range(200):
            p = uniform_permutation(3, SeedSpec(0, "cover").rng(i))
            seen.add(tuple(p.map.tolist()))
        assert len(seen) == 6


class TestCycleMachinery:
    def test_decompose_known(self):
        # (0 1 2)(3)(4 5): one 3-cycle, one fixed point, one 2-cycle
        p = Permutation(np.array([1, 2, 0, 3, 5, 4]))
        t = cycle_decompose(p)
        assert t.counts[0] == 1  # fixed points
        assert t.counts[1] == 1  # 2-cycles
        assert t.counts[2] == 1  # 3-cycles
        assert t.n == 6

    def test_cycle_type_validation(self):
        with pytest.raises(ValueError):
            CycleType(counts=(-1, 0))

    def test_counts_sum_to_factorial(self):
        for n in range(1, 9):
            total = sum(cycle_type_count(t) for t in enumerate_cycle_types(n))
            assert total == math.factorial(n)

    def test_enumeration_order_deterministic(self):
        a = enumerate_cycle_types(6)
        b = enumerate_cycle_types(6)
        assert a == b

    def test_census_matches_formula(self):
        # Count permutations of each cycle type by full enumeration at n=5.
        census: dict[tuple[int, ...], int] = {}
        for row in enumerate_permutations(5):
            t = cycle_decompose(Permutation(row.copy()))
            census[t.counts] = census.get(t.counts, 0) + 1
        for t in enumerate_cycle_types(5):
            assert census[t.counts] == cycle_type_count(t)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_decompose_type_is_consistent(self, n, seed):
        p = uniform_permutation(n, np.random.default_rng(seed))
        t = cycle_decompose(p)
        assert t.n == n
        assert t.fixed_points == p.fixed_point_count()


class TestEnumeratePermutations:
    def test_lexicographic_and_complete(self):
        perms = enumerate_permutations(3)
        expected = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        assert [tuple(r) for r in perms] == expected

    def test_count(self):
        assert enumerate_permutations(5).shape == (120, 5)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_permutations(FACTORIAL_CAP + 1)


class TestMCEstimate:
    def test_fields(self):
        e = MCEstimate(value=0.5, ci_radius=0.01, trials=100)
        assert e.value == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            MCEstimate(value=0.5, ci_radius=-0.1, trials=100)
        with pytest.raises(ValueError):
            MCEstimate(value=0.5, ci_radius=0.1, trials=0)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("task three failed")
    return x


class TestParallelMap:
    def test_results_in_task_order(self):
        tasks = list(range(23))
        assert parallel_map(_square, tasks, workers=2) == [t * t for t in tasks]
        assert parallel_map(_square, tasks, workers=1) == [t * t for t in tasks]

    def test_worker_exception_reraised(self):
        with pytest.raises(ValueError, match="task three failed"):
            parallel_map(_fail_on_three, list(range(6)), workers=2)

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        # The pool forks every worker up front, so idle ones are wasted.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(core, "ProcessPoolExecutor", SerialPool)
        assert parallel_map(_square, range(3), workers=64) == [0, 1, 4]
        assert asked == [3]


def _below(rng, p):
    return rng.random() < p


class TestCountFailures:
    # At 3 workers, 130 trials are three shares per arm, the last one short.
    ARMS = [((0.3,), SeedSpec(4, "a")), ((0.0,), SeedSpec(4, "b")), ((1.0,), SeedSpec(4, "c"))]

    def test_counts_do_not_depend_on_workers(self):
        serial = count_failures(_below, self.ARMS, 130, workers=1)
        assert count_failures(_below, self.ARMS, 130, workers=3) == serial

    def test_arms_do_not_mix(self):
        first, never, always = count_failures(_below, self.ARMS, 130)
        assert (never, always) == (0, 130)
        expected = sum(SeedSpec(4, "a").rng(i).random() < 0.3 for i in range(130))
        assert first == expected

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            count_failures(_below, self.ARMS, 0)

    @staticmethod
    def _tasks(monkeypatch, trials, workers):
        """The tasks ``count_failures`` hands to ``parallel_map``; none runs."""
        seen = []

        def spy(fn, tasks, n_workers):
            seen.extend(tasks)
            return [0] * len(tasks)

        monkeypatch.setattr(core, "parallel_map", spy)
        assert count_failures(_below, TestCountFailures.ARMS, trials, workers) == [0, 0, 0]
        return seen

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_tasks_do_not_grow_with_trials(self, monkeypatch, workers):
        trials = 10**12
        tasks = self._tasks(monkeypatch, trials, workers)
        assert len(tasks) <= len(self.ARMS) * workers
        for _, spec in self.ARMS:
            shares = [(start, size) for _, _, s, start, size in tasks if s is spec]
            assert shares[0][0] == 0
            assert all(a + m == b for (a, m), (b, _) in zip(shares, shares[1:]))
            assert sum(size for _, size in shares) == trials

    def test_zero_workers_is_one(self, monkeypatch):
        assert self._tasks(monkeypatch, 130, 0) == self._tasks(monkeypatch, 130, 1)


class TestBinomialCi:
    def test_rule_of_three_at_degenerate_counts(self):
        assert binomial_ci(0, 200) == 3.0 / 200
        assert binomial_ci(200, 200) == 3.0 / 200

    def test_three_sigma(self):
        assert binomial_ci(25, 100) == pytest.approx(3.0 * math.sqrt(0.25 * 0.75 / 100))


def test_pool_and_interval_live_only_in_core():
    """A second process fan-out, binomial-interval or trial-loop copy must not creep back."""
    sources = {p.name: p.read_text() for p in Path(corralign.__file__).parent.glob("*.py")}
    for needle in ("ProcessPoolExecutor", "3.0 / trials", "range(start, start + size)"):
        assert [name for name, text in sources.items() if needle in text] == ["core.py"]
