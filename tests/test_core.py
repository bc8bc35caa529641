import concurrent.futures
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corralign
from corralign import core
from corralign.core import (
    FACTORIAL_CAP,
    PARTITION_CAP,
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
    sign_factor,
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

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(7, "x").rng(-1)
        with pytest.raises(TypeError):
            SeedSpec(7, "x").rng(1.5)


def _reference_rng(spec: SeedSpec, index: int) -> np.random.Generator:
    """The generator ``rng(index)`` stands for: default_rng on a SeedSequence."""
    entropy = (spec.master_seed, *spec._label_words, index)
    return np.random.default_rng(np.random.SeedSequence(entropy))


_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestSeedSpecParity:
    """``SeedSpec.rng`` keeps numpy's SeedSequence -> PCG64 streams bit for bit."""

    @pytest.mark.parametrize("master", _EDGES)
    @pytest.mark.parametrize("label", ["main", "detect/monte-carlo-risk/alt"])
    def test_state_matches_seed_sequence(self, master, label):
        spec = SeedSpec(master, label)
        rnd = random.Random(master)
        indices = _EDGES + [rnd.getrandbits(bits) for bits in (8, 16, 31, 33, 63, 64, 96)]
        for index in indices:
            got = spec.rng(index).bit_generator.state
            assert got == _reference_rng(spec, index).bit_generator.state, index

    @pytest.mark.parametrize("label_words", [(1, 2), (0, 2**32 - 1), (2**32, 0)])
    def test_short_prefix_matches_seed_sequence(self, label_words):
        # Fewer than four uint32 words before the index: it lands in the pool.
        spec = SeedSpec(5, "short")
        object.__setattr__(spec, "_label_words", label_words)
        for index in _EDGES:
            got = spec.rng(index).bit_generator.state
            assert got == _reference_rng(spec, index).bit_generator.state, index

    def test_sequence_is_numpys_own_on_uint32_words(self):
        spec = SeedSpec(7, "words")
        for index in _EDGES:
            seq = spec.rng(index).bit_generator.seed_seq
            assert type(seq) is np.random.SeedSequence
            words = core._uint32_words((spec.master_seed, *spec._label_words, index))
            assert seq.entropy.dtype == np.uint32
            assert np.array_equal(seq.entropy, np.array(words, np.uint32)), index

    def test_spawn_matches_seed_sequence(self):
        spec = SeedSpec(3, "spawn")
        got, ref = spec.rng(11), _reference_rng(spec, 11)
        for _ in range(2):  # a second spawn gives the next children, as numpy's does
            assert ([c.random(3).tolist() for c in got.spawn(2)]
                    == [c.random(3).tolist() for c in ref.spawn(2)])
        assert got.random(3).tolist() == ref.random(3).tolist()

    def test_other_state_requests_match_seed_sequence(self):
        spec = SeedSpec(3, "state")
        seq = spec.rng(4).bit_generator.seed_seq
        ref = _reference_rng(spec, 4).bit_generator.seed_seq
        assert np.array_equal(seq.entropy, np.array(core._uint32_words(ref.entropy), np.uint32))
        for n_words, dtype in [(4, np.uint64), (4, np.uint32), (9, np.uint64)]:
            assert np.array_equal(seq.generate_state(n_words, dtype),
                                  ref.generate_state(n_words, dtype))

    def test_generator_pickles_with_its_stream(self):
        spec = SeedSpec(3, "pickle")
        copy = pickle.loads(pickle.dumps(spec.rng(9)))
        ref = _reference_rng(spec, 9)
        assert copy.random(3).tolist() == ref.random(3).tolist()
        assert copy.spawn(1)[0].random() == ref.spawn(1)[0].random()

    def test_cache_is_not_part_of_identity(self):
        used, fresh = SeedSpec(3, "a"), SeedSpec(3, "a")
        used.rng(0)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "SeedSpec(master_seed=3, stream_label='a')"
        assert pickle.loads(pickle.dumps(used)).rng(5).random() == fresh.rng(5).random()
        assert used.stream("b").rng(1).random() == fresh.stream("b").rng(1).random()

    def test_import_loads_neither_numpy_random_nor_ma(self):
        # Import time and memory are part of every run's set-up: numpy.random
        # loads on the first rng call, and numpy.ma (np.unique) not at all.
        src = str(Path(corralign.__file__).resolve().parents[1])
        code = "import sys, corralign; print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        fresh = as_seedspec(11, "lbl")
        assert fresh == SeedSpec(11, "lbl")

    def test_commands_leave_numpy_ma_unloaded(self):
        # np.unique on an int or float array loads numpy.ma on first use;
        # no command's path calls it.
        src = str(Path(corralign.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, sys\n"
            "from corralign import cli\n"
            "runs = [['simulate-recovery', '--n', '40', '--d', '60', '--rho', '0.9',\n"
            "         '--trials', '3'],\n"
            "        ['simulate-detection', '--n', '5', '--d', '20', '--rho', '0.5',\n"
            "         '--trials', '3'],\n"
            "        ['curve', '--axis', 'n', '--grid', '10:1e4:4', '--d', '500']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(args) for args in runs]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] False"


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

    @staticmethod
    def _pool_sizes(monkeypatch) -> list:
        """The ``max_workers`` each pool is asked for; a serial pool runs the tasks."""
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return asked

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        # The pool forks every worker up front, so idle ones are wasted.
        asked = self._pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert parallel_map(_square, range(3), workers=64) == [0, 1, 4]
        assert asked == [3]

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_is_no_larger_than_the_usable_cpus(self, monkeypatch, affinity):
        # 5000 workers and tasks would fork 5000 processes; the fake pool starts none.
        asked = self._pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        tasks = list(range(5000))
        assert parallel_map(_square, tasks, workers=5000) == [t * t for t in tasks]
        arms = [((0.5,), SeedSpec(1, "cpus"))]
        assert count_failures(_below, arms, 5000, 5000) == count_failures(_below, arms, 5000)
        assert asked == ([2, 2] if affinity else [3, 3])


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


def test_readme_layout_names_every_module():
    """README's Layout block lists each module of the package, and no other."""
    package = Path(corralign.__file__).parent
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE))
    modules = {p.name for p in package.glob("*.py") if not p.name.startswith("__")}
    assert listed == modules


@pytest.mark.parametrize(
    "fn, args, error, match",
    [(SeedSpec, (-1,), ValueError, "unsigned 64-bit"),
     (SeedSpec, (2**64,), ValueError, "unsigned 64-bit"),
     (CycleType, ((2,),), ValueError, "partition n"),
     (enumerate_cycle_types, (0,), ValueError, "positive"),
     (enumerate_cycle_types, (PARTITION_CAP + 1,), SizeCapError, "capped"),
     (enumerate_permutations, (0,), ValueError, "positive"),
     (uniform_permutation, (0, 0), ValueError, "positive"),
     (sign_factor, (0.5,), DomainError, "rho_sign must be"),
     (sign_factor, (math.nan,), DomainError, "rho_sign must be")],
    ids=["seed-negative", "seed-2^64", "cycle-type-sum", "cycle-types-0", "cycle-types-cap",
         "permutations-0", "uniform-0", "sign-half", "sign-nan"],
)
def test_input_checks_raise_their_errors(fn, args, error, match):
    with pytest.raises(error, match=match):
        fn(*args)


def test_permutation_equality_and_hash():
    p = Permutation(np.array([1, 0, 2]))
    assert p.__eq__([1, 0, 2]) is NotImplemented
    assert p != [1, 0, 2]
    q = Permutation(np.array([1, 0, 2], dtype=np.int32))
    assert p == q and hash(p) == hash(q)


def test_sign_factor_is_the_one_sign_check():
    for sign in (1, -1, 1.0, -1.0):
        assert sign_factor(sign) == float(sign) and isinstance(sign_factor(sign), float)
    sources = {p.name: p.read_text() for p in Path(corralign.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "rho_sign not in" in text] == ["core.py"]
