import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corralign.core import Permutation, ProblemParams, SeedSpec, uniform_permutation
from corralign.gen import DatabasePair, sample_alt, sample_alt_stack, sample_null


class TestDatabasePair:
    def test_accepts_matching_matrices(self):
        pair = DatabasePair(x=np.zeros((3, 2)), y=np.ones((3, 2)))
        assert pair.n == 3 and pair.d == 2
        assert pair.x.dtype == np.float64

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DatabasePair(x=np.zeros((3, 2)), y=np.zeros((2, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            DatabasePair(x=np.zeros(3), y=np.zeros(3))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            DatabasePair(x=bad, y=np.zeros((2, 2)))


class TestSampling:
    def test_shapes(self):
        p = ProblemParams(n=4, d=7, rho=0.3)
        pair = sample_null(p, SeedSpec(0, "t"))
        assert pair.x.shape == (4, 7) and pair.y.shape == (4, 7)

    def test_determinism(self):
        p = ProblemParams(n=4, d=7, rho=0.3)
        a = sample_null(p, SeedSpec(5, "t"))
        b = sample_null(p, SeedSpec(5, "t"))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_alt_determinism(self):
        p = ProblemParams(n=4, d=7, rho=0.3)
        perm = Permutation.identity(4)
        a = sample_alt(p, perm, SeedSpec(5, "t"))
        b = sample_alt(p, perm, SeedSpec(5, "t"))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_alt_perm_length_must_match(self):
        p = ProblemParams(n=4, d=7, rho=0.3)
        with pytest.raises(ValueError):
            sample_alt(p, Permutation.identity(3), SeedSpec(0, "t"))
        with pytest.raises(ValueError):
            sample_alt_stack(p, Permutation.identity(3), SeedSpec(0, "t").rng(0), 2)

    @pytest.mark.parametrize("rho", [0.44, -0.7])
    def test_stack_pairs_match_lone_draws(self, rho):
        # A size-5 stack is five successive sample_alt calls on one
        # generator, bit for bit, and each pair is the two-block draw
        # x = rho y[sigma] + sqrt(1 - rho^2) z.
        p = ProblemParams(n=9, d=13, rho=rho)
        perm = uniform_permutation(9, SeedSpec(4, "perm"))
        spec = SeedSpec(4, "stack")
        xs, ys = sample_alt_stack(p, perm, spec.rng(0), 5)
        assert xs.shape == ys.shape == (5, 9, 13)
        lone_rng, block_rng = spec.rng(0), spec.rng(0)
        for k in range(5):
            lone = sample_alt(p, perm, lone_rng)
            assert np.array_equal(xs[k], lone.x) and np.array_equal(ys[k], lone.y)
            y = block_rng.standard_normal((9, 13))
            z = block_rng.standard_normal((9, 13))
            x = rho * y[perm.map] + np.sqrt(1.0 - rho * rho) * z
            assert np.array_equal(xs[k], x) and np.array_equal(ys[k], y)

    def test_alt_correlation_structure(self):
        # Empirical corr(x_i[k], y_perm[i][k]) should be close to rho, and the
        # entries of each database should be standard normal.
        p = ProblemParams(n=2000, d=8, rho=0.65)
        perm = uniform_permutation(2000, SeedSpec(1, "perm"))
        pair = sample_alt(p, perm, SeedSpec(1, "data"))
        paired_y = pair.y[perm.map]
        prods = pair.x * paired_y
        m = prods.size
        corr = prods.mean()
        # var of x*y with correlation rho is 1 + rho^2
        assert abs(corr - 0.65) <= 3.0 * np.sqrt((1 + 0.65**2) / m)
        assert abs(pair.x.mean()) <= 3.0 / np.sqrt(m)
        assert abs(pair.x.var() - 1.0) <= 3.0 * np.sqrt(2.0 / m)
        assert abs(pair.y.var() - 1.0) <= 3.0 * np.sqrt(2.0 / m)

    def test_null_independence(self):
        p = ProblemParams(n=2000, d=8, rho=0.65)
        pair = sample_null(p, SeedSpec(2, "t"))
        m = pair.x.size
        assert abs((pair.x * pair.y).mean()) <= 3.0 / np.sqrt(m)

    def test_negative_rho_flips_sign(self):
        p_pos = ProblemParams(n=3000, d=4, rho=0.5)
        p_neg = ProblemParams(n=3000, d=4, rho=-0.5)
        perm = Permutation.identity(3000)
        neg = sample_alt(p_neg, perm, SeedSpec(3, "t"))
        m = neg.x.size
        corr = (neg.x * neg.y).mean()
        assert abs(corr + 0.5) <= 3.0 * np.sqrt((1 + 0.25) / m)
        del p_pos

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.01, max_value=0.99),
        st.sampled_from([-1.0, 1.0]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_alt_always_finite(self, n, d, mag, rho_sign, seed):
        rho = mag * rho_sign
        p = ProblemParams(n=n, d=d, rho=rho)
        perm = uniform_permutation(n, np.random.default_rng(seed))
        pair = sample_alt(p, perm, np.random.default_rng(seed + 1))
        assert np.isfinite(pair.x).all() and np.isfinite(pair.y).all()
