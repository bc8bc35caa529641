import hashlib
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corralign
from corralign import bounds
from corralign.bounds import (
    _PRESCAN,
    BOUND_KINDS,
    LANE_CAP,
    SCHEDULE_CAP,
    BoundCurvePoint,
    chernoff_lambdas,
    curve_points,
    default_k_star,
    detection_ach_risk,
    g_fa,
    g_md,
    invert_for_rho2,
    log_mgf_alt,
    mgf_alt,
    minimize_two_exponent,
    recovery_ach_perr,
    recovery_conv_perr,
    truncated_converse_risk,
    truncation_exponents,
    truncation_schedule,
    unconditional_converse_risk,
)
from corralign.errors import (
    ConditionViolatedError,
    DomainError,
    InversionUndefinedError,
)


class TestExponents:
    def test_g_fa_linear_floor_on_unit_range(self):
        gamma = np.linspace(1e-9, 1.0, 10_000)
        assert np.all(g_fa(gamma) >= (math.sqrt(2.0) - 1.0) / 2.0 * gamma)

    def test_g_fa_floor_fails_beyond_its_range(self):
        # The linear floor is only used for gamma <= 1; it is genuinely false
        # for large gamma, so the restricted grid is not a test convenience.
        assert g_fa(3.0) < (math.sqrt(2.0) - 1.0) / 2.0 * 3.0

    def test_g_md_floor(self):
        r2 = np.linspace(1e-6, 1.0 - 1e-9, 10_000)
        vals = np.array([g_md(x, math.sqrt(x)) for x in r2])
        assert np.all(vals >= r2 / 30.0)

    def test_g_md_at_rho_zero_equals_g_fa(self):
        for gamma in (1e-8, 0.01, 0.5, 1.0, 3.0):
            assert g_md(gamma, 0.0) == g_fa(gamma)

    def test_g_md_vanishes_at_upper_edge(self):
        # Threshold at the alternate mean: gamma = 4 rho^2 kills the exponent.
        for rho in (0.2, 0.5, 0.9):
            assert g_md(4.0 * rho * rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_g_md_near_rho2_one_matches_decimal_reference(self):
        # rho = 1 - 2^-k has an exact square and 1 - rho^2 is exact in floats,
        # so a 50-digit reference sees the inputs the library does.  Here the
        # two leading terms of g_md are each about sqrt(gamma) / u; taken
        # apart, their difference loses up to 1.2e-6 relative.
        def reference(gamma, rho):
            with localcontext() as ctx:
                ctx.prec = 50
                g, r = Decimal(gamma), Decimal(rho)
                u = 1 - r * r
                q = (u * u + g).sqrt()
                return (q - (r * r * g).sqrt()) / u - 1 - ((u + q) / 2).ln()

        for k in (6, 10, 14, 18, 22, 26):
            rho = 1.0 - 2.0**-k
            for gamma in (1e-12, 1e-6, 1e-3, 0.1, 1.0, 2.0, 3.5):
                want = reference(gamma, rho)
                assert abs(Decimal(g_md(gamma, rho)) - want) <= Decimal("1e-10") * abs(want)

    def test_domain_validation(self):
        # gamma = 0 is the valid continuous extension, negative gamma is not.
        assert g_fa(0.0) == 0.0
        with pytest.raises(DomainError):
            g_fa(-1.0)
        with pytest.raises(DomainError):
            g_md(0.1, 1.0)

    def test_vectorized_matches_scalar(self):
        gamma = np.array([0.01, 0.3, 1.7])
        vec = g_fa(gamma)
        assert vec.shape == (3,)
        for i, g in enumerate(gamma):
            assert vec[i] == g_fa(float(g))

    def test_g_md_lanes_over_gamma_and_rho(self):
        gamma = np.array([[0.01], [0.3], [1.7]])
        rho = np.array([0.0, -0.4, 0.9])
        vec = g_md(gamma, rho)
        assert vec.shape == (3, 3)
        for i, g in enumerate(gamma[:, 0]):
            assert vec[i, 0] == g_fa(float(g))
            for j, r in enumerate(rho):
                assert _bits(vec[i, j]) == _bits(g_md(float(g), float(r)))
        with pytest.raises(DomainError):
            g_md(0.1, np.array([0.5, -1.0]))

    @given(st.floats(min_value=1e-6, max_value=3.0), st.floats(min_value=1e-6, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_g_fa_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert g_fa(lo) <= g_fa(hi) + 1e-15

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_g_md_decreasing_in_gamma(self, rho, fa, fb):
        # Raising the threshold can only hurt the missed-detection exponent.
        hi_edge = 4.0 * rho * rho
        lo, hi = sorted((fa * hi_edge, fb * hi_edge))
        assert g_md(lo, rho) >= g_md(hi, rho) - 1e-12


class TestTwoExponentBound:
    def test_bound_beats_balanced_gamma(self):
        for d, rho2 in [(100, 0.2), (1000, 0.02), (20, 0.5), (12, 0.36)]:
            gamma, bound = minimize_two_exponent(d, rho2)
            assert 0.0 < gamma < 4.0 * rho2
            rho = math.sqrt(rho2)
            at_balanced = math.exp(-0.5 * d * g_fa(rho2)) + math.exp(
                -0.5 * d * g_md(rho2, rho)
            )
            assert bound <= at_balanced + 1e-12

    def test_loose_exponential_cap(self):
        # The optimized bound is never worse than 2 exp(-d rho^2 / 60).
        for d in (10, 100, 1000, 10000):
            for rho2 in np.geomspace(1e-4, 0.9, 25):
                assert detection_ach_risk(d, float(rho2)) <= 2.0 * math.exp(
                    -d * rho2 / 60.0
                ) + 1e-12

    def test_loose_exponential_cap_down_to_the_smallest_rho2(self):
        # Below rho^2 ~ 1.1e-16, 1 - rho^2 rounds to 1; ln u must still carry
        # the -ln(1 - rho^2) term, or g_md turns negative and the bound
        # overflows to inf with raw RuntimeWarnings.
        rng = np.random.default_rng(7)
        d = 10.0 ** rng.uniform(0.0, 300.0, 3000)
        rho2 = np.maximum(10.0 ** rng.uniform(math.log10(5e-324), -0.01, 3000), 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, bound = minimize_two_exponent(d, rho2)
            assert np.all(bound <= 2.0 * np.exp(-d * rho2 / 60.0))
            assert minimize_two_exponent(1e40, 1e-20)[1] == 0.0
            assert minimize_two_exponent(1e300, 5e-324)[1] <= 2.0

    def test_minimizer_reaches_the_minimum(self):
        # Random lanes over the whole domain, plus small d with rho^2 near 1,
        # where the bound can dip and rise again inside the first scan cell.
        rng = np.random.default_rng(11)
        d = np.concatenate([10.0 ** rng.uniform(0.0, 6.0, 10_000),
                            10.0 ** rng.uniform(0.0, 300.0, 10_000),
                            10.0 ** rng.uniform(0.0, 2.0, 4_000)])
        rho2 = np.concatenate([10.0 ** rng.uniform(-12.0, 0.0, 10_000),
                               10.0 ** rng.uniform(math.log10(5e-324), 0.0, 10_000),
                               1.0 - 10.0 ** rng.uniform(-9.0, -0.3, 4_000)])
        rho2 = np.clip(rho2, 5e-324, 1.0 - 2.0**-53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma, bound = minimize_two_exponent(d, rho2)
            args = (-0.5 * d, *bounds._md_lane_args(rho2))
            assert np.all((0.0 < gamma) & (gamma < 4.0 * rho2))
            assert np.array_equal(bound, bounds._two_exp_bound(gamma, *args))
            assert np.all(bound <= bounds._two_exp_bound(rho2, *args))
        golden, scan = _golden_section_minimum(d, rho2)
        # The scan's argmin compares the bound scaled by a power of e, which
        # may order two points an ulp apart either way.
        assert np.all(bound <= scan * (1.0 + 4e-16))
        assert np.all(bound <= golden * (1.0 + 1e-12 + 4.0 * _rounding(d, rho2, gamma)))

    def test_detection_risk_decreasing_in_rho2(self):
        grid = np.geomspace(1e-4, 0.9, 40)
        vals = [detection_ach_risk(500, float(r2)) for r2 in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def _golden_section_minimum(d, rho2):
    """(golden, scan) per lane: the first smallest of the golden-section,
    scan and balanced candidates, as the minimizer took it before its root
    search, and the smallest point of its 64-point scan."""
    golden, scan = np.empty(d.size), np.empty(d.size)
    for i in range(0, d.size, 2_000):
        dd, r2 = d[i : i + 2_000], rho2[i : i + 2_000]
        args = (-0.5 * dd, *bounds._md_lane_args(r2))
        span = 4.0 * r2
        grid = bounds._linspace_lanes(1e-12 * span, span - 1e-12 * span, 64)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = bounds._two_exp_bound(grid, *(v[:, None] for v in args))
            j = np.argmin(vals, axis=1)
            n = np.arange(dd.size)
            _, refined = _golden_min(
                bounds._two_exp_bound, grid[n, np.maximum(j - 1, 0)],
                grid[n, np.minimum(j + 1, 63)], *args,
            )
        scan[i : i + 2_000] = vals[n, j]
        golden[i : i + 2_000] = np.minimum(
            np.minimum(refined, vals[n, j]), bounds._two_exp_bound(r2, *args))
    return golden, scan


def _golden_min(f, a, b, *lane_args, rel_tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimization of many lanes at once; returns (x, f(x)).

    Lane i minimizes ``f(x, *(arg[i] for arg in lane_args))`` on
    [a[i], b[i]]; ``f`` is elementwise over arrays.  The lanes step together
    but never mix, and each stops at its own tolerance, so every lane
    follows the arithmetic of a search run on it alone.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x_out, f_out = np.empty(a.size), np.empty(a.size)
    lanes = np.arange(a.size)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1, *lane_args), f(x2, *lane_args)
    for _ in range(max_iter if a.size else 0):
        left = f1 < f2  # keep [a, x2], else [x1, b]
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        step = invphi * (b - a)
        x = np.where(left, b - step, a + step)
        fx = f(x, *lane_args)
        x1, f1, x2, f2 = (
            np.where(left, x, x2),
            np.where(left, fx, f2),
            np.where(left, x1, x),
            np.where(left, f1, fx),
        )
        fbest = np.minimum(f1, f2)
        done = np.abs(f1 - f2) <= rel_tol * np.maximum(np.abs(fbest), 1e-300)
        if done.any():
            first = f1[done] < f2[done]
            x_out[lanes[done]] = np.where(first, x1[done], x2[done])
            f_out[lanes[done]] = np.where(first, f1[done], f2[done])
            keep = ~done
            if not keep.any():
                return x_out, f_out
            lanes, a, b, x1, x2, f1, f2 = (v[keep] for v in (lanes, a, b, x1, x2, f1, f2))
            lane_args = tuple(v[keep] for v in lane_args)
    first = f1 < f2
    x_out[lanes] = np.where(first, x1, x2)
    f_out[lanes] = np.where(first, f1, f2)
    return x_out, f_out


def _rounding(d, rho2, gamma):
    """A bound on the relative rounding error of the two-exponential bound at
    gamma: four ulps of (d/2) times every term of g_fa or g_md.  The terms of
    g_md cancel near rho^2 = 1, where this exceeds 1e-12."""
    abs_rho, u, log_u = bounds._md_lane_args(rho2)
    root = np.sqrt(gamma)
    q_minus_u = gamma / (np.hypot(u, root) + u)
    s = np.expm1(0.5 * np.log1p(gamma))
    fa_terms = s + np.log1p(0.5 * s)
    md_terms = (q_minus_u + abs_rho * root) / u - log_u + np.log1p(q_minus_u / (2.0 * u))
    return 4.0 * np.finfo(float).eps * (0.5 * d * np.maximum(fa_terms, md_terms) + 1.0)


class TestChernoff:
    def test_identities(self):
        # The optimizing lambdas reproduce both closed-form exponents.
        for t_frac, n, d, rho in [
            (0.5, 10, 50, 0.5),
            (0.3, 100, 1000, -0.2),
            (0.9, 7, 20, 0.8),
        ]:
            t = t_frac * abs(rho) * d * n
            lam_fa, lam_md = chernoff_lambdas(t, n, d, rho)
            gamma = (2.0 * t / (d * n)) ** 2
            fa_log = -lam_fa * t + 0.5 * d * math.log(1.0 / (1.0 - (n * lam_fa) ** 2))
            assert fa_log == pytest.approx(-0.5 * d * g_fa(gamma), rel=1e-9)
            md_log = lam_md * t + math.log(mgf_alt(-lam_md, n, d, rho))
            assert md_log == pytest.approx(-0.5 * d * g_md(gamma, rho), rel=1e-9)
            # Strip membership.
            assert 0.0 < lam_fa < 1.0 / n
            assert 0.0 < lam_md < 1.0 / (n * (1.0 - abs(rho)))

    def test_threshold_domain(self):
        with pytest.raises(DomainError):
            chernoff_lambdas(0.0, 5, 5, 0.5)
        with pytest.raises(DomainError):
            chernoff_lambdas(0.5 * 5 * 5, 5, 5, 0.5)  # t = |rho| d n, edge


class TestMgfs:
    def test_null_closed_form(self):
        lam, n, d = 0.1, 2, 3
        assert mgf_alt(lam, n, d, 0.0) == pytest.approx((1.0 - (n * lam) ** 2) ** (-d / 2))

    def test_null_is_the_log1p_form_bit_for_bit(self):
        # At rho = 0 the statistic's MGF is (1 - (n lam)^2)^(-d/2), taken by
        # log1p: the bits of the null MGF's own closed form.
        rng = np.random.default_rng(40)
        for _ in range(500):
            n = float(rng.choice([rng.integers(1, 10_000), rng.uniform(0.5, 1e6)]))
            lam = rng.uniform(-0.999, 0.999) / n
            d = float(rng.uniform(0.0, 200.0))
            want = math.exp(-(d / 2) * math.log1p(-((n * lam) ** 2)))
            assert mgf_alt(lam, n, d, 0.0).hex() == want.hex(), (lam, n, d)

    def test_mgf_is_inf_past_the_float_range(self):
        assert log_mgf_alt(0.999, 1, 2000, 0.0) == pytest.approx(6215.108, rel=1e-6)
        assert mgf_alt(0.999, 1, 2000, 0.0) == math.inf
        assert mgf_alt(0.666, 1, 2000, 0.5) == math.inf  # near the upper strip edge

    def test_alt_closed_form(self):
        lam, n, d, rho = 0.05, 2, 3, 0.5
        base = 1.0 - 2.0 * n * lam * abs(rho) - (n * lam) ** 2 * (1.0 - rho * rho)
        assert mgf_alt(lam, n, d, rho) == pytest.approx(base ** (-d / 2))

    def test_log_alt_beyond_underflow(self):
        expect = math.log(mgf_alt(0.01, 2, 3, 0.5))
        assert log_mgf_alt(0.01, 2, 3, 0.5) == pytest.approx(expect)
        # At large d the MGF underflows to 0 while its log stays finite:
        # here the base is 1 + rho^2 / (1 - rho^2).
        n, d, rho = 100, 2000, 0.9
        u = 1.0 - rho * rho
        lam = -rho / (u * n)
        assert mgf_alt(lam, n, d, rho) == 0.0
        expect = -0.5 * d * math.log(1.0 + rho * rho / u)
        assert log_mgf_alt(lam, n, d, rho) == pytest.approx(expect)
        with pytest.raises(DomainError):
            log_mgf_alt(1.0, 2, 3, 0.5)

    def test_strip_validation(self):
        with pytest.raises(DomainError):
            mgf_alt(0.5, 2, 3, 0.0)  # |lam| >= 1/n
        with pytest.raises(DomainError):
            mgf_alt(1.0 / (2 * 0.5), 2, 3, 0.5)  # upper edge
        with pytest.raises(DomainError):
            mgf_alt(-1.0 / (2 * 0.5) - 0.01, 2, 3, 0.5)  # below lower edge
        # Asymmetric strip: this negative lambda is fine.
        assert mgf_alt(-0.6, 2, 3, 0.5) > 0.0


class TestConverses:
    def test_unconditional_limits(self):
        assert unconditional_converse_risk(100, 100, 1e-12) >= 0.99
        assert unconditional_converse_risk(100, 100, 0.5) == 0.0

    def test_unconditional_decreasing(self):
        grid = np.geomspace(1e-10, 0.9, 50)
        vals = [unconditional_converse_risk(1000, 100, float(r)) for r in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_default_k_star(self):
        assert default_k_star(100) == 100  # 13 sqrt(100) = 130, clamped to n
        assert default_k_star(10_000) == 1300
        assert default_k_star(np.array([100.0, 10_000.0, 0.5])).tolist() == [100.0, 1300.0, 0.0]

    def test_schedule_preconditions(self):
        with pytest.raises(ConditionViolatedError):
            truncation_schedule(100, 100, 0.0)
        with pytest.raises(ConditionViolatedError):
            truncation_schedule(100, 100, 1e-4, margin=0.0)
        with pytest.raises(ConditionViolatedError):
            truncation_schedule(100, 100, 1e-4, k_star=0)
        with pytest.raises(ConditionViolatedError):
            truncation_schedule(100, 100, 1e-4, k_star=101)
        with pytest.raises(ConditionViolatedError):
            truncation_schedule(10_000, 3, 1e-4)  # d < 4 ln(e n / k*)
        with pytest.raises(ConditionViolatedError, match="overflows"):
            truncation_schedule(10, 1.7e308, 1e-4)  # d * n is not finite

    # The edge values of n, d, k_star and margin, each with its k_star, or
    # 0 and the first failed precondition: 0 d n finite, 1 margin > 0,
    # 2 1 <= k_star <= floor(n), 3 d >= 4 ln(en/k_star); 4 if all hold.
    _PRECONDITION_CASES = [
        # (n, d, k_star, margin, lane k_star, first failed)
        (1e4, 100.0, None, 0.1, 1300.0, 4),
        (math.inf, 100.0, None, 0.1, 0.0, 0),
        (math.inf, 0.0, None, 0.1, 0.0, 0),  # 0 * inf is NaN
        (1e300, 1e5, None, 0.1, 13.0 * 1e150, 4),
        (1e300, 1e9, None, 0.1, 0.0, 0),  # d n = 1e309
        (10.0, 1.7e308, None, 0.1, 0.0, 0),
        (1e300, 1.0, None, 0.1, 0.0, 3),
        (1e4, 0.0, None, 0.1, 0.0, 3),
        (0.5, 100.0, None, 0.1, 0.0, 2),  # the default clamps to floor(n) = 0
        (1e4, 100.0, -2, 0.1, 0.0, 2),
        (1e4, 100.0, 0, 0.1, 0.0, 2),
        (1e4, 100.0, 40, 0.1, 40.0, 4),
        (1e4, 5.0, 40, 0.1, 0.0, 3),
        (2.0**54, 100.0, 2**53 + 1, 0.1, 2.0**53, 4),  # made a float: 2^53
        (2.0**53, 100.0, 2**53 + 1, 0.1, 0.0, 2),  # as a float it would pass
        (1e300, 1e5, 10**400, 0.1, 0.0, 2),
        (math.inf, 100.0, 10**400, math.nan, 0.0, 0),  # never made a float
        (1e4, 100.0, None, math.nan, 0.0, 1),
        (1e4, 100.0, 40, 0.0, 0.0, 1),
        (1e4, 100.0, None, -1.0, 0.0, 1),
        (math.inf, 100.0, None, 0.0, 0.0, 0),
    ]

    def test_lane_preconditions_match_the_scalar_ones(self):
        # Each case's lane, alone and among the lanes that share its k_star
        # and margin, gets its k_star or 0 and its first failed precondition;
        # truncation_schedule raises that precondition's message, or builds
        # the schedule (or meets the length cap) where all hold.
        messages = ["overflows", "margin must be > 0", "k_star must lie in", "d >= 4 ln"]
        cases = self._PRECONDITION_CASES
        for n, d, k_star, margin, want_k, want_first in cases:
            ks, first = bounds._k_stars(np.array([n]), np.array([d]), k_star, margin)
            assert (ks.tolist(), first.tolist()) == ([want_k], [want_first]), (n, d, k_star)
            # Tuples match the one math.nan object by identity.
            group = [c for c in cases if c[2:4] == (k_star, margin)]
            n_lanes, d_lanes = (np.array([c[i] for c in group]) for i in (0, 1))
            ks, first = bounds._k_stars(n_lanes, d_lanes, k_star, margin)
            assert ks.tolist() == [c[4] for c in group]
            assert first.tolist() == [c[5] for c in group]
            if want_first < 4:
                with pytest.raises(ConditionViolatedError, match=re.escape(messages[want_first])):
                    truncation_schedule(n, d, 1e-4, k_star=k_star, margin=margin)
            elif n - want_k + 1 > SCHEDULE_CAP:
                with pytest.raises(ConditionViolatedError, match="cap"):
                    truncation_schedule(n, d, 1e-4, k_star=k_star, margin=margin)
            else:
                assert truncation_schedule(n, d, 1e-4, k_star=k_star, margin=margin).k_star == want_k

    def test_schedule_structure(self):
        sch = truncation_schedule(1000, 500, 1e-5, margin=0.1)
        assert sch.ks[0] == sch.k_star and sch.ks[-1] == 1000
        assert sch.valid
        assert np.all(sch.r > 0) and np.all(sch.s > 0) and np.all(sch.w > 0)

    def test_exponent_positivity(self):
        sch = truncation_schedule(10_000, 1000, 1e-5, margin=0.1)
        ex = truncation_exponents(sch, 10_000, 1000, 1e-5)
        assert ex.deficit_norm > 0
        assert ex.deficit_cross > 0
        assert ex.second_moment > 0

    def test_truncated_never_below_unconditional(self):
        for n in (300, 3000):
            for d in (200, 2000):
                for r2 in np.geomspace(1e-9, 1e-3, 6):
                    t = truncated_converse_risk(n, d, float(r2))
                    u = unconditional_converse_risk(n, d, float(r2))
                    assert t >= u

    def test_truncated_strictly_improves_somewhere(self):
        t = truncated_converse_risk(1000, 100, 1e-6)
        u = unconditional_converse_risk(1000, 100, 1e-6)
        assert t > u > 0.0

    def test_truncated_fallback_on_vacuous_region(self):
        # Large rho^2: both bounds collapse to the trivial 0.
        assert truncated_converse_risk(1000, 1000, 0.5) == 0.0

    def test_schedule_length_cap(self, monkeypatch):
        monkeypatch.setattr(bounds, "SCHEDULE_CAP", 10)
        assert truncation_schedule(100, 100, 1e-4, k_star=91).ks.size == 10
        with pytest.raises(ConditionViolatedError, match="cap"):
            truncation_schedule(100, 100, 1e-4, k_star=90)

    def test_schedule_shares_read_only_arrays(self):
        sch = truncation_schedule(1000, 500, 1e-5)
        for arr in (sch.ks, sch.r, sch.w):
            assert not arr.flags.writeable

    def test_truncated_memory_does_not_grow_with_n(self):
        # An uncapped schedule at n = 1e9 holds about 1e9 doubles per array.
        n, d, rho2 = 1e9, 100.0, 1e-12
        assert math.floor(n) - default_k_star(n) + 1 > SCHEDULE_CAP
        tracemalloc.start()
        try:
            t = truncated_converse_risk(n, d, rho2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert t > unconditional_converse_risk(n, d, rho2)

    def test_converse_builds_no_per_k_array(self):
        # 987,001 subset sizes, inside the schedule cap: a per-k schedule would
        # peak near 110 MB.  The value is that of the full schedule.
        tracemalloc.start()
        try:
            t = truncated_converse_risk(1e6, 1000.0, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert t == 0.8856108926535324

    @given(
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=-12.0, max_value=math.log10(0.999)),
        st.sampled_from(["default", "one", "random", "top"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-15.0, max_value=math.log10(50.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_end_sizes_match_the_full_schedule(self, n, log_d, log_rho2, pick, u, log_margin):
        # Every minimum over k sits at k_star or floor(n), so the two-size
        # schedule the converse builds has the full schedule's rates and
        # validity.  Below margin 1e-10 some rates are rounding noise near
        # 1e-15 and may differ by a few ulps (validity still agrees).
        d, rho2, margin = 10.0**log_d, 10.0**log_rho2, 10.0**log_margin
        n_top = math.floor(n)
        picks = {"default": None, "one": 1, "random": 1 + int(u * (n_top - 1)), "top": n_top}
        k_star = picks[pick]
        try:
            full = truncation_schedule(n, d, rho2, k_star=k_star, margin=margin)
        except ConditionViolatedError:
            return
        ends = np.unique(np.array([full.k_star, n_top], dtype=np.float64))
        two = bounds._schedule(n, d, rho2, full.k_star, ends, margin)
        assert two.valid == full.valid
        if margin >= 1e-10:
            assert truncation_exponents(two, n, d, rho2) == truncation_exponents(full, n, d, rho2)

    def test_edge_n_takes_the_fallback(self):
        for n in (math.inf, math.nan):
            with pytest.raises(ConditionViolatedError, match="overflows"):
                truncation_schedule(n, 100.0, 1e-6)
        t = truncated_converse_risk(math.inf, 100.0, 1e-6)
        assert t == unconditional_converse_risk(math.inf, 100.0, 1e-6)
        with pytest.raises(InversionUndefinedError):
            invert_for_rho2("det-conv", math.inf, 100.0, 0.1)

    def test_converse_bits_are_pinned(self):
        # Digest of the truncated converse over a fixed sweep: any change to
        # the schedule arithmetic, its order of operations or its fallbacks
        # moves a bit and fails here.
        vals = [
            truncated_converse_risk(n, d, r2)
            for n in (100.0, 1000.0, 10_000.0)
            for d in (20.0, 100.0, 1000.0, 10_000.0)
            for r2 in _PRESCAN.tolist()
        ]
        vals += [truncated_converse_risk(1000.0, 500.0, r2, k_star=40, margin=0.2)
                 for r2 in _PRESCAN.tolist()]
        for r2 in (1e-8, 1e-6, 1e-5, 1e-3):
            ex = truncation_exponents(truncation_schedule(10_000, 1000, r2), 10_000, 1000, r2)
            vals += [ex.deficit_norm, ex.deficit_cross, ex.second_moment]
        assert len(vals) == 545
        digest = hashlib.sha256(",".join(float(v).hex() for v in vals).encode()).hexdigest()
        assert digest == "34c057e5619e141c680ef21b3e0fd0ad3a3f84f1baf64582bbae111b58bcc8d2"

    def test_zero_rho2_is_the_unconditional_bound(self):
        assert truncated_converse_risk(100, 10, 0.0) == 1.0

    @pytest.mark.parametrize("n, d, rho2", [(1000, 500, 1e-6), (100, 100, 1e-3), (1e4, 1e3, 1e-5)])
    def test_zero_rate_is_the_unconditional_bound_silently(self, n, d, rho2):
        # At margin 1e-300, 1 + margin rounds to 1: the schedule is invalid
        # and deficit_norm is 0, so the converse takes ln(1 - e^-x) at a rate
        # x <= 0 (-inf or NaN), and no numpy warning may escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk = truncated_converse_risk(n, d, rho2, margin=1e-300)
            assert risk == unconditional_converse_risk(n, d, rho2)

    @pytest.mark.parametrize("margin", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_margin_is_rejected(self, margin):
        with pytest.raises(ConditionViolatedError, match="margin must be > 0"):
            truncation_schedule(1000, 500, 1e-6, margin=margin)
        risk = truncated_converse_risk(1000, 500, 1e-6, margin=margin)
        assert risk == unconditional_converse_risk(1000, 500, 1e-6)

    def test_invalid_schedule_falls_back(self):
        # The schedule's preconditions hold and B2 does not overflow, but the
        # schedule built on the two end sizes is not valid.
        args = (64.9, 36.7, 4.08e-5)
        assert not truncation_schedule(*args, k_star=44, margin=8.19).valid
        uncond = unconditional_converse_risk(*args)
        assert uncond == 0.6805325700181591
        assert truncated_converse_risk(*args, k_star=44, margin=8.19) == uncond


class TestRecoveryBounds:
    def test_ach_formula_small_case(self):
        # b = n (1-rho2)^{d/4}; the bound is b (1 - b^n) / (1 - b).
        n, d, rho2 = 3, 8, 0.5
        b = n * (1.0 - rho2) ** (d / 4.0)
        expect = b * (1.0 - b**n) / (1.0 - b)
        assert recovery_ach_perr(n, d, rho2) == pytest.approx(expect, rel=1e-12)

    def test_ach_decreasing_in_rho2(self):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [recovery_ach_perr(50, 100, float(r)) for r in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_conv_decreasing_in_rho2(self):
        # The floor 1 - a^{-2} - 4/a with a = n (1-rho2)^{d/4} shrinks as the
        # correlation strengthens (recovery only gets easier).
        grid = np.linspace(0.001, 0.5, 50)
        vals = [recovery_conv_perr(1000, 40, float(r)) for r in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0.0

    def test_conv_epsilon_d_weakens_floor(self):
        base = recovery_conv_perr(1000, 40, 0.05, epsilon_d=0.0)
        softened = recovery_conv_perr(1000, 40, 0.05, epsilon_d=0.5)
        assert softened <= base

    @pytest.mark.parametrize("epsilon_d", [-0.5, math.nan])
    def test_conv_rejects_negative_or_nan_epsilon_d(self, epsilon_d):
        with pytest.raises(DomainError, match="epsilon_d must be nonnegative"):
            recovery_conv_perr(1000, 40, 0.05, epsilon_d=epsilon_d)

    def test_conv_clamped_at_zero(self):
        assert recovery_conv_perr(10, 100, 0.9) == 0.0

    def test_ach_removable_singularity(self):
        # n = 2, d = 2, rho2 = 3/4 gives b = 2 * (1/4)^(1/2) = 1 exactly; the
        # geometric series b (1 - b^n) / (1 - b) has the limit n there.
        assert math.log(2) + 0.5 * math.log1p(-0.75) == 0.0
        assert recovery_ach_perr(2, 2, 0.75) == 2.0
        for rho2 in (0.7499999, 0.7500001):
            assert abs(recovery_ach_perr(2, 2, rho2) - 2.0) <= 1e-6


class TestInversion:
    def test_det_ach_minimality(self):
        target = 0.1
        r2 = invert_for_rho2("det-ach", 5000, 1000, target)
        assert detection_ach_risk(1000, r2) <= target
        assert detection_ach_risk(1000, r2 - 1e-6) > target

    def test_det_ach_n_independent(self):
        a = invert_for_rho2("det-ach", 100, 1000, 0.1)
        b = invert_for_rho2("det-ach", 20_000, 1000, 0.1)
        assert a == b

    def test_rec_ach_convention(self):
        target = 0.1
        r2 = invert_for_rho2("rec-ach", 100, 500, target)
        assert recovery_ach_perr(100, 500, r2) <= target / 2.0
        assert recovery_ach_perr(100, 500, r2 - 1e-6) > target / 2.0

    def test_rec_conv_convention(self):
        target = 0.1
        r2 = invert_for_rho2("rec-conv", 100, 500, target)
        assert recovery_conv_perr(100, 500, r2) >= target
        assert recovery_conv_perr(100, 500, r2 + 1e-6) < target

    def test_det_conv_convention(self):
        target = 0.1
        r2 = invert_for_rho2("det-conv", 1000, 500, target)
        assert truncated_converse_risk(1000, 500, r2) >= target
        assert truncated_converse_risk(1000, 500, r2 + 1e-6) < target

    # The stop is relative, so a small rho2 is pinned as finely as a large
    # one: at n = 1e12 an absolute width of 1e-10 returned the pre-scan
    # point 3.47e-11 for det-conv with no search step.
    @pytest.mark.parametrize(
        "kind, n, d",
        [("det-ach", 1e4, 1e6), ("det-conv", 1e12, 1000.0), ("rec-ach", 1e4, 1e9),
         ("rec-conv", 1e4, 1e9)],
    )
    def test_small_rho2_convention_to_a_relative_offset(self, kind, n, d):
        r2 = invert_for_rho2(kind, n, d, 0.1)
        assert r2 not in _PRESCAN.tolist()
        assert _on_reported_side(kind, n, d, r2, 0.1)
        step = -1e-9 if kind.endswith("ach") else 1e-9
        assert not _on_reported_side(kind, n, d, r2 * (1.0 + step), 0.1)

    @given(
        st.sampled_from(BOUND_KINDS),
        st.lists(st.tuples(st.floats(min_value=10.0, max_value=1e8),
                           st.floats(min_value=20.0, max_value=1e5)),
                 min_size=1, max_size=5),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_keeps_scalar_bits_convention_and_step_cap(self, kind, lanes, target):
        name = _BOUND_NAMES[kind]
        with mock.patch.object(bounds, name, wraps=getattr(bounds, name)) as spy:
            block = invert_for_rho2(kind, *map(np.array, zip(*lanes)), target)
        assert 1 <= spy.call_count <= bounds.INVERT_MAX_STEPS  # the pre-scan, then steps
        for (n, d), got in zip(lanes, block):
            try:
                want = invert_for_rho2(kind, n, d, target)
            except InversionUndefinedError as exc:
                assert str(got) == str(exc)
                continue
            assert _bits(got) == _bits(want)
            assert _on_reported_side(kind, n, d, got, target)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            invert_for_rho2("nope", 100, 100, 0.1)

    def test_unreachable_target(self):
        # The recovery-converse floor never exceeds 1 - 1/n^2 - 4/n.
        with pytest.raises(InversionUndefinedError):
            invert_for_rho2("rec-conv", 10, 100, 0.999)

    # The four edges of the one bracket search: the bound already on the low
    # side of the target at the first pre-scan point, or still on the high
    # side at the last one, for each convention.
    def test_ach_below_target_at_left_edge_reports_edge(self):
        assert invert_for_rho2("rec-ach", 100, 1e15, 0.1) == _PRESCAN[0]

    def test_conv_above_target_at_right_edge_reports_edge(self):
        assert invert_for_rho2("rec-conv", 1e6, 1, 0.1) == _PRESCAN[-1]

    def test_ach_above_target_at_right_edge_raises(self):
        with pytest.raises(InversionUndefinedError, match="never reaches"):
            invert_for_rho2("rec-ach", 1e6, 1, 0.1)

    def test_uncrossed_target_names_the_scanned_range(self):
        # A converse below the target at 1e-13 is scanned down by decades to
        # 1e-307; the recovery-converse floor never exceeds 1 - 1/n^2 - 4/n,
        # here 0 < 0.1, so the error names the whole range scanned.
        scanned = r"on the scanned range \[1e-307, 0\.999999999\] of rho2$"
        with pytest.raises(InversionUndefinedError, match="below target 0.1 everywhere " + scanned):
            invert_for_rho2("rec-conv", 2.0, 100.0, 0.1)
        # An achievability bound names the pre-scan's own range.
        scanned = r"on the scanned range \[1e-13, 0\.999999999\] of rho2$"
        with pytest.raises(InversionUndefinedError, match="never reaches target 0.1 " + scanned):
            invert_for_rho2("rec-ach", 1e6, 1, 0.2)

    def test_converse_crossing_below_the_prescan_is_found(self):
        # At d sqrt(n) = 1e12 the det-conv crossing, near 0.0456 / (d sqrt n),
        # lies below the pre-scan's first point, 1e-13: the decade scan
        # brackets it in [1e-14, 1e-13], with one bound call per decade.
        with mock.patch.object(bounds, "truncated_converse_risk",
                               wraps=bounds.truncated_converse_risk) as spy:
            r2 = invert_for_rho2("det-conv", 1e12, 1e6, 0.1)
        assert 1e-14 < r2 < 1e-13
        assert spy.call_args_list[1].args[2].tolist() == [1e-14]
        assert r2 == pytest.approx(4.5640526479700506e-14, rel=1e-12)
        assert _on_reported_side("det-conv", 1e12, 1e6, r2, 0.1)
        assert not _on_reported_side("det-conv", 1e12, 1e6, r2 * (1.0 + 1e-9), 0.1)

    def test_converse_crossing_near_the_float_floor_is_found(self):
        # At n = 1e300 the converse is the unconditional bound, which
        # crosses 0.1 near 5.9e-303; the bracket's ends multiply to below
        # the smallest float there, so its midpoint is sqrt(lo) sqrt(hi).
        r2 = invert_for_rho2("det-conv", 1e300, 100.0, 0.1)
        assert 1e-303 < r2 < 1e-302
        assert _on_reported_side("det-conv", 1e300, 100.0, r2, 0.1)
        assert not _on_reported_side("det-conv", 1e300, 100.0, r2 * (1.0 + 1e-9), 0.1)

    def test_conv_below_target_at_left_edge_raises(self):
        # Below the target at 1e-13 is not enough: the decade scan finds
        # det-conv's crossing near 4.9e-18 here.  A converse raises only if
        # no decade down to 1e-307 reaches the target; rec-conv at n = 10
        # never exceeds 1 - 1/n^2 - 4/n = 0.59.
        r2 = invert_for_rho2("det-conv", 1000, 500, 0.999999)
        assert r2 == pytest.approx(4.854e-18, rel=1e-3)
        with pytest.raises(InversionUndefinedError, match="below target .* everywhere"):
            invert_for_rho2("rec-conv", 10, 100, 0.7)

    def test_unreachable_converse_raises_after_the_last_decade(self):
        # A lane still below the target at 1e-14 is evaluated at 1e-307, the
        # last decade; a decreasing bound below the target there meets it at
        # no decade, so the lane raises without the other 292.
        with mock.patch.object(bounds, "recovery_conv_perr",
                               wraps=bounds.recovery_conv_perr) as spy:
            with pytest.raises(InversionUndefinedError) as raised:
                invert_for_rho2("rec-conv", 10, 100, 0.7)
        assert [call.args[2].tolist() for call in spy.call_args_list[1:]] == [[1e-14], [1e-307]]
        assert str(raised.value) == (
            "rec-conv bound is below target 0.7 everywhere on "
            "the scanned range [1e-307, 0.999999999] of rho2")

    # det-conv reaches any target below 1 as rho^2 -> 0, so its lanes take
    # n from 1e280, where the crossing nears 1e-307 and d n may overflow.
    # rec-conv's floor never exceeds 1 - 1/n^2 - 4/n, below 0.3 for n < 5.7,
    # and its lanes take d from 1e12, where it crosses below 1e-13.
    @pytest.mark.parametrize("kind, log_n, log_d", [("det-conv", (280.0, 308.0), (0.0, 7.0)),
                                                    ("rec-conv", (0.3, 4.0), (12.0, 17.0))])
    def test_decade_probe_matches_the_full_scan(self, kind, log_n, log_d):
        # Random converse lanes below their target at 1e-13 against the full
        # decade scan: the first decade at or above the target brackets the
        # crossing, and a lane with none raises "below target everywhere".
        rng = np.random.default_rng(41)
        n = 10.0 ** rng.uniform(*log_n, 300)
        d = 10.0 ** rng.uniform(*log_d, 300)
        target = 0.3
        bound = _BOUND_NAMES[kind]
        got = invert_for_rho2(kind, n, d, target)
        decades = np.array(bounds._DECADES)
        risk = getattr(bounds, bound)(np.repeat(n, decades.size), np.repeat(d, decades.size),
                                      np.tile(decades, n.size)).reshape(n.size, decades.size)
        below = [r for r in range(n.size)
                 if getattr(bounds, bound)(n[r], d[r], _PRESCAN[0]) < target]
        reached = 0
        for r in below:
            met = np.flatnonzero(risk[r] >= target)
            if not met.size:
                assert isinstance(got[r], InversionUndefinedError), (n[r], d[r])
                assert "below target 0.3 everywhere on the scanned range [1e-307," in str(got[r])
                continue
            reached += 1
            lo, hi = decades[met[0]], (decades[met[0] - 1] if met[0] else _PRESCAN[0])
            assert lo <= got[r] < hi
            assert _on_reported_side(kind, n[r], d[r], got[r], target)
        assert reached >= 5 and len(below) - reached >= 5

    # A NaN compares false against the target, which read as "met" and gave
    # the first pre-scan point, 1e-13.
    @pytest.mark.filterwarnings("error")
    def test_nan_d_is_rejected_by_det_ach(self):
        with pytest.raises(DomainError, match="d must be >= 1"):
            invert_for_rho2("det-ach", 100, math.nan, 0.1)

    # max(0.0, nan) keeps 0.0, so a NaN size read as "no risk certified".
    @pytest.mark.parametrize("n,d", [(math.nan, 100.0), (100.0, math.nan)], ids=["n", "d"])
    def test_nan_size_is_rejected_by_every_bound(self, n, d):
        for bound in (unconditional_converse_risk, truncated_converse_risk,
                      recovery_ach_perr, recovery_conv_perr):
            with pytest.raises(DomainError, match="NaN"):
                bound(n, d, 0.01)
        for kind in ("det-conv", "rec-ach", "rec-conv"):
            with pytest.raises(DomainError, match="NaN"):
                invert_for_rho2(kind, n, d, 0.1)

    # A faulty bound that returns NaN is caught by the pre-scan guard.
    @pytest.mark.filterwarnings("error")
    def test_nan_prescan_is_undefined(self, monkeypatch):
        monkeypatch.setattr(bounds, "recovery_ach_perr",
                            lambda n, d, rho2: np.full(rho2.shape, math.nan))
        with pytest.raises(InversionUndefinedError, match="NaN"):
            invert_for_rho2("rec-ach", 100, 100, 0.1)


class TestCurvePoints:
    def test_worker_independence(self):
        values = np.linspace(200, 2000, 4)
        a, notes_a = curve_points("d", values, n=1000)
        b, notes_b = curve_points("d", values, n=1000, workers=3)
        assert a == b and notes_a == notes_b

    def test_ordering_on_curve(self):
        points, _ = curve_points("d", np.linspace(100, 5000, 6), n=10_000)
        for p in points:
            assert p.rho2_det_ach is not None
            if p.rho2_det_conv is not None:
                assert p.rho2_det_conv <= p.rho2_det_ach
            if p.rho2_rec_ach is not None and p.rho2_rec_conv is not None:
                assert p.rho2_rec_conv <= p.rho2_rec_ach

    def test_converse_exceeds_achievable(self):
        def point(ach, conv):
            return BoundCurvePoint(100.0, ach, conv, None, None)

        assert point(0.1, 0.2).converse_exceeds_achievable
        assert not point(0.2, 0.1).converse_exceeds_achievable
        assert not point(0.1, 0.1).converse_exceeds_achievable
        assert not point(None, 0.2).converse_exceeds_achievable
        assert not point(0.1, None).converse_exceeds_achievable

    def test_huge_d_scan_overflow_is_silent(self):
        # At d >= 1e15 a det-ach scan point overflows exp to inf; it is never
        # the minimum, and no raw numpy warning may escape.
        values = [1e15, 1e16, 1e20, 1e100, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, _ = curve_points("d", values, n=1e6)
        assert [p.rho2_det_ach for p in points] == [float(_PRESCAN[0])] * len(values)

    def test_huge_d_times_n_takes_the_fallback_silently(self):
        # d * n beyond the float range: the truncation grid is refused, so
        # det-conv is the unconditional bound and no raw numpy warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, _ = curve_points("d", [1.7e308], n=10.0)
            fallback = truncated_converse_risk(10.0, 1.7e308, 1e-20)
            assert fallback == unconditional_converse_risk(10.0, 1.7e308, 1e-20)
        assert points[0].rho2_det_conv is None

    def test_det_conv_is_defined_beyond_the_schedule_cap(self):
        points, notes = curve_points("n", [1e7, 1e9, 1e10, 1e12], d=1000.0)
        assert notes == []
        for p in points:
            assert p.rho2_det_conv is not None
            assert p.rho2_det_conv <= p.rho2_det_ach

    def test_empty_grid(self):
        assert curve_points("d", [], n=100.0) == ([], [])

    def test_small_d_det_ach_is_decreasing(self):
        # Below d ~ 70 the det-ach pre-scan once rose by rounding near
        # rho^2 = 1 (27 such notes on this grid).  Only the real "never
        # reaches" notes stay: as rho^2 -> 1 the bound tends to about
        # 2 exp(-0.1 d), above 0.1 until d ~ 30.
        grid = np.geomspace(18.5, 2e4, 300)
        _, notes = curve_points("d", grid, n=1e4, target_risk=0.1)
        assert notes and all("det-ach bound never reaches" in note for note in notes)
        assert max(float(note.split()[0][len("axis="):]) for note in notes) < 30.0

    @pytest.mark.parametrize(
        "name, axis, fixed",
        [("curve_vs_d_n10000_risk0.1.csv", "d", {"n": 10_000.0}),
         ("curve_vs_n_d1000_risk0.1.csv", "n", {"d": 1000.0})],
    )
    def test_reference_curves(self, name, axis, fixed):
        # Every row of the shipped curves: det-ach to 1e-4 and rec-ach to
        # 1e-3 relative (measured: 1.1e-5 and 1.6e-4 on the d-sweep, 8e-7 and
        # 2.5e-5 on the n-sweep).  The files write rho2 = 1 where the target
        # is unreachable on (0, 1); the curve leaves that cell empty.
        # The paper's headline claim, detection needs less correlation than
        # any recovery decoder (rho2_det_ach < rho2_rec_conv), holds on every
        # row from claim_from on; below it det-ach is undefined (d = 18.42)
        # or the order reverses (n = 100 to 1724.5).
        claim_from, claims = {"d": (18.43, 49), "n": (2130.0, 45)}[axis]
        lines = (_REFERENCE / name).read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        points, _ = curve_points(axis, [r["axis"] for r in rows], **fixed)
        assert len(points) == len(rows) == 50
        for row, point in zip(rows, points):
            for column, rel in (("rho2_det_ach", 1e-4), ("rho2_rec_ach", 1e-3)):
                got, want = getattr(point, column), row[column]
                if got is None:
                    assert want >= 1.0, (column, row["axis"])
                else:
                    assert abs(got - want) <= rel * want, (column, row["axis"], got, want)
            if point.axis >= claim_from:
                assert point.rho2_det_ach < point.rho2_rec_conv, point
            else:
                assert point.rho2_det_ach is None or point.rho2_det_ach > point.rho2_rec_conv, point
        assert sum(p.axis >= claim_from for p in points) == claims

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            curve_points("x", [1.0], n=10)
        with pytest.raises(DomainError):
            curve_points("d", [100.0])  # missing fixed n


def _bits(x) -> str:
    return float(x).hex()


_BOUND_NAMES = {"det-ach": "detection_ach_risk", "det-conv": "truncated_converse_risk",
                "rec-ach": "recovery_ach_perr", "rec-conv": "recovery_conv_perr"}


def _on_reported_side(kind, n, d, rho2, target) -> bool:
    """Whether the kind's bound at rho2 is on the side its inversion reports:
    the target met for achievability, the lower bound still at or above it
    for converses."""
    if kind == "det-ach":
        return detection_ach_risk(d, rho2) <= target
    if kind == "rec-ach":
        return recovery_ach_perr(n, d, rho2) <= 0.5 * target
    bound = truncated_converse_risk if kind == "det-conv" else recovery_conv_perr
    return bound(n, d, rho2) >= target


_REFERENCE = Path(__file__).resolve().parent.parent / "data" / "reference"


# Mixed (n, d) lanes: defined values, every undefined message, a repeated d
# (det-ach deduplicates by d) and an n whose full schedule would exceed the cap.
_MIXED_N = [10_000.0, 10_000.0, 10_000.0, 10_000.0, 1.0, 1e9, 1000.0, 1e6, 100.0]
_MIXED_D = [18.420680743952367, 1.0, 500.0, 500.0, 100.0, 100.0, 50.0, 1e15, 3.5]


class TestLockstep:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e7),
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_array_minimize_is_elementwise_scalar_calls(self, lanes):
        d = np.array([x for x, _ in lanes])
        rho2 = np.array([y for _, y in lanes])
        with np.errstate(over="ignore"):
            gamma, bound = minimize_two_exponent(d, rho2)
            for i, (di, ri) in enumerate(lanes):
                g, b = minimize_two_exponent(di, ri)
                assert (_bits(gamma[i]), _bits(bound[i])) == (_bits(g), _bits(b))

    def test_denormal_lane_leaves_its_neighbours_alone(self):
        # Its scan step underflows to 0; np.linspace over both rows would
        # switch the other row to its divide-first arithmetic too.
        with np.errstate(over="ignore"):
            gamma, bound = minimize_two_exponent([100.0, 100.0], [5e-324, 0.1])
        g, b = minimize_two_exponent(100.0, 0.1)
        assert (_bits(gamma[1]), _bits(bound[1])) == (_bits(g), _bits(b))

    def test_scan_rows_are_numpy_linspace(self):
        start = np.array([0.0, 5e-324, 4e-25, 0.3, 2.0])
        stop = np.array([5e-324, 2e-323, 0.4, 0.30000000000000004, 1.0])
        rows = bounds._linspace_lanes(start, stop, 64)
        for row, a, b in zip(rows, start, stop):
            assert row.tobytes() == np.linspace(a, b, 64).tobytes()

    def test_lanes_beyond_one_pass(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(1.0, 5000.0, LANE_CAP + 5)
        rho2 = rng.uniform(1e-6, 0.9, LANE_CAP + 5)
        gamma, bound = minimize_two_exponent(d, rho2)
        for i in (0, LANE_CAP - 1, LANE_CAP, LANE_CAP + 4):
            g, b = minimize_two_exponent(float(d[i]), float(rho2[i]))
            assert (_bits(gamma[i]), _bits(bound[i])) == (_bits(g), _bits(b))

    def test_one_root_search_per_call(self, monkeypatch):
        real, calls = bounds._illinois, []

        def counted(*args, **kwargs):
            calls.append(np.size(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "_illinois", counted)
        rng = np.random.default_rng(5)
        lanes = 2 * LANE_CAP + 5
        minimize_two_exponent(rng.uniform(1.0, 5000.0, lanes), rng.uniform(1e-6, 0.9, lanes))
        assert len(calls) == 1 and 0 < calls[0] <= lanes

    def test_shared_scan_rows_keep_scalar_bits(self):
        # Repeated rho2 values share one scan row; the d values differ per
        # lane, and the block spans a LANE_CAP scan step.
        combos = [(d, r2) for r2 in (5e-324, 1e-13, 0.5, 1.0 - 1e-9)
                  for d in (1.0, 18.42, 1e4, 1e15, 1e300)]
        block = combos * (LANE_CAP // len(combos) + 2)
        assert len(block) > LANE_CAP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma, bound = minimize_two_exponent(*map(np.array, zip(*block)))
            singles = [minimize_two_exponent(d, r2) for d, r2 in combos]
        for i in range(len(block)):
            g, b = singles[i % len(combos)]
            assert (_bits(gamma[i]), _bits(bound[i])) == (_bits(g), _bits(b)), block[i]

    @pytest.mark.parametrize("points, limit", [(50, 1_500_000), (256, 4_000_000)])
    def test_prescan_memory_is_bounded(self, points, limit):
        # The det-ach pre-scan of a reference-grid block: 41 rho2 rows
        # shared by every d, scanned LANE_CAP lanes at a time.
        d = np.linspace(18.420680743952367, 10_000.0, points)
        table = (np.repeat(d, _PRESCAN.size), np.tile(_PRESCAN, points))
        detection_ach_risk(*(v[:3] for v in table))  # one-time allocations
        tracemalloc.start()
        try:
            detection_ach_risk(*table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit

    @pytest.mark.parametrize("target", [0.1, 0.999999])
    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_block_inverts_as_single_points(self, kind, target):
        with np.errstate(over="ignore"):
            block = invert_for_rho2(kind, np.array(_MIXED_N), np.array(_MIXED_D), target)
            assert len(block) == len(_MIXED_N)
            for n, d, got in zip(_MIXED_N, _MIXED_D, block):
                try:
                    want = invert_for_rho2(kind, n, d, target)
                except InversionUndefinedError as exc:
                    assert isinstance(got, InversionUndefinedError)
                    assert str(got) == str(exc)
                else:
                    assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "axis, fixed, values",
        [
            ("d", {"n": 10_000.0}, [18.420680743952367, 1.0, 3.5, 500.0, 500.0, 1e15]),
            ("n", {"d": 100.0}, [1.0, 10.0, 30_000.0, 1e9]),
            ("d", {"n": 1000.0, "target_risk": 0.999999}, [1.0, 50.0, 500.0]),
        ],
    )
    def test_curve_blocks_match_single_points(self, monkeypatch, workers, axis, fixed, values):
        # The grid is one block at LANE_CAP; at a cap of 2 it is several,
        # run in process at workers=1 and over the pool at workers=2.
        with np.errstate(over="ignore"):
            serial = curve_points(axis, values, **fixed)
            singles = [curve_points(axis, [v], **fixed) for v in values]
            monkeypatch.setattr(bounds, "LANE_CAP", 2)
            blocks = curve_points(axis, values, workers=workers, **fixed)
        assert serial[0] == [p for ps, _ in singles for p in ps]
        assert serial[1] == [m for _, ms in singles for m in ms]
        assert blocks == serial

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_curve_blocks_do_not_depend_on_workers(self, monkeypatch, workers):
        # Consecutive LANE_CAP-point blocks at any worker count, so a grid of
        # at most LANE_CAP points is one task, which parallel_map runs in
        # process.
        calls = []

        def spy(fn, tasks, w):
            calls.append(([len(task[0]) for task in tasks], w))
            return [([], []) for _ in tasks]

        monkeypatch.setattr(bounds, "parallel_map", spy)
        for size in (1, 50, LANE_CAP, LANE_CAP + 1, 3 * LANE_CAP + 5):
            curve_points("d", np.linspace(20.0, 10_000.0, size), n=1e4, workers=workers)
        assert calls == [
            ([1], workers),
            ([50], workers),
            ([LANE_CAP], workers),
            ([LANE_CAP, 1], workers),
            ([LANE_CAP] * 3 + [5], workers),
        ]

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_empty_block_inverts_to_an_empty_list(self, kind):
        assert invert_for_rho2(kind, np.array([]), np.array([]), 0.1) == []

    @pytest.mark.parametrize(
        "kind, name",
        [("det-ach", "detection_ach_risk"), ("det-conv", "truncated_converse_risk"),
         ("rec-ach", "recovery_ach_perr"), ("rec-conv", "recovery_conv_perr")],
    )
    def test_prescan_runs_one_lane_set_per_distinct_input(self, monkeypatch, kind, name):
        real = getattr(bounds, name)
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(np.size(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
        # det-ach reads d alone: a fixed-d n-sweep is one lane set.
        invert_for_rho2(kind, np.array([10.0, 100.0, 1000.0, 1e4]), np.full(4, 500.0), 0.1)
        distinct = 1 if kind == "det-ach" else 4
        assert sizes[0] == distinct * _PRESCAN.size
        # A repeated (n, d) pair is one lane set for every kind.
        sizes.clear()
        block = invert_for_rho2(kind, np.array([1000.0, 1e4, 1000.0]),
                                np.array([500.0, 500.0, 500.0]), 0.1)
        distinct = 1 if kind == "det-ach" else 2
        assert sizes[0] == distinct * _PRESCAN.size
        assert _bits(block[0]) == _bits(block[2])

    def test_curve_memory_is_bounded_by_the_lane_cap(self):
        # Uncapped, the det-ach pre-scan of 200 points would hold 8,400
        # lanes of 64 doubles (4.3 MB) per temporary array: a 34 MB peak
        # against 1.5 MB.  det-conv reads two subset sizes at any n.
        tracemalloc.start()
        try:
            points, _ = curve_points("d", np.linspace(20.0, 10_000.0, 200), n=1e9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 200
        assert peak < 3_000_000
        # Across blocks: 1,000 points in four LANE_CAP blocks peaked at
        # 3.6 MB, against 11.7 MB inverted as one block.
        tracemalloc.start()
        try:
            points, _ = curve_points("d", np.linspace(20.0, 10_000.0, 1000), n=1e9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 1000
        assert peak < 6_000_000


def test_one_golden_section_loop():
    """The package has one bracketing search, ``bounds._illinois``; the only
    golden-section loop is this file's reference, ``_golden_min``."""
    golden = re.compile(r"sqrt\(5(\.0)?\)\s*-\s*1(\.0)?\)\s*/\s*2")
    sources = {p.name: p.read_text() for p in Path(corralign.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if golden.search(text)] == []
    assert len(golden.findall(Path(__file__).read_text())) == 1


def test_illinois_stops_at_max_steps(monkeypatch):
    """An f that never converges (all NaN, so every step takes the geometric
    midpoint) ends after INVERT_MAX_STEPS steps, inside its start brackets."""
    calls = []

    def step(live, x):
        calls.append(live.size)
        return np.zeros(x.size, dtype=bool), np.full_like(x, np.nan)

    # Geometric bisection takes both brackets to INVERT_RTOL in 40 steps, so
    # a cap of 37 stops them unconverged.
    monkeypatch.setattr(bounds, "INVERT_MAX_STEPS", 37)
    nan = np.full(2, np.nan)
    lo, hi = bounds._illinois(step, np.array([0.5, 1.0]), np.array([1.0, 3.0]), nan, nan,
                              bounds.INVERT_RTOL)
    assert calls == [2] * 37
    assert ((0.5 <= lo) & (lo < hi) & (hi <= [1.0, 3.0])).all()
    assert (hi - lo > bounds.INVERT_RTOL * hi).all()


def test_illinois_all_nan_lane_on_a_wide_bracket():
    """An all-NaN lane on [1e-150, 1e150] takes all INVERT_MAX_STEPS steps
    and ends inside its bracket, with no floating-point warning; the clamp
    0.4 * rtol * hi inside the bracket sets its steps, and it stops about
    1.6e-11 wide."""
    calls = []

    def step(live, x):
        calls.append(live.size)
        return np.zeros(x.size, dtype=bool), np.full_like(x, np.nan)

    nan = np.full(1, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = bounds._illinois(step, np.array([1e-150]), np.array([1e150]), nan, nan,
                                  bounds.INVERT_RTOL)
    assert calls == [1] * bounds.INVERT_MAX_STEPS
    assert 1e-150 <= lo[0] < hi[0] <= 1e150


# One lane per path through the truncated converse at k_star = 44,
# margin = 8.19: rho2 = 0, floor(n) < k_star, d n not finite, t1 > 700, an
# invalid two-size schedule, psi <= 0, then three lanes that reach the value.
_PATH_LANES = [
    (100.0, 100.0, 0.0),
    (30.0, 100.0, 1e-3),
    (math.inf, 100.0, 1e-6),
    (1365.6, 8121.8, 0.0458),
    (64.9, 36.7, 4.08e-5),
    (1042.6, 5991.7, 1.68e-6),
    (394.3, 3791.2, 6.83e-13),
    (8735.7, 3510.0, 8.97e-11),
    (56.0, 5838.3, 1.3e-12),
]

_sizes = st.one_of(st.floats(min_value=0.5, max_value=1e12), st.just(math.inf))
_rho2s = st.one_of(st.just(0.0), st.floats(min_value=1e-13, max_value=0.98))
_decades = st.integers(min_value=1, max_value=307).map(lambda k: 10.0**-k)


@given(
    st.lists(st.tuples(st.one_of(_sizes, st.just(1e300)),
                       st.one_of(st.floats(min_value=0.0, max_value=1e5), st.just(0.0),
                                 st.just(math.inf)),
                       st.one_of(_rho2s, _decades)),
             min_size=1, max_size=12),
    st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_converses_are_never_nan(lanes, k_star, margin, epsilon_d):
    # The converse decade walk in ``_invert_lanes`` relies on this: both
    # converses clamp their value with np.where(value > 0, value, 0).
    n, d, rho2 = (np.array(column) for column in zip(*lanes))
    assert not np.isnan(truncated_converse_risk(n, d, rho2, k_star, margin)).any()
    assert not np.isnan(recovery_conv_perr(n, d, rho2, epsilon_d)).any()


def _bound_calls(k_star=None, margin=0.1, epsilon_d=0.0):
    return [
        (unconditional_converse_risk, {}),
        (truncated_converse_risk, {"k_star": k_star, "margin": margin}),
        (recovery_ach_perr, {}),
        (recovery_conv_perr, {"epsilon_d": epsilon_d}),
    ]


class TestArrayBounds:
    @given(
        st.lists(st.tuples(_sizes, st.floats(min_value=0.0, max_value=1e5), _rho2s),
                 min_size=1, max_size=12),
        st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_gives_each_lane_its_scalar_bits(self, lanes, k_star, margin, epsilon_d):
        n, d, rho2 = (np.array(column) for column in zip(*lanes))
        for bound, kwargs in _bound_calls(k_star, margin, epsilon_d) + _bound_calls():
            block = bound(n, d, rho2, **kwargs)
            singles = [bound(*lane, **kwargs) for lane in lanes]
            assert all(type(x) is float for x in singles)
            assert block.shape == n.shape
            assert [_bits(x) for x in block] == [_bits(x) for x in singles]

    def test_pinned_sweep_as_one_block(self):
        # The sweep of test_converse_bits_are_pinned: one block call gives the
        # pinned scalar bits, for every bound.
        n, d, rho2 = (
            x.ravel()
            for x in np.meshgrid([100.0, 1000.0, 10_000.0], [20.0, 100.0, 1000.0, 10_000.0],
                                 _PRESCAN, indexing="ij")
        )
        for bound, kwargs in _bound_calls() + _bound_calls(k_star=40, margin=0.2):
            block = bound(n, d, rho2, **kwargs)
            lanes = zip(n.tolist(), d.tolist(), rho2.tolist())
            singles = [bound(*lane, **kwargs) for lane in lanes]
            assert [_bits(x) for x in block] == [_bits(x) for x in singles]

    def test_block_keeps_its_shape(self):
        rho2 = np.array([[1e-6, 1e-3], [0.0, 0.5]])
        for bound, kwargs in _bound_calls():
            block = bound(1000.0, np.array([[100.0], [500.0]]), rho2, **kwargs)
            assert block.shape == (2, 2)
            assert _bits(block[1, 0]) == _bits(bound(1000.0, 500.0, 0.0, **kwargs))

    @pytest.mark.parametrize(
        "name", ["log1p", "expm1", "exp", "log", "sqrt", "hypot", "logaddexp", "square"])
    def test_ufuncs_give_each_element_its_own_bits(self, name):
        # The lanes rely on this: a ufunc gives an element the bits of its
        # 1-element call whether it sits in a long array, a view shifted by
        # one element or one byte, or a strided view.
        rng = np.random.default_rng(27)
        size = 10_000
        mag = 10.0 ** rng.uniform(-20.0, 3.0, size)
        signed = mag * rng.choice([-1.0, 1.0], size)
        args = {
            "log1p": (np.where(signed > -1.0, signed, -rng.uniform(0.0, 1.0, size)),),
            "expm1": (signed,), "exp": (signed,), "log": (mag,), "sqrt": (mag,),
            "hypot": (mag, rng.permutation(mag)), "logaddexp": (signed, rng.permutation(signed)),
            "square": (signed,),
        }[name]
        f = getattr(np, name)

        def shifted(x, offset):  # a copy of x starting ``offset`` bytes into a buffer
            raw = np.empty(x.nbytes + 8, dtype=np.uint8)[offset : offset + x.nbytes]
            out = raw.view(np.float64)
            out[:] = x
            return out

        by_byte = [shifted(a, 1) for a in args]
        assert not by_byte[0].flags.aligned
        with np.errstate(all="ignore"):
            whole = f(*args).view(np.uint64)
            singles = np.array([f(*(a[i : i + 1] for a in args))[0] for i in range(size)])
            views = (
                f(*(np.concatenate([[0.0], a])[1:] for a in args)),
                f(*by_byte),
                f(*(np.repeat(a, 3)[::3] for a in args)),
            )
        for other in (singles, *views):
            assert np.array_equal(whole, other.view(np.uint64))

    def test_every_converse_path_matches_its_scalar_call(self):
        n, d, rho2 = (np.array(column) for column in zip(*_PATH_LANES))
        uncond = unconditional_converse_risk(n, d, rho2)
        block = truncated_converse_risk(n, d, rho2, k_star=44, margin=8.19)
        singles = [truncated_converse_risk(*lane, k_star=44, margin=8.19)
                   for lane in _PATH_LANES]
        assert [_bits(x) for x in block] == [_bits(x) for x in singles]
        assert (block[:6] == uncond[:6]).all()
        assert block[6] > uncond[6]
        assert (block[7:] != uncond[7:]).all()

    @given(
        st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e12),
                           st.floats(min_value=0.0, max_value=1e5),
                           st.floats(min_value=1e-13, max_value=0.98)),
                 min_size=1, max_size=12),
        st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
        st.floats(min_value=-300.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_rates_keep_the_converse_finite(self, lanes, k_star, log_margin):
        # Every rate is a difference of floats, the subtracted one >= 1, so a
        # positive rate is at least 2^-52 (docs/math_notes.md, section 3).
        # Then log_d1 < 38 and log_tail < 37, and the converse needs no
        # overflow fallback for either.
        margin = 10.0**log_margin
        n, d, rho2 = (np.array(column) for column in zip(*lanes))
        k, _ = bounds._k_stars(n, d, k_star, margin)
        kept = k > 0.0
        if not kept.any():
            return
        n, d, rho2 = (column[kept, None] for column in (n, d, rho2))
        k = k[kept]
        ks = k.tolist()
        with bounds._float_errstate():
            schedule = bounds._schedule(n, d, rho2, k, np.stack([k, np.floor(n[:, 0])], axis=1),
                                        margin)
            rates = truncation_exponents(schedule, n, d, rho2)
        for lane, kk in enumerate(ks):
            norm, cross, psi = (float(r[lane]) for r in
                                (rates.deficit_norm, rates.deficit_cross, rates.second_moment))
            for rate in (norm, cross, psi):
                assert not 0.0 < rate < 2.0**-52
            m = min(norm, cross)
            if m > 0.0:
                assert math.log(4.0) - kk * m - np.log(-np.expm1(-m)) < 38.0  # log_d1
            if psi > 0.0:
                assert -kk * psi - np.log(-np.expm1(-psi)) < 37.0  # log_tail

    @pytest.mark.parametrize(
        "bound",
        [unconditional_converse_risk, truncated_converse_risk, recovery_ach_perr,
         recovery_conv_perr],
    )
    @pytest.mark.parametrize("n, d, name", [(-5.0, 10.0, "n"), (0.0, 10.0, "n"),
                                            (10.0, -1.0, "d")])
    def test_nonpositive_n_or_negative_d_is_a_domain_error(self, bound, n, d, name):
        with pytest.raises(DomainError, match=f"{name} must be"):
            bound(n, d, 0.1)
        with pytest.raises(DomainError, match=f"{name} must be"):
            bound(np.array([100.0, n]), np.array([100.0, d]), 0.1)

    def test_nonpositive_n_is_a_domain_error_in_inversion(self):
        with pytest.raises(DomainError, match="n must be > 0"):
            invert_for_rho2("det-conv", -1.0, 10.0, 0.1)


@pytest.mark.parametrize("kind, name", list(_BOUND_NAMES.items()))
def test_inversion_calls_the_bound_once_per_step(monkeypatch, kind, name):
    # The pre-scan is one call and so is each search step: regula falsi takes
    # every pre-scan bracket of the two benchmark grids to INVERT_RTOL in at
    # most 17 steps.  Called once per lane and rho2, det-conv made 2,619
    # calls on the d-grid.
    real = getattr(bounds, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, name, counted)
    d_grid = (np.full(50, 10_000.0), np.linspace(18.420680743952367, 10_000.0, 50))
    n_grid = (np.linspace(10.0, 100_000.0, 20), np.full(20, 1000.0))
    for n, d in (d_grid, n_grid):
        calls.clear()
        invert_for_rho2(kind, n, d, 0.1)
        assert 2 <= len(calls) <= 20
        lanes = 1 if kind == "det-ach" and d is n_grid[1] else d.size
        assert calls[0] == lanes * _PRESCAN.size


@pytest.mark.parametrize("grid, ceiling", [("d", 105), ("n", 93)])
def test_det_ach_inversion_evaluates_g_md_a_bounded_number_of_times(monkeypatch, grid, ceiling):
    # Every evaluation of the bound or of its slope condition is one array
    # call of _g_md.  The benchmark grids' det-ach inversions make 100
    # (d-grid) and 88 (n-grid) calls: per minimization, the scan rows, 5-15
    # root steps and three candidates, and the first-cell probe where it
    # runs.  Golden-section refinement made 281 and 238.
    real, calls = bounds._g_md, []

    def counted(*args):
        calls.append(np.size(args[0]))
        return real(*args)

    monkeypatch.setattr(bounds, "_g_md", counted)
    n, d = {
        "d": (np.full(50, 10_000.0), np.linspace(18.420680743952367, 10_000.0, 50)),
        "n": (np.linspace(10.0, 100_000.0, 20), np.full(20, 1000.0)),
    }[grid]
    invert_for_rho2("det-ach", n, d, 0.1)
    assert len(calls) <= ceiling


def _det_ach_lanes():
    """(n, d, target) blocks: both benchmark grids, then 2,048 random lanes,
    half of them at small d and high targets, whose crossings lie near
    rho^2 = 1, where the minimizer probes its first scan cell."""
    rng = np.random.default_rng(37)
    blocks = [(np.full(50, 10_000.0), np.linspace(18.420680743952367, 10_000.0, 50), 0.1),
              (np.linspace(10.0, 100_000.0, 20), np.full(20, 1000.0), 0.1)]
    wide = 10.0 ** rng.uniform(0.0, 6.0, 1024)
    small = rng.uniform(1.0, 30.0, 1024)
    for i, target in enumerate((0.02, 0.1, 0.3, 0.7)):
        blocks.append((np.ones(256), wide[256 * i : 256 * (i + 1)], target))
    for i, target in enumerate((0.3, 0.5, 0.9, 0.95)):
        blocks.append((np.ones(256), small[256 * i : 256 * (i + 1)], target))
    return blocks


class TestWarmStart:
    """det-ach search steps warm-start each lane's minimizer from the last."""

    def test_warm_steps_reach_the_minimum(self, monkeypatch):
        # The criterion of test_minimizer_reaches_the_minimum, with the full
        # minimizer as reference, on every search step's lanes.
        real, steps = bounds._minimize_lanes, []

        def spy(d, rho2, warm=None):
            gamma, bound, settled = real(d, rho2, warm)
            if warm is not None:
                steps.append((d, rho2, bound, ~np.isnan(warm)))
            return gamma, bound, settled

        monkeypatch.setattr(bounds, "_minimize_lanes", spy)
        for n, d, target in _det_ach_lanes():
            invert_for_rho2("det-ach", n, d, target)
        d, rho2, got, started = (np.concatenate(v) for v in zip(*steps))
        assert started.sum() > 10_000 and (started & (rho2 > 0.9)).sum() > 100
        gamma, full = minimize_two_exponent(d, rho2)
        slack = 1.0 + 1e-12 + 4.0 * _rounding(d, rho2, gamma)
        assert np.all(got <= full * slack)
        assert np.all(full <= got * slack)

    def test_det_ach_cells_are_on_the_reported_side(self):
        for n, d, target in _det_ach_lanes():
            cells = invert_for_rho2("det-ach", n, d, target)
            found = [(nn, dd, r2) for nn, dd, r2 in zip(n, d, cells) if isinstance(r2, float)]
            assert len(found) >= 0.3 * len(cells)
            for nn, dd, r2 in found:
                assert _on_reported_side("det-ach", nn, dd, r2, target)
            # Minimal too, checked as one block (each lane gets its scalar
            # bits), where the cell is not the pre-scan's first point.
            _, dd, r2 = (np.array(column) for column in zip(*found))
            inner = r2 > _PRESCAN[0]
            assert np.all(detection_ach_risk(dd[inner], r2[inner] * (1.0 - 1e-9)) > target)

    @pytest.mark.parametrize("grid", [0, 1], ids=["d-grid", "n-grid"])
    def test_warm_steps_run_no_scan(self, monkeypatch, grid):
        # One 64-point scan row set per minimization at the parent: 10 on the
        # d-grid (the pre-scan and 9 steps) and the pre-scan's first-cell
        # probe.  Now only the pre-scan, the first step and the public
        # confirmation of the final brackets scan.
        real_min, real_rows = bounds._minimize_lanes, bounds._linspace_lanes
        events = []

        def minimize(d, rho2, warm=None):
            events.append("warm" if warm is not None and not np.isnan(warm).all() else "full")
            return real_min(d, rho2, warm)

        def rows(*args):
            events.append("rows")
            return real_rows(*args)

        monkeypatch.setattr(bounds, "_minimize_lanes", minimize)
        monkeypatch.setattr(bounds, "_linspace_lanes", rows)
        n, d, target = _det_ach_lanes()[grid]
        invert_for_rho2("det-ach", n, d, target)
        assert events.count("warm") >= 7
        assert all(b != "rows" for a, b in zip(events, events[1:]) if a == "warm")
        assert events.count("rows") <= 4


@pytest.mark.parametrize(
    "fn, args, match",
    [(unconditional_converse_risk, (10, 10, 1.0), r"rho2 must lie in \[0, 1\)"),
     (g_md, (-1.0, 0.5), "gamma must be nonnegative"),
     (minimize_two_exponent, (10, 0.0), r"rho2 must lie in \(0, 1\)"),
     (chernoff_lambdas, (1.0, 5, 5, 0.0), "rho must be nonzero"),
     (log_mgf_alt, (0.01, 2, 3, 1.0), r"\|rho\| must be < 1"),
     (invert_for_rho2, ("det-ach", 10, 10, 0.0), "target_risk must lie in"),
     (curve_points, ("n", [10.0]), "require a fixed d")],
    ids=["checked-lanes-rho2", "g_md-gamma", "minimize-rho2", "chernoff-rho", "mgf-rho",
         "invert-target", "curve-axis-n"],
)
def test_input_checks_raise_domain_errors(fn, args, match):
    with pytest.raises(DomainError, match=match):
        fn(*args)
