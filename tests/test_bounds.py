import hashlib
import math
import re
import tracemalloc
import warnings
from pathlib import Path

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
    mgf_null,
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

    def test_detection_risk_decreasing_in_rho2(self):
        grid = np.geomspace(1e-4, 0.9, 40)
        vals = [detection_ach_risk(500, float(r2)) for r2 in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


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
        assert mgf_null(lam, n, d) == pytest.approx((1.0 - (n * lam) ** 2) ** (-d / 2))

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
            mgf_null(0.5, 2, 3)  # |lam| >= 1/n
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
            t = truncated_converse_risk(n, 100.0, 1e-6)
            assert t == unconditional_converse_risk(n, 100.0, 1e-6)
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
        assert digest == "dbaf988e4e92cc4d4ee20cf788c92cf8ac350ac267aed2f808262431437bbdb4"

    def test_zero_rho2_is_the_unconditional_bound(self):
        assert truncated_converse_risk(100, 10, 0.0) == 1.0

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

    def test_conv_below_target_at_left_edge_raises(self):
        with pytest.raises(InversionUndefinedError, match="below target .* everywhere"):
            invert_for_rho2("det-conv", 1000, 500, 0.999999)

    # A NaN compares false against the target, which read as "met" and gave
    # the first pre-scan point, 1e-13.
    @pytest.mark.filterwarnings("error")
    def test_nan_d_is_rejected_by_det_ach(self):
        with pytest.raises(DomainError, match="d must be >= 1"):
            invert_for_rho2("det-ach", 100, math.nan, 0.1)

    @pytest.mark.filterwarnings("error")
    def test_nan_prescan_is_undefined(self):
        with pytest.raises(InversionUndefinedError, match="NaN"):
            invert_for_rho2("rec-ach", math.nan, 100, 0.1)


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

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            curve_points("x", [1.0], n=10)
        with pytest.raises(DomainError):
            curve_points("d", [100.0])  # missing fixed n


def _bits(x) -> str:
    return float(x).hex()


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
    def test_curve_blocks_match_single_points(self, workers, axis, fixed, values):
        with np.errstate(over="ignore"):
            points, notes = curve_points(axis, values, workers=workers, **fixed)
            singles = [curve_points(axis, [v], **fixed) for v in values]
        assert points == [p for ps, _ in singles for p in ps]
        assert notes == [m for _, ms in singles for m in ms]

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


def test_one_golden_section_loop():
    """The golden-section constant, and so the golden loop, lives in one place."""
    golden = re.compile(r"sqrt\(5(\.0)?\)\s*-\s*1(\.0)?\)\s*/\s*2")
    sources = {p.name: p.read_text() for p in Path(corralign.__file__).parent.glob("*.py")}
    hits = {name: len(golden.findall(text)) for name, text in sources.items()}
    assert {name: k for name, k in hits.items() if k} == {"bounds.py": 1}


def test_golden_min_stops_at_max_iter():
    """An objective that never converges (all NaN) ends after max_iter steps."""
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    x, fx = bounds._golden_min(f, np.array([0.0, 1.0]), np.array([1.0, 3.0]), max_iter=37)
    assert len(calls) == 2 + 37  # the two start points, then one per step
    assert np.isnan(fx).all()
    assert ((x >= [0.0, 1.0]) & (x <= [1.0, 3.0])).all()
