"""Ten end-to-end acceptance checks, one per numbered criterion.

Each test prints one ``ACCEPTANCE k PASS|FAIL`` line in the terminal summary
(see conftest).  Runtime budgets are asserted inside the tests themselves.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corralign import bounds, oracle
from corralign.align import brute_force_decode, ml_decode, recovery_error_mc
from corralign.core import (
    Permutation,
    ProblemParams,
    SeedSpec,
    cycle_decompose,
    enumerate_cycle_types,
    enumerate_permutations,
)
from corralign.detect import monte_carlo_risk, nominal_threshold, optimal_gamma
from corralign.gen import DatabasePair
from corralign.laws import exact_second_moment, second_moment_reduction
from corralign.oracle import (
    gaussian_chaos_check,
    laurent_massart_check,
    mc_second_moment,
    tv_risk_lower_bound_mc,
)

WORKERS = min(4, os.cpu_count() or 1)


def _rate_slack(p: float, trials: int) -> float:
    """3-sigma half-width of one binomial rate (rule of three when degenerate)."""
    if p <= 0.0 or p >= 1.0:
        return 3.0 / trials
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


@pytest.mark.criterion(1)
def test_criterion_1_detection_anchor_values():
    t0 = time.monotonic()
    anchors = {1000.0: 0.0240385162, 10000.0: 0.0023973206}
    for d, expected in anchors.items():
        got = bounds.invert_for_rho2("det-ach", 10_000, d, 0.1)
        assert abs(got - expected) / expected <= 1e-4, (d, got)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.criterion(2)
def test_criterion_2_detection_curve_n_independent():
    t0 = time.monotonic()
    at_small_n = bounds.invert_for_rho2("det-ach", 100, 1000, 0.1)
    at_large_n = bounds.invert_for_rho2("det-ach", 20_000, 1000, 0.1)
    assert at_small_n == at_large_n  # bitwise
    assert time.monotonic() - t0 < 1.0


@pytest.mark.criterion(3)
def test_criterion_3_alternate_mgf_monte_carlo():
    t0 = time.monotonic()
    configs = [(2, 3, 0.5, 0.05), (3, 2, -0.4, 0.03), (2, 2, 0.7, -0.1)]
    trials = 1_000_000
    batch = 100_000
    for cfg_index, (n, d, rho, lam) in enumerate(configs):
        closed = bounds.mgf_alt(lam, n, d, rho)
        # Variance sanity: 2*lambda must stay inside the MGF strip.
        bounds.mgf_alt(2.0 * lam, n, d, rho)
        u = math.sqrt(1.0 - rho * rho)
        sign = 1.0 if rho > 0 else -1.0
        spec = SeedSpec(1000 + cfg_index, "acceptance/mgf")
        total = 0.0
        total_sq = 0.0
        for b in range(trials // batch):
            rng = spec.rng(b)
            y = rng.standard_normal((batch, n, d))
            x = rho * y + u * rng.standard_normal((batch, n, d))
            t_stat = sign * np.einsum("bd,bd->b", x.sum(axis=1), y.sum(axis=1))
            w = np.exp(lam * t_stat)
            total += float(w.sum())
            total_sq += float((w * w).sum())
        mean = total / trials
        var = total_sq / trials - mean * mean
        assert abs(mean - closed) <= 3.0 * math.sqrt(var / trials), (n, d, rho, lam)
    assert time.monotonic() - t0 < 120.0


@pytest.mark.criterion(4)
def test_criterion_4_second_moment_oracle():
    t0 = time.monotonic()
    # Exact path: cycle-type formula == full S_n census, same arithmetic.
    for n in range(1, 7):
        census: dict[tuple[int, ...], int] = {}
        for row in enumerate_permutations(n):
            t = cycle_decompose(Permutation(row.copy()))
            census[t.counts] = census.get(t.counts, 0) + 1
        types = enumerate_cycle_types(n)
        assert set(census) == {t.counts for t in types}
        seq = [(t, census[t.counts]) for t in types]
        for d in (1, 2, 5):
            for rho2 in (0.01, 0.1, 0.3):
                assert second_moment_reduction(seq, n, d, rho2) == exact_second_moment(
                    n, d, rho2
                )
    # Monte-Carlo agreement at 1e6 trials for n <= 3.  The sampled L^2 needs
    # a finite variance for the 3-sigma interval to mean anything, which
    # requires rho^2 < 1/9; both rho values below satisfy that.
    for n, d, rho in [(2, 2, 0.1), (3, 2, 0.1), (2, 2, 0.3), (3, 1, 0.3)]:
        est = mc_second_moment(n, d, rho, 1_000_000, 2000 + n)
        exact = exact_second_moment(n, d, rho * rho)
        assert abs(est.value - exact) <= est.ci_radius, (n, d, rho)
    assert time.monotonic() - t0 < 180.0


@pytest.mark.criterion(5)
def test_criterion_5_risk_bound_soundness():
    t0 = time.monotonic()
    for d, n, rho2 in [(2000, 100, 0.05), (500, 50, 0.2)]:
        params = ProblemParams(n=n, d=d, rho=math.sqrt(rho2))
        est = monte_carlo_risk(
            params, nominal_threshold(params), 10_000, 3000 + n, workers=WORKERS
        )
        slack = _rate_slack(est.fa_rate, est.trials) + _rate_slack(
            est.md_rate, est.trials
        )
        _, minimized = optimal_gamma(params)
        assert est.risk() <= minimized + slack, (d, n, rho2)
        assert est.risk() <= 2.0 * math.exp(-d * rho2 / 60.0) + slack, (d, n, rho2)
    assert time.monotonic() - t0 < 120.0


@pytest.mark.criterion(6)
def test_criterion_6_ml_decoder():
    t0 = time.monotonic()
    rng = np.random.default_rng(4000)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 6))
        pair = DatabasePair(
            x=rng.standard_normal((n, d)), y=rng.standard_normal((n, d))
        )
        rho = float(rng.uniform(0.1, 0.9)) * (1 if rng.random() < 0.5 else -1)
        assert ml_decode(pair, rho).score == brute_force_decode(pair, rho).score
    assert time.monotonic() - t0 < 60.0

    t1 = time.monotonic()
    n, d = 50, 100
    rho2 = 1.0 - n ** (-8.0 / d)
    params = ProblemParams(n=n, d=d, rho=math.sqrt(rho2))
    est = recovery_error_mc(params, 2000, 4001, workers=WORKERS)
    bound = bounds.recovery_ach_perr(n, d, rho2)
    assert est.value <= bound + est.ci_radius  # ci_radius is the 3-sigma width
    assert time.monotonic() - t1 < 120.0


@pytest.mark.criterion(7)
def test_criterion_7_inequality_grids():
    t0 = time.monotonic()
    names = [
        "exponent-floor-fa",
        "exponent-floor-md",
        "closed-min-quadratic",
        "sqrt-cube-envelope",
        "balanced-tuning-slack",
        "sqrt-floor-family",
    ]
    for name in names:
        fn = oracle._REGISTRY[name]
        result = fn(SeedSpec(0, f"verify/{name}"))
        assert result.passed, (name, result.statistic, result.detail)
    assert time.monotonic() - t0 < 30.0


@pytest.mark.criterion(8)
def test_criterion_8_concentration_tails():
    # Each bound is checked against the exact tail plus its error.
    t0 = time.monotonic()
    d = 50
    alpha = np.linspace(0.2, 3.0, d)
    res = laurent_massart_check(d, alpha, [1.0, 5.0, 10.0, 20.0])
    assert res.passed, res.detail
    cross = oracle.aligned_cross_term_matrix(0.6, 5)
    res2 = gaussian_chaos_check(cross, [1.0, 3.0, 8.0, 15.0])
    assert res2.passed, res2.detail
    diag = np.diag(np.linspace(-0.4, 0.5, 6))
    res3 = gaussian_chaos_check(diag, [1.0, 4.0, 10.0])
    assert res3.passed, res3.detail
    assert time.monotonic() - t0 < 180.0


@pytest.mark.criterion(9)
def test_criterion_9_converse_machinery():
    t0 = time.monotonic()
    # (a) Truncated converse never falls below the unconditional one, and the
    # comparison grid genuinely exercises the nontrivial region.
    nontrivial = 0
    for n in (100, 1000, 10_000):
        for d in (100, 1000):
            for rho2 in np.geomspace(1e-9, 1e-2, 8):
                t = bounds.truncated_converse_risk(n, d, float(rho2))
                u = bounds.unconditional_converse_risk(n, d, float(rho2))
                assert t >= u, (n, d, rho2)
                nontrivial += t > 0.0
    assert nontrivial >= 10

    # (b) Schedule exponents stay positive under the preconditions at the
    # default margin.
    for n, d, rho2 in [
        (10_000, 1000, 1e-5),
        (10_000, 10_000, 1e-6),
        (1000, 1000, 1e-5),
        (1000, 500, 3e-5),
    ]:
        sch = bounds.truncation_schedule(n, d, rho2, margin=0.1)
        assert sch.valid
        ex = bounds.truncation_exponents(sch, n, d, rho2)
        assert ex.deficit_norm > 0 and ex.deficit_cross > 0 and ex.second_moment > 0

    # (c) Emitted curves keep the converse below the achievable curve.
    for axis, values, fixed in [
        ("d", np.linspace(100, 10_000, 8), {"n": 10_000.0}),
        ("n", np.linspace(100, 20_000, 8), {"d": 1000.0}),
    ]:
        points, _ = bounds.curve_points(axis, values, **fixed)
        for p in points:
            if p.rho2_det_ach is not None and p.rho2_det_conv is not None:
                assert p.rho2_det_conv <= p.rho2_det_ach

    # (d) TV-based MC risk floor vs the closed-form converse at small n.
    for n, d, rho2 in [(4, 2, 0.001), (3, 5, 0.01)]:
        est = tv_risk_lower_bound_mc(n, d, math.sqrt(rho2), 100_000, 6000 + n)
        floor = bounds.unconditional_converse_risk(n, d, rho2)
        assert est.value >= floor - est.ci_radius, (n, d, rho2)
    assert time.monotonic() - t0 < 180.0


@pytest.mark.criterion(10)
def test_criterion_10_byte_identical_reports(tmp_path):
    t0 = time.monotonic()
    src = str(Path(bounds.__file__).resolve().parents[1])

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "corralign", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    run(["verify", "--seed", "0", "--threads", "1", "--format", "json", "--out", str(v1)])
    run(["verify", "--seed", "0", "--threads", "4", "--format", "json", "--out", str(v2)])
    assert v1.read_bytes() == v2.read_bytes()
    assert json.loads(v1.read_text())["passed"] is True

    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    curve = ["curve", "--axis", "d", "--grid", "100:10000:5", "--n", "10000"]
    run(curve + ["--threads", "1", "--out", str(c1)])
    run(curve + ["--threads", "3", "--out", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()
    assert time.monotonic() - t0 < 600.0
