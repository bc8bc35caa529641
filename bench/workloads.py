"""The four benchmark workloads, their measured calls and their output checks.

Each workload is built from ``(seed, smoke)`` alone.  One *round* is one
measured call into corralign (two for ``analytic``); round ``k`` always gets
the same inputs at the same seed, so its outputs are comparable across runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corralign import align, cli, detect, gen, oracle
from corralign.core import Permutation, ProblemParams, SeedSpec
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CSV = ROOT / "data" / "reference" / "curve_vs_d_n10000_risk0.1.csv"
REFERENCE_GRID = (18.420680743952367, 10000.0, 50)

#: Half-width of the binomial interval around the exact detection law, in
#: standard deviations.  See NOTES.md for why this is 4 and not 3.
LAW_SIGMAS = 4.0

#: Worker count of the ``verify`` command (the 2 cores of the reference box).
VERIFY_THREADS = 2

#: Share of ``recover-planted`` inputs (full size, smoke size) whose score
#: matrix has a row argmax that is a permutation, each measured once over
#: 40,000 inputs; see NOTES.md.
PLANTED_ARGMAX_PERM_SHARE = {False: 0.94005, True: 0.91575}


@dataclass(frozen=True)
class Round:
    """One measured round: the workload's unit-rate call and its command."""

    main_s: float
    command_s: float
    total_s: float
    output: object
    #: The stratum of a stratified workload's input, else None.
    stratum: object = None


class Checks:
    """Counts output checks; a failed one is kept with its description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _law_interval_ok(count: int, trials: int, p: float) -> bool:
    """``count`` lies within LAW_SIGMAS binomial sd of ``trials * p``.

    The half-width never drops below 3 counts (the rule-of-three floor).
    """
    half = max(LAW_SIGMAS * math.sqrt(trials * p * (1.0 - p)), 3.0)
    return abs(count - trials * p) <= half


def _chi2_difference_sf(c1: float, c2: float, t: float, d: int) -> float:
    """P(c1 A - c2 B >= t) for independent chi-square_d variables A and B."""
    from scipy import integrate, stats

    lo, hi = stats.chi2.ppf(1e-16, d), stats.chi2.isf(1e-16, d)
    value, _ = integrate.quad(
        lambda b: stats.chi2.pdf(b, d) * stats.chi2.sf((t + c2 * b) / c1, d),
        lo, hi, limit=400, points=[d],
    )
    return value


def exact_detection_rates(params: ProblemParams, threshold: float) -> tuple[float, float]:
    """Exact false-alarm and missed-detection rates of the threshold test.

    T/n = ((1+|rho|)/2) A - ((1-|rho|)/2) B with A, B independent chi2_d;
    rho = 0 gives the null law.
    """
    r = abs(params.rho)
    t = threshold / params.n
    fa = _chi2_difference_sf(0.5, 0.5, t, params.d)
    md = 1.0 - _chi2_difference_sf((1.0 + r) / 2.0, (1.0 - r) / 2.0, t, params.d)
    return fa, md


def argmax_is_permutation(score: np.ndarray) -> bool:
    """Each row's maximum is strict and no two rows share its column."""
    top2 = np.sort(score, axis=1)[:, -2:] if score.shape[1] > 1 else None
    strict = top2 is None or bool(np.all(top2[:, 1] > top2[:, 0]))
    argmax = np.argmax(score, axis=1)
    return strict and np.unique(argmax).size == argmax.size


class Workload:
    """Defaults: a round's typical time is the median over the run's rounds."""

    capture = ()
    #: Processes that run a round's command (``command_s``) at once.
    command_processes = 1

    def round_s(self, times: list[float], rounds: list[Round]) -> float:
        return statistics.median(times)

    def enough(self, rounds: list[Round]) -> bool:
        return True


class Detect(Workload):
    """``monte_carlo_risk`` rounds: Gaussian draws plus column sums."""

    name = "detect"

    def __init__(self, seed: int, smoke: bool):
        n, d, rho2 = (20, 200, 0.05) if smoke else (100, 2000, 0.005)
        self.params = ProblemParams(n, d, math.sqrt(rho2))
        self.threshold = detect.nominal_threshold(self.params)
        self.trials = 16
        self.units = self.trials  # null+alt trial pairs per round
        self.seed = seed

    def _call(self, k: int) -> tuple[int, int]:
        spec = SeedSpec(self.seed, f"bench/detect/{k}")
        est = detect.monte_carlo_risk(self.params, self.threshold, self.trials, spec)
        return round(est.fa_rate * self.trials), round(est.md_rate * self.trials)

    def round(self, k: int) -> Round:
        t, out = _timed(self._call, k)
        return Round(t, t, t, out)

    def traced(self, k: int, tracer, checks: Checks) -> tuple[int, int]:
        tracer.round = k
        with tracer.patched(), tracer.span("detect.monte_carlo_risk", 2 * self.trials) as s:
            fa, md = self._call(k)
        s.attrs.update(fa=fa, md=md)
        return fa, md

    def check(self, outputs: list, checks: Checks) -> None:
        checks.expect(self._call(0) == outputs[0], "detect: round 0 repeats exactly")
        total = self.trials * len(outputs)
        p_fa, p_md = exact_detection_rates(self.params, self.threshold)
        fa = sum(o[0] for o in outputs)
        md = sum(o[1] for o in outputs)
        checks.expect(_law_interval_ok(fa, total, p_fa),
                      f"detect: {fa} false alarms in {total} trials, exact rate {p_fa:.5f}")
        checks.expect(_law_interval_ok(md, total, p_md),
                      f"detect: {md} missed detections in {total} trials, exact rate {p_md:.5f}")


class Recover(Workload):
    """``recovery_error_mc`` rounds: sampling, score matrix, assignment."""

    capture = ("gen.sample_alt", "align.ml_decode", "assignment.max_assignment")

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        if name == "recover-planted":
            # One trial per round, stratified by whether the input's row
            # argmax is a permutation; see round_s.
            n, d, scale, trials = (40, 60, 2.0, 1) if smoke else (500, 300, 2.0, 1)
            self.perm_share = PLANTED_ARGMAX_PERM_SHARE[smoke]
        else:
            n, d, scale, trials = (30, 60, 0.8, 4) if smoke else (200, 300, 0.8, 2)
            self.perm_share = None
        rho2 = scale * (1.0 - n ** (-4.0 / d))
        self.params = ProblemParams(n, d, math.sqrt(rho2))
        self.trials = trials
        self.units = trials
        self.seed = seed

    def _spec(self, k: int) -> SeedSpec:
        return SeedSpec(self.seed, f"bench/{self.name}/{k}")

    def _call(self, k: int) -> int:
        est = align.recovery_error_mc(self.params, self.trials, self._spec(k))
        return round(est.value * self.trials)

    def _argmax_perm(self, k: int) -> bool:
        """Whether round ``k``'s input has a row argmax that is a permutation.

        Redraws the input as ``recovery_error_mc`` draws its trial 0.
        """
        rng = self._spec(k).rng(0)
        planted = Permutation(rng.permutation(self.params.n))
        pair = gen.sample_alt(self.params, planted, rng)
        return argmax_is_permutation(align.score_matrix(pair, 1.0))

    def round(self, k: int) -> Round:
        t, out = _timed(self._call, k)
        stratum = None if self.perm_share is None else self._argmax_perm(k)
        return Round(t, t, t, out, stratum)

    def round_s(self, times: list[float], rounds: list[Round]) -> float:
        """Mean time of a trial over the input law.

        On ``recover-planted``, trials whose row argmax is not a permutation
        (about 1 in 17) take ~15x longer than the others, and how many of
        them a run draws varies from seed to seed.  The mean is therefore
        taken within each stratum and weighted by the stratum's share of the
        law, measured once, so that a run's figure does not depend on how
        many slow inputs its seed drew.
        """
        if self.perm_share is None:
            return super().round_s(times, rounds)
        means = {stratum: statistics.fmean(t for t, r in zip(times, rounds)
                                           if r.stratum == stratum)
                 for stratum in (True, False)}
        return self.perm_share * means[True] + (1.0 - self.perm_share) * means[False]

    def enough(self, rounds: list[Round]) -> bool:
        """Every stratum has a round."""
        return self.perm_share is None or {r.stratum for r in rounds} == {True, False}

    def traced(self, k: int, tracer, checks: Checks) -> int:
        """One traced round; checks every trial against scipy's optimum."""
        from scipy.optimize import linear_sum_assignment

        first = len(tracer.spans)
        tracer.round = k
        with tracer.patched(), tracer.span("align.recovery_error_mc", self.trials):
            failures = self._call(k)
        by_trial: dict[str, dict] = {}
        for s in tracer.spans[first:]:
            if s.capture is not None:
                by_trial.setdefault(s.trial, {})[s.name] = s
        replicated = 0
        for trial, spans in by_trial.items():
            (_, planted, _), _ = spans["gen.sample_alt"].capture
            _, decoded = spans["align.ml_decode"].capture
            solve = spans["assignment.max_assignment"]
            (score,), solution = solve.capture
            rows, cols = linear_sum_assignment(score, maximize=True)
            optimum = float(score[rows, cols].sum())
            checks.expect(
                abs(decoded.score - optimum) <= 1e-9 * max(1.0, abs(optimum)),
                f"{self.name} trial {trial}: score {decoded.score!r} vs optimum {optimum!r}",
            )
            gap = solution.certificate_gap(score)
            # The solver's own tight-edge tolerance.
            tol = 1e-9 * max(1.0, float(np.abs(score).max()))
            checks.expect(gap <= tol, f"{self.name} trial {trial}: certificate gap {gap!r}")
            exact = decoded.perm == planted
            replicated += not exact
            solve.attrs.update(gap=gap, argmax_perm=argmax_is_permutation(score))
            spans["align.ml_decode"].attrs["exact"] = exact
            for s in spans.values():
                s.capture = None
        checks.expect(
            len(by_trial) == self.trials and replicated == failures,
            f"{self.name} round {k}: {replicated} replicated failures vs {failures} reported",
        )
        return failures

    def check(self, outputs: list, checks: Checks) -> None:
        checks.expect(self._call(0) == outputs[0], f"{self.name}: round 0 repeats exactly")
        replayed = self.traced(0, Tracer(self.capture), checks)
        checks.expect(replayed == outputs[0], f"{self.name}: traced round 0 matches")


class Analytic(Workload):
    """The in-process CLI: ``curve`` on the reference grid, then ``verify``."""

    name = "analytic"
    command_processes = VERIFY_THREADS

    def __init__(self, seed: int, smoke: bool):
        start, stop, count = REFERENCE_GRID
        if smoke:
            # The first three reference grid points.
            stop, count = start + 2 * (stop - start) / (count - 1), 3
        self.curve_argv = ["curve", "--axis", "d", "--grid", f"{start!r}:{stop!r}:{count}",
                           "--n", "10000", "--risk", "0.1"]
        # The oracle's seed stays 0: see NOTES.md on verify seeds.
        self.verify_argv = ["verify", "--seed", "0", "--threads", str(VERIFY_THREADS)]
        self.units = count  # curve grid points per round
        self.seed = seed

    @staticmethod
    def _cli(argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def round(self, k: int) -> Round:
        t_curve, curve = _timed(self._cli, self.curve_argv)
        t_verify, verify = _timed(self._cli, self.verify_argv)
        return Round(t_curve, t_verify, t_curve + t_verify, (curve, verify))

    def traced(self, k: int, tracer, checks: Checks):
        """One traced round, plus every oracle check run through the registry."""
        tracer.round, tracer.trial = k, str(k)
        with tracer.patched():
            with tracer.span("cli.main", "curve"):
                curve = self._cli(self.curve_argv)
            with tracer.span("cli.main", "verify"):
                verify = self._cli(self.verify_argv)
            reported = {c["name"]: c for c in json.loads(verify[1])["checks"]}
            for name in oracle.VERIFY_CHECKS:
                tracer.trial = str(k)
                with tracer.span("oracle.check", name):
                    res = oracle._REGISTRY[name](SeedSpec(0, f"verify/{name}"))
                same = reported.get(name) == {
                    "name": res.name, "passed": res.passed, "statistic": res.statistic,
                    "reference": res.reference, "detail": res.detail,
                }
                checks.expect(same, f"analytic: registry run of {name} differs from verify")
        return curve, verify

    def check(self, outputs: list, checks: Checks) -> None:
        reference = _read_curve(REFERENCE_CSV.read_text())
        for curve, verify in outputs:
            checks.expect(curve == outputs[0][0], "analytic: curve bytes repeat exactly")
            checks.expect(verify == outputs[0][1], "analytic: verify bytes repeat exactly")
            checks.expect(curve[0] == 0, f"analytic: curve exit code {curve[0]}")
            rows = _read_curve(curve[1])
            checks.expect(len(rows) == self.units, "analytic: curve row count")
            for axis, row in rows.items():
                ref = next((r for a, r in reference.items()
                            if math.isclose(a, axis, rel_tol=1e-12)), None)
                checks.expect(ref is not None, f"analytic: axis {axis!r} not in reference")
                if ref is None:
                    continue
                for col, rel in (("rho2_det_ach", 1e-4), ("rho2_rec_ach", 1e-3)):
                    checks.expect(_close(row[col], ref[col], rel),
                                  f"analytic: {col} at d={axis!r}: {row[col]} vs {ref[col]}")
            code, text = verify
            report = json.loads(text)
            checks.expect(code == 0, f"analytic: verify exit code {code}")
            checks.expect(
                report["passed"] and len(report["checks"]) == len(oracle.VERIFY_CHECKS),
                "analytic: verify reports passed",
            )


def _read_curve(text: str) -> dict[float, dict[str, float | None]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[float(cells[0])] = {
            h: (float(c) if c else None) for h, c in zip(header[1:], cells[1:])
        }
    return rows


def _close(value, ref, rel: float) -> bool:
    """Relative agreement; an empty cell matches an empty or unreachable one.

    The reference files write rho2 = 1 where the target is unreachable on
    (0, 1); ``corralign curve`` leaves that cell empty.
    """
    if value is None or ref is None:
        return value is None and (ref is None or ref >= 1.0)
    return abs(value - ref) <= rel * abs(ref)


def fingerprint(workload, output) -> str:
    """A stable digest of a round's output, compared across runs."""
    if isinstance(workload, Analytic):
        (cc, curve), (vc, verify) = output
        return hashlib.sha256(f"{cc}\n{curve}\n{vc}\n{verify}".encode()).hexdigest()
    return repr(output)


def make(name: str, seed: int, smoke: bool):
    if name == "detect":
        return Detect(seed, smoke)
    if name in ("recover-planted", "recover-threshold"):
        return Recover(name, seed, smoke)
    if name == "analytic":
        return Analytic(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")

