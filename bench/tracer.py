"""In-memory spans around calls into corralign's public functions.

A :class:`Tracer` swaps selected module attributes for thin wrappers while its
``patched()`` context is open, so every call that the library makes through
those names records one span (name, start, end, parent, trial id).  Nothing in
the library changes; the wrappers sit on the names the library's own modules
look up at call time.  Spans stay in memory and are written out once, at the
end of a run.  Per-layer metrics are computed from the spans alone.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from corralign import align, bounds, core, detect, oracle

LAYERS = ("core", "gen", "detect", "align", "assignment", "bounds", "oracle", "cli")


def _rng_index(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("index", 0)


def _normals(args, kwargs):
    params = args[0]
    return 2 * params.n * params.d


def _score_flops(args, kwargs):
    pair = args[0]
    return 2 * pair.n * pair.n * pair.d


def _first_arg(args, kwargs):
    return args[0]


#: (owner, attribute, span name, tag function): the names the library looks
#: up at call time, so wrapping them sees every internal call.
TARGETS = (
    (core.SeedSpec, "rng", "core.SeedSpec.rng", _rng_index),
    (align, "Permutation", "core.Permutation", None),
    (align, "sample_alt", "gen.sample_alt", _normals),
    (align, "ml_decode", "align.ml_decode", None),
    (align, "score_matrix", "align.score_matrix", _score_flops),
    (align, "max_assignment", "assignment.max_assignment", None),
    (detect, "threshold_test", "detect.threshold_test", None),
    (bounds, "curve_points", "bounds.curve_points", None),
    (bounds, "invert_for_rho2", "bounds.invert_for_rho2", _first_arg),
    (bounds, "detection_ach_risk", "bounds.detection_ach_risk", None),
    (oracle, "verify", "oracle.verify", None),
)


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "trial", "error", "attrs", "capture")

    def __init__(self, name, tag, parent, trial):
        self.name = name
        self.tag = tag
        self.parent = parent
        self.trial = trial
        self.start = self.end = 0
        self.error = False
        self.attrs = {}
        self.capture = None

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "tag": self.tag,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "trial": self.trial,
            "error": self.error,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans; ``capture`` names spans that keep their args and result."""

    def __init__(self, capture=()):
        self.spans: list[Span] = []
        self.capture = frozenset(capture)
        self.round = 0
        self.trial = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, tag=None):
        index = len(self.spans)
        record = Span(name, tag, self._stack[-1] if self._stack else None, self.trial)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter_ns()
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, tag_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_fn(args, kwargs) if tag_fn else None
            if name == "core.SeedSpec.rng":
                tracer.trial = f"{tracer.round}/{tag}"
            with tracer.span(name, tag) as record:
                result = fn(*args, **kwargs)
            if name in tracer.capture:
                record.capture = (args, result)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, tag_fn), (_, _, original) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, original, tag_fn))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans: list[Span], check_names, threads: int) -> dict[str, float]:
    """Every per-layer metric, computed from the spans alone.

    A metric of a layer that did not run reads 0.  ``threads`` is the worker
    count the traced ``verify`` command used.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.dur_ns
    self_ns = {id(s): s.dur_ns - child_ns[i] for i, s in enumerate(spans)}
    wall_ns = sum(s.dur_ns for s in spans if s.parent is None)
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = [s for s in spans if s.name.split(".", 1)[0] == layer]
        busy_ns = sum(self_ns[id(s)] for s in own)
        out[f"{layer}.calls"] = len(own)
        out[f"{layer}.self_s"] = busy_ns / 1e9
        out[f"{layer}.share"] = busy_ns / wall_ns if wall_ns else 0.0

    def named(name):
        return [s for s in spans if s.name == name]

    ms = lambda group: [s.dur_ns / 1e6 for s in group]  # noqa: E731

    out["core.rng_us"] = _median([s.dur_ns / 1e3 for s in named("core.SeedSpec.rng")])

    samples = named("gen.sample_alt")
    out["gen.sample_alt_ms.p50"] = _median(ms(samples))
    out["gen.sample_alt_ms.p90"] = _p90(ms(samples))
    out["gen.normals_per_s"] = _median([s.tag / (s.dur_ns / 1e9) for s in samples])

    draws = named("detect.monte_carlo_risk")
    out["detect.draw_us"] = _median([self_ns[id(s)] / 1e3 / s.tag for s in draws])
    out["detect.fa_count"] = sum(s.attrs.get("fa", 0) for s in draws)
    out["detect.md_count"] = sum(s.attrs.get("md", 0) for s in draws)

    scores = named("align.score_matrix")
    out["align.score_matrix_ms.p50"] = _median(ms(scores))
    out["align.score_gflops"] = _median([s.tag / s.dur_ns for s in scores])
    decodes = [s for s in named("align.ml_decode") if "exact" in s.attrs]
    out["align.exact_recovery_ratio"] = _mean([s.attrs["exact"] for s in decodes])

    solves = named("assignment.max_assignment")
    out["assignment.max_assignment_ms.p50"] = _median(ms(solves))
    out["assignment.max_assignment_ms.p90"] = _p90(ms(solves))
    checked = [s for s in solves if "gap" in s.attrs]
    out["assignment.argmax_perm_ratio"] = _mean([s.attrs["argmax_perm"] for s in checked])
    out["assignment.certificate_gap_max"] = max((s.attrs["gap"] for s in checked), default=0.0)

    inversions = named("bounds.invert_for_rho2")
    for kind in bounds.BOUND_KINDS:
        out[f"bounds.invert_ms.{kind}"] = _median(ms(s for s in inversions if s.tag == kind))
    out["bounds.detection_ach_risk_us"] = _median(
        [s.dur_ns / 1e3 for s in named("bounds.detection_ach_risk")]
    )
    out["bounds.undefined_inversions"] = sum(s.error for s in inversions)

    checks = named("oracle.check")
    for name in check_names:
        out[f"oracle.check_ms.{name}"] = _median(ms(s for s in checks if s.tag == name))

    overheads, efficiencies = [], []
    for i, s in enumerate(spans):
        if s.name != "cli.main":
            continue
        if s.tag == "curve":
            inner = sum(c.dur_ns for c in spans
                        if c.parent == i and c.name == "bounds.curve_points")
            overheads.append((s.dur_ns - inner) / 1e6)
        elif s.tag == "verify":
            round_checks = sum(c.dur_ns for c in checks if c.trial == s.trial)
            efficiencies.append(round_checks / (threads * s.dur_ns))
    out["cli.curve_overhead_ms"] = _median(overheads)
    out["cli.verify_parallel_efficiency"] = _median(efficiencies)
    return out
