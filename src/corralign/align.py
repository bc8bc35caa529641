"""Planted-permutation recovery: exact ML decoding and its Monte-Carlo error.

The joint Gaussian log-likelihood of a candidate alignment differs across
permutations only through sign(rho) * sum_i <X_i, Y_{sigma_i}> (row norms are
permutation sums and cancel), so exact ML decoding is a max-weight
assignment on the inner-product score matrix; see docs/math_notes.md for the
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import max_assignment
from .core import (
    MCEstimate,
    Permutation,
    ProblemParams,
    as_seedspec,
    binomial_ci,
    count_failures,
)
from .errors import DomainError, InvalidAlternateError, SizeCapError
from .gen import DatabasePair, sample_alt

#: Largest n for which brute-force decoding (n! enumeration) is allowed.
BRUTE_FORCE_CAP = 8


@dataclass(frozen=True)
class AlignmentResult:
    """A decoded permutation and its aligned-sum score."""

    perm: Permutation
    score: float


def score_matrix(pair: DatabasePair, rho_sign: float) -> np.ndarray:
    """S[i, j] = rho_sign * <X_i, Y_j>; decoding maximizes its trace-sum."""
    if rho_sign not in (1.0, -1.0, 1, -1):
        raise DomainError(f"rho_sign must be +1 or -1, got {rho_sign}")
    return float(rho_sign) * (pair.x @ pair.y.T)


def _require_corr(rho: float) -> float:
    rho = float(rho)
    if rho == 0.0:
        raise InvalidAlternateError("decoding requires rho != 0")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    return 1.0 if rho > 0.0 else -1.0


def ml_decode(pair: DatabasePair, rho: float) -> AlignmentResult:
    """Maximum-likelihood alignment via O(n^3) assignment.

    The score is maximal up to ``max_assignment``'s per-edge tie tolerance
    (``1e-9 * max(1, max|S|)``); among permutations tied within it, the
    lexicographically smallest one is returned.
    """
    sign = _require_corr(rho)
    solution = max_assignment(score_matrix(pair, sign))
    return AlignmentResult(perm=Permutation(solution.cols_of_rows), score=solution.value)


def brute_force_decode(pair: DatabasePair, rho: float) -> AlignmentResult:
    """Exhaustive argmax over all n! alignments (n <= 8); ties break lex-smallest."""
    from .core import enumerate_permutations

    sign = _require_corr(rho)
    n = pair.n
    if n > BRUTE_FORCE_CAP:
        raise SizeCapError(f"brute force decoding is capped at n = {BRUTE_FORCE_CAP}")
    s = score_matrix(pair, sign)
    perms = enumerate_permutations(n)
    scores = s[np.arange(n), perms].sum(axis=1)
    best = int(np.argmax(scores))  # first occurrence = lex-smallest tie
    return AlignmentResult(perm=Permutation(perms[best]), score=float(scores[best]))


def _decode_fails(rng, params: ProblemParams) -> bool:
    """Whether ML decoding misses the permutation planted in one seeded trial."""
    planted = Permutation(rng.permutation(params.n))
    pair = sample_alt(params, planted, rng)
    return ml_decode(pair, params.rho).perm != planted


def recovery_error_mc(
    params: ProblemParams,
    trials: int,
    seed,
    workers: int = 1,
) -> MCEstimate:
    """Fraction of planted uniform permutations that exact ML decoding misses.

    Each trial draws its own permutation and databases from (seed, trial
    index), so the estimate is identical for any worker count.
    """
    params.require_alt()
    spec = as_seedspec(seed, "align/recovery-error")
    (failures,) = count_failures(_decode_fails, [((params,), spec)], trials, workers)
    return MCEstimate(
        value=failures / trials, ci_radius=binomial_ci(failures, trials), trials=trials
    )
