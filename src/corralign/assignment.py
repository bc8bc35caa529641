"""Max-weight assignment with dual certificates and lex-min tie-breaking.

Shortest-augmenting-path solver (Jonker–Volgenant style, O(n^3)) run on the
negated, shifted score matrix.  The returned row/column duals certify
optimality: ``row_duals[i] + col_duals[j] >= score[i, j]`` everywhere with
equality on the matched edges.  An edge counts as tight when its dual
residual is within ``1e-9 * max(1, max|score|)``; among the assignments
made of tight edges, the lexicographically smallest permutation is
returned.  So the result is optimal up to that per-edge tolerance (within
n times it in total), not exactly: a permutation that beats it by less
than the tolerance counts as tied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class AssignmentSolution:
    """A maximizing assignment plus its dual certificate."""

    cols_of_rows: np.ndarray
    row_duals: np.ndarray
    col_duals: np.ndarray
    value: float

    @property
    def n(self) -> int:
        return self.cols_of_rows.shape[0]

    def certificate_gap(self, score: np.ndarray) -> float:
        """Worst violation of dual feasibility / complementary slackness.

        Zero (up to float error) iff the solution is optimal for ``score``.
        """
        resid = self.row_duals[:, None] + self.col_duals[None, :] - score
        feas = -float(resid.min())  # positive if some a_i + b_j < S_ij
        slack = float(np.abs(resid[np.arange(self.n), self.cols_of_rows]).max())
        return max(feas, slack)


def _jv_min(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost perfect assignment on a dense square matrix.

    Classic augmenting-path scheme with potentials; arrays are 1-indexed with
    column 0 as the virtual start of each alternating tree.  Returns
    (cols_of_rows, u, v) with cost[i, j] - u[i] - v[j] >= 0 everywhere and
    equality on matched edges.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j]: 1-based row matched to column j
    way = np.zeros(n + 1, dtype=np.int64)
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[cols[better]] = j0
            cand = np.where(free, minv[1:], np.inf)
            jm = int(np.argmin(cand))
            delta = cand[jm]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = jm + 1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_of_col = p[1:] - 1
    cols_of_rows = np.empty(n, dtype=np.int64)
    cols_of_rows[row_of_col] = np.arange(n)
    return cols_of_rows, u[1:].copy(), v[1:].copy()


def _kuhn_feasible(tight: np.ndarray, start_row: int, col_taken: np.ndarray) -> bool:
    """Can rows start_row..n-1 be perfectly matched into the free columns?"""
    n = tight.shape[0]
    match_col = np.full(n, -1, dtype=np.int64)

    def try_row(r: int, visited: np.ndarray) -> bool:
        for j in np.nonzero(tight[r] & ~col_taken)[0]:
            if not visited[j]:
                visited[j] = True
                if match_col[j] == -1 or try_row(int(match_col[j]), visited):
                    match_col[j] = r
                    return True
        return False

    for r in range(start_row, n):
        if not try_row(r, np.zeros(n, dtype=bool)):
            return False
    return True


def _lex_min_tight(tight: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of a feasible tight graph."""
    n = tight.shape[0]
    chosen = np.full(n, -1, dtype=np.int64)
    col_taken = np.zeros(n, dtype=bool)
    for i in range(n):
        for j in np.nonzero(tight[i] & ~col_taken)[0]:
            col_taken[j] = True
            if _kuhn_feasible(tight, i + 1, col_taken):
                chosen[i] = j
                break
            col_taken[j] = False
        if chosen[i] == -1:
            raise RuntimeError("tight subgraph lost feasibility during refinement")
    return chosen


def max_assignment(score: np.ndarray) -> AssignmentSolution:
    """Maximizer of sum(score[i, sigma_i]) over permutations, up to a tolerance.

    Edges whose dual residual is within ``1e-9 * max(1, max|score|)`` count
    as tight, and the lexicographically smallest permutation of tight edges
    is returned.  Its total is optimal up to that per-edge tolerance: for
    ``[[1e6, 1e6 + 1e-4], [1e6, 1e6]]`` the identity (2e6) is returned over
    the swap (2e6 + 1e-4).  Raises DomainError on non-square or non-finite
    input.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise DomainError(f"score matrix must be square, got shape {score.shape}")
    n = score.shape[0]
    if n == 0:
        raise DomainError("score matrix must be nonempty")
    if not np.all(np.isfinite(score)):
        raise DomainError("score matrix must be finite")
    shift = float(score.max())
    cols_of_rows, u, v = _jv_min(shift - score)
    row_duals = shift - u
    col_duals = -v
    tol = 1e-9 * max(1.0, float(np.abs(score).max()))
    tight = row_duals[:, None] + col_duals[None, :] - score <= tol
    tight[np.arange(n), cols_of_rows] = True
    if np.any(tight.sum(axis=1) > 1):
        cols_of_rows = _lex_min_tight(tight)
    value = float(score[np.arange(n), cols_of_rows].sum())
    return AssignmentSolution(
        cols_of_rows=cols_of_rows,
        row_duals=row_duals,
        col_duals=col_duals,
        value=value,
    )
