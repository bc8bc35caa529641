"""Max-weight assignment with dual certificates and lex-min tie-breaking.

Two paths, with one result.  When every row's maximum beats its runner-up
by more than ``n * tol`` and the row argmaxes form a permutation, that
permutation is returned, certified by ``row_duals = row max`` and
``col_duals = 0``.  Otherwise a LAPJV-style solver (Jonker & Volgenant
1987, without augmenting row reduction; O(n^3)) runs on the negated,
shifted score matrix, and an alternating-cycle search (O(n^3) at worst)
turns its matching into the lexicographically smallest one made of tight
edges, whichever optimal duals the solver found.  Either way the
duals certify optimality: ``row_duals[i] + col_duals[j] >= score[i, j]``
everywhere with equality on the matched edges.  An edge counts as tight
when its dual residual is within ``tol = 1e-9 * max(1, max|score|)``.  So
the result is optimal up to that per-edge tolerance (within n times it in
total), not exactly: a permutation that beats it by less than the
tolerance counts as tied.
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
    """Minimum-cost perfect assignment on a dense square matrix (LAPJV-style).

    Column reduction: ``v`` is the column minima, and each column's argmin
    row takes it if still free, columns scanned from last to first.
    Reduction transfer lowers each held column's ``v`` by its row's gap to
    the next-best reduced cost.  Each row left free then runs one Dijkstra
    search for a shortest augmenting path, free columns first among ties
    (all-tied input: one step per row); the duals move once per search, each
    scanned column's ``v`` by its distance minus the path length.  Returns
    (cols_of_rows, u, v) with cost[i, j] - u[i] - v[j] >= 0 everywhere and
    equality on matched edges, up to float error.  Reduction transfer saves
    no time on strongly planted scores, but without it unplanted N(0,1)
    solves take up to 18% longer, and recovery below its threshold, where the
    planted diagonal is lost in the noise, decodes matrices like those.
    """
    n = cost.shape[0]
    v = cost.min(axis=0)
    x = np.full(n, -1, dtype=np.int64)  # x[i]: column held by row i
    # (cost == v).argmax(axis=0) is cost.argmin(axis=0) without a float copy.
    np.maximum.at(x, (cost == v).argmax(axis=0), np.arange(n))
    held = np.flatnonzero(x >= 0)
    y = np.full(n, -1, dtype=np.int64)  # y[j]: row holding column j
    y[x[held]] = held
    if n > 1:  # reduction transfer, 64 held rows at a time: no n×n temporary
        for rows in np.array_split(held, -(-held.size // 64)):
            others = cost[rows]
            others -= v
            others[np.arange(rows.size), x[rows]] = np.inf
            v[x[rows]] -= others.min(axis=1)
    for i in np.flatnonzero(x < 0):
        # Complex argmin orders by real part, then imaginary part: the least
        # distance first and, among ties, a free column (0j) first.
        key = (cost[i] - v) + 1j * (y >= 0)
        d = key.real  # a view: distances from row i
        pred = np.full(n, i)
        todo = np.ones(n, dtype=bool)
        scanned, dist = [], []
        while True:
            j = int(np.argmin(key))
            mu = d[j]
            if y[j] < 0:
                break
            scanned.append(j)
            dist.append(mu)
            todo[j] = False
            d[j] = np.inf
            r = y[j]
            via = cost[r] - v  # distances through r, whose edge j is at mu
            via += mu - via[j]
            better = (via < d) & todo
            np.copyto(d, via, where=better)
            np.copyto(pred, r, where=better)
        v[scanned] += np.subtract(dist, mu)
        while True:
            r = pred[j]
            y[j] = r
            x[r], j = j, x[r]
            if r == i:
                break
    return x, cost[np.arange(n), x] - v[x], v


def _lex_min_tight(tight: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the tight graph.

    Starts from the perfect matching ``match`` (row -> column) and fixes rows
    in order.  With rows before i fixed, row i can take a tight column
    j < match[i] iff an alternating path leads from j back to match[i] through
    rows after i: j's row moves to another tight column, that column's row
    moves on, and so on until one takes match[i].  One backward search from
    match[i] over the rows after i finds every such j at once; the smallest is
    taken and the matching rotated along the cycle.  A row with a single tight
    edge is never on such a cycle, so only rows with more are visited.  Each
    search is O(n^2), O(n^3) in total.
    """
    n = tight.shape[0]
    match = match.copy()
    row_of = np.empty(n, dtype=np.int64)
    row_of[match] = np.arange(n)
    for i in np.flatnonzero(tight.sum(axis=1) > 1):
        target = match[i]
        cand = np.flatnonzero(tight[i, :target])
        cand = cand[row_of[cand] > i]
        if cand.size == 0:
            continue
        # succ[c]: the column that c's row takes when the cycle rotates.
        succ = np.full(n, -1, dtype=np.int64)
        reached = np.zeros(n, dtype=bool)
        reached[target] = True
        open_rows = np.zeros(n, dtype=bool)
        open_rows[i + 1:] = True
        frontier = np.array([target])
        while frontier.size and not reached[cand[0]]:
            into = tight[:, frontier] & open_rows[:, None]
            rows = np.flatnonzero(into.any(axis=1))
            open_rows[rows] = False
            cols = match[rows]
            succ[cols] = frontier[into[rows].argmax(axis=1)]
            reached[cols] = True
            frontier = cols
        hits = cand[reached[cand]]
        if hits.size == 0:
            continue
        path = [int(hits[0])]
        while path[-1] != target:
            path.append(int(succ[path[-1]]))
        cycle_rows = [i] + [int(row_of[c]) for c in path[:-1]]
        match[cycle_rows] = path
        row_of[path] = cycle_rows
    return match


def _argmax_is_certified(score: np.ndarray, argmax: np.ndarray, tol: float) -> bool:
    """Is the row argmax a permutation that beats each runner-up by > n * tol?

    Then every other permutation falls short of it by more than 2n * tol,
    while a perfect matching of JV-tight edges falls short of the dual
    objective, and so of the argmax, by at most n * tol.  The argmax is then
    the only such matching: the JV path would return it too.
    """
    n = score.shape[0]
    if np.bincount(argmax, minlength=n).max() > 1:
        return False
    if n == 1:
        return True
    runner_up = np.partition(score, n - 2, axis=1)[:, n - 2]
    return bool((score[np.arange(n), argmax] - runner_up).min() > n * tol)


def max_assignment(score: np.ndarray) -> AssignmentSolution:
    """Maximizer of sum(score[i, sigma_i]) over permutations, up to a tolerance.

    Edges whose dual residual is within ``1e-9 * max(1, max|score|)`` count
    as tight, and the lexicographically smallest permutation of tight edges
    is returned.  Its total is optimal up to that per-edge tolerance: for
    ``[[1e6, 1e6 + 1e-4], [1e6, 1e6]]`` the identity (2e6) is returned over
    the swap (2e6 + 1e-4).  A row argmax that is a permutation with every
    top-two gap above ``n`` times the tolerance is the only such permutation
    and is returned without running the solver.  Raises DomainError on
    non-square or non-finite input.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise DomainError(f"score matrix must be square, got shape {score.shape}")
    n = score.shape[0]
    if n == 0:
        raise DomainError("score matrix must be nonempty")
    if not np.all(np.isfinite(score)):
        raise DomainError("score matrix must be finite")
    tol = 1e-9 * max(1.0, float(np.abs(score).max()))
    rows = np.arange(n)
    cols_of_rows = score.argmax(axis=1)
    if _argmax_is_certified(score, cols_of_rows, tol):
        row_duals = score[rows, cols_of_rows]
        col_duals = np.zeros(n)
    else:
        shift = float(score.max())
        cols_of_rows, u, v = _jv_min(shift - score)
        row_duals = shift - u
        col_duals = -v
        tight = row_duals[:, None] + col_duals[None, :] - score <= tol
        tight[rows, cols_of_rows] = True
        cols_of_rows = _lex_min_tight(tight, cols_of_rows)
    value = float(score[rows, cols_of_rows].sum())
    return AssignmentSolution(
        cols_of_rows=cols_of_rows,
        row_duals=row_duals,
        col_duals=col_duals,
        value=value,
    )
