"""Samplers for the two hypotheses on a pair of Gaussian databases.

Under the independent hypothesis both databases are i.i.d. standard normal.
Under the correlated hypothesis each row of X is built from the matching row
of Y (through the hidden permutation) plus independent Gaussian noise, so that
every entry stays standard normal marginally while matched rows have
feature-wise correlation rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Permutation, ProblemParams, as_generator


@dataclass(frozen=True, eq=False)
class DatabasePair:
    """The two n-by-d feature matrices (rows are users)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError("databases must be 2-d arrays")
        if x.shape != y.shape:
            raise ValueError(f"database shapes differ: {x.shape} vs {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("database entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def d(self) -> int:
        return int(self.x.shape[1])


def sample_null(params: ProblemParams, seed) -> DatabasePair:
    """Independent hypothesis: all 2nd entries i.i.d. standard normal."""
    rng = as_generator(seed)
    x = rng.standard_normal((params.n, params.d))
    y = rng.standard_normal((params.n, params.d))
    return DatabasePair(x, y)


def sample_alt(params: ProblemParams, perm: Permutation, seed) -> DatabasePair:
    """Correlated hypothesis with planted permutation ``perm``.

    X_i = rho * Y_{sigma_i} + sqrt(1 - rho^2) * Z_i with Z independent of Y,
    so corr(X_i[k], Y_{sigma_i}[k]) = rho for every feature k.  The one-pair
    case of :func:`sample_alt_stack`.
    """
    x, y = sample_alt_stack(params, perm, as_generator(seed), 1)
    return DatabasePair(x[0], y[0])


def sample_alt_stack(
    params: ProblemParams, perm: Permutation, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) stacks of shape (size, n, d): ``size`` successive ``sample_alt``
    draws from ``rng``.

    Each pair draws its y block, then its z block, so one
    ``standard_normal((size, 2, n, d))`` call gives every block.  x is
    formed in z's buffer as sqrt(1 - rho^2) z + rho y[sigma], the same
    floats as the sum in the other order.
    """
    params.require_alt()
    if perm.n != params.n:
        raise ValueError(f"permutation length {perm.n} does not match n = {params.n}")
    draws = rng.standard_normal((size, 2, params.n, params.d))
    y, x = draws[:, 0], draws[:, 1]
    x *= np.sqrt(1.0 - params.rho2)
    paired = y[:, perm.map]
    paired *= params.rho
    x += paired
    return x, y
