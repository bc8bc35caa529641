"""Problem parameters, permutation combinatorics, seeding, and execution.

Everything downstream (samplers, decoders, bounds, oracles) builds on the types
here.  The combinatorial helpers use exact integer arithmetic throughout; the
seeding scheme derives every random stream as a pure function of
``(master_seed, stream_label, index)`` so that Monte-Carlo results never depend
on scheduling or worker count.  Each stream is numpy's PCG64 seeded by
``SeedSequence((master_seed, *label_words, index))``; ``SeedSpec`` passes
that entropy as a uint32 array of its words, which gives the same bits and
spares numpy's conversion of Python ints on each call.  ``parallel_map``
is the one process fan-out, ``count_failures`` the seeded-trial loop of the
detection and recovery simulations (one share of each arm's trials per
worker), and ``binomial_ci`` the one interval for Monte-Carlo error counts.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidAlternateError, SizeCapError

#: Largest n for which integer partitions are enumerated; the exact second
#: moment in ``laws`` is the only user (the count grows super-polynomially beyond).
PARTITION_CAP = 60

#: Largest n for which all of S_n is materialised (8! = 40320 rows).
FACTORIAL_CAP = 8


def parallel_map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, over ``workers`` processes.

    A process pool is used only when ``workers > 1`` and there is more than
    one task, and it holds no more processes than there are tasks or CPUs
    this process may run on (the pool starts every process at once); ``fn``
    must be a module-level function.  A worker's exception is re-raised in
    the caller.
    """
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~2 MB; serial runs skip it

        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks), cpus)) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _count_chunk(args) -> int:
    """Failures of one arm's trials start .. start + size - 1 (one share)."""
    trial, trial_args, spec, start, size = args
    failures = 0
    for index in range(start, start + size):
        if trial(spec.rng(index), *trial_args):
            failures += 1
    return failures


def count_failures(trial, arms, trials: int, workers: int = 1) -> list[int]:
    """Per arm, how many of trials 0 .. trials - 1 make ``trial`` true.

    Each arm is an ``(args, spec)`` pair, and its trial i is
    ``trial(spec.rng(i), *args)``, so the counts do not depend on
    ``workers``.  Each arm's trials are cut into one contiguous share per
    worker, so the one ``parallel_map`` call makes at most
    ``len(arms) * workers`` tasks whatever ``trials`` is; ``trial`` must be
    a module-level function.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    size = -(-trials // max(workers, 1))
    starts = range(0, trials, size)
    tasks = [(trial, args, spec, start, min(size, trials - start))
             for args, spec in arms for start in starts]
    counts = parallel_map(_count_chunk, tasks, workers)
    return [sum(counts[i : i + len(starts)]) for i in range(0, len(counts), len(starts))]


def binomial_ci(count: int, trials: int) -> float:
    """3-sigma half-width of the rate count / trials.

    Degenerate counts (0 or ``trials``) take the rule-of-three radius
    3 / trials instead of a zero-width interval.
    """
    if count == 0 or count == trials:
        return 3.0 / trials
    p = count / trials
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class ProblemParams:
    """Instance descriptor: n users, d features, correlation coefficient rho.

    ``rho`` may be zero when only the independent hypothesis is exercised;
    operations that sample or threshold under the correlated hypothesis call
    :meth:`require_alt` and reject ``rho == 0``.
    """

    n: int
    d: int
    rho: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        rho = float(self.rho)
        if not math.isfinite(rho) or abs(rho) >= 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho!r}")
        object.__setattr__(self, "rho", rho)

    @property
    def rho2(self) -> float:
        return self.rho * self.rho

    @property
    def rho_sign(self) -> int:
        """+1 for rho >= 0, -1 otherwise (the statistic's orientation)."""
        return 1 if self.rho >= 0.0 else -1

    def require_alt(self) -> "ProblemParams":
        if self.rho == 0.0:
            raise InvalidAlternateError(
                "rho = 0 does not define a correlated alternate hypothesis"
            )
        return self


def sign_factor(rho_sign) -> float:
    """The statistic's orientation ``rho_sign``, +1 or -1, as a float; else ``DomainError``."""
    if rho_sign not in (1, -1):
        raise DomainError(f"rho_sign must be +1 or -1, got {rho_sign}")
    return float(rho_sign)


def _uint32_words(values) -> list[int]:
    """The uint32 words SeedSequence reads from a tuple of nonnegative ints.

    Each int gives its little-endian 32-bit words, and 0 gives one word.
    """
    words = []
    for value in values:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return words


@dataclass(frozen=True)
class SeedSpec:
    """Root of a reproducible random-stream tree.

    ``rng(index)`` returns a generator whose state is a pure function of
    ``(master_seed, stream_label, index)``.  Streams for different purposes are
    split off with :meth:`stream`, work units (trials or fixed-size chunks of
    trials) with the ``index`` argument.  Identical inputs give identical
    generators regardless of call order, process, or thread.

    The generator is numpy's PCG64 seeded by
    ``SeedSequence((master_seed, *label_words, index))``, with the same bits
    as ``default_rng`` on that sequence.  ``rng`` hands the SeedSequence
    those entropy words as a uint32 array, which numpy reads as they are, so
    it skips numpy's conversion of Python ints: about 9 us per call in a
    ``timeit`` loop on a 2-core Xeon, against 13-15 us from the tuple.  The
    index-free words are computed once per spec, on the first ``rng`` call.
    """

    master_seed: int
    stream_label: str = "main"
    _label_words: tuple[int, int] = field(init=False, repr=False, compare=False)
    #: uint32 words of (master_seed, *label_words), made on the first rng call.
    _prefix: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}"
            )
        digest = hashlib.sha256(self.stream_label.encode("utf-8")).digest()
        words = (int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big"))
        object.__setattr__(self, "_label_words", words)

    def stream(self, sub_label: str) -> "SeedSpec":
        """A child spec for a named sub-stream."""
        return SeedSpec(self.master_seed, f"{self.stream_label}/{sub_label}")

    def rng(self, index: int = 0) -> np.random.Generator:
        index = operator.index(index)
        if index < 0:
            raise ValueError("index must be nonnegative")
        if self._prefix is None:
            prefix = _uint32_words((self.master_seed, *self._label_words))
            object.__setattr__(self, "_prefix", prefix)
        words = np.array(self._prefix + _uint32_words((index,)), dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def as_seedspec(seed: "SeedSpec | int", label: str = "main") -> SeedSpec:
    """Coerce an integer master seed (or pass through a SeedSpec)."""
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(master_seed=seed, stream_label=label)


def as_generator(seed: "np.random.Generator | SeedSpec | int") -> np.random.Generator:
    """Coerce any accepted seed form into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return as_seedspec(seed).rng()


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on [n], stored as ``map[i] = sigma_i`` (0-based)."""

    map: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.map, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("permutation map must be a nonempty 1-d array")
        n = arr.size
        seen = np.zeros(n, dtype=bool)
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= n:
            raise ValueError("permutation values must lie in [0, n)")
        seen[arr] = True
        if not seen.all():
            raise ValueError("permutation map is not a bijection")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "map", arr)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.map.size)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return bool(np.array_equal(self.map, other.map))

    def __hash__(self) -> int:
        return hash(self.map.tobytes())

    def fixed_point_count(self) -> int:
        return int(np.count_nonzero(self.map == np.arange(self.n)))


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths: ``counts[k-1]`` is the number of k-cycles."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        n = len(counts)
        if n < 1:
            raise ValueError("cycle type must describe a positive n")
        if any(c < 0 for c in counts):
            raise ValueError("cycle counts must be nonnegative")
        if sum((k + 1) * c for k, c in enumerate(counts)) != n:
            raise ValueError("cycle lengths must partition n")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def fixed_points(self) -> int:
        return self.counts[0]


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate with a three-standard-error radius."""

    value: float
    ci_radius: float
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.ci_radius < 0.0:
            raise ValueError("ci_radius must be nonnegative")


def uniform_permutation(n: int, seed: "np.random.Generator | SeedSpec | int") -> Permutation:
    """Draw a permutation uniformly from S_n (each outcome has mass 1/n!)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = as_generator(seed)
    return Permutation(rng.permutation(n))


def cycle_decompose(p: Permutation) -> CycleType:
    """Cycle type of ``p``: counts[k-1] = number of k-cycles."""
    n = p.n
    counts = [0] * n
    visited = np.zeros(n, dtype=bool)
    m = p.map
    for start in range(n):
        if visited[start]:
            continue
        length = 0
        i = start
        while not visited[i]:
            visited[i] = True
            i = int(m[i])
            length += 1
        counts[length - 1] += 1
    return CycleType(tuple(counts))


def cycle_type_count(t: CycleType) -> int:
    """Number of permutations in S_n with cycle type ``t``, exactly.

    The centralizer of a permutation of type {N_k} has order
    prod_k k**N_k * N_k!, so the conjugacy class has n! over that product.
    """
    n = t.n
    denom = 1
    for k, count in enumerate(t.counts, start=1):
        denom *= k**count * math.factorial(count)
    return math.factorial(n) // denom


def enumerate_cycle_types(n: int) -> list[CycleType]:
    """All cycle types of S_n (the integer partitions of n), deterministic order.

    Caps at ``PARTITION_CAP``; ``laws.exact_second_moment`` never needs more.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > PARTITION_CAP:
        raise SizeCapError(f"cycle-type enumeration capped at n <= {PARTITION_CAP}, got {n}")

    types: list[CycleType] = []
    counts = [0] * n

    def descend(remaining: int, largest: int) -> None:
        if remaining == 0:
            types.append(CycleType(tuple(counts)))
            return
        for k in range(min(remaining, largest), 0, -1):
            counts[k - 1] += 1
            descend(remaining - k, k)
            counts[k - 1] -= 1

    descend(n, n)
    return types


@lru_cache(maxsize=None)
def enumerate_permutations(n: int) -> np.ndarray:
    """All of S_n as an (n!, n) int array in lexicographic order.

    Shared by the brute-force decoder and the likelihood-ratio oracle; capped
    at ``FACTORIAL_CAP``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > FACTORIAL_CAP:
        raise SizeCapError(f"S_n enumeration capped at n <= {FACTORIAL_CAP}, got {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    perms.setflags(write=False)
    return perms
