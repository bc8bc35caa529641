"""Problem parameters, permutation combinatorics, seeding, and execution.

Everything downstream (samplers, decoders, bounds, oracles) builds on the types
here.  The combinatorial helpers use exact integer arithmetic throughout; the
seeding scheme derives every random stream as a pure function of
``(master_seed, stream_label, index)`` so that Monte-Carlo results never depend
on scheduling or worker count.  Each stream is numpy's PCG64 seeded by
``SeedSequence((master_seed, *label_words, index))``, with unchanged bits;
``SeedSpec`` only computes those seed words itself, from a pool hashed once
per spec, instead of building a ``SeedSequence`` per index.  ``parallel_map``
is the one process fan-out, ``count_failures`` the one seeded-trial loop (one
share of each arm's trials per worker), and ``binomial_ci`` the one interval
for Monte-Carlo error counts.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidAlternateError, SizeCapError

#: Largest n for which integer partitions are enumerated; the oracle's exact
#: second moment is the only user (the count grows super-polynomially beyond).
PARTITION_CAP = 60

#: Largest n for which all of S_n is materialised (8! = 40320 rows).
FACTORIAL_CAP = 8


def parallel_map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, over ``workers`` processes.

    A process pool is used only when ``workers > 1`` and there is more than
    one task, and it holds no more processes than there are tasks; ``fn``
    must be a module-level function.  A worker's exception is re-raised in
    the caller.
    """
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~2 MB; serial runs skip it

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): entropy is read
# as uint32 words into a pool of four with INIT_A/MULT_A, and seed words are
# drawn from the pool with INIT_B/MULT_B.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(values) -> list[int]:
    """The uint32 words SeedSequence reads from a tuple of nonnegative ints.

    Each int gives its little-endian 32-bit words, and 0 gives one word.
    """
    words = []
    for value in values:
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``: the hashed value and the next constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two uint32 words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _absorb(pool, hash_const: int, words) -> tuple[list[int], int]:
    """Mix ``words`` into a copy of ``pool``, each into every pool word.

    This is how SeedSequence takes the entropy words past the pool's size.
    It runs on every ``SeedSpec.rng`` call, so ``_hashmix`` and ``_mix`` are
    written out inline.
    """
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
    return pool, hash_const


def _mix_entropy(words) -> tuple[list[int], int]:
    """SeedSequence's pool, and its hash constant, after reading ``words``."""
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, hash_const = _hashmix(words[i] if i < len(words) else 0, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    return _absorb(pool, hash_const, words[_POOL_SIZE:])


def _state_constants() -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of each uint32 that ``generate_state(4, uint64)`` draws."""
    constants = []
    hash_const = _INIT_B
    for _ in range(8):  # four uint64 words, two uint32 halves each
        after = hash_const * _MULT_B & _MASK32
        constants.append((hash_const, after))
        hash_const = after
    return tuple(constants)


_STATE_CONSTANTS = _state_constants()


def _pcg64_words(pool) -> list[int]:
    """``generate_state(4, np.uint64)`` of a SeedSequence with this pool."""
    h = []
    for i, (xor, mult) in enumerate(_STATE_CONSTANTS):
        value = (pool[i % _POOL_SIZE] ^ xor) * mult & _MASK32
        h.append(value ^ value >> 16)
    # Little-endian pairs of uint32 words, as numpy views them as uint64.
    return [h[0] | h[1] << 32, h[2] | h[3] << 32, h[4] | h[5] << 32, h[6] | h[7] << 32]


def _seed_words(entropy) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as Python ints."""
    return _pcg64_words(_mix_entropy(_uint32_words(entropy))[0])


@lru_cache(maxsize=None)
def _seed_words_type():
    """The seed-sequence class behind ``SeedSpec.rng``, made on first use.

    It is made here, not at import, because subclassing numpy's interface
    loads ``numpy.random``, which ``import corralign`` does not need.
    """
    from numpy.random.bit_generator import ISpawnableSeedSequence

    class SeedWords(ISpawnableSeedSequence):
        """``SeedSequence(entropy)`` for PCG64, its four seed words precomputed.

        PCG64 reads only ``generate_state(4, np.uint64)``, which returns the
        words.  Anything else (spawning, other state sizes, pickling) goes to
        the real ``SeedSequence(entropy)``, built on first need, so it acts
        exactly as that sequence would.
        """

        def __init__(self, entropy: tuple, words: list[int]):
            self.entropy = entropy
            self._words = words
            self._sequence = None

        def sequence(self):
            if self._sequence is None:
                self._sequence = np.random.SeedSequence(self.entropy)
            return self._sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:
                return np.array(self._words, dtype=np.uint64)
            return self.sequence().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self.sequence().spawn(n_children)

        def __reduce__(self):
            return self.sequence().__reduce__()

    return SeedWords


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
    as ``default_rng`` on that sequence.  The index-free part of the hash is
    done once per spec, on the first ``rng`` call, so each call hashes only
    the index's words and makes no ``SeedSequence``.
    """

    master_seed: int
    stream_label: str = "main"
    _label_words: tuple[int, int] = field(init=False, repr=False, compare=False)
    #: (pool, hash constant) after the index-free entropy; the pool is None
    #: when those words do not fill it and each index needs the full hash.
    _prefix: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        return replace(self, stream_label=f"{self.stream_label}/{sub_label}")

    def rng(self, index: int = 0) -> np.random.Generator:
        index = operator.index(index)
        if index < 0:
            raise ValueError("index must be nonnegative")
        if self._prefix is None:
            words = _uint32_words((self.master_seed, *self._label_words))
            prefix = _mix_entropy(words) if len(words) >= _POOL_SIZE else (None, 0)
            object.__setattr__(self, "_prefix", prefix)
        pool, hash_const = self._prefix
        entropy = (self.master_seed, *self._label_words, index)
        if pool is None:
            seed_words = _seed_words(entropy)
        else:
            seed_words = _pcg64_words(_absorb(pool, hash_const, _uint32_words((index,)))[0])
        return np.random.Generator(np.random.PCG64(_seed_words_type()(entropy, seed_words)))


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

    Caps at ``PARTITION_CAP``; the oracle's exact second moment never needs more.
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
