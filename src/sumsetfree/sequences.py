"""Growing sumset-free sequences: greedy prefixes and dyadic random blocks.

A sequence prefix is a finite set of positive integers, so both
constructions return it as a GroundSet over the interval it was grown in.

greedy_sequence scans 1, 2, 3, ... and keeps every integer that does not
complete a forbidden sumset with the terms kept so far, using the
detector's rooted search on the kept terms' index bitset.  For pair sums
this reproduces the classical greedy non-repeating-difference sequence
1, 2, 4, 8, 13, 21, 31, 45, ...

dyadic_random_sequence builds an infinite-sequence prefix block by block:
block m covers [4^(m+2), 4^(m+2) + 4^m), carries a shifted copy of the
progression-free construction for length 4^m, and keeps each element v
independently with probability v^(-alpha), alpha tuned from the signature
plus half the slack epsilon.  The entire sampled union then goes through
the deletion step of random_deletion, so sumsets spanning several blocks
are found too: the maximum of each distinct value set of a forbidden
sumset is deleted and the rest re-checked free.  A block's obstruction
count is the number of distinct value sets whose maximum lies in it.
Both it and the block's retained count are read off the sorted deletion
result, the maxima and the free prefix, by bisecting at the block's ends.
Per-block sample, obstruction, and retention counts are reported
rather than thresholded; at small block counts the sample is sparse and
often empty, and the counts are the observable trend.  Each block draws
from its own deterministically derived stream, so prefixes agree when the
block range grows.

The statistic reported for a prefix A at x is A(x) (x ln x)^(1/P') / x
with A(x) the counting function and P' the product of all summand sizes
but the last, which liminf_statistic takes from the signature; bounded
liminf of this quantity is the density benchmark for pair-sum signatures.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf, log

from .core import (
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    Signature,
    StructureError,
    _check_bits,
    _finite,
    _indices,
    _too_wide,
)
from .construct import DEFAULT_OBSTRUCTION_BUDGET, _delete_maxima, behrend_set
from .detect import _rooted_check


def counting_function(A: GroundSet, x) -> int:
    """Number of elements of the interval set A not exceeding x."""
    if not isinstance(A.ambient, IntegerInterval):
        raise StructureError("counting functions expect an interval set")
    return bisect_right(A.indices, x - A.ambient.lo)


def liminf_statistic(A: GroundSet, sig: Signature, x) -> float:
    """Normalized count A(x) (x ln x)^(1/P') / x at a finite x > 1, by _finite."""
    if not 1 < x < inf:
        raise InvalidInputError(f"statistic needs a finite x > 1, got {x!r}")
    pp = sig.prefix_product
    count = counting_function(A, x)
    # 1 / pp rounds once: 0.0, not OverflowError, past the float range, and
    # past 2^1000 (ln x + ln ln x) / pp is below half an ulp of ln x
    return _finite(
        lambda: count * (x * log(x)) ** (1 / pp) / x,
        lambda: (log(x) + log(log(x))) / min(pp, 2**1000) - log(x),
        "statistic", scale=count,
    )


def greedy_sequence(sig: Signature, limit: int) -> GroundSet:
    """Terms up to limit of the greedy sequence avoiding the signature."""
    if not isinstance(limit, int) or limit < 1:
        raise InvalidInputError(f"limit must be a positive integer, got {limit!r}")
    _check_bits(limit - 1)  # before the walk, which would run limit steps first
    ambient = IntegerInterval(limit)
    check = _rooted_check(ambient, sig.lengths)
    mask = 0
    for i in range(limit):
        grown = mask | 1 << i
        if not check(grown, i):
            mask = grown
    return GroundSet._from_indices(ambient, _indices(mask))


# ---------------------------------------------------------------------------
# dyadic random construction


@dataclass(frozen=True)
class DyadicParams:
    """Parameters of a dyadic run; the run works alpha out from the
    signature and epsilon."""

    epsilon: float
    m_min: int
    m_max: int
    seed: int

    def __post_init__(self):
        if not 0 < self.epsilon < inf:
            raise InvalidInputError("epsilon must be positive and finite")
        if self.epsilon >= 2:
            # dense compares the base size with size^(1 - epsilon/2) <= 1
            raise InvalidInputError("epsilon must be below 2")
        if not isinstance(self.m_min, int) or self.m_min < 1:
            raise InvalidInputError("m_min must be a positive integer")
        if not isinstance(self.m_max, int) or self.m_max < self.m_min:
            raise InvalidInputError("m_max must be an integer >= m_min")


@dataclass(frozen=True)
class BlockOutcome:
    """Observed counts for one dyadic block."""

    m: int
    block_start: int
    block_size: int
    base_size: int
    sampled_size: int
    obstruction_count: int
    retained_size: int
    dense: bool


@dataclass(frozen=True, eq=False)
class DyadicReport:
    """Full outcome of a dyadic run: the free prefix, a set over the
    interval it was freed in, plus per-block counts and the density
    exponent alpha."""

    prefix: GroundSet
    blocks: tuple
    experimental: bool
    alpha: float


def _block_stream(seed: int, m: int) -> random.Random:
    return random.Random(f"{seed}:{m}")


def _is_supported_signature(sig: Signature) -> bool:
    if sig.r < 2:
        return False
    if all(l == 2 for l in sig.lengths):
        return True
    return sig.r == 2 and sig.lengths[0] == 2


def dyadic_random_sequence(
    sig: Signature,
    params: DyadicParams,
    *,
    max_obstructions: int = DEFAULT_OBSTRUCTION_BUDGET,
) -> DyadicReport:
    """Run the dyadic construction over blocks m_min..m_max.

    The density tuning is derived for signatures (2, l) and (2, ..., 2);
    other signatures run with the same formulas and are marked
    experimental in the report.  The same parameters always produce the
    same report, and the returned prefix is verified free.
    """
    alpha = (sig.total - sig.r) / (sig.product - 1) + params.epsilon / 2.0
    top = params.m_max
    # the last index, 4^(top+2) + 4^top - 1, is past 2^30 from m_max = 13
    # and refused before any base; from m_max = 2^16 on it is refused by
    # its 2 top + 5 bits, before a power of up to gigabytes is built
    if top >= 2**16:
        raise _too_wide(f"of {2 * top + 5} bits")
    ambient = IntegerInterval(4 ** (top + 2) + 4**top)
    _check_bits(ambient.n - 1)
    # indices in the interval from 1: the block's value start + j, for j
    # an index of its base, has index start - 1 + j.  The blocks ascend and
    # do not overlap, so the union stays sorted.
    sampled_union: list[int] = []
    drawn = []  # (m, start, size, base size, kept count, dense) per block
    # one base, checked once: block m's is its prefix below 4^m
    values = behrend_set(4**top).indices
    for m in range(params.m_min, top + 1):
        start = 4 ** (m + 2)
        size = 4**m
        base = values[: bisect_left(values, size)]
        stream = _block_stream(params.seed, m)
        kept = [start - 1 + j for j in base if stream.random() < (start + j) ** (-alpha)]
        dense = len(base) >= size ** (1.0 - params.epsilon / 2.0)
        drawn.append((m, start, size, len(base), len(kept), dense))
        sampled_union += kept

    sampled = GroundSet._from_indices(ambient, sampled_union)
    maxima, free = _delete_maxima(sampled, sig, max_obstructions)
    maxima.sort()

    def within(indices, start, size):  # index i holds the value i + 1
        return bisect_left(indices, start - 1 + size) - bisect_left(indices, start - 1)

    blocks = tuple(
        BlockOutcome(
            m, start, size, base_size, kept, within(maxima, start, size),
            within(free.indices, start, size), dense,
        )
        for m, start, size, base_size, kept, dense in drawn
    )
    return DyadicReport(free, blocks, not _is_supported_signature(sig), alpha)
