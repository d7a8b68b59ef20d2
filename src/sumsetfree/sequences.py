"""Growing sumset-free sequences: greedy prefixes and dyadic random blocks.

greedy_sequence scans 1, 2, 3, ... and keeps every integer that does not
complete a forbidden sumset with the terms kept so far, using the
detector's rooted search on the kept terms' index bitset.  For pair sums
this reproduces the classical greedy non-repeating-difference sequence
1, 2, 4, 8, 13, 21, 31, 45, ...

dyadic_random_sequence builds an infinite-sequence prefix block by block:
block m covers [4^(m+2), 4^(m+2) + 4^m), carries a shifted copy of the
progression-free construction for length 4^m, and keeps each element v
independently with probability v^(-alpha), alpha tuned from the signature
plus half the slack epsilon.  Obstructions are enumerated over the entire
sampled union, so sumsets spanning several blocks are found too, and the
maximum of each obstruction's value set is deleted, which leaves a free
set.  Per-block sample, obstruction, and retention counts are reported
rather than thresholded; at small block counts the sample is sparse and
often empty, and the counts are the observable trend.  Each block draws
from its own deterministically derived stream, so prefixes agree when the
block range grows.

The statistic reported for a prefix at x is A(x) (x ln x)^(1/P') / x with
A(x) the counting function and P' the product of all summand sizes but
the last; bounded liminf of this quantity is the density benchmark for
pair-sum signatures.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import inf, isfinite, log

from .core import (
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    Signature,
)
from .construct import DEFAULT_OBSTRUCTION_BUDGET, behrend_set
from .detect import _bitsets, _indices, _rooted, contains_sumset, enumerate_sumsets


@dataclass(frozen=True, eq=False)
class SequencePrefix:
    """A finite prefix of an increasing sumset-free integer sequence."""

    signature: Signature
    terms: tuple
    provenance: str

    def __post_init__(self):
        terms = self.terms
        if any(not isinstance(t, int) or t < 1 for t in terms):
            raise InvalidInputError("sequence terms must be positive integers")
        if list(terms) != sorted(set(terms)):
            raise InvalidInputError("sequence terms must be strictly increasing")

    def __len__(self) -> int:
        return len(self.terms)


def counting_function(prefix: SequencePrefix, x) -> int:
    """Number of terms not exceeding x."""
    return bisect_right(prefix.terms, x)


def liminf_statistic(prefix: SequencePrefix, x) -> float:
    """Normalized count A(x) (x ln x)^(1/P') / x at the finite point x > 1."""
    if not 1 < x < inf:
        raise InvalidInputError(f"statistic needs a finite x > 1, got {x!r}")
    pp = prefix.signature.prefix_product
    try:
        stat = counting_function(prefix, x) * (x * log(x)) ** (1.0 / pp) / x
    except OverflowError:  # an int x too large for a float
        stat = inf
    if not isfinite(stat):
        raise InvalidInputError(f"statistic overflows a float at x = {x!r}")
    return stat


def greedy_sequence(sig: Signature, limit: int) -> SequencePrefix:
    """Terms up to limit of the greedy sequence avoiding the signature."""
    if not isinstance(limit, int) or limit < 1:
        raise InvalidInputError(f"limit must be a positive integer, got {limit!r}")
    ambient = IntegerInterval(limit)
    bits = _bitsets(ambient)
    mask = 0
    for i in range(limit):
        grown = mask | 1 << i
        if not _rooted(bits, grown, i, sig.lengths):
            mask = grown
    terms = tuple(map(ambient.element_at, _indices(mask)))
    return SequencePrefix(sig, terms, f"greedy limit={limit}")


# ---------------------------------------------------------------------------
# dyadic random construction


@dataclass(frozen=True)
class DyadicParams:
    """Parameters of a dyadic run; alpha is fixed by signature and epsilon."""

    epsilon: float
    m_min: int
    m_max: int
    seed: int
    alpha: float

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
        if not 0 < self.alpha < inf:
            raise InvalidInputError("alpha must be positive and finite")

    @classmethod
    def for_signature(
        cls, sig: Signature, epsilon: float, m_min: int, m_max: int, seed: int
    ) -> "DyadicParams":
        alpha = (sig.total - sig.r) / (sig.product - 1) + epsilon / 2.0
        return cls(epsilon, m_min, m_max, seed, alpha)


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
    """Full outcome of a dyadic run: the free prefix plus per-block counts."""

    signature: Signature
    params: DyadicParams
    prefix: SequencePrefix
    blocks: tuple
    experimental: bool


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
    expected = DyadicParams.for_signature(
        sig, params.epsilon, params.m_min, params.m_max, params.seed
    ).alpha
    if abs(params.alpha - expected) > 1e-12:
        raise InvalidInputError(
            "alpha does not match the signature; build params with for_signature"
        )
    block_data = []
    sampled_union: list[int] = []
    for m in range(params.m_min, params.m_max + 1):
        start = 4 ** (m + 2)
        size = 4**m
        base = behrend_set(size)
        shifted = [start - 1 + b for b in base.elements]
        stream = _block_stream(params.seed, m)
        kept = [v for v in shifted if stream.random() < v ** (-params.alpha)]
        dense = len(base) >= size ** (1.0 - params.epsilon / 2.0)
        block_data.append((m, start, size, len(base), kept, dense))
        sampled_union.extend(kept)

    top = params.m_max
    ambient = IntegerInterval(4 ** (top + 2) + 4**top)
    union_set = GroundSet(ambient, sampled_union)
    value_sets = set()
    for witness in enumerate_sumsets(union_set, sig, limit=max_obstructions):
        value_sets.add(frozenset(witness.values()))
    maxima = {max(vs) for vs in value_sets}

    blocks = []
    for m, start, size, base_size, kept, dense in block_data:
        obstruction_count = sum(
            1 for vs in value_sets if start <= max(vs) < start + size
        )
        retained = [v for v in kept if v not in maxima]
        blocks.append(
            BlockOutcome(
                m, start, size, base_size, len(kept), obstruction_count,
                len(retained), dense,
            )
        )

    terms = tuple(sorted(v for v in sampled_union if v not in maxima))
    prefix = SequencePrefix(
        sig,
        terms,
        f"dyadic epsilon={params.epsilon} m={params.m_min}..{params.m_max} "
        f"seed={params.seed}",
    )
    if terms and contains_sumset(GroundSet(ambient, terms), sig) is not None:
        raise RuntimeError("internal error: dyadic deletion left a forbidden sumset")
    return DyadicReport(
        sig, params, prefix, tuple(blocks), not _is_supported_signature(sig)
    )
