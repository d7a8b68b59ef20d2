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
middle element b: one shift and one AND over 2 * min(b, top - b) + 1 bits
with top < n the span, O(k * n) bit operations in all, done a machine word
at a time.  That is about 0.12 s for the 8192 elements below n = 10^6
(CPython 3.11 on a 2-core x86-64 machine).

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

Every construction works on element indices and makes no element: it
hands sorted, distinct indices to GroundSet._from_indices, which neither
sorts nor maps them again.  zp3_construction emits the index
(dlog u * m + dlog v) * m + dlog w, m = p - 1, already in order;
mixed_radix_embed maps each index to its image by its digits and sorts
once; the l222 interval and the embedding's both start at 0, so the
images are the indices of both.  behrend_set's sorted values x are the
indices of its elements x + 1, and the deletion step samples, deletes
and re-checks indices.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import log

from .core import (
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    Signature,
    StructureError,
    _check_bits,
    _mask,
    _prime_factors,
)
from .detect import _valued, contains_sumset

DEFAULT_OBSTRUCTION_BUDGET = 10**6


def _digits01_values(n: int) -> list[int]:
    """Numbers in [0, n-1] whose ternary digits are all 0 or 1."""
    powers = [1]
    while powers[-1] * 3 <= n - 1:
        powers.append(powers[-1] * 3)
    # the largest power is a value; below 3^19 every value is under 2^30
    _check_bits(powers[-1])
    values = [0]
    for p in powers:
        values += [v + p for v in values if v + p <= n - 1]
    # ascending already: v + p exceeds every earlier value, each at most (p - 1) / 2
    return values


def _has_progression(values: list[int]) -> bool:
    """Exact test for a < b < c in values with a + c = 2b.

    With x = v - min(values) and top the span, forward has bit x and
    mirrored bit top - x, both built by _mask.  For a middle b with
    2b <= top, bit c of (mirrored >> (top - 2b)) & forward is set iff c
    and 2b - c are both values.  Such pairs are symmetric about b and bit
    b is always set, so some progression has middle b iff that AND
    reaches past bit b.  For 2b > top the same holds for
    (forward >> (2b - top)) & mirrored about b' = top - b.  A middle costs
    one shift and one AND over 2 * min(b, top - b) + 1 bits, so k values
    take O(k * span) bit operations in all.
    """
    if not values:
        return False
    lo = min(values)
    offsets = {v - lo for v in values}
    top = max(offsets)
    forward = _mask(offsets)
    mirrored = _mask([top - x for x in offsets])
    for b in offsets:
        if 2 * b <= top:
            if ((mirrored >> (top - 2 * b)) & forward).bit_length() > b + 1:
                return True
        elif ((forward >> (2 * b - top)) & mirrored).bit_length() > top - b + 1:
            return True
    return False


def behrend_set(n: int) -> GroundSet:
    """The progression-free subset of {1, ..., n} of the numbers x + 1 with
    x < n whose ternary digits are all 0 or 1, deterministic in n.

    Behrend's sphere shells are not tried: they are smaller than this set
    at every size where they can be enumerated.  Before it is returned the
    result is re-checked, exactly, for 3-term progressions by the bitset
    sweep of _has_progression: one shift and one AND per element b over
    2 * min(b, top - b) + 1 bits with top < n the span, O(|result| * n) bit
    operations in all.  Past n = 3^19 a value would index beyond the
    2^30-bit limit, so such n raise BudgetExceededError before any value
    is listed.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"interval length must be a positive integer, got {n!r}")
    values = _digits01_values(n)
    if _has_progression(values):
        raise RuntimeError("internal error: constructed set has a 3-term progression")
    return GroundSet._from_indices(IntegerInterval(n), values)  # x + 1 has index x


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

    This is the deletion argument of the paper's probabilistic lower
    bound, a free subset of [1, n] of size about n^(1 - (S - r)/(P - 1))
    (lower_bound_exponent): sample each element independently, then
    delete one element of every surviving sumset.  The paper samples all
    of [1, n] at density n^(-(S - r)/(P - 1)), which balances the
    n^(1 + S - r) sumsets of [1, n], each kept with probability p^P,
    against the sample n p.  Here the base B is the ternary set, |B| =
    n^w with w near log 2 / log 3, and p is tuned with w as written above;
    balancing the same count against the sample n^w p would give the
    exponent (w - 1 + r - S)/(P - 1) instead.  The expected sample |B| p
    grows like n^((w (P - 2) + r - S)/(P - 1)): about n^-0.25 for (2, 2),
    n^-0.10 for (2, 3) and n^0.11 for (2, 2, 2).  So the smallest
    signatures sample almost nothing at any n the bitset limit admits;
    n = 10^6 with (2, 2) samples no element.
    """
    return next(_deletions(n, sig, seed, max_obstructions))


def _deletions(n: int, sig: Signature, seed: int, max_obstructions: int):
    """random_deletion's reports for seeds seed, seed + 1, ... over one base."""
    if sig.r < 2:
        raise InvalidSignatureError("deletion construction needs at least two summands")
    if not isinstance(n, int) or n < 2:
        raise InvalidInputError(f"interval length must be an integer >= 2, got {n!r}")
    base = behrend_set(n)
    omega = log(len(base)) / log(n)
    try:
        exponent = (sig.r - sig.total - omega) / (sig.product - 1)
    except OverflowError:  # P past the float range: divide exactly, then round
        exponent = float(Fraction(sig.r - sig.total - omega) / (sig.product - 1))
    p = 0.5 * n**exponent
    for s in itertools.count(seed):
        rng = random.Random(s)
        # one draw per base element, ascending, as over the elements
        kept = [i for i in base.indices if rng.random() < p]
        sampled = GroundSet._from_indices(base.ambient, kept)
        maxima, result = _delete_maxima(sampled, sig, max_obstructions)
        deleted = GroundSet._from_indices(base.ambient, sorted(set(maxima)))
        yield DeletionReport(n, sig, s, p, len(base), sampled, tuple(deleted), result)


def _delete_maxima(A: GroundSet, sig: Signature, limit: int):
    """(maxima, rest): the index of the largest value of each distinct
    value set of a forbidden sumset in A, one entry per value set, and A
    without them, re-checked free.  At most limit decompositions are
    enumerated."""
    maxima = [vs.bit_length() - 1 for vs in {values for values, _ in _valued(A, sig, limit)}]
    gone = set(maxima)
    rest = GroundSet._from_indices(A.ambient, [i for i in A.indices if i not in gone])
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
    if not isinstance(max_attempts, int) or max_attempts < 1:
        raise InvalidInputError("max_attempts must be at least 1")
    for attempt, report in zip(range(max_attempts), _deletions(n, sig, seed, max_obstructions)):
        if len(report.result) >= report.success_threshold:
            return report, attempt + 1, True
    return report, max_attempts, False


# ---------------------------------------------------------------------------
# algebraic construction in (Z/(p-1))^3


def primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    if not isinstance(p, int) or next(_prime_factors(p), None) != p or p < 3:
        raise InvalidInputError(f"expected an odd prime, got {p!r}")
    totient_factors = list(_prime_factors(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in totient_factors):
            return g
    raise RuntimeError(f"no primitive root found for {p}")


def zp3_construction(p: int) -> GroundSet:
    """Discrete-log triples of u + v + w = 1 mod p with u, v, w not in {0, 1}.

    The set lives in (Z/(p-1))^3 and has exactly (p - 3)^2 elements, one
    per admissible (u, v) pair.  It contains no sumset of three pairs, and
    its intersections with translates of itself avoid repeated differences.
    A group of more than 2^30 elements raises BudgetExceededError before
    p is tested for primality, whose trial division would run for as long
    as sqrt(p) steps take, so such a p is refused even when composite.
    """
    if isinstance(p, int):
        _check_bits((p - 1) ** 3 - 1)
    if not isinstance(p, int) or next(_prime_factors(p), None) != p or p < 5:
        raise InvalidInputError(f"expected a prime >= 5, got {p!r}")
    m = p - 1
    theta = primitive_root(p)
    power = [pow(theta, e, p) for e in range(m)]
    dlog = {x: e for e, x in enumerate(power)}
    # Each (dlog u, dlog v) = (a, b) with u, v != 1 (a, b >= 1) fixes the
    # triple, whose index is (a m + b) m + dlog w with dlog w < m, so a
    # and b ascending list the indices in order: nothing to sort.
    indices = []
    for a in range(1, m):
        row, rest = a * m, 1 - power[a]
        indices += [
            (row + b) * m + dlog[w] for b in range(1, m) if (w := (rest - power[b]) % p) > 1
        ]
    return GroundSet._from_indices(CyclicProduct((m, m, m)), indices)


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
    ambient = IntegerInterval(2 ** (len(moduli) - 1) * A.ambient.cardinality - 1, lo=0)
    # index to image, one pass per coordinate; the interval starts at 0,
    # so an image is its own index
    images = [0] * len(A)
    for s, m, w in zip(A.ambient.strides, moduli, weights):
        images = [v + i // s % m * w for v, i in zip(images, A.indices)]
    images.sort()
    return GroundSet._from_indices(ambient, images)


def integer_l222_prime(n: int) -> int:
    """Largest prime p with 4 (p - 1)^3 <= n; defined for n >= 256.

    p is the first prime at or below q = icbrt(n // 4) + 1, the least q
    with 4 q^3 > n.  Past q = 2^20, where that scan stops being instant,
    p >= 647, and BudgetExceededError names the image bound of p = 647,
    4 * 646^2 * 645 = 1 076 675 280 >= 2^30, before any primality test."""
    if not isinstance(n, int) or n < 256:
        raise InvalidInputError(f"interval length must be an integer >= 256, got {n!r}")
    q = bisect.bisect(range(2**20 + 1), n // 4, key=lambda x: x**3)
    if q > 2**20:
        _check_bits(4 * 646**2 * 645)
    while next(_prime_factors(q)) != q:
        q -= 1
    return q


def integer_l222_construction(n: int) -> GroundSet:
    """A subset of [0, n) of size (p - 3)^2 without three-summand pair sums,
    obtained by embedding the prime construction for the largest
    admissible p.

    Some triple has last coordinate p - 2 (w = 1/theta), so the largest
    image is at least 4 (p - 1)^2 (p - 2); when that passes the bitset
    limit, BudgetExceededError is raised before any triple is listed."""
    p = integer_l222_prime(n)
    _check_bits(4 * (p - 1) ** 2 * (p - 2))
    embedded = mixed_radix_embed(zp3_construction(p))
    # both intervals start at 0, so the indices carry over as they are
    return GroundSet._from_indices(IntegerInterval(n - 1, lo=0), embedded.indices)
