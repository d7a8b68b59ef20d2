"""Detection and enumeration of fixed-shape sumsets inside ground sets.

A sumset L1 + ... + Lr with first summand D = {0, d2, ..., d_l1} lies in
A exactly when L2 + ... + Lr lies in the intersection of the translates
A - d over d in D.  The detector therefore draws D from the nonzero
differences of A, intersects, and recurses on the signature tail; for a
single summand the question is whether |A| >= l1.

Everything runs on bitsets.  An element is its linearized index and a set
is a Python int with bit i set for the element at index i, starting from
GroundSet.bitmask.  Translating an interval set is one shift; in a
product group it is one masked shift pair per coordinate, one shift for
the digits that do not wrap and one for those that do; the mask of a
digit is built the first time a shift needs it, and a product of more
than 2^30 elements is refused with BudgetExceededError.  Intersection is
AND, its size int.bit_count(), and the differences of A are the OR of the
translates A - a over a in A.  Element tuples appear only in witnesses.
The branch-and-bound search and the greedy sequences keep their growing
set as such a bitset too and call the rooted check (_rooted) on it, and
the sum hypergraph reads its edges off the translates A - s.

The rooted check asks whether a sumset in the set passes through one
member, the root, and answers for each candidate they try.  It and the
detection walk read one level plan, built once per signature and
ambient: for each summand but the last, its size l and the least number
of values the summands after it take.  On an interval a level with l = 2
walks the other members a directly, lowest first, at one shift (up or
down by |a - root|), one AND and one popcount each; larger summands and
every level in a product group take their shift sets from _Bitsets.meets.

Shifts d2 < ... < d_l1 are taken in increasing linearized order and the
first witness found is returned, so detection is deterministic.  For
integer intervals only positive shifts are needed (the canonical first
summand has minimum zero); in a product group every nonzero difference
is a candidate.  A level is skipped before any intersection when A
repeats too few differences to fit the summand: each of its l1 - 1
shifts d needs at least the tail's least number of values in A & (A - d),
while those sizes less one, summed over all differences d, come to the number
of pairs less the number of differences, one popcount (see
_decompositions).  On the discrete-log sets of construct.zp3_construction
the full (2,2,2) scan keeps a single level of intersections.

Enumeration yields every canonical decomposition exactly once; distinct
decompositions may share a value set, so counts of decompositions and of
value sets are reported separately.  The kernel yields once per last
level the earlier summands, as shift tuples, and the mask whose
l_r-subsets, first index the offset, complete them; shifts of the last
summand are taken only for a witness.  contains_sumset takes the first
l_r indices of the first level that holds them.  Enumeration, counting
and the deletion step of the constructions read one budgeted walk,
_valued, which pairs each l_r-subset with its value set, an index
bitmask read off those indices, not off a witness.  Witnesses are built
from the decompositions; counting and the deletion step keep only the
bitmasks, whose largest value is the bit length less one, and never
build element tuples.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    _MAX_BITS,
    Ambient,
    BudgetExceededError,
    Element,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    PreconditionError,
    Signature,
    StructureError,
    SumsetWitness,
    _grid,
    elem_sub,
)

DEFAULT_DECOMPOSITION_BUDGET = 10**7


def _indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _DigitMasks(dict):
    """high[dj]: the indices whose digit at one coordinate is at least dj.

    Every mask has one bit per group element, so a mask is built on first
    use and then kept; building all of them up front costs a bit per
    element for every residue of every modulus.  ones, bit 0 of every
    period, is built on first use too, by doubling: dividing the all-ones
    mask by 2^period - 1 would take CPython's quadratic long division.
    """

    def __init__(self, stride: int, period: int, size: int):
        super().__init__()
        self.stride, self.period, self.size = stride, period, size
        self.ones = None

    def __missing__(self, dj: int) -> int:
        if self.ones is None:
            ones, width = 1, self.period
            while width < self.size:
                ones |= ones << width
                width *= 2
            self.ones = ones & ((1 << self.size) - 1)
        mask = self[dj] = ((1 << self.period) - (1 << dj * self.stride)) * self.ones
        return mask


class _Bitsets:
    """Shifts and differences of index bitsets over one ambient.  A shift d
    is the index of a group element, or any integer offset in an interval."""

    def __init__(self, ambient: Ambient):
        self.ambient = ambient
        self.digits = None  # per coordinate, last first: stride, modulus, masks
        if isinstance(ambient, IntegerInterval):
            return
        size = ambient.cardinality
        if size > _MAX_BITS:
            raise BudgetExceededError(
                f"product of {size} elements exceeds the bitset limit of {_MAX_BITS} bits"
            )
        self.digits = []
        stride = 1
        for m in reversed(ambient.moduli):
            period = m * stride
            self.digits.append((stride, m, _DigitMasks(stride, period, size)))
            stride = period

    def minus(self, mask: int, d: int) -> int:
        """The set {i : i + d in mask}."""
        if self.digits is None:
            return mask >> d if d >= 0 else mask << -d
        for stride, m, high in self.digits:
            dj = d // stride % m
            if dj:
                up = mask & high[dj]
                mask = (up >> dj * stride) | ((mask ^ up) << (m - dj) * stride)
        return mask

    def plus(self, mask: int, d: int) -> int:
        """The set {i + d : i in mask}."""
        return self.minus(mask, self.diff(d, 0))

    def diff(self, a: int, b: int) -> int:
        """The shift from index a to index b."""
        if self.digits is None:
            return b - a
        return sum((b // stride - a // stride) % m * stride for stride, m, _ in self.digits)

    def add(self, a: int, b: int) -> int:
        """The index of the sum of the group elements at indices a and b."""
        return sum((a // stride + b // stride) % m * stride for stride, m, _ in self.digits)

    def differences(self, mask: int) -> int:
        """Nonzero differences within mask; only positive ones for intervals."""
        out = 0
        for i in _indices(mask):
            out |= self.minus(mask, i)
        return out & ~1

    def meets(self, mask: int, shifts: list[int], k: int, needed: int):
        """Yield (combo, mask & (mask - d) over d in combo) for the k-subsets
        combo of shifts, in order, whose intersection keeps needed elements."""
        for combo in itertools.combinations(shifts, k):
            inter = mask
            for d in combo:
                inter &= self.minus(mask, d)
                if inter.bit_count() < needed:
                    break
            else:
                yield combo, inter


# one per ambient: the product masks are built once, not per call
_bitsets = functools.lru_cache(maxsize=8)(_Bitsets)


@functools.lru_cache(maxsize=16)
def _level_plan(lengths: tuple[int, ...], bits: _Bitsets) -> tuple[tuple[int, int], ...]:
    """(l, needed) for each summand but the last: its size, and the least
    number of values the summands after it take over bits' ambient.  Over
    the integers iterated sumsets obey |A + B| >= |A| + |B| - 1; in a
    torsion group only the trivial bound max(l_i) survives."""
    plan = []
    for s in range(1, len(lengths)):
        tail = lengths[s:]
        needed = max(tail) if bits.digits else sum(tail) - len(tail) + 1
        plan.append((lengths[s - 1], needed))
    return tuple(plan)


def _decompositions(bits: _Bitsets, mask: int, plan, summands=()):
    """Yield (earlier summands, last) for each last level in mask, in order:
    the earlier summands as shift tuples, one per level of plan, and the
    mask last whose l_r-subsets, first index the offset, each complete a
    canonical decomposition.

    A level where meets could find no shift set is skipped whole.  With k
    elements in mask, |mask & (mask - d)| is the number of pairs with
    difference d, and those numbers add up to pairs = k(k-1)/2 on an
    interval (positive differences) or k(k-1) in a group (nonzero ones), so
    the sum over the differences d of (count(d) - 1) is pairs minus the
    number of differences.  Each of the l - 1 distinct shifts of a summand
    needs count(d) >= needed, so when that sum is below (l - 1)(needed - 1)
    no shift set qualifies.
    """
    if len(summands) == len(plan):
        yield summands, mask
        return
    l, needed = plan[len(summands)]
    shifts = bits.differences(mask)
    k = mask.bit_count()
    pairs = k * (k - 1) if bits.digits else k * (k - 1) // 2
    if pairs - shifts.bit_count() < (l - 1) * (needed - 1):
        return
    for combo, inter in bits.meets(mask, _indices(shifts), l - 1, needed):
        yield from _decompositions(bits, inter, plan, summands + ((0,) + combo,))


def _witness_maker(ambient: Ambient):
    """The function taking a kernel decomposition (earlier summands,
    chosen indices) to its SumsetWitness over ambient."""
    bits = _bitsets(ambient)
    point = functools.cache(ambient.element_at)
    shift = point if bits.digits else (lambda d: d)

    def witness(decomposition) -> SumsetWitness:
        summands, chosen = decomposition
        base = chosen[0]
        last = tuple(bits.diff(base, x) for x in chosen)
        summands = tuple(tuple(map(shift, L)) for L in summands + (last,))
        return SumsetWitness(ambient, point(base), summands)

    return witness


def _valued(A: GroundSet, sig: Signature, limit: int | None = None):
    """The one budgeted walk: yield (value set, decomposition) for each
    canonical decomposition of A in the kernel's order, the value set as
    an index bitmask, the decomposition for _witness_maker.  Past limit,
    BudgetExceededError comes before the next value set is built.

    A last level's decompositions are its l_r-subsets, which share the
    earlier summands, so the bitmask of the sums of those is formed once
    per level, and translated to each chosen index once per level; a
    value set is the OR of the translates of its chosen indices."""
    bits = _bitsets(A.ambient)
    count = 0
    for summands, last in _decompositions(bits, A.bitmask, _level_plan(sig.lengths, bits)):
        sums, translates = 1, {}
        for L in summands:
            sums = functools.reduce(operator.or_, [bits.plus(sums, d) for d in L])
        for chosen in itertools.combinations(_indices(last), sig.lengths[-1]):
            count += 1
            if limit is not None and count > limit:
                raise BudgetExceededError(
                    f"decomposition enumeration exceeded limit of {limit}"
                )
            values = 0
            for x in chosen:
                if x not in translates:
                    translates[x] = bits.plus(sums, x)
                values |= translates[x]
            yield values, (summands, chosen)


def contains_sumset(A: GroundSet, sig: Signature) -> Optional[SumsetWitness]:
    """Search A for a sumset with the given signature.

    Returns the first witness in the deterministic shift order, already
    canonical, or None when A is free of such sumsets.  The empty set and
    singletons are free for every signature since each summand has at
    least two elements.
    """
    # levels after the first keep l_r indices; a lone summand's only level,
    # A itself, may not
    bits = _bitsets(A.ambient)
    l = sig.lengths[-1]
    for summands, last in _decompositions(bits, A.bitmask, _level_plan(sig.lengths, bits)):
        if last.bit_count() >= l:
            return _witness_maker(A.ambient)((summands, tuple(_indices(last)[:l])))
    return None


def enumerate_sumsets(
    A: GroundSet, sig: Signature, limit: int | None = None
) -> Iterator[SumsetWitness]:
    """Yield every canonical decomposition whose sums all land in A.

    Each decomposition is yielded exactly once, in the deterministic
    shift order; distinct decompositions may describe the same value set.
    With limit set, raises BudgetExceededError past that many yields.
    """
    witness = _witness_maker(A.ambient)
    for _, decomposition in _valued(A, sig, limit):
        yield witness(decomposition)


def introduces_sumset(
    existing, candidate: Element, sig: Signature, ambient: Ambient
) -> bool:
    """Would adding candidate to an already-free set create a sumset?

    Only witnesses whose value set passes through candidate are searched,
    which is exhaustive when the existing set is free.  A one-shot check
    for callers holding elements; the branch-and-bound search and the
    greedy sequences carry their set's index bitset and call the rooted
    check on it directly.
    """
    root = ambient.index(candidate)
    mask = 1 << root
    for x in existing:
        mask |= 1 << ambient.index(x)
    return _rooted(_bitsets(ambient), mask, root, sig.lengths)


def _rooted(bits: _Bitsets, mask: int, root: int, lengths: tuple[int, ...]) -> bool:
    # Looking for D1, ..., Dr with 0 in each Di, |Di| = li, and root +
    # D1 + ... + Dr inside mask.  Each nonzero d in any Di is some a - root
    # with a in mask (zeros elsewhere); root stays in every intersection,
    # so the last summand only needs l_r elements left.
    #
    # The levels come from the signature's plan, one (l, needed) per
    # summand but the last, so no call works out needed again.  One exact
    # shortcut: every intersection a level keeps is a subset of mask
    # holding needed elements, so a mask with fewer has no answer.  After
    # the plan's last level only the last summand is left, whose needed
    # is l_r on both kinds of ambient, so the first intersection kept
    # there answers True.
    plan = _level_plan(lengths, bits)
    if not plan:
        return mask.bit_count() >= lengths[0]
    if mask.bit_count() < plan[0][1]:
        return False
    return _rooted_levels(bits, mask, root, plan, 0)


def _rooted_levels(bits: _Bitsets, mask: int, root: int, plan, depth: int) -> bool:
    """Does level depth of the plan, and every level after it, fit in mask
    with root in every intersection?"""
    l, needed = plan[depth]
    depth += 1
    last = depth == len(plan)
    others = mask & ~(1 << root)
    if l == 2 and bits.digits is None:
        # one shift per member a, lowest first: mask - (a - root)
        while others:
            low = others & -others
            a = low.bit_length() - 1
            inter = mask & (mask << (root - a) if a < root else mask >> (a - root))
            if inter.bit_count() >= needed and (
                last or _rooted_levels(bits, inter, root, plan, depth)
            ):
                return True
            others ^= low
        return False
    if bits.digits is None:
        shifts = [a - root for a in _indices(others)]
    else:
        # the shifts a - root as one translate of the other members
        shifts = _indices(bits.minus(others, root))
    for _, inter in bits.meets(mask, shifts, l - 1, needed):
        if last or _rooted_levels(bits, inter, root, plan, depth):
            return True
    return False


# ---------------------------------------------------------------------------
# special shapes


def is_sidon(A: GroundSet) -> bool:
    """No repeated difference among ordered pairs of distinct elements.

    This is freeness from two-summand pair sumsets; the ordered-pair
    formulation also covers torsion (a 2-torsion pair {0, g} repeats the
    difference g and indeed contains {0, g} + {0, g}).  On a Sidon set the
    kernel's level cut fires at once, so the answer costs one differences
    call.
    """
    return contains_sumset(A, Signature((2, 2))) is None


def is_hilbert_cube_free(A: GroundSet, r: int) -> bool:
    """Free of r-dimensional cubes x + {0, d1} + ... + {0, dr}?"""
    if not isinstance(r, int) or r < 2:
        raise InvalidSignatureError(f"cube dimension must be an integer >= 2, got {r!r}")
    return contains_sumset(A, Signature((2,) * r)) is None


# ---------------------------------------------------------------------------
# multiset characterization


@dataclass(frozen=True)
class IndexedMultiset:
    """Family x_{i1...ir} indexed over the full grid of a signature.

    Indices are 1-based tuples (i1, ..., ir) with 1 <= is <= ls.  The
    family is a sumset evaluation iff the axis distinctness and the
    leading-ones sum relations checked by verify_multiset all hold.
    """

    ambient: Ambient
    signature: Signature
    values: dict

    def __post_init__(self):
        grid = set(
            itertools.product(*(range(1, l + 1) for l in self.signature.lengths))
        )
        keys = set(self.values)
        if keys != grid:
            raise StructureError(
                f"index grid mismatch: expected {len(grid)} entries, got {len(keys)}"
            )

    @classmethod
    def from_witness(cls, witness: SumsetWitness) -> "IndexedMultiset":
        summands = [sorted(L) for L in witness.summands]
        values = _grid(witness.offset, summands, witness.ambient)
        return cls(witness.ambient, witness.signature, values)


def verify_multiset(X: IndexedMultiset):
    """Decide whether the indexed family is a sumset evaluation.

    The family is one iff, for each axis, the values along that axis (all
    other indices held at 1) are pairwise distinct, and the sum relations
    x_{1..1} + x_{1..1 is t} = x_{1..1 is 1..1} + x_{1..1 1 t} hold for
    every axis position s < r, index is != 1, and nontrivial tail t.

    The relations are checked in one comparison: they hold exactly when
    every entry less x_{1..1} equals the grid of the axes less x_{1..1},
    x_{i1..ir} - x_{1..1} = sum over s of (x_{1..1 is 1..1} - x_{1..1}).
    Both sides are zero at x_{1..1}.  If the relations hold, induct on
    the position s of the first index above 1, from r down: an entry
    whose other indices are all 1 lies on axis s and agrees, and
    otherwise the relation at s splits x_{1..1 is t} - x_{1..1} into the
    axis-s term and x_{1..1 1 t} - x_{1..1}, whose first index above 1
    comes later.  Conversely, if every entry agrees, both sides of each
    relation less 2 x_{1..1} are the same sum of axis terms.

    On success returns the reconstructed summands: the first
    un-normalized (as read off the first axis), the rest zero-based.
    Returns None when any condition fails.
    """
    lengths = X.signature.lengths
    r = len(lengths)
    amb = X.ambient
    vals = X.values

    axes = []
    for s, l in enumerate(lengths):
        axis = [vals[(1,) * s + (i,) + (1,) * (r - s - 1)] for i in range(1, l + 1)]
        if len(set(axis)) != len(axis):
            return None
        axes.append(tuple(axis))

    base = axes[0][0]
    shifted = {idx: elem_sub(v, base, amb) for idx, v in vals.items()}
    rest = [tuple(elem_sub(x, base, amb) for x in axis) for axis in axes]
    if shifted != _grid(amb.zero, rest, amb):
        return None
    return (axes[0],) + tuple(rest[1:])


# ---------------------------------------------------------------------------
# degeneracy


def is_degenerate(summands, ambient: Ambient) -> bool:
    """Does the sumset take fewer than l1*...*lr distinct values?"""
    summands = [tuple(L) for L in summands]
    for L in summands:
        if len(set(L)) != len(L) or len(L) < 2:
            raise StructureError(f"summand {L!r} must have >= 2 distinct elements")
    grid = _grid(ambient.zero, summands, ambient)
    return len(set(grid.values())) < len(grid)


def ap3_of_degenerate(summands) -> tuple[int, int, int]:
    """Extract a nontrivial 3-term progression from a degenerate sumset.

    Integer summands only.  A collision x1+...+xr = y1+...+yr with
    xk != yk at some position yields the progression with difference
    xk - yk: replace xk by yk for the first term and yk by xk in the y
    sum for the last.  Raises PreconditionError when the sumset is
    non-degenerate.
    """
    summands = [tuple(L) for L in summands]
    for L in summands:
        for x in L:
            if not isinstance(x, int):
                raise StructureError("progression extraction works on integer summands")
    seen: dict[int, tuple] = {}
    for choice in itertools.product(*summands):
        total = sum(choice)
        if total in seen:
            other = seen[total]
            for k, (xk, yk) in enumerate(zip(choice, other)):
                if xk != yk:
                    if xk < yk:
                        choice, other = other, choice
                        xk, yk = yk, xk
                    a = total - xk + yk
                    d = xk - yk
                    return (a, a + d, a + 2 * d)
        else:
            seen[total] = choice
    raise PreconditionError("sumset is non-degenerate; no collision to extract")


# ---------------------------------------------------------------------------
# counting


def count_all_sumsets(
    n: int, sig: Signature, budget: int = DEFAULT_DECOMPOSITION_BUDGET
) -> tuple[int, int]:
    """Count decompositions and distinct value sets inside [1, n].

    Returns (decompositions, distinct value sets).  Both counts are at
    most n**(total - r + 1); the decomposition space is guarded by the
    budget before enumeration starts.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"interval endpoint must be a positive integer, got {n!r}")
    space = n ** (sig.total - sig.r + 1)
    if space > budget:
        raise BudgetExceededError(
            f"decomposition space {space} exceeds budget {budget}"
        )
    A = GroundSet(IntegerInterval(n), range(1, n + 1))
    value_sets = Counter(values for values, _ in _valued(A, sig))
    return sum(value_sets.values()), len(value_sets)
