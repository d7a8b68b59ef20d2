"""Detection and enumeration of fixed-shape sumsets inside ground sets.

A sumset L1 + ... + Lr with first summand D = {0, d2, ..., d_l1} lies in
A exactly when L2 + ... + Lr lies in the intersection of the translates
A - d over d in D.  The detector therefore draws D from the nonzero
differences of A, intersects, and recurses on the signature tail; for a
single summand the question is whether |A| >= l1.  The walks run on
core's index bitsets and their translates (_Bitsets); element tuples
appear only in witnesses.

Each walk reads a level plan, built per call in one pass from the last
summand: for each summand but the last, its size l and the least number
of values the summands after it take.  The walks recurse once per level,
so a signature past Python's recursion limit raises BudgetExceededError.
The rooted check asks whether a sumset in a set passes through one
member, the root; a search or a sequence builds it once (_rooted_check)
and asks it about its growing bitset for each candidate.  On an interval
a level with l = 2 walks the other members a directly, lowest first, at
one shift (up or down by |a - root|), one AND and one popcount each;
larger summands and every level in a product group take their shift sets
from _Bitsets.meets.

Shifts d2 < ... < d_l1 are taken in increasing linearized order and the
first witness found is returned, so detection is deterministic.  For
integer intervals only positive shifts are needed (the canonical first
summand has minimum zero); in a product group every nonzero difference
is a candidate.  A level is skipped before any intersection when A
repeats too few differences to fit the summand (_valued); on the
discrete-log sets of construct.zp3_construction the full (2,2,2) scan
keeps a single level of intersections.

Enumeration yields every canonical decomposition exactly once; distinct
decompositions may share a value set, so the two are counted apart.  The
kernel, _valued, is one budgeted walk: from each last level it yields
the decompositions its l_r-subsets complete, first index the offset,
each paired with its value set, an index bitmask whose largest value is
its bit length less one.  contains_sumset is the first decomposition it
yields and enumeration every one; counting and the deletion step of the
constructions read the value sets.  Only witnesses are built as element
tuples.
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
    _TOO_DEEP,
    Ambient,
    BudgetExceededError,
    Element,
    GroundSet,
    IntegerInterval,
    InvalidSignatureError,
    PreconditionError,
    Signature,
    StructureError,
    SumsetWitness,
    _Bitsets,
    _grid,
    _indices,
    _mask,
    elem_sub,
)

DEFAULT_DECOMPOSITION_BUDGET = 10**7


def _level_plan(lengths: tuple[int, ...], group: bool) -> tuple[tuple[int, int], ...]:
    """(l, needed) for each summand but the last: its size, and the least
    number of values the summands after it take.  Over the integers
    iterated sumsets obey |A + B| >= |A| + |B| - 1; in a torsion group only
    the trivial bound max(l_i) survives.  One pass from the last summand,
    so a long signature costs O(r)."""
    plan, needed = [], lengths[-1]
    for l in reversed(lengths[:-1]):
        plan.append((l, needed))
        needed = max(needed, l) if group else needed + l - 1
    return tuple(reversed(plan))


def _valued(A: GroundSet, sig: Signature, limit: int | None = None):
    """The one walk: yield (value set, decomposition) for each canonical
    decomposition of A, in order, the value set as an index bitmask, the
    decomposition, (earlier summands, chosen indices), for _witness_maker.
    Past limit, BudgetExceededError comes before the next value set is
    built.

    Each level of the plan draws a summand's shifts from the differences of
    its mask and recurses on the intersection meets keeps; a last level's
    decompositions are the l_r-subsets of its mask, first index the offset.
    They share the earlier summands, so the bitmask of the sums of those is
    formed once per last level, and translated to each chosen index once;
    a value set is the OR of the translates of its chosen indices.

    A level where meets could find no shift set is skipped whole.  With k
    elements in mask, |mask & (mask - d)| is the number of pairs with
    difference d, and those numbers add up to pairs = k(k-1)/2 on an
    interval (positive differences) or k(k-1) in a group (nonzero ones), so
    the sum over the differences d of (count(d) - 1) is pairs minus the
    number of differences.  Each of the l - 1 distinct shifts of a summand
    needs count(d) >= needed, so when that sum is below (l - 1)(needed - 1)
    no shift set qualifies.
    """
    bits = _Bitsets(A.ambient)
    plan = _level_plan(sig.lengths, bits.digits is not None)
    count = 0

    def levels(mask: int, summands: tuple):
        nonlocal count
        if len(summands) == len(plan):
            sums, translates = 1, {}
            for L in summands:
                sums = functools.reduce(operator.or_, [bits.plus(sums, d) for d in L])
            for chosen in itertools.combinations(_indices(mask), sig.lengths[-1]):
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
            return
        l, needed = plan[len(summands)]
        shifts = bits.differences(mask)
        k = mask.bit_count()
        pairs = k * (k - 1) if bits.digits else k * (k - 1) // 2
        if pairs - shifts.bit_count() < (l - 1) * (needed - 1):
            return
        for combo, inter in bits.meets(mask, _indices(shifts), l - 1, needed):
            yield from levels(inter, summands + ((0,) + combo,))

    try:
        yield from levels(A.bitmask, ())
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP.format(len(plan) + 1)) from None


def _witness_maker(ambient: Ambient):
    """The function taking a kernel decomposition (earlier summands,
    chosen indices) to its SumsetWitness over ambient."""
    bits = _Bitsets(ambient)
    point = functools.cache(ambient.element_at)
    shift = point if bits.digits else (lambda d: d)

    def witness(decomposition) -> SumsetWitness:
        summands, chosen = decomposition
        base = chosen[0]
        last = tuple(bits.diff(base, x) for x in chosen)
        summands = tuple(tuple(map(shift, L)) for L in summands + (last,))
        return SumsetWitness(ambient, point(base), summands)

    return witness


def contains_sumset(A: GroundSet, sig: Signature) -> Optional[SumsetWitness]:
    """Search A for a sumset with the given signature.

    Returns the first witness enumerate_sumsets yields, already canonical,
    or None when A is free of such sumsets.  The empty set and
    singletons are free for every signature since each summand has at
    least two elements.
    """
    return next(enumerate_sumsets(A, sig), None)


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
    for callers holding elements; search and greedy build _rooted_check once.
    """
    root = ambient.index(candidate)
    mask = _mask([root, *map(ambient.index, existing)])
    return _rooted_check(ambient, sig.lengths)(mask, root)


def _rooted_check(ambient: Ambient, lengths: tuple[int, ...]):
    """The function (mask, root) -> does a sumset of the signature inside
    the index bitset mask pass through its member root?"""
    # Looking for D1, ..., Dr with 0 in each Di, |Di| = li, and root +
    # D1 + ... + Dr inside mask.  Each nonzero d in any Di is some a - root
    # with a in mask (zeros elsewhere); root stays in every intersection,
    # so the last summand only needs l_r elements left, and the first
    # intersection kept after the plan's last level answers True.  The
    # bitsets, the plan and the first level's needed are resolved here,
    # once.  The popcount shortcut is exact: every intersection a level
    # keeps is a subset of mask holding needed elements.
    bits = _Bitsets(ambient)
    plan = _level_plan(lengths, bits.digits is not None)
    needed = plan[0][1] if plan else lengths[0]
    if not plan:
        return lambda mask, root: mask.bit_count() >= needed

    def check(mask: int, root: int) -> bool:
        try:
            return mask.bit_count() >= needed and _rooted_levels(bits, mask, root, plan, 0)
        except RecursionError:  # one level per summand
            raise BudgetExceededError(_TOO_DEEP.format(len(lengths))) from None

    return check


def _rooted_levels(bits: _Bitsets, mask: int, root: int, plan, depth: int) -> bool:
    """Does level depth of the plan, and every level after it, fit in mask
    with root in every intersection?"""
    l, needed = plan[depth]
    depth += 1
    last = depth == len(plan)
    others = mask & ~(1 << root)
    if l == 2 and bits.digits is None:
        # one shift per member a, lowest first: mask - (a - root); a walk,
        # not _indices, since most checks stop at one of the first members
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
    """Free of r-dimensional cubes x + {0, d1} + ... + {0, dr}?

    The signature, r twos, is built only for a walk that may need it.  On
    an interval a cube takes at least the r + 1 values x, x + d1, ...,
    x + d1 + ... + dr, so a set of at most r elements is free, as the walk
    would answer.  In a product group a dimension of 2^30 or more, whose
    signature alone would take gigabytes, raises BudgetExceededError as a
    walk past the recursion limit does.
    """
    if not isinstance(r, int) or r < 2:
        raise InvalidSignatureError(f"cube dimension must be an integer >= 2, got {r!r}")
    if isinstance(A.ambient, IntegerInterval):
        if len(A) <= r:
            return True
    elif r >= _MAX_BITS:
        raise BudgetExceededError(_TOO_DEEP.format(r))
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

    Integer summands only.  A collision x1+...+xr = y1+...+yr = t with
    xk != yk at a first position k yields t -/+ d, d = |xk - yk|: replace
    xk by yk in the x sum for one end and yk by xk in the y sum for the
    other.  Raises PreconditionError when the sumset is non-degenerate.
    """
    summands = [tuple(L) for L in summands]
    if not all(isinstance(x, int) for L in summands for x in L):
        raise StructureError("progression extraction works on integer summands")
    seen = {}
    for choice in itertools.product(*summands):
        total = sum(choice)
        other = seen.setdefault(total, choice)
        if other != choice:
            d = next(abs(x - y) for x, y in zip(choice, other) if x != y)
            return (total - d, total, total + d)
    raise PreconditionError("sumset is non-degenerate; no collision to extract")


# ---------------------------------------------------------------------------
# counting


def count_all_sumsets(
    n: int, sig: Signature, budget: int = DEFAULT_DECOMPOSITION_BUDGET
) -> tuple[int, int]:
    """Count decompositions and distinct value sets inside [1, n].

    Returns (decompositions, distinct value sets).  Both counts are at
    most n**(total - r + 1); the decomposition space is guarded by the
    budget before enumeration starts, by bit length first and named as a
    power, so neither the check nor its message grows with the exponent.
    """
    ambient = IntegerInterval(n)  # InvalidInputError unless n is a positive int
    e = sig.total - sig.r + 1
    if e * (n.bit_length() - 1) >= budget.bit_length() or n**e > budget:
        raise BudgetExceededError(f"decomposition space {n}^{e} exceeds budget {budget}")
    A = GroundSet._from_indices(ambient, range(n))
    value_sets = Counter(map(operator.itemgetter(0), _valued(A, sig)))
    return sum(value_sets.values()), len(value_sets)
