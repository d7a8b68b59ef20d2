"""Exact maximization of sumset-free subsets, and size bounds.

max_free_set runs a depth-first branch and bound over elements in
increasing linearized order, include branch first.  The first element of
the carrier is fixed by translation symmetry (any nonempty free set
translates to one that contains it, and translation preserves freeness in
both ambient kinds).  A branch is cut when the chosen elements plus the
most that the remaining candidates can add cannot beat the incumbent, and
a candidate is rejected when adding it to the (free) partial set would
create a sumset through it, which the detector's rooted check, built
once per search, answers without a full re-scan.  The partial set is the
detector's index bitset; elements are made only for the witness.  The
search is a loop, not a recursion: the chosen indices above 0 are the
include branches whose exclude branch is still to come, so the highest
of them is where the search backs up to, and the depth of a search costs
no stack.

In a group, automorphisms also limit the second element.  The witness is
the first maximum in depth-first order, which is the lexicographically
least maximum free set containing 0.  An automorphism fixes 0 and maps
that set to another maximum free set containing 0, so no automorphism
takes the witness's second element to a smaller index: the second element
is the least of its orbit.  The search takes index i second only when no
smaller index shares its orbit under all automorphisms; it keys each
index by the Ulm sequences of its primary parts (_orbit_key) when it
first reaches it second, so nothing is keyed before the first node and
no generators are linked.  The include branches it skips are counted in
pruned_by["symmetry"].  Skipping branches only lowers the incumbent,
so it cuts no branch on the witness's path, and F and the witness are
those of the search without the rule.  On Z_3^3 with signature (2, 2) the
search explores 3 790 nodes instead of 24 917.  Intervals are not
groups, and their search takes every index second.

In a group the k remaining candidates add at most k.  On an interval they
form a translate of [1, k], so they add at most F(k), the maximum for
that shorter interval (Russian doll search): the same DFS first fills a
table of F(2), ..., F(N - 1), shortest first, each run pruned by the
entries before it.  Since F(m) is F(m - 1) or F(m - 1) + 1, the run for
m starts with incumbent F(m - 1) and stops at the first set one larger;
the main run stops as soon as it reaches F(N - 1) + 1.  Every cut drops
only branches that cannot strictly beat the incumbent, so the maximum and
the witness (the first maximum in depth-first order) are those of the
plain count bound.  The reported node count and the max_nodes budget
cover the table's runs too.

The rooted check's answer depends only on the grown set, since the new
index is always its highest, so the runs meet the same sets again; one
search keeps the answers in a dict keyed by the grown set and empties it
at _ROOTED_MEMO_LIMIT entries, which bounds its memory.

The closed-form evaluators cover the leading upper bound and the
Turan-type hypergraph bound, (l_r - 1)^(1/P') / k! * n^(k - 1/P') for
k = 1 and k = r with P' the product of all summand sizes but the last,
and the exact lower-bound exponent 1 - (S - r)/(P - 1) as a rational
number.  overlap_check evaluates both sides of the translate-intersection
averaging inequality with exact rational arithmetic; the falling-factorial right-hand side is only a guaranteed
lower bound once |A||B|/|X| reaches r - 1 (below r - 2 it can exceed the
average), so the raw pair is returned rather than asserted.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, lcm, lgamma, log, prod
from typing import Optional

from .core import (
    Ambient,
    BudgetExceededError,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    PreconditionError,
    Signature,
    _elements_json,
    _finite,
    _indices,
    _prime_factors,
    elem_add,
)
from .detect import _rooted_check, contains_sumset

DEFAULT_CARDINALITY_BUDGET = 64

# the rooted-check answers one search keeps before it starts afresh
_ROOTED_MEMO_LIMIT = 2**16


@dataclass
class SearchReport:
    """Outcome of a maximum free-set search."""

    signature: Signature
    best_size: int
    witness: GroundSet
    nodes_explored: int
    runtime_s: float
    pruned_by: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ambient": self.witness.ambient.describe(),
            "signature": list(self.signature.lengths),
            "F": self.best_size,
            "witness": _elements_json(self.witness),
            "nodes": self.nodes_explored,
            "ms": round(self.runtime_s * 1000.0, 3),
        }


def max_free_set(
    ambient: Ambient,
    sig: Signature,
    *,
    cardinality_budget: Optional[int] = DEFAULT_CARDINALITY_BUDGET,
    max_nodes: Optional[int] = None,
) -> SearchReport:
    """Exact maximum size of a sumset-free subset, with a witness.

    The default budget refuses ambients with more than 64 elements;
    cardinality_budget=None admits any.  max_nodes caps the explored
    node count, which includes the runs that fill an interval's bound
    table, and raises BudgetExceededError when hit.  The search is deterministic:
    the witness is the first maximum found in depth-first order with the
    carrier's first element fixed.
    """
    N = ambient.cardinality
    if cardinality_budget is not None and N > cardinality_budget:
        raise BudgetExceededError(
            f"ambient cardinality {N} exceeds search budget {cardinality_budget}"
        )
    start = time.perf_counter()

    if sig.r == 1:
        # free sets are exactly those with fewer elements than the summand
        k = min(N, sig.lengths[0] - 1)
        witness = GroundSet._from_indices(ambient, range(k))
        return SearchReport(sig, k, witness, 0, time.perf_counter() - start, {})

    check = _rooted_check(ambient, sig.lengths)
    nodes = 0
    pruned = {"cardinality": 0, "infeasible": 0, "symmetry": 0}
    # doll[k]: most elements a free set can take from k consecutive
    # candidates; F(k) on intervals, one entry per run, k in a group
    doll = [0, 1] if isinstance(ambient, IntegerInterval) else range(N + 1)
    # rooted[grown]: does grown, free but for its highest index, hold a
    # sumset through that index; the same for every run that meets grown
    rooted = {}
    # first[key]: the least index met second with that orbit key.  With
    # only index 0 chosen (mask == 1) the loop meets i = 1, 2, ... in
    # order, once each: backing up to mask == 1 sets i = top + 1, and the
    # first cardinality cut there ends the run.  So every smaller index is
    # keyed before i, and i is the least of its orbit iff it is first with
    # its key.  Intervals take every index second and key nothing.
    orbit_key = None if isinstance(ambient, IntegerInterval) else _orbit_key(ambient.moduli)
    first = {}

    def solve(n: int, best_size: int, target: int) -> tuple[int, int]:
        # First free subset of indices 0..n-1 holding index 0 that beats
        # best_size, found depth first; stops once it reaches target.
        # Each pass of the loop is one node: position i, with mask the
        # chosen set so far, whose highest bit above 0 is the deepest
        # include branch with its exclude branch still to come.
        nonlocal nodes
        best_mask = 1
        i, mask, size = 1, 1, 1
        while True:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceededError(f"search exceeded node budget {max_nodes}")
            if i < n and size + doll[n - i] > best_size:
                grown = mask | 1 << i
                if (
                    mask == 1
                    and orbit_key is not None
                    and first.setdefault(orbit_key(ambient.element_at(i)), i) != i
                ):
                    pruned["symmetry"] += 1
                else:
                    hit = rooted.get(grown)
                    if hit is None:
                        if len(rooted) >= _ROOTED_MEMO_LIMIT:
                            rooted.clear()
                        hit = rooted[grown] = check(grown, i)
                    if hit:
                        pruned["infeasible"] += 1
                    else:
                        mask, size = grown, size + 1
                        if size > best_size:
                            best_size, best_mask = size, mask
                            if size == target:
                                break
                i += 1
                continue
            if i < n:
                pruned["cardinality"] += 1
            # back up to the exclude branch of the deepest open include
            top = mask.bit_length() - 1
            if top == 0:
                break
            mask, size, i = mask ^ 1 << top, size - 1, top + 1
        return best_size, best_mask

    if isinstance(ambient, IntegerInterval):
        # F(m) is F(m - 1) or one more, so each run only asks which
        for m in range(2, N):
            doll.append(solve(m, doll[m - 1], doll[m - 1] + 1)[0])
    best_size, best_mask = solve(N, 1, doll[N - 1] + 1)
    witness = GroundSet._from_indices(ambient, _indices(best_mask))
    if contains_sumset(witness, sig) is not None:
        raise RuntimeError("internal error: reported witness is not free")
    return SearchReport(sig, best_size, witness, nodes, time.perf_counter() - start, pruned)


def _orbit_key(moduli: tuple[int, ...]):
    """The function taking an element v of Z_m1 x ... x Z_mk to the key of
    its orbit under all automorphisms: two elements share an orbit iff
    their keys are equal.

    Two elements of a finite abelian p-group share an orbit iff they have
    the same Ulm sequence, the heights of v, pv, p^2 v, ... (Kaplansky,
    Infinite Abelian Groups), and the automorphisms of G are the products
    of those of its primary parts.  With p^e the power of p in
    M = lcm(m_i), the booleans "p^a v lies in p^b G" for 0 <= a < e and
    1 <= b <= e give every height of each p^a v_p, so they key the orbit;
    p^a v lies in p^b G iff gcd(p^b, m_i) divides p^a v_i for every i.
    """
    # (p^a, the gcd(p^b, m_i)) for each test "p^a v lies in p^b G"
    M = lcm(*moduli)
    tests = []
    for p in _prime_factors(M):
        e = 0
        while M % p ** (e + 1) == 0:
            e += 1
        for a in range(e):
            for b in range(1, e + 1):
                tests.append((p**a, [gcd(p**b, m) for m in moduli]))

    def key(v: tuple[int, ...]) -> tuple[bool, ...]:
        return tuple(all(s * x % g == 0 for x, g in zip(v, gs)) for s, gs in tests)

    return key


# ---------------------------------------------------------------------------
# closed-form bounds


def _check_n(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"interval length must be a positive integer, got {n!r}")


def _check_multi(sig: Signature) -> None:
    if sig.r < 2:
        raise InvalidSignatureError("bound requires at least two summands")


def _bound(name: str, c: int, pp: int, n: int, k: int) -> float:
    """c^(1/pp) / k! * n^(k - 1/pp) by core._finite, in the digits the
    reports keep: 1 / pp rounded once, 0.0 past the float range."""
    e = 1 / pp
    return _finite(
        lambda: c**e / factorial(k) * n ** (k - e),
        lambda: e * log(c) - lgamma(k + 1) + (k - e) * log(n),
        name,
    )


def upper_bound_leading(n: int, sig: Signature) -> float:
    """Leading term of the general upper bound on the maximum free size."""
    _check_n(n)
    _check_multi(sig)
    return _bound("upper_leading", sig.lengths[-1] - 1, sig.prefix_product, n, 1)


def lower_bound_exponent(sig: Signature) -> Fraction:
    """Exact exponent 1 - (S - r)/(P - 1) of the probabilistic lower bound."""
    _check_multi(sig)
    return 1 - Fraction(sig.total - sig.r, sig.product - 1)


def turan_upper_bound(n: int, sig: Signature) -> float:
    """Turan-type bound on edges of the associated r-partite-free hypergraph."""
    _check_n(n)
    _check_multi(sig)
    return _bound("turan_upper", sig.lengths[-1] - 1, sig.prefix_product, n, sig.r)


def sidon_refined_upper(n: int) -> float:
    """Refined upper bound sqrt(n) + n^(1/4) + 1/2 for pair sumsets, by
    core._finite from log(n) / 2: n^(1/4) + 1/2 is below half an ulp of sqrt(n) there."""
    _check_n(n)
    return _finite(lambda: n**0.5 + n**0.25 + 0.5, lambda: log(n) / 2, "sidon_refined")


# ---------------------------------------------------------------------------
# translate-intersection averaging


def overlap_check(A, B, X: GroundSet, r: int):
    """Evaluate both sides of the averaging inequality for translates.

    A and B are element collections, X a ground set whose ambient the
    translates are taken in, with A + B inside X, verified up front.  B
    may hold shifts off the carrier, such as 0 in an interval from 1.
    Returns the exact pair (lhs, rhs) as Fractions, where lhs sums
    |(A+x1) ∩ ... ∩ (A+xr)| over r-element subsets {x1, ..., xr} of B,
    divided by |X|, and rhs is the falling factorial binomial
    C(|A||B|/|X|, r).  A sum x lies in C(m(x), r) of those intersections,
    m(x) = #{(a, b) : a + b = x}, so lhs costs |A||B| additions whatever r.
    """
    if not isinstance(r, int) or r < 1:
        raise InvalidInputError(f"subset size r must be a positive integer, got {r!r}")
    if not isinstance(X, GroundSet):
        raise InvalidInputError("overlap check needs X as a GroundSet")

    a_elems = set(A)
    b_elems = set(B)
    if not a_elems or not b_elems or not X:
        raise PreconditionError("overlap check needs nonempty A, B, X")

    counts = Counter(elem_add(a, b, X.ambient) for a in a_elems for b in b_elems)
    if not all(x in X for x in counts):
        raise PreconditionError("A + B is not contained in X")

    lhs = Fraction(sum(comb(m, r) for m in counts.values()), len(X))
    sigma = Fraction(len(a_elems) * len(b_elems), len(X))
    return lhs, prod(sigma - i for i in range(r)) / factorial(r)
