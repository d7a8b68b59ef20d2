"""Cayley-style sum hypergraphs over finite product groups.

The r-uniform hypergraph of a set A in a group G has the group elements
as vertices, indexed in lexicographic order, and an edge for every
r-subset of distinct elements whose sum lands in A.  Forbidden sumsets in
A correspond to complete r-partite subgraphs here, so freeness questions
become subgraph questions; contains_complete_rpartite searches for a
complete r-partite witness with prescribed part sizes by backtracking
over disjoint vertex classes, pruning through the sets of k-subsets of
edges.

The edges come from the heads of the r-subsets, their r-1 smallest
indices, in itertools.combinations order: a head of sum s and largest
index h extends to an edge by every j > h with s + j in A, the set bits
above h of the detection kernel's bitset A - s.  For 2r > N the same
walk lists the (N - r)-subsets with sum in total - A, total the sum of
the group, and takes their complements, so a head never has more than
N/2 indices.

The counts by sum need no walk.  For a partition L of r with l(L) parts
of gcd d, y -> sum L_i y_i maps G^l(L) onto dG (aG + bG = gcd(a, b)G)
with fibres of equal size, so the signed cycle-type formula for e_r
(Macdonald, Symmetric Functions and Hall Polynomials, I.2) gives
r! #{r-subsets of sum t} = sum over L of (-1)^(r - l(L)) (r!/z_L)
N^l(L) / |dG| [t in dG].  In Z_m1 x ... x Z_mk, |dG| = N / prod gcd(d, m_i)
and t is in dG iff each t_i is divisible by gcd(d, m_i).  best_translate
counts A by residue class once per d to score every A + x, and returns
the first, in lexicographic order, with the most edges and the exact
average |A| C(N, r) / N, which the maximum reaches by double counting.
Complements turn r into min(r, N - r), so the partitions number at most
C(N, r), and each d, a divisor of r, costs O(N + |A|) tuple steps.

Hypergraphs serialize to a small text format: a header line
"#hypergraph n=<vertices> r=<uniformity>", then one line per edge with
space-separated vertex indices.  The header is the line whose first word
is "#hypergraph"; other lines starting with '#' are comments.

Edge lists are checked and written with no Python code per edge.
Validation compares neighbours among the vertices of all edges laid end
to end, and the list with itself shifted by one, and looks at an edge
alone only to name the first that breaks a rule.  Writing formats each
edge with one format string.  The reader goes one line at a time: it
splits a line once into words and keeps an edge line's ints as one
tuple.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod
from pathlib import Path
from typing import Iterable, Optional

from .core import (
    BudgetExceededError,
    CyclicProduct,
    GroundSet,
    InvalidInputError,
    Signature,
    StructureError,
)
from .detect import _bitsets, _indices

DEFAULT_COMBINATION_BUDGET = 5 * 10**6


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 0..n-1 with sorted edge tuples."""

    n: int
    r: int
    edges: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidInputError(f"vertex count must be positive, got {self.n!r}")
        if not isinstance(self.r, int) or self.r < 1:
            raise InvalidInputError(f"uniformity must be positive, got {self.r!r}")
        fault = _edge_fault(self.edges, self.n, self.r)
        if fault is not None:
            raise StructureError(fault)

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """The hypergraph of the distinct edges, each sorted.  A list that is
        already canonical, as every written hypergraph file is, is validated
        once and kept."""
        edges = tuple(map(tuple, edges))
        try:
            return cls(n, r, edges)
        except StructureError:
            return cls(n, r, tuple(sorted(set(map(tuple, map(sorted, edges))))))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_text(self) -> str:
        lines = [f"#hypergraph n={self.n} r={self.r}"]
        if self.edges:  # r may be far past what one line could hold
            lines += map(" ".join(["%d"] * self.r).__mod__, self.edges)
        return "\n".join(lines) + "\n"


def _first(flags, default: int) -> int:
    """The position of the first true flag, or default."""
    try:
        return operator.indexOf(flags, True)
    except ValueError:
        return default


def _edge_fault(edges: tuple, n: int, r: int) -> Optional[str]:
    """The error for the first edge, in list order, that is not r-uniform,
    not strictly increasing, outside 0..n-1 or not above the edge before it,
    naming the first of those rules it breaks; None when every edge keeps
    them.  Each rule is one pass over the list, or over the vertices of
    its r-uniform prefix laid end to end, where column j is every r-th
    vertex from j."""
    count = len(edges)
    uniform = _first(map(r.__ne__, map(len, edges)), count)
    flat = list(itertools.chain.from_iterable(itertools.islice(edges, uniform)))
    faults = [(uniform, 0)]
    faults += [
        (_first(map(operator.ge, flat[j::r], flat[j + 1 :: r]), count), 1)
        for j in (range(r - 1) if flat else ())  # r may be far past any edge's length
    ]
    faults.append((_first(map(operator.gt, itertools.repeat(0), flat[::r]), count), 2))
    faults.append((_first(map(operator.le, itertools.repeat(n), flat[r - 1 :: r]), count), 2))
    later = itertools.islice(edges, 1, uniform)
    faults.append((_first(map(operator.le, later, edges), count - 1) + 1, 3))
    i, rule = min(faults)
    if i >= count:
        return None
    edge = edges[i]
    if rule == 0:
        return f"edge {edge!r} is not {r}-uniform"
    if rule == 1:
        return f"edge {edge!r} is not sorted and distinct"
    if rule == 2:
        return f"edge {edge!r} leaves the vertex range"
    if edge == edges[i - 1]:
        return f"duplicate edge {edge!r}"
    return "edges must be listed in sorted order"


def parse_hypergraph_text(text: str) -> Hypergraph:
    n = r = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if not words:
            continue
        if words[0][0] != "#":
            if n is None:
                raise StructureError(f"line {lineno}: edge before hypergraph header")
            try:
                edges.append(tuple(map(int, words)))
            except ValueError as exc:
                raise StructureError(f"line {lineno}: bad edge line {line.strip()!r}") from exc
        elif words[0] == "#hypergraph":  # any other '#' line is a comment
            if n is not None:
                raise StructureError(f"line {lineno}: duplicate hypergraph header")
            try:
                fields = dict(tok.split("=", 1) for tok in words[1:])
                # exactly the keys n and r, each once
                if fields.keys() != {"n", "r"} or len(words) != 3:
                    raise ValueError
                n = int(fields["n"])
                r = int(fields["r"])
            except ValueError as exc:
                raise StructureError(f"line {lineno}: bad hypergraph header") from exc
    if n is None or r is None:
        raise StructureError("missing hypergraph header")
    del text  # only the edges outlive the parse
    return Hypergraph.from_edges(n, r, edges)


def read_hypergraph_file(path) -> Hypergraph:
    return parse_hypergraph_text(Path(path).read_text(encoding="utf-8"))


def write_hypergraph_file(graph: Hypergraph, path) -> None:
    Path(path).write_text(graph.to_text(), encoding="utf-8")


# ---------------------------------------------------------------------------
# construction from a group set


def _check_subsets(N: int, r: int, max_combinations: int) -> None:
    """r is a positive integer and max(C(N, r), N) fits the budget: the
    r-subsets, or for r >= N, where there is at most one, the N scores.
    C(N, r) >= 2^k for k = min(r, N - r) >= 1, so a k at or past the
    budget's bit length is refused before the count is computed."""
    if not isinstance(r, int) or r < 1:
        raise InvalidInputError(f"uniformity must be positive, got {r!r}")
    k = min(r, N - r)
    if k >= max(1, max_combinations.bit_length()):
        raise BudgetExceededError(
            f"C({N}, {r}) >= 2^{k} subsets exceed the combination budget "
            f"{max_combinations}"
        )
    cost = max(comb(N, r), N)
    if cost > max_combinations:
        raise BudgetExceededError(
            f"{cost} subsets exceed the combination budget {max_combinations}"
        )


def _cycle_types(r: int, top: int):
    """The partitions of r into parts of at most top, largest part first."""
    if r == 0:
        yield ()
    for k in range(min(r, top), 0, -1):
        for rest in _cycle_types(r - k, k):
            yield (k, *rest)


def _translate_scores(group, r: int, max_combinations: int, A=None) -> list:
    """For each x, in index order, the number of pairs of an a in A and an
    r-subset of sum a + x, by the formula in the module docstring; A
    defaults to {0}, which leaves the count of r-subsets of sum x."""
    if not isinstance(group, CyclicProduct):
        raise StructureError("representation counts expect a product group")
    N, moduli = group.cardinality, group.moduli
    _check_subsets(N, r, max_combinations)
    A = [group.zero] if A is None else A.elements
    if r > N:
        return [0] * N
    total = (0,) * len(moduli)
    if 2 * r > N:
        r, total = N - r, _group_total(group)
    weights = Counter()  # g -> r! times the count of each t in dG
    for parts in _cycle_types(r, r):
        g = tuple(gcd(gcd(*parts), m) for m in moduli)
        # the permutations of cycle type parts, times N^l(parts) / |dG|
        perms = factorial(r) // prod(k**e * factorial(e) for k, e in Counter(parts).items())
        weights[g] += (-1) ** (r - len(parts)) * perms * N ** len(parts) * prod(g) // N
    # the d = 1 term counts every a for every x
    scores = [weights.pop((1,) * len(moduli), 0) * len(A)] * N
    for g, w in weights.items():
        classes = Counter(tuple(map(operator.mod, a, g)) for a in A)
        digits = ([(s - v) % gi for v in range(m)] for s, m, gi in zip(total, moduli, g))
        scores = [x + w * classes[k] for x, k in zip(scores, itertools.product(*digits))]
    return [s // factorial(r) for s in scores]


def representation_counts(
    group: CyclicProduct,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
) -> dict:
    """Number of r-subsets of distinct group elements summing to each value."""
    return dict(zip(group.elements(), _translate_scores(group, r, max_combinations)))


def cayley_hypergraph(
    group: CyclicProduct,
    A: GroundSet,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
) -> Hypergraph:
    """The r-uniform hypergraph with an edge per distinct r-subset summing
    into A.  Vertices are lexicographic element indices.

    For 2r <= N the edges are the r-subsets of sum in A, as _sum_subsets
    lists them.  Above that an r-subset sums into A exactly when its
    complement sums into total - A, total the sum of the whole group, so
    the walk lists the N - r subsets instead, and their complements,
    taken in reverse, are the edges in order.  Those hold r vertices each,
    so they are refused when r times their number exceeds the budget.
    """
    if not isinstance(group, CyclicProduct):
        raise StructureError("sum hypergraphs are built over product groups")
    if A.ambient != group:
        raise StructureError("set and group ambient differ")
    N = group.cardinality
    _check_subsets(N, r, max_combinations)
    bits = _bitsets(group)
    if 2 * r <= N:
        return Hypergraph(N, r, tuple(_sum_subsets(bits, A.bitmask, N, r)))
    if r > N:
        return Hypergraph(N, r, ())
    total = group.index(_group_total(group))
    target = sum(1 << bits.diff(a, total) for a in _indices(A.bitmask))  # total - A
    subsets = _sum_subsets(bits, target, N, N - r)
    if r * len(subsets) > max_combinations:
        raise BudgetExceededError(
            f"{len(subsets)} edges of {r} vertices exceed the combination budget "
            f"{max_combinations}"
        )
    vertices = tuple(range(N))
    edges = []
    for subset in reversed(subsets):
        cuts = (-1, *subset, N)
        gaps = (vertices[a + 1 : b] for a, b in zip(cuts, cuts[1:]))
        edges.append(tuple(itertools.chain.from_iterable(gaps)))
    return Hypergraph(N, r, tuple(edges))


def _sum_subsets(bits, target: int, N: int, k: int) -> list:
    """The k-subsets of the indices 0..N-1 whose sum lies in the bitset
    target, in lexicographic order.  Each head, an (k-1)-subset of sum s,
    extends by every index j above its own with s + j in target, read off
    the bitset target - s."""
    if k == 0:
        return [()] if target & 1 else []
    subsets = []
    for head in itertools.combinations(range(N - 1), k - 1):
        s = functools.reduce(bits.add, head[1:], head[0]) if head else 0
        first = head[-1] + 1 if head else 0
        subsets += [head + (j + first,) for j in _indices(bits.minus(target, s) >> first)]
    return subsets


def _group_total(group: CyclicProduct) -> tuple:
    """The sum of every element: each residue mod m occurs N / m times."""
    N = group.cardinality
    return tuple(N // m * comb(m, 2) % m for m in group.moduli)


def best_translate(
    group: CyclicProduct,
    A: GroundSet,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
):
    """Translate of A whose sum hypergraph has the most edges.

    Returns (element, edge_count, mean) where mean is the exact average
    edge count |A| C(N, r) / N over all translates; the winner is the
    lexicographically first translate attaining the maximum, and its
    count is never below the mean.
    """
    if A.ambient != group:
        raise StructureError("set and group ambient differ")
    scores = _translate_scores(group, r, max_combinations, A)
    N = group.cardinality
    best = max(range(N), key=scores.__getitem__)  # the first maximum
    mean = Fraction(len(A) * comb(N, r), N)
    if scores[best] < mean:
        raise RuntimeError("internal error: best translate fell below the average")
    return group.element_at(best), scores[best], mean


# ---------------------------------------------------------------------------
# complete multipartite subgraph search


def contains_complete_rpartite(
    graph: Hypergraph, sig: Signature
) -> Optional[tuple]:
    """Disjoint vertex classes of the given sizes with every transversal an
    edge, or None.

    Any such witness has an edge as a transversal, so the search seeds the
    classes with the vertices of one edge and grows them one vertex at a
    time; a new vertex is admissible when every transversal through it and
    the vertices placed so far is an edge, which is read off the completion
    links of the (r-1)-subsets of edges, built a column of the edge list at
    a time.  The scan is deterministic (edges in sorted order, candidates
    ascending) and the first witness found is returned, each class sorted.
    """
    if sig.r != graph.r:
        raise InvalidInputError(
            f"signature has {sig.r} parts but the hypergraph is {graph.r}-uniform"
        )
    r = graph.r
    lengths = sig.lengths
    # the completion link of each (r-1)-subset of an edge, one column at a time
    def column(j: int):
        return map(operator.itemgetter(j), graph.edges)

    completions = defaultdict(set)
    for i in range(r):
        rests = zip(*map(column, range(i)), *map(column, range(i + 1, r)))
        for rest, v in zip(rests if r > 1 else itertools.repeat(()), column(i)):
            completions[rest].add(v)

    def candidates(classes, skip: int) -> list:
        # Every transversal of the classes is an edge, so every lookup holds
        # the skipped class's own vertices: none misses, the pool never empties.
        others = (c for j, c in enumerate(classes) if j != skip)
        pool = set.intersection(
            *(completions[tuple(sorted(t))] for t in itertools.product(*others))
        )
        used = {v for c in classes for v in c}
        return sorted(pool - used)

    def grow(classes):
        for j in range(r):
            if len(classes[j]) < lengths[j]:
                for v in candidates(classes, j):
                    extended = list(classes)
                    extended[j] = tuple(sorted(classes[j] + (v,)))
                    found = grow(extended)
                    if found is not None:
                        return found
                return None
        return tuple(classes)

    def seeds(rest: tuple, placed: tuple = ()):
        # The distinct ways to put an edge's vertices in the classes, one
        # per class, in lexicographic order.  Classes of equal size are
        # interchangeable, so vertices rise along a run of equal sizes and
        # each seed is the first permutation of the edge that places it; a
        # vertex is placed only if enough larger ones remain for its run.
        i = len(placed)
        if i == r:
            yield placed
            return
        run_end = bisect.bisect_right(lengths, lengths[i])
        low = bisect.bisect(rest, placed[-1]) if i and lengths[i - 1] == lengths[i] else 0
        for k in range(low, len(rest) - (run_end - i) + 1):
            yield from seeds(rest[:k] + rest[k + 1 :], placed + (rest[k],))

    for edge in graph.edges:
        for perm in seeds(edge):
            found = grow([(v,) for v in perm])
            if found is not None:
                return found
    return None
