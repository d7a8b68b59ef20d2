"""Cayley-style sum hypergraphs over finite product groups.

The r-uniform hypergraph of a set A in a group G has the group elements
as vertices, indexed in lexicographic order, and an edge for every
r-subset of distinct elements whose sum lands in A.  Forbidden sumsets in
A correspond to complete r-partite subgraphs here, so freeness questions
become subgraph questions; contains_complete_rpartite searches for a
complete r-partite witness with prescribed part sizes by backtracking
over disjoint vertex classes, pruning through the sets of k-subsets of
edges.  best_translate scores every translate A + x at once, as the sum
over a in A of the list of counts translated by -a, and returns the first
one, in lexicographic order, whose hypergraph has the most edges; the
maximum is at least the average |A| C(N, r) / N by double counting, and
that exact average is returned alongside.

Both the edges and the counts of r-subsets by sum come from one walk
over the heads of the r-subsets, their r-1 smallest indices, in
lexicographic order, with each head's sum kept as an element index.  A
head of sum s and largest index h extends to an edge by every index
j > h with s + j in A: the set bits above h of the detection kernel's
bitset A - s.  The walk visits the C(N-1, r-1) heads; the combination
budget still bounds the C(N, r) subsets they extend to.

Hypergraphs serialize to a small text format: a header line
"#hypergraph n=<vertices> r=<uniformity>", then one line per edge with
space-separated vertex indices.  Comment lines start with '#'.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
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
        seen = set()
        for edge in self.edges:
            if len(edge) != self.r:
                raise StructureError(f"edge {edge!r} is not {self.r}-uniform")
            if list(edge) != sorted(set(edge)):
                raise StructureError(f"edge {edge!r} is not sorted and distinct")
            if edge[0] < 0 or edge[-1] >= self.n:
                raise StructureError(f"edge {edge!r} leaves the vertex range")
            if edge in seen:
                raise StructureError(f"duplicate edge {edge!r}")
            seen.add(edge)
        if list(self.edges) != sorted(self.edges):
            raise StructureError("edges must be listed in sorted order")

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        normalized = {tuple(sorted(e)) for e in edges}
        return cls(n, r, tuple(sorted(normalized)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_text(self) -> str:
        lines = [f"#hypergraph n={self.n} r={self.r}"]
        lines += [" ".join(str(v) for v in edge) for edge in self.edges]
        return "\n".join(lines) + "\n"


def parse_hypergraph_text(text: str) -> Hypergraph:
    n = r = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#hypergraph"):
            if n is not None:
                raise StructureError(f"line {lineno}: duplicate hypergraph header")
            try:
                fields = dict(tok.split("=", 1) for tok in line.split()[1:])
                n = int(fields["n"])
                r = int(fields["r"])
            except (KeyError, ValueError) as exc:
                raise StructureError(f"line {lineno}: bad hypergraph header") from exc
            continue
        if line.startswith("#"):
            continue
        if n is None:
            raise StructureError(f"line {lineno}: edge before hypergraph header")
        try:
            edges.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise StructureError(f"line {lineno}: bad edge line {line!r}") from exc
    if n is None or r is None:
        raise StructureError("missing hypergraph header")
    return Hypergraph.from_edges(n, r, edges)


def read_hypergraph_file(path) -> Hypergraph:
    return parse_hypergraph_text(Path(path).read_text(encoding="utf-8"))


def write_hypergraph_file(graph: Hypergraph, path) -> None:
    Path(path).write_text(graph.to_text(), encoding="utf-8")


# ---------------------------------------------------------------------------
# construction from a group set


def _heads(group: CyclicProduct, r: int, max_combinations: int):
    """The head, the r-1 smallest indices, of each r-subset of element
    indices as (head, index of its sum), heads in lexicographic order; r
    and the budget on the r-subsets are checked first.  For r = 1 the one
    head is empty."""
    if not isinstance(r, int) or r < 1:
        raise InvalidInputError(f"uniformity must be positive, got {r!r}")
    N = group.cardinality
    if comb(N, r) > max_combinations:
        raise BudgetExceededError(
            f"{comb(N, r)} subsets exceed the combination budget {max_combinations}"
        )
    add = _bitsets(group).add

    def walk(head, s, left):
        if not left:
            yield head, s
            return
        # leave room for left - 1 more head indices and a last index
        for i in range(head[-1] + 1 if head else 0, N - left):
            yield from walk(head + (i,), add(s, i), left - 1)

    return walk((), 0, r - 1)


def representation_counts(
    group: CyclicProduct,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
) -> dict:
    """Number of r-subsets of distinct group elements summing to each value.

    An r-subset is a head, its r-1 smallest indices, plus a last index j
    above the head's.  So with P_s[j] the number of heads of sum s whose
    indices all lie below j, the count at t is the sum over s of
    P_s[t - s]: one pass over the C(N-1, r-1) heads, then one translate of
    a length-N list per distinct head sum.
    """
    if not isinstance(group, CyclicProduct):
        raise StructureError("representation counts expect a product group")
    N = group.cardinality
    firsts_by_sum: dict = {}  # head sum -> Counter of the least index above the head
    for head, s in _heads(group, r, max_combinations):
        firsts_by_sum.setdefault(s, Counter())[head[-1] + 1 if head else 0] += 1
    bits = _bitsets(group)
    counts = [0] * N
    for s, firsts in firsts_by_sum.items():
        below = [0] * N  # below[j]: heads of sum s whose indices all lie below j
        for first, k in firsts.items():
            below[first] += k
        below = list(itertools.accumulate(below))
        counts = list(map(operator.add, counts, bits.translate(below, s)))
    return dict(zip(group.elements(), counts))


def cayley_hypergraph(
    group: CyclicProduct,
    A: GroundSet,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
) -> Hypergraph:
    """The r-uniform hypergraph with an edge per distinct r-subset summing
    into A.  Vertices are lexicographic element indices.

    Each head, an (r-1)-subset of sum s, extends to an edge by every index
    j above its own with s + j in A, read off the bitset A - s; heads in
    lexicographic order and j ascending list the edges sorted.
    """
    if not isinstance(group, CyclicProduct):
        raise StructureError("sum hypergraphs are built over product groups")
    if A.ambient != group:
        raise StructureError("set and group ambient differ")
    heads = _heads(group, r, max_combinations)
    bits = _bitsets(group)
    edges = []
    for head, s in heads:
        first = head[-1] + 1 if head else 0
        edges += [head + (j + first,) for j in _indices(bits.minus(A.bitmask, s) >> first)]
    return Hypergraph(group.cardinality, r, tuple(edges))


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
    counts = representation_counts(group, r, max_combinations=max_combinations)
    counts = list(counts.values())  # in index order
    N = group.cardinality
    bits = _bitsets(group)
    scores = [0] * N  # scores[x]: the sum of counts[a + x] over a in A
    for a in _indices(A.bitmask):
        scores = list(map(operator.add, scores, bits.translate(counts, bits.diff(a, 0))))
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
    the vertices placed so far is an edge, which is read off precomputed
    completion links of (r-1)-subsets of edges.  The scan is deterministic
    (edges in sorted order, candidates ascending) and the first witness
    found is returned, each class sorted.
    """
    if sig.r != graph.r:
        raise InvalidInputError(
            f"signature has {sig.r} parts but the hypergraph is {graph.r}-uniform"
        )
    r = graph.r
    lengths = sig.lengths
    completions: dict = {}
    for edge in graph.edges:
        for i in range(r):
            rest = edge[:i] + edge[i + 1 :]
            completions.setdefault(rest, set()).add(edge[i])

    def candidates(classes, skip: int) -> list:
        pool = None
        for transversal in itertools.product(
            *(c for j, c in enumerate(classes) if j != skip)
        ):
            found = completions.get(tuple(sorted(transversal)))
            if not found:
                return []
            pool = set(found) if pool is None else pool & found
            if not pool:
                return []
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
