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
above h of the detection kernel's bitset A - s.

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
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter
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
        # one pass: each edge strictly increasing, each strictly above the last
        last = None
        for edge in self.edges:
            if len(edge) != self.r:
                raise StructureError(f"edge {edge!r} is not {self.r}-uniform")
            if not all(map(operator.lt, edge, edge[1:])):
                raise StructureError(f"edge {edge!r} is not sorted and distinct")
            if edge[0] < 0 or edge[-1] >= self.n:
                raise StructureError(f"edge {edge!r} leaves the vertex range")
            if last is not None and edge <= last:
                if edge == last:
                    raise StructureError(f"duplicate edge {edge!r}")
                raise StructureError("edges must be listed in sorted order")
            last = edge

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
        words = line.split()
        if words[0] == "#hypergraph":
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
            continue
        if line.startswith("#"):
            continue
        if n is None:
            raise StructureError(f"line {lineno}: edge before hypergraph header")
        try:
            edges.append(tuple(int(tok) for tok in words))
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


def _check_subsets(N: int, r: int, max_combinations: int) -> None:
    """r is a positive integer and max(C(N, r), N) fits the budget: the
    r-subsets, or for r >= N, where there is at most one, the N scores."""
    if not isinstance(r, int) or r < 1:
        raise InvalidInputError(f"uniformity must be positive, got {r!r}")
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
        r, total = N - r, tuple(N // m * comb(m, 2) % m for m in moduli)
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

    Each head, an (r-1)-subset of sum s, extends to an edge by every index
    j above its own with s + j in A, read off the bitset A - s; heads in
    lexicographic order and j ascending list the edges sorted.
    """
    if not isinstance(group, CyclicProduct):
        raise StructureError("sum hypergraphs are built over product groups")
    if A.ambient != group:
        raise StructureError("set and group ambient differ")
    N = group.cardinality
    _check_subsets(N, r, max_combinations)
    bits = _bitsets(group)
    edges = []
    for head in itertools.combinations(range(N - 1), r - 1):
        s = functools.reduce(bits.add, head[1:], head[0]) if head else 0
        first = head[-1] + 1 if head else 0
        edges += [head + (j + first,) for j in _indices(bits.minus(A.bitmask, s) >> first)]
    return Hypergraph(N, r, tuple(edges))


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
