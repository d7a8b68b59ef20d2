"""Cayley-style sum hypergraphs over finite product groups.

The r-uniform hypergraph of a set A in a group G has the group elements
as vertices, indexed in lexicographic order, and an edge for every
r-subset of distinct elements whose sum lands in A.  Forbidden sumsets in
A correspond to complete r-partite subgraphs here, so freeness questions
become subgraph questions; contains_complete_rpartite searches for a
complete r-partite witness with prescribed part sizes by backtracking
over disjoint vertex classes, pruning through the sets of k-subsets of
edges.  best_translate scans all translates A + x and returns the first
one, in lexicographic order, whose hypergraph has the most edges; the
maximum is at least the average |A| C(N, r) / N by double counting, and
that exact average is returned alongside.

Hypergraphs serialize to a small text format: a header line
"#hypergraph n=<vertices> r=<uniformity>", then one line per edge with
space-separated vertex indices.  Comment lines start with '#'.
"""

from __future__ import annotations

import itertools
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
    elem_add,
)

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


def _subset_sums(group: CyclicProduct, r: int, max_combinations: int):
    """Each r-subset of distinct elements as (index tuple, sum), index
    tuples in lexicographic order; r and the budget are checked first."""
    if not isinstance(r, int) or r < 1:
        raise InvalidInputError(f"uniformity must be positive, got {r!r}")
    N = group.cardinality
    if comb(N, r) > max_combinations:
        raise BudgetExceededError(
            f"{comb(N, r)} subsets exceed the combination budget {max_combinations}"
        )
    elements = list(group.elements())
    for combo in itertools.combinations(range(N), r):
        total = elements[combo[0]]
        for idx in combo[1:]:
            total = elem_add(total, elements[idx], group)
        yield combo, total


def representation_counts(
    group: CyclicProduct,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
) -> dict:
    """Number of r-subsets of distinct group elements summing to each value."""
    if not isinstance(group, CyclicProduct):
        raise StructureError("representation counts expect a product group")
    counts = Counter(total for _, total in _subset_sums(group, r, max_combinations))
    return {el: counts[el] for el in group.elements()}


def cayley_hypergraph(
    group: CyclicProduct,
    A: GroundSet,
    r: int,
    *,
    max_combinations: int = DEFAULT_COMBINATION_BUDGET,
) -> Hypergraph:
    """The r-uniform hypergraph with an edge per distinct r-subset summing
    into A.  Vertices are lexicographic element indices."""
    if not isinstance(group, CyclicProduct):
        raise StructureError("sum hypergraphs are built over product groups")
    if A.ambient != group:
        raise StructureError("set and group ambient differ")
    walk = _subset_sums(group, r, max_combinations)
    edges = tuple(combo for combo, total in walk if total in A)
    return Hypergraph(group.cardinality, r, edges)


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
    counts = representation_counts(group, r, max_combinations=max_combinations)
    N = group.cardinality
    best_x = None
    best_count = -1
    for x in group.elements():
        score = sum(counts[elem_add(a, x, group)] for a in A)
        if score > best_count:
            best_x = x
            best_count = score
    mean = Fraction(len(A) * comb(N, r), N)
    if best_count < mean:
        raise RuntimeError("internal error: best translate fell below the average")
    return best_x, best_count, mean


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

    seen_seeds = set()
    for edge in graph.edges:
        for perm in itertools.permutations(edge):
            key = frozenset(zip(lengths, perm))
            if key in seen_seeds:
                continue
            seen_seeds.add(key)
            found = grow([(v,) for v in perm])
            if found is not None:
                return found
    return None
