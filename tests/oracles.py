"""Brute-force reference implementations used by the test suite.

Everything here trades efficiency for being obviously correct: direct
nested loops over offsets and summand choices, and a dense bitmask table
of free subsets obtained by marking every forbidden value set and closing
under supersets.  The library under test must agree with these on small
instances.
"""

from __future__ import annotations

import decimal
import itertools
import operator
from fractions import Fraction
from math import factorial

import numpy as np

from sumsetfree.core import (
    IntegerInterval,
    InvalidInputError,
    PreconditionError,
    StructureError,
    elem_add,
    elem_sub,
)


def interval_decompositions(elems, lengths):
    """All canonical decompositions (offset, summands) inside an integer set.

    A canonical summand starts at 0 and lists distinct positive shifts in
    increasing order; equal summand sets may repeat across positions.
    Every shift d of a summand puts x + d among the values (zeros in the
    other summands), so only shifts to members above the offset x are
    tried.
    """
    members = set(elems)
    out = []
    for x in sorted(members):
        shifts = [y - x for y in sorted(members) if y > x]
        pools = [
            [(0,) + c for c in itertools.combinations(shifts, l - 1)]
            for l in lengths
        ]
        for combo in itertools.product(*pools):
            values = {x + sum(p) for p in itertools.product(*combo)}
            if values <= members:
                out.append((x, tuple(combo)))
    return out


def cyclic_decompositions(moduli, elems, lengths):
    """All canonical decompositions inside a subset of Z_m1 x ... x Z_mk.

    Elements and shifts are residue tuples added coordinatewise, and
    tuples compare lexicographically, which is the linearized order.  A
    canonical summand contains the zero tuple and distinct nonzero shifts
    sorted increasing.  The last summand is additionally anchored: the
    offset is the smallest point of the final recursion level, so its
    shifts d list the points x + d after the offset x, in increasing order
    of those points.  Earlier summands range over every zero-containing
    shift set, rotations included, which is the convention the package
    enumerates.

    The summands are chosen one at a time, pool by pool, in the order of
    itertools.product over the pools, and the values so far are the sums
    of x and the summands chosen; every summand contains zero, so those
    are among the final values, and a choice that puts one outside the
    set is not extended.
    """
    group = list(itertools.product(*(range(m) for m in moduli)))
    zero = group[0]

    def add(a, b):
        return tuple((u + v) % m for u, v, m in zip(a, b, moduli))

    def sub(a, b):
        return tuple((u - v) % m for u, v, m in zip(a, b, moduli))

    members = set(elems)
    out = []
    for x in sorted(members):
        pools = [
            [(zero,) + c for c in itertools.combinations(group[1:], l - 1)]
            for l in lengths[:-1]
        ]
        later = [y for y in group if y > x]
        pools.append(
            [
                (zero,) + tuple(sub(y, x) for y in c)
                for c in itertools.combinations(later, lengths[-1] - 1)
            ]
        )
        def extend(values, combo):
            if len(combo) == len(pools):
                out.append((x, combo))
                return
            for L in pools[len(combo)]:
                more = {add(v, d) for v in values for d in L}
                if more <= members:
                    extend(more, combo + (L,))

        extend({x}, ())
    return out


def decomposition_value_sets(decompositions, moduli=None):
    """The value set of each decomposition (offset, summands), in order.

    Values are integer sums, or residue tuples added coordinatewise when
    moduli is given.
    """

    def add(a, b):
        if moduli is None:
            return a + b
        return tuple((u + v) % m for u, v, m in zip(a, b, moduli))

    out = []
    for x, combo in decompositions:
        values = set()
        for p in itertools.product(*combo):
            v = x
            for d in p:
                v = add(v, d)
            values.add(v)
        out.append(frozenset(values))
    return out


def interval_forbidden_masks(n, lengths):
    """Bitmasks (bit i = element i+1) of every forbidden value set in [1, n]."""
    masks = set()
    for x, combo in interval_decompositions(range(1, n + 1), lengths):
        mask = 0
        for p in itertools.product(*combo):
            mask |= 1 << (x + sum(p) - 1)
        masks.add(mask)
    return masks


def cyclic_forbidden_masks(n, lengths):
    """Bitmasks (bit i = residue i) of every forbidden value set in Z_n."""
    masks = set()
    for (x,), combo in cyclic_decompositions((n,), [(v,) for v in range(n)], lengths):
        mask = 0
        for p in itertools.product(*combo):
            mask |= 1 << ((x + sum(d for (d,) in p)) % n)
        masks.add(mask)
    return masks


def close_under_supersets(n, seed_masks):
    """Boolean table over all 2^n masks: True when some seed mask is a subset."""
    bad = np.zeros(1 << n, dtype=bool)
    for m in seed_masks:
        bad[m] = True
    for i in range(n):
        view = bad.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return bad


def popcount_table(n):
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


def interval_free_table(n, lengths):
    """free[mask] for subsets of [1, n]; bit i stands for element i+1."""
    return ~close_under_supersets(n, interval_forbidden_masks(n, lengths))


def cyclic_free_table(n, lengths):
    """free[mask] for subsets of Z_n; bit i stands for residue i."""
    return ~close_under_supersets(n, cyclic_forbidden_masks(n, lengths))


def exhaustive_max_free(free_table):
    """Maximum subset size over all free masks in a table."""
    n = (len(free_table) - 1).bit_length()
    return int(popcount_table(n)[free_table].max())


def has_progression(values):
    """Three-term arithmetic progression (nonzero difference) by triple scan."""
    vals = sorted(set(values))
    for a, b, c in itertools.combinations(vals, 3):
        if a + c == 2 * b:
            return True
    return False


def has_progression_by_pairs(values):
    """Three-term arithmetic progression by pairs: for every a < c of
    equal parity, look their midpoint up in a set.  O(k^2) for k distinct
    values, so it reaches bases of a few thousand elements."""
    vals = sorted(set(values))
    members = set(vals)
    for i, a in enumerate(vals):
        for c in vals[i + 1:]:
            if (a + c) % 2 == 0 and (a + c) // 2 in members:
                return True
    return False


def ternary_01_set(n):
    """Elements x of 1..n such that x - 1 has only 0 and 1 as base-3 digits."""
    rest = np.arange(n)
    keep = np.ones(n, dtype=bool)
    while rest.any():
        keep &= rest % 3 != 2
        rest //= 3
    return tuple((np.flatnonzero(keep) + 1).tolist())


def zp3_triples(p):
    """The discrete-log triples (dlog u, dlog v, dlog w) of u + v + w = 1
    mod the prime p with u, v, w outside {0, 1}, as sorted tuples; the
    logs are to the least residue whose powers reach every unit."""
    units = set(range(1, p))
    theta = next(g for g in range(2, p) if {pow(g, e, p) for e in range(p - 1)} == units)
    dlog = {pow(theta, e, p): e for e in range(p - 1)}
    return sorted(
        (dlog[u], dlog[v], dlog[w])
        for u in range(2, p)
        for v in range(2, p)
        if (w := (1 - u - v) % p) not in (0, 1)
    )


def sidon_by_sums(values):
    """Classical integer test: all pairwise sums a + b, a <= b, distinct."""
    vals = sorted(set(values))
    seen = set()
    for i, a in enumerate(vals):
        for b in vals[i:]:
            if a + b in seen:
                return False
            seen.add(a + b)
    return True


def greedy_sidon(limit):
    """Greedy no-repeated-difference sequence via explicit difference sets."""
    terms = []
    diffs = set()
    for c in range(1, limit + 1):
        new = {c - t for t in terms}
        if new & diffs:
            continue
        diffs |= new
        terms.append(c)
    return terms


def decimal_statistic(count, x, pp):
    """count (x ln x)^(1/pp) / x in 50-digit decimal arithmetic, rounded to
    a float; the decimal range holds x ln x far past the float range."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(x)
        return float(count * (x * x.ln()) ** (decimal.Decimal(1) / pp) / x)


def _residue_sum(moduli, elems):
    return tuple(sum(coords) % m for coords, m in zip(zip(*elems), moduli))


def sum_hypergraph_edges(moduli, elems, r):
    """Edges of the r-uniform sum hypergraph of a set in Z_m1 x ... x Z_mk.

    Vertices are the lexicographic positions of the residue tuples; an
    edge is every r-subset of distinct positions whose residues sum into
    the set, listed in the order itertools.combinations yields them.
    """
    group = list(itertools.product(*(range(m) for m in moduli)))
    members = set(elems)
    return [
        combo
        for combo in itertools.combinations(range(len(group)), r)
        if _residue_sum(moduli, [group[i] for i in combo]) in members
    ]


def subset_sum_counts(moduli, r):
    """For every residue tuple, in lexicographic order, the number of
    r-subsets of distinct group elements that sum to it."""
    group = list(itertools.product(*(range(m) for m in moduli)))
    counts = dict.fromkeys(group, 0)
    for combo in itertools.combinations(group, r):
        counts[_residue_sum(moduli, combo)] += 1
    return counts


def hypergraph_edges(n, r, edges):
    """The edges Hypergraph(n, r, edges) keeps, checked one edge at a time:
    the first edge, in list order, that breaks a rule raises, with the
    first rule it breaks."""
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"vertex count must be positive, got {n!r}")
    if not isinstance(r, int) or r < 1:
        raise InvalidInputError(f"uniformity must be positive, got {r!r}")
    last = None
    for edge in edges:
        if len(edge) != r:
            raise StructureError(f"edge {edge!r} is not {r}-uniform")
        if not all(map(operator.lt, edge, edge[1:])):
            raise StructureError(f"edge {edge!r} is not sorted and distinct")
        if edge[0] < 0 or edge[-1] >= n:
            raise StructureError(f"edge {edge!r} leaves the vertex range")
        if last is not None and edge <= last:
            if edge == last:
                raise StructureError(f"duplicate edge {edge!r}")
            raise StructureError("edges must be listed in sorted order")
        last = edge
    return tuple(edges)


def normalized_hypergraph_edges(n, r, edges):
    """The edges Hypergraph.from_edges keeps: each edge sorted, duplicates
    dropped, the list sorted, then checked as hypergraph_edges does."""
    normalized = {tuple(sorted(e)) for e in edges}
    return hypergraph_edges(n, r, tuple(sorted(normalized)))


def hypergraph_text(n, r, edges):
    """The text format: the header, then one line per edge."""
    lines = [f"#hypergraph n={n} r={r}"]
    lines += [" ".join(str(v) for v in edge) for edge in edges]
    return "\n".join(lines) + "\n"


def parse_hypergraph_lines(text):
    """(n, r, edges) of a hypergraph text, read one line at a time, with
    the edges as normalized_hypergraph_edges keeps them."""
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
    return n, r, normalized_hypergraph_edges(n, r, edges)


def complete_rpartite_by_classes(n, r, edges, lengths):
    """Exhaustive search for disjoint classes with all transversals edges."""
    edge_set = {tuple(sorted(e)) for e in edges}

    def extend(classes, used):
        k = len(classes)
        if k == r:
            return tuple(classes)
        for cand in itertools.combinations(
            [v for v in range(n) if v not in used], lengths[k]
        ):
            trial = classes + [cand]
            if k + 1 == r:
                if all(
                    tuple(sorted(t)) in edge_set for t in itertools.product(*trial)
                ):
                    return tuple(trial)
            else:
                found = extend(trial, used | set(cand))
                if found is not None:
                    return found
        return None

    return extend([], set())


def cube3_sum_relations(points, ambient):
    """Check the eight-point sum system characterizing a 3-cube.

    points = (x1, ..., x8) indexed so that x1 is the base corner, x2/x3/x5
    the neighbors along the three edge directions, and the rest the
    remaining corners in the induced order.  The four relations below plus
    distinctness of each neighbor from the base pin the cube structure.
    """
    if len(points) != 8:
        raise StructureError("cube relation check needs exactly eight points")
    x1, x2, x3, x4, x5, x6, x7, x8 = points
    add = lambda a, b: elem_add(a, b, ambient)
    if x2 == x1 or x3 == x1 or x5 == x1:
        return False
    return (
        add(x2, x3) == add(x4, x1)
        and add(x2, x5) == add(x6, x1)
        and add(x2, x7) == add(x8, x1)
        and add(x3, x5) == add(x7, x1)
    )


def has_cube_dim3_by_sum_system(A):
    """Direct 3-cube search validated through the eight-point sum system.

    Independent of the detector's recursion for signature (2,2,2): it
    tries every base point and every triple of differences directly.
    """
    ambient = A.ambient
    elems = frozenset(A)
    ordered = tuple(sorted(elems))
    interval = isinstance(ambient, IntegerInterval)
    pairs = itertools.permutations(ordered, 2)
    diffs = sorted({elem_sub(b, a, ambient) for a, b in pairs if b > a or not interval})
    add = lambda a, b: elem_add(a, b, ambient)
    for x in ordered:
        for d1, d2, d3 in itertools.combinations_with_replacement(diffs, 3):
            pts = [x]  # x + every sub-sum of (d1, d2, d3), d1 varying fastest
            for d in (d1, d2, d3):
                pts += [add(p, d) for p in pts]
            pts = tuple(pts)
            if all(p in elems for p in pts) and cube3_sum_relations(pts, ambient):
                return True
    return False


def automorphism_orbits(moduli):
    """The orbit of each element of Z_m1 x ... x Z_mk under all of its
    automorphisms, as a dict from residue tuple to frozenset of tuples.

    A homomorphism is fixed by the images g_i of the unit vectors e_i, and
    any g_i whose order divides m_i will do; the automorphisms are the
    bijective ones.  Every choice of images is tried, N**k of them for N
    elements and k coordinates, so the group must keep that at most 10**5.
    """
    group = list(itertools.product(*(range(m) for m in moduli)))
    if len(group) ** len(moduli) > 10**5:
        raise ValueError(f"{moduli}: too many candidate automorphisms")
    pools = [
        [g for g in group if all(m * x % q == 0 for x, q in zip(g, moduli))]
        for m in moduli
    ]
    orbits = {x: set() for x in group}
    for images in itertools.product(*pools):
        phi = [
            tuple(
                sum(c * g[t] for c, g in zip(x, images)) % q
                for t, q in enumerate(moduli)
            )
            for x in group
        ]
        if len(set(phi)) == len(group):
            for x, y in zip(group, phi):
                orbits[x].add(y)
    return {x: frozenset(o) for x, o in orbits.items()}


def overlap_by_subsets(A, B, X, r):
    """Both sides of the translate-averaging inequality, straight from the
    definition: the sizes |(A+x1) & ... & (A+xr)| summed over every
    r-subset {x1, ..., xr} of B, divided by |X|, and the falling-factorial
    binomial C(|A||B|/|X|, r).  C(|B|, r) intersections of frozensets, so
    only for small B."""
    a_elems = sorted(set(A))
    b_elems = sorted(set(B))
    members = frozenset(X)
    if not a_elems or not b_elems or not members:
        raise PreconditionError("overlap check needs nonempty A, B, X")
    translates = {}
    for b in b_elems:
        shifted = frozenset(elem_add(a, b, X.ambient) for a in a_elems)
        if not shifted <= members:
            raise PreconditionError("A + B is not contained in X")
        translates[b] = shifted
    total = 0
    for combo in itertools.combinations(b_elems, r):
        total += len(frozenset.intersection(*(translates[b] for b in combo)))
    sigma = Fraction(len(a_elems) * len(b_elems), len(members))
    rhs = Fraction(1)
    for i in range(r):
        rhs *= sigma - i
    return Fraction(total, len(members)), rhs / factorial(r)
