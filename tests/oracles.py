"""Brute-force reference implementations used by the test suite.

Everything here trades efficiency for being obviously correct: direct
nested loops over offsets and summand choices, and a dense bitmask table
of free subsets obtained by marking every forbidden value set and closing
under supersets.  The library under test must agree with these on small
instances.
"""

from __future__ import annotations

import itertools

import numpy as np

from sumsetfree.core import IntegerInterval, StructureError, elem_add, elem_sub


def interval_decompositions(elems, lengths):
    """All canonical decompositions (offset, summands) inside an integer set.

    A canonical summand starts at 0 and lists distinct positive shifts in
    increasing order; equal summand sets may repeat across positions.
    """
    members = set(elems)
    if not members:
        return []
    top = max(members)
    out = []
    for x in sorted(members):
        budget = top - x
        pools = [
            [(0,) + c for c in itertools.combinations(range(1, budget + 1), l - 1)]
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
        for combo in itertools.product(*pools):
            values = set()
            for p in itertools.product(*combo):
                v = x
                for d in p:
                    v = add(v, d)
                values.add(v)
            if values <= members:
                out.append((x, tuple(combo)))
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


def ternary_01_set(n):
    """Elements x of 1..n such that x - 1 has only 0 and 1 as base-3 digits."""
    rest = np.arange(n)
    keep = np.ones(n, dtype=bool)
    while rest.any():
        keep &= rest % 3 != 2
        rest //= 3
    return tuple((np.flatnonzero(keep) + 1).tolist())


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
    elems = A.as_set()
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
