import functools
import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sumsetfree import (
    BudgetExceededError,
    CyclicProduct,
    GroundSet,
    Hypergraph,
    InvalidInputError,
    Signature,
    StructureError,
    best_translate,
    cayley_hypergraph,
    contains_complete_rpartite,
    elem_sub,
    parse_hypergraph_text,
    read_hypergraph_file,
    representation_counts,
    write_hypergraph_file,
    zp3_construction,
)

from oracles import (
    complete_rpartite_by_classes,
    hypergraph_edges,
    hypergraph_text,
    normalized_hypergraph_edges,
    parse_hypergraph_lines,
    subset_sum_counts,
    sum_hypergraph_edges,
)


def z5_graph():
    z5 = CyclicProduct((5,))
    A = GroundSet(z5, [(0,), (1,)])
    return z5, A, cayley_hypergraph(z5, A, 2)


def test_cayley_graph_of_small_group_set():
    z5, A, g = z5_graph()
    assert (g.n, g.r) == (5, 2)
    assert g.edges == ((0, 1), (1, 4), (2, 3), (2, 4))
    assert g.edge_count == 4
    assert contains_complete_rpartite(g, Signature((2, 2))) is None


def test_from_edges_normalizes():
    g = Hypergraph.from_edges(4, 2, [(2, 0), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2))


def test_hypergraph_validation():
    with pytest.raises(StructureError):
        Hypergraph(3, 2, ((0, 1, 2),))
    with pytest.raises(StructureError):
        Hypergraph(3, 2, ((0, 3),))
    with pytest.raises(StructureError):
        Hypergraph(3, 2, ((1, 0),))
    with pytest.raises(StructureError):
        Hypergraph(3, 2, ((0, 0),))
    with pytest.raises(StructureError, match="duplicate"):
        Hypergraph(3, 2, ((0, 1), (0, 1)))
    with pytest.raises(StructureError, match="sorted order"):
        Hypergraph(3, 2, ((0, 2), (0, 1)))


def test_hypergraph_file_round_trip(tmp_path):
    _, _, g = z5_graph()
    text = g.to_text()
    assert text.splitlines()[0] == "#hypergraph n=5 r=2"
    assert parse_hypergraph_text(text) == g
    path = tmp_path / "graph.txt"
    write_hypergraph_file(g, path)
    assert read_hypergraph_file(path) == g


def test_hypergraph_parse_errors():
    with pytest.raises(StructureError):
        parse_hypergraph_text("0 1\n")
    with pytest.raises(StructureError):
        parse_hypergraph_text("#hypergraph n=3 r=2\n0\n")
    with pytest.raises(StructureError):
        parse_hypergraph_text("#hypergraph n=3 r=2\n0 x\n")


def test_hypergraph_parse_skips_blank_and_comment_lines():
    text = "\n# a comment\n#hypergraph n=4 r=2\n\n0 1\n   \n# another\n2 3\n"
    assert parse_hypergraph_text(text) == Hypergraph(4, 2, ((0, 1), (2, 3)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("#hypergraph n=3 r=2\n#hypergraph n=3 r=2\n", "line 2: duplicate hypergraph header"),
        ("#hypergraph n=3\n", "line 1: bad hypergraph header"),
        ("#hypergraph n=x r=2\n", "line 1: bad hypergraph header"),
        ("", "missing hypergraph header"),
        ("# only a comment\n\n", "missing hypergraph header"),
        ("#hypergraph n=3 r=2 x=9\n0 1\n", "line 1: bad hypergraph header"),
        ("#hypergraph n=3 r=2 n=4\n0 1\n", "line 1: bad hypergraph header"),
        ("#hypergraph n=3 r=2 r=2\n0 1\n", "line 1: bad hypergraph header"),
        ("#hypergraph n=3 r\n0 1\n", "line 1: bad hypergraph header"),
    ],
)
def test_hypergraph_parse_header_errors(text, message):
    with pytest.raises(StructureError, match=message):
        parse_hypergraph_text(text)


def test_hypergraph_header_is_its_first_word():
    # only a line whose first word is #hypergraph is the header
    text = "#hypergraphs below\n#hypergraph n=3 r=2\n#hypergraphish note\n0 1\n"
    assert parse_hypergraph_text(text) == Hypergraph(3, 2, ((0, 1),))


@pytest.mark.parametrize("header", ["#hypergraph n=0 r=2", "#hypergraph n=3 r=0"])
def test_hypergraph_parse_rejects_empty_ranges(header):
    with pytest.raises(InvalidInputError):
        parse_hypergraph_text(header + "\n")


def outcome(fn, *args):
    """What a call gives: ("ok", result), or the type and message it raised."""
    try:
        return "ok", fn(*args)
    except (InvalidInputError, StructureError) as exc:
        return type(exc), str(exc)


@st.composite
def edge_lists(draw):
    """(n, r, edges): sometimes a canonical list with at most one fault
    planted, sometimes any tuples of small integers (unsorted, repeated,
    of mixed lengths, outside the vertices), and sometimes n or r invalid."""
    n, r = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    if draw(st.sampled_from(range(10))) == 0:
        n, r = draw(st.sampled_from([(0, r), (n, 0), (-1, r)]))
    if draw(st.booleans()):
        combos = list(itertools.combinations(range(max(n, 0)), max(r, 0)))
        edges = sorted(draw(st.sets(st.sampled_from(combos), max_size=12))) if combos else []
        if edges and draw(st.booleans()):
            i = draw(st.integers(0, len(edges) - 1))
            edge = list(edges[i])
            fault = draw(st.sampled_from(["swap", "repeat", "unsort", "outside", "shorten"]))
            if fault == "swap":
                j = draw(st.integers(0, len(edges) - 1))
                edges[i], edges[j] = edges[j], edges[i]
            elif fault == "repeat":
                edges.insert(i, edges[i])
            elif fault == "unsort":
                edges[i] = tuple(reversed(edge))
            elif fault == "outside":
                edges[i] = tuple(edge[:-1] + [n + draw(st.integers(0, 2))])
            else:
                edges[i] = tuple(edge[1:])
    else:
        vertex = st.integers(-2, 10)
        edges = draw(st.lists(st.lists(vertex, max_size=5).map(tuple), max_size=12))
    return n, r, tuple(edges)


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_validation_matches_the_per_edge_rules(case):
    n, r, edges = case
    assert outcome(lambda: Hypergraph(n, r, edges).edges) == outcome(
        hypergraph_edges, n, r, edges
    )
    got = outcome(Hypergraph.from_edges, n, r, edges)
    want = outcome(normalized_hypergraph_edges, n, r, edges)
    assert (got[0], got[1].edges if got[0] == "ok" else got[1]) == want
    if got[0] == "ok":
        g = got[1]
        assert g.to_text() == hypergraph_text(n, r, g.edges)
        assert parse_hypergraph_text(g.to_text()) == g


@st.composite
def hypergraph_texts(draw):
    """Hypergraph texts, mostly well formed: quiet lines, a header and
    edge lines, with odd lines mixed in before and after the header."""
    r = draw(st.integers(1, 3))
    edge = st.lists(st.integers(0, 7), min_size=r, max_size=r)
    quiet = st.sampled_from(["", "  ", "# note", "#hypergraphs note"])
    odd = st.sampled_from(
        ["#hypergraph n=7 r=2", "#hypergraph n=7", "0 x", "1 2 #3", "\t3\t4 ", "9", "-1 2 3"]
    )
    line = st.one_of(edge.map(lambda e: " ".join(map(str, e))), quiet)
    if draw(st.booleans()):
        line = st.one_of(line, line, odd)
    lines = draw(st.lists(st.one_of(quiet, odd) if draw(st.booleans()) else quiet, max_size=3))
    lines.append(f"#hypergraph n=7 r={r}")
    lines += draw(st.lists(line, max_size=12))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


@settings(max_examples=400, deadline=None)
@given(hypergraph_texts())
def test_parse_matches_the_line_by_line_reader(text):
    got = outcome(parse_hypergraph_text, text)
    want = outcome(parse_hypergraph_lines, text)
    if got[0] == "ok":
        got = ("ok", (got[1].n, got[1].r, got[1].edges))
    assert got == want


def deep_file(body_tail="", head=""):
    """A header and 40 000 sorted 3-edges, with lines before and after."""
    edges = itertools.islice(itertools.combinations(range(70), 3), 40_000)
    body = "".join(f"{a} {b} {c}\n" for a, b, c in edges)
    return head + "#hypergraph n=70 r=3\n" + body + body_tail


@pytest.mark.parametrize(
    "head, tail, message",
    [
        ("", "0 x 2\n", "line 40002: bad edge line '0 x 2'"),
        ("", "69 68 67\n 1 2 #c \n", "line 40003: bad edge line '1 2 #c'"),
        ("", "#hypergraph n=70 r=3\n", "line 40002: duplicate hypergraph header"),
        ("", "# fine\n0 1 x\n#hypergraph n=70 r=3\n", "line 40003: bad edge line '0 1 x'"),
        ("# c\n\n" * 20_000 + "0 1 2\n", "", "line 40001: edge before hypergraph header"),
        ("\n" * 40_000 + "0 1 #2\n", "", "line 40001: edge before hypergraph header"),
        ("", "5 6\n3 4 5 6\n", "edge (3, 4, 5, 6) is not 3-uniform"),
        ("", "69 70 71\n0 1 2\n", "edge (69, 70, 71) leaves the vertex range"),
    ],
    ids=["token", "hash", "header", "token-first", "edge", "hash-edge", "size", "range"],
)
def test_parse_errors_deep_in_a_file(head, tail, message):
    text = deep_file(tail, head)
    with pytest.raises(StructureError) as got:
        parse_hypergraph_text(text)
    with pytest.raises(StructureError) as want:
        parse_hypergraph_lines(text)
    assert str(got.value) == str(want.value) == message


def test_canonical_file_parses_to_its_edges():
    text = deep_file()
    g = parse_hypergraph_text(text)
    assert g.edges == tuple(itertools.islice(itertools.combinations(range(70), 3), 40_000))
    assert g.to_text() == text


def test_huge_uniformity_costs_nothing_per_unit_of_r():
    # a graph of r far past any edge holds no edge; checking, writing and
    # reading it, or refusing an edge too short for it, is one step per edge
    # (an r small enough that work per unit of r fails the clock, not hangs)
    r = 10**6
    header = f"#hypergraph n=3 r={r}\n"
    start = time.perf_counter()
    empty = Hypergraph(3, r, ())
    assert empty.to_text() == header
    assert parse_hypergraph_text(header) == empty
    for text in (header + "0 1\n", header + "0 1\n0 1 2\n"):
        with pytest.raises(StructureError, match=f"edge \\(0, 1\\) is not {r}-uniform"):
            parse_hypergraph_text(text)
    group = CyclicProduct((6,))
    assert cayley_hypergraph(group, GroundSet(group, [(1,)]), r).edges == ()
    assert time.perf_counter() - start < 1.0


def test_representation_counts_sum_to_binomial():
    for moduli in ((5,), (7,), (3, 4)):
        group = CyclicProduct(moduli)
        n = group.cardinality
        for r in (2, 3):
            counts = representation_counts(group, r)
            assert set(counts) == {group.element_at(i) for i in range(n)}
            total = sum(counts.values())
            assert total == len(list(itertools.combinations(range(n), r)))


def test_representation_counts_flat_on_odd_cycle():
    counts = representation_counts(CyclicProduct((5,)), 2)
    assert all(v == 2 for v in counts.values())


def test_singleton_cayley_edge_count_matches_counts():
    group = CyclicProduct((3, 4))
    counts = representation_counts(group, 2)
    for a in [(0, 0), (1, 2), (2, 3)]:
        g = cayley_hypergraph(group, GroundSet(group, [a]), 2)
        assert g.edge_count == counts[a]


def test_combination_budgets():
    with pytest.raises(BudgetExceededError):
        representation_counts(CyclicProduct((50,)), 4, max_combinations=1000)
    z5, A, _ = z5_graph()
    with pytest.raises(BudgetExceededError):
        cayley_hypergraph(z5, A, 2, max_combinations=3)
    # the budget bounds the r-subsets, not the (r-1)-subset heads walked,
    # and at r >= N, where there is at most one r-subset, the N scores
    for moduli, r in (((5,), 2), ((3, 4), 3), ((2, 2, 2, 2), 1), ((3,), 4), ((4,), 4)):
        group = CyclicProduct(moduli)
        zero = GroundSet(group, [group.zero])
        limit = max(comb(group.cardinality, r), group.cardinality)
        for call in (cayley_hypergraph, best_translate):
            with pytest.raises(
                BudgetExceededError,
                match=f"^{limit} subsets exceed the combination budget {limit - 1}$",
            ):
                call(group, zero, r, max_combinations=limit - 1)
            call(group, zero, r, max_combinations=limit)
        representation_counts(group, r, max_combinations=limit)
    for r in (0, 2.0):
        with pytest.raises(InvalidInputError):
            cayley_hypergraph(z5, A, r)


def test_uniformity_above_the_group_order_counts_nothing():
    group = CyclicProduct((2, 3))
    A = GroundSet(group, [(0, 0), (1, 2)])
    for r in (7, 10):
        assert set(representation_counts(group, r).values()) == {0}
        assert cayley_hypergraph(group, A, r).edge_count == 0
        assert best_translate(group, A, r) == ((0, 0), 0, Fraction(0))


def test_cayley_ambient_mismatch():
    _, A, _ = z5_graph()
    with pytest.raises(StructureError):
        cayley_hypergraph(CyclicProduct((6,)), A, 2)


def test_best_translate_ambient_mismatch():
    _, A, _ = z5_graph()
    with pytest.raises(StructureError):
        best_translate(CyclicProduct((6,)), A, 2)


def test_complete_bipartite_detection():
    comp = Hypergraph.from_edges(4, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert contains_complete_rpartite(comp, Signature((2, 2))) == ((0, 1), (2, 3))
    missing = Hypergraph.from_edges(4, 2, [(0, 2), (0, 3), (1, 2)])
    assert contains_complete_rpartite(missing, Signature((2, 2))) is None


def test_complete_rpartite_classes_are_valid():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(5, 9)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6
        ]
        g = Hypergraph.from_edges(n, 2, edges)
        found = contains_complete_rpartite(g, Signature((2, 2)))
        if found is None:
            continue
        c1, c2 = found
        assert len(c1) == len(c2) == 2
        assert set(c1).isdisjoint(c2)
        for t in itertools.product(c1, c2):
            assert tuple(sorted(t)) in g.edges


def test_complete_rpartite_matches_exhaustive_search():
    rng = random.Random(43)
    for lengths in ((2, 2), (2, 3)):
        sig = Signature(lengths)
        for _ in range(40):
            n = rng.randrange(4, 10)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            ]
            g = Hypergraph.from_edges(n, 2, edges)
            got = contains_complete_rpartite(g, sig) is not None
            want = complete_rpartite_by_classes(n, 2, edges, lengths) is not None
            assert got == want, (n, lengths, edges)


def test_complete_rpartite_triple_system():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randrange(6, 9)
        edges = [
            e for e in itertools.combinations(range(n), 3) if rng.random() < 0.4
        ]
        g = Hypergraph.from_edges(n, 3, edges)
        got = contains_complete_rpartite(g, Signature((2, 2, 2))) is not None
        want = complete_rpartite_by_classes(n, 3, edges, (2, 2, 2)) is not None
        assert got == want, (n, edges)


def test_complete_rpartite_rank_one():
    g = Hypergraph.from_edges(4, 1, [(0,), (2,), (3,)])
    assert contains_complete_rpartite(g, Signature((2,))) == ((0, 2),)
    assert contains_complete_rpartite(g, Signature((3,))) == ((0, 2, 3),)
    small = Hypergraph.from_edges(4, 1, [(1,)])
    assert contains_complete_rpartite(small, Signature((2,))) is None


@pytest.mark.parametrize("r", (1, 2, 3))
def test_complete_rpartite_in_the_empty_graph(r):
    assert contains_complete_rpartite(Hypergraph(4, r, ()), Signature((2,) * r)) is None


def test_complete_rpartite_past_the_recursion_limit_is_a_budget_error():
    # seeding the classes recurses once per class: 900 fit Python's default
    # limit, 1100 do not and are refused instead of ending in RecursionError
    graph = Hypergraph.from_edges(1200, 900, [range(900)])
    assert contains_complete_rpartite(graph, Signature((2,) * 900)) is None
    graph = Hypergraph.from_edges(1200, 1100, [range(1100)])
    with pytest.raises(BudgetExceededError, match="1100 summands"):
        contains_complete_rpartite(graph, Signature((2,) * 1100))


def test_complete_rpartite_rank_mismatch():
    _, _, g = z5_graph()
    with pytest.raises(InvalidInputError):
        contains_complete_rpartite(g, Signature((2, 2, 2)))


def test_best_translate_on_flat_counts():
    z5, A, _ = z5_graph()
    assert best_translate(z5, A, 2) == ((0,), 4, Fraction(4))


def test_best_translate_meets_average():
    rng = random.Random(53)
    for _ in range(10):
        moduli = (rng.randrange(3, 7), rng.randrange(2, 5))
        group = CyclicProduct(moduli)
        n = group.cardinality
        size = rng.randrange(1, n)
        elems = rng.sample([group.element_at(i) for i in range(n)], size)
        A = GroundSet(group, elems)
        y, count, mean = best_translate(group, A, 2)
        assert count >= mean
        shifted = cayley_hypergraph(
            group, GroundSet(group, [elem_sub(a, y, group) for a in A.elements]), 2
        )
        assert shifted.edge_count == count


def test_log_surface_cayley_graph():
    z = zp3_construction(5)
    g = cayley_hypergraph(z.ambient, z, 3)
    assert (g.n, g.r, g.edge_count) == (64, 3, 2604)
    assert contains_complete_rpartite(g, Signature((2, 2, 2))) is None


GRID_MODULI = (
    (5,), (7,), (3, 4), (2, 2, 3), (6, 6), (2, 3, 5), (2, 2, 2, 2), (3,), (4, 6), (9, 3), (8, 2)
)


def oracle_best_translate(moduli, elems, r, counts):
    # the first translate, in lexicographic order, whose sums hit most subsets
    best = None
    for x in counts:
        shifted = (tuple((a + b) % m for a, b, m in zip(y, x, moduli)) for y in elems)
        score = sum(counts[y] for y in shifted)
        if best is None or score > best[1]:
            best = (x, score)
    N = len(counts)
    return best + (Fraction(len(elems) * comb(N, r), N),)


@pytest.mark.parametrize("moduli", GRID_MODULI)
@pytest.mark.parametrize("r", (1, 2, 3, 4, 5))
def test_sum_hypergraph_matches_oracle(moduli, r):
    group = CyclicProduct(moduli)
    counts = subset_sum_counts(moduli, r)
    assert list(representation_counts(group, r).items()) == list(counts.items())
    elems = list(group.elements())
    rng = random.Random(f"{moduli}:{r}")
    for S in ([], elems, rng.sample(elems, rng.randrange(1, len(elems)))):
        A = GroundSet(group, S)
        assert cayley_hypergraph(group, A, r).edges == tuple(sum_hypergraph_edges(moduli, S, r))
        assert best_translate(group, A, r) == oracle_best_translate(moduli, S, r, counts)


@pytest.mark.parametrize("moduli", ((2,), (4,), (6,), (8,), (2, 2), (2, 3), (2, 4), (2, 2, 2)))
def test_counts_above_half_match_oracle(moduli):
    # r above N/2 is counted through complements, whose sums are the sum
    # of all elements, nonzero when some modulus is even, less their own
    group = CyclicProduct(moduli)
    elems = list(group.elements())
    rng = random.Random(f"{moduli}")
    for r in range(1, len(elems) + 2):
        counts = subset_sum_counts(moduli, r)
        assert list(representation_counts(group, r).items()) == list(counts.items())
        S = rng.sample(elems, rng.randrange(1, len(elems)))
        got = best_translate(group, GroundSet(group, S), r)
        assert got == oracle_best_translate(moduli, S, r, counts)


@pytest.mark.parametrize("moduli", ((2,), (4,), (6,), (8,), (2, 2), (2, 3), (2, 4), (2, 2, 2)))
def test_edges_above_half_match_oracle(moduli):
    # for 2r > N the edges are the complements of the (N - r)-subsets whose
    # sums lie in total - A, listed in reverse
    group = CyclicProduct(moduli)
    elems = list(group.elements())
    rng = random.Random(f"{moduli}")
    for r in range(1, len(elems) + 2):
        for S in (rng.sample(elems, rng.randrange(1, len(elems))), elems):
            edges = cayley_hypergraph(group, GroundSet(group, S), r).edges
            assert edges == tuple(sum_hypergraph_edges(moduli, S, r))


def test_cayley_hypergraph_near_the_group_order_is_fast():
    # each head of an r-subset cost r - 2 additions, some 4 * 10^6 at
    # Z_2000, r = 1999; the complements are single elements
    group = CyclicProduct((2000,))
    A = GroundSet(group, [(x,) for x in range(0, 2000, 3)])
    start = time.perf_counter()
    g = cayley_hypergraph(group, A, 1999)
    assert time.perf_counter() - start < 1.0
    # an edge misses one vertex x, and its sum 0 + ... + 1999 - x = 1000 - x
    # must be a multiple of 3 below 2000
    missing = [x for x in range(2000) if (1000 - x) % 2000 % 3 == 0]
    assert g.edge_count == len(missing) and all(len(e) == 1999 for e in g.edges)
    assert [(set(range(2000)) - set(e)).pop() for e in g.edges] == missing[::-1]


def test_complement_edges_past_the_budget_are_refused():
    # r = 1998 admits C(2000, 2) subsets, but with every seventh element in
    # A the complements would hold 285 857 edges of 1 998 vertices
    group = CyclicProduct((2000,))
    A = GroundSet(group, [(x,) for x in range(0, 2000, 7)])
    with pytest.raises(
        BudgetExceededError,
        match="^285857 edges of 1998 vertices exceed the combination budget 5000000$",
    ):
        cayley_hypergraph(group, A, 1998)
    # the whole group at r = 1999: 2 000 edges, 3 998 000 vertex entries
    everything = GroundSet(group, [(x,) for x in range(2000)])
    assert cayley_hypergraph(group, everything, 1999).edge_count == 2000


@functools.cache
def z125_graph(seed):
    group = CyclicProduct((5, 5, 5))
    rng = random.Random(seed)
    A = GroundSet(group, rng.sample(list(group.elements()), rng.randrange(30, 45)))
    return cayley_hypergraph(group, A, 3)


@pytest.mark.parametrize(
    "seed, lengths, classes",
    [
        (1, (2, 2, 3), ((0, 5), (1, 6), (2, 48, 91))),
        (1, (2, 3, 3), ((0, 79), (1, 30, 75), (2, 33, 76))),
        (3, (2, 2, 3), ((0, 16), (1, 26), (7, 54, 73))),
        (3, (2, 3, 3), ((0, 3), (1, 34, 115), (15, 76, 112))),
        (3, (2, 2, 2), ((0, 11), (1, 40), (7, 118))),
        (4, (2, 4, 4), ((0, 29), (1, 25, 54, 78), (21, 45, 74, 98))),
    ],
)
def test_complete_rpartite_first_witness_is_frozen(seed, lengths, classes):
    # each seed is tried once per assignment of vertices to class sizes,
    # in the order the edge's permutations first reach it
    assert contains_complete_rpartite(z125_graph(seed), Signature(lengths)) == classes

