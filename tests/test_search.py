import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumsetfree import (
    BudgetExceededError,
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    PreconditionError,
    Signature,
    contains_sumset,
    introduces_sumset,
    lower_bound_exponent,
    max_free_set,
    overlap_check,
    sidon_refined_upper,
    turan_upper_bound,
    upper_bound_leading,
)

from sumsetfree import search

from oracles import automorphism_orbits, exhaustive_max_free, interval_free_table


def test_interval_maximum_pair_free():
    report = max_free_set(IntegerInterval(12), Signature((2, 2)))
    assert report.best_size == 5
    assert report.witness.elements == (1, 2, 5, 10, 12)
    assert report.nodes_explored == 401
    assert contains_sumset(report.witness, Signature((2, 2))) is None


# optimal Golomb ruler lengths G(k) for k = 1..7, OEIS A003022
GOLOMB_LENGTHS = (0, 1, 3, 6, 11, 17, 25)


@pytest.mark.parametrize("n", range(1, 31))
def test_interval_pair_free_maximum_is_golomb_ruler_count(n):
    # a pair-free subset of [1, n] is a Golomb ruler of length at most n - 1
    want = max(k for k, g in enumerate(GOLOMB_LENGTHS, start=1) if g <= n - 1)
    assert max_free_set(IntegerInterval(n), Signature((2, 2))).best_size == want


def test_interval_maximum_other_signatures():
    report = max_free_set(IntegerInterval(5), Signature((2, 3)))
    assert report.best_size == 4
    assert report.witness.elements == (1, 2, 3, 5)
    report = max_free_set(IntegerInterval(9), Signature((2, 2, 2)))
    assert report.best_size == 6
    assert report.witness.elements == (1, 2, 3, 5, 6, 8)


def test_single_summand_shortcut():
    report = max_free_set(IntegerInterval(50), Signature((7,)))
    assert report.best_size == 6
    assert report.witness.elements == (1, 2, 3, 4, 5, 6)
    assert report.nodes_explored == 0
    capped = max_free_set(IntegerInterval(3), Signature((7,)))
    assert capped.best_size == 3


def test_group_maximum_pair_free():
    report = max_free_set(CyclicProduct((8,)), Signature((2, 2)))
    assert report.best_size == 3
    assert report.witness.elements == ((0,), (1,), (3,))


def test_search_is_deterministic():
    first = max_free_set(IntegerInterval(14), Signature((2, 3)))
    second = max_free_set(IntegerInterval(14), Signature((2, 3)))
    assert first.witness.elements == second.witness.elements
    assert first.nodes_explored == second.nodes_explored


def test_search_matches_superset_closure_table():
    for lengths in ((2, 2), (2, 3), (2, 2, 2)):
        sig = Signature(lengths)
        for n in range(1, 11):
            want = exhaustive_max_free(interval_free_table(n, lengths))
            got = max_free_set(IntegerInterval(n), sig).best_size
            assert got == want, (n, lengths)


class _TargetReached(Exception):
    pass


def reference_search(ambient, sig):
    """max_free_set's branch and bound on element lists, each node asking
    the public introduces_sumset: (best size, witness, nodes, pruned_by).

    The bound on k trailing candidates is F(k) for an interval, solved
    first on the shorter intervals [1, k] (each run seeded with F(k - 1)
    and stopped at F(k - 1) + 1), and k itself in a group.  Nodes and
    prunes of those runs count too.  No automorphism limits the second
    element, so in a group only F and the witness must agree."""
    N = ambient.cardinality
    bound = list(range(N + 1))
    nodes = 0
    pruned = {"cardinality": 0, "infeasible": 0, "symmetry": 0}

    def run(space, best_len, target):
        nonlocal nodes
        universe = [space.element_at(i) for i in range(space.cardinality)]
        chosen = [universe[0]]
        best = list(chosen)

        def dfs(i):
            nonlocal best, best_len, nodes
            nodes += 1
            if i == len(universe):
                return
            if len(chosen) + bound[len(universe) - i] <= best_len:
                pruned["cardinality"] += 1
                return
            if introduces_sumset(chosen, universe[i], sig, space):
                pruned["infeasible"] += 1
            else:
                chosen.append(universe[i])
                if len(chosen) > best_len:
                    best, best_len = list(chosen), len(chosen)
                    if best_len == target:
                        raise _TargetReached
                dfs(i + 1)
                chosen.pop()
            dfs(i + 1)

        try:
            dfs(1)
        except _TargetReached:
            pass
        return best_len, tuple(best)

    if isinstance(ambient, IntegerInterval):
        for k in range(2, N):
            bound[k] = run(IntegerInterval(k), bound[k - 1], bound[k - 1] + 1)[0]
    best_len, best = run(ambient, 1, bound[N - 1] + 1)
    return best_len, best, nodes, pruned


def test_search_matches_element_list_reference():
    for lengths in ((2, 2), (2, 3), (2, 2, 2)):
        for n in range(1, 17):
            ambient, sig = IntegerInterval(n), Signature(lengths)
            report = max_free_set(ambient, sig)
            got = (
                report.best_size,
                report.witness.elements,
                report.nodes_explored,
                report.pruned_by,
            )
            assert got == reference_search(ambient, sig), (n, lengths)


GROUP_REFERENCE_CASES = (
    [((2,) * k, (2, 2)) for k in range(1, 6)]
    + [
        (moduli, lengths)
        for moduli in ((2, 4), (4, 2), (2, 2, 4), (12,), (4, 4))
        for lengths in ((2, 2), (2, 3))
    ]
    + [((3, 9), (2, 2)), ((3, 3), (3, 3)), ((3, 3), (2, 2)), ((3, 4), (2, 2)), ((2, 2, 3), (2, 2))]
)


@pytest.mark.parametrize("moduli, lengths", GROUP_REFERENCE_CASES)
def test_group_search_matches_element_list_reference(moduli, lengths):
    # the search takes fewer nodes than the reference, which lets any index
    # come second, but finds the same maximum and the same witness
    ambient, sig = CyclicProduct(moduli), Signature(lengths)
    report = max_free_set(ambient, sig)
    best, witness, nodes, _ = reference_search(ambient, sig)
    assert (report.best_size, report.witness.elements) == (best, witness)
    assert report.nodes_explored <= nodes


def test_group_maximum_frozen_on_z7_squared():
    # frozen from the search without the automorphism rule: 971 288 nodes
    report = max_free_set(CyclicProduct((7, 7)), Signature((2, 2)), cardinality_budget=None)
    assert report.best_size == 7
    assert report.witness.elements == ((0, 0), (0, 1), (1, 0), (1, 2), (2, 5), (5, 1), (5, 5))
    assert report.nodes_explored == 102696


@pytest.mark.parametrize("k", range(1, 6))
def test_symmetry_counter_on_elementary_two_groups(k):
    # every {0, g} in Z_2^k holds {0, g} + {0, g}, so the search passes
    # each index with index 0 alone chosen: index 1 fails the rooted check,
    # and every later index shares its orbit with index 1
    report = max_free_set(CyclicProduct((2,) * k), Signature((2, 2)))
    n = 2**k
    assert report.best_size == 1
    assert report.nodes_explored == n
    assert report.pruned_by == {"cardinality": 0, "infeasible": 1, "symmetry": n - 2}


@pytest.mark.parametrize(
    "moduli",
    [(1,), (2,), (8,), (9,), (12,), (30,), (2, 4), (4, 2), (2, 6), (6, 2),
     (3, 3), (4, 4), (3, 9), (9, 3), (2, 2, 2), (2, 2, 4), (2, 4, 2), (6, 3, 2),
     (2, 8), (4, 8), (2, 2, 8), (8, 4), (2, 16), (4, 16), (27, 3), (25, 5)],
)
def test_orbit_leaders_match_automorphism_orbits(moduli):
    # sound: the least element of every orbit under all automorphisms is a
    # leader, so the search never skips it; exact: two elements with the
    # same Ulm sequences share an orbit, so no orbit has two leaders.  The
    # oracle tries every automorphism.
    minima = {min(orbit) for orbit in automorphism_orbits(moduli).values()}
    leaders = set(search._orbit_leaders(moduli))
    assert minima <= leaders
    assert leaders == minima


def test_orbit_leaders_of_many_mixed_moduli():
    # 9 216 class representatives fall into 128 orbits
    assert len(search._orbit_leaders((2, 3, 4, 5, 6, 7, 8, 9, 10))) == 128


def _leader_indices(moduli):
    ambient = CyclicProduct(moduli)
    return {ambient.index(v) for v in search._orbit_leaders(moduli)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orbit_leaders_of_elementary_groups(p, k):
    # GL(k, p) fixes 0 and is transitive on the rest
    assert _leader_indices((p,) * k) == {0, 1}


@pytest.mark.parametrize("n", range(1, 61))
def test_orbit_leaders_of_cyclic_groups(n):
    # the units of Z_n move x exactly to the residues with gcd(x, n)
    assert _leader_indices((n,)) == {0} | {d for d in range(1, n) if n % d == 0}


# F of the interval-search benchmark jobs and their neighbours, with the
# jobs' witnesses, frozen from the search under the plain cardinality bound
INTERVAL_MAXIMA = {
    (2, 2): dict(zip(range(19, 31), [6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7])),
    (2, 2, 2): dict(zip(range(19, 25), [11, 11, 11, 12, 12, 12])),
}
BENCHMARK_WITNESSES = {
    ((2, 2), 30): (1, 2, 4, 9, 13, 23, 29),
    ((2, 2, 2), 22): (1, 2, 3, 6, 7, 9, 10, 15, 17, 19, 20, 22),
    ((2, 2, 2), 23): (1, 2, 3, 5, 6, 8, 13, 14, 17, 19, 22, 23),
    ((2, 2, 2), 24): (1, 2, 3, 5, 6, 8, 12, 14, 17, 21, 22, 24),
}


def test_benchmark_interval_maxima():
    for lengths, maxima in INTERVAL_MAXIMA.items():
        for n, want in maxima.items():
            report = max_free_set(IntegerInterval(n), Signature(lengths))
            assert report.best_size == want, (lengths, n)
            witness = BENCHMARK_WITNESSES.get((lengths, n))
            if witness is not None:
                assert report.witness.elements == witness, (lengths, n)


@pytest.mark.parametrize(
    "n, lengths, calls",
    # without the memo of rooted answers: 20 754 and 63 991 calls
    [(24, (2, 2, 2), 12246), (30, (2, 2), 19740)],
)
def test_rooted_check_runs_once_per_grown_set(monkeypatch, n, lengths, calls):
    counted = []
    rooted = search._rooted

    def counting(*args):
        counted.append(args[1])
        return rooted(*args)

    monkeypatch.setattr(search, "_rooted", counting)
    max_free_set(IntegerInterval(n), Signature(lengths))
    assert len(counted) == len(set(counted)) == calls


def _outcome(report):
    return report.best_size, report.witness.elements, report.nodes_explored, report.pruned_by


def test_rooted_memo_bound_leaves_reports_unchanged(monkeypatch):
    cases = [
        (IntegerInterval(n), Signature(lengths))
        for lengths in ((2, 2), (2, 3), (2, 2, 2))
        for n in range(1, 21)
    ]
    cases.append((CyclicProduct((3, 3, 3)), Signature((2, 2))))
    full = [_outcome(max_free_set(ambient, sig)) for ambient, sig in cases]
    monkeypatch.setattr(search, "_ROOTED_MEMO_LIMIT", 4)
    tiny = [_outcome(max_free_set(ambient, sig)) for ambient, sig in cases]
    assert tiny == full


SMALL_AMBIENTS = st.one_of(
    st.builds(IntegerInterval, st.integers(1, 14)),
    st.builds(
        CyclicProduct,
        st.sampled_from([(5,), (8,), (11,), (2, 4), (3, 3), (2, 2, 3), (3, 4)]),
    ),
)
SMALL_SIGNATURES = st.sampled_from([(3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)])


@settings(max_examples=40, deadline=None)
@given(SMALL_AMBIENTS, SMALL_SIGNATURES)
def test_search_witness_is_maximal(ambient, lengths):
    # adding any excluded element to a maximum free set creates a sumset
    sig = Signature(lengths)
    witness = max_free_set(ambient, sig).witness
    for i in range(ambient.cardinality):
        x = ambient.element_at(i)
        if x not in witness:
            grown = GroundSet(ambient, witness.elements + (x,))
            assert contains_sumset(grown, sig) is not None, (x, witness.elements)


def test_report_dict_shape():
    report = max_free_set(IntegerInterval(6), Signature((2, 2)))
    d = report.to_dict()
    assert sorted(d) == ["F", "ambient", "ms", "nodes", "signature", "witness"]
    assert d["ambient"] == "interval n=6"
    assert d["signature"] == [2, 2]
    assert d["F"] == 3
    assert d["witness"] == [1, 2, 4]
    assert isinstance(d["ms"], float)


def test_cardinality_budget():
    with pytest.raises(BudgetExceededError):
        max_free_set(IntegerInterval(65), Signature((2, 2)))
    report = max_free_set(IntegerInterval(70), Signature((9,)), cardinality_budget=None)
    assert report.best_size == 8


def test_node_budget():
    with pytest.raises(BudgetExceededError):
        max_free_set(IntegerInterval(12), Signature((2, 2)), max_nodes=10)


def test_node_budget_covers_sub_solves():
    # the runs that fill the interval bound table spend the budget too
    ambient, sig = IntegerInterval(16), Signature((2, 2, 2))
    nodes = max_free_set(ambient, sig).nodes_explored
    with pytest.raises(BudgetExceededError):
        max_free_set(ambient, sig, max_nodes=nodes - 1)
    assert max_free_set(ambient, sig, max_nodes=nodes).nodes_explored == nodes


def test_leading_upper_bound_values():
    assert upper_bound_leading(10**4, Signature((2, 2))) == 100.0
    got = upper_bound_leading(10**4, Signature((2, 3)))
    assert got == pytest.approx(math.sqrt(2) * 100)
    assert upper_bound_leading(4096, Signature((2, 2, 2))) == 512.0
    with pytest.raises(InvalidSignatureError):
        upper_bound_leading(10, Signature((5,)))


def test_leading_upper_bound_rejects_non_positive_n():
    with pytest.raises(InvalidInputError, match="interval length"):
        upper_bound_leading(0, Signature((2, 2)))


def test_lower_bound_exponents():
    assert lower_bound_exponent(Signature((2, 2))) == Fraction(1, 3)
    assert lower_bound_exponent(Signature((2, 3))) == Fraction(2, 5)
    assert lower_bound_exponent(Signature((2, 2, 2))) == Fraction(4, 7)
    with pytest.raises(InvalidSignatureError):
        lower_bound_exponent(Signature((3,)))


def test_turan_upper_bound_values():
    assert turan_upper_bound(100, Signature((2, 2))) == 500.0
    assert turan_upper_bound(10, Signature((3, 3))) == pytest.approx(29.240177382128667)
    assert turan_upper_bound(16, Signature((2, 2, 2))) == pytest.approx(2048 / 6)
    with pytest.raises(InvalidSignatureError):
        turan_upper_bound(10, Signature((5,)))


def test_sidon_refined_upper_values():
    assert sidon_refined_upper(10**4) == 110.5
    for n in range(2, 200):
        assert sidon_refined_upper(n) >= math.sqrt(n)


def test_overlap_check_fractions():
    X = GroundSet(IntegerInterval(8), range(1, 9))
    lhs, rhs = overlap_check([1, 2], [1, 2, 3], X, 2)
    assert (lhs, rhs) == (Fraction(1, 4), Fraction(-3, 32))
    assert lhs >= rhs
    iv6 = IntegerInterval(6)
    A = GroundSet(iv6, [1, 2])
    lhs, rhs = overlap_check(A, A, GroundSet(iv6, range(1, 7)), 1)
    assert (lhs, rhs) == (Fraction(2, 3), Fraction(2, 3))


def test_overlap_check_preconditions():
    X = GroundSet(IntegerInterval(8), range(1, 9))
    with pytest.raises(PreconditionError):
        overlap_check([1, 2], [7, 8], X, 2)
    with pytest.raises(PreconditionError):
        overlap_check([], [1], X, 2)
    with pytest.raises(InvalidInputError):
        overlap_check([1], [1], X, 0)
    # the ambient comes from X alone
    with pytest.raises(InvalidInputError, match="X as a GroundSet"):
        overlap_check(GroundSet(IntegerInterval(8), [1]), [1], range(1, 9), 2)


def test_overlap_inequality_can_fail_out_of_regime():
    # with |A||B|/|X| <= r - 2 the inequality has no content and can
    # genuinely reverse; the checker reports the two sides either way
    X = GroundSet(IntegerInterval(7), range(1, 8))
    lhs, rhs = overlap_check([1, 2], [0, 1, 2], X, 3)
    assert lhs == 0
    assert rhs == Fraction(8, 343)
    assert lhs < rhs
