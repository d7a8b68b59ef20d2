import itertools
import math
import random
import re
import time
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
    elem_add,
    introduces_sumset,
    lower_bound_exponent,
    max_free_set,
    overlap_check,
    sidon_refined_upper,
    turan_upper_bound,
    upper_bound_leading,
)

from sumsetfree import search

from oracles import (
    automorphism_orbits,
    exhaustive_max_free,
    interval_free_table,
    overlap_by_subsets,
)


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
    leaders = set(_orbit_leaders(moduli))
    assert minima <= leaders
    assert leaders == minima


def _orbit_leaders(moduli):
    """The first element of each orbit key, keying every element in index
    order as the search keys the indices it meets second."""
    ambient = CyclicProduct(moduli)
    key = search._orbit_key(moduli)
    leaders = {}
    for i in range(ambient.cardinality):
        v = ambient.element_at(i)
        leaders.setdefault(key(v), v)
    return list(leaders.values())


def test_orbit_leaders_of_many_mixed_moduli():
    # unit scalings take each digit x_i to gcd(x_i, m_i) mod m_i, so the
    # 9 216 tuples of divisor digits meet every orbit; they fall into 128
    moduli = (2, 3, 4, 5, 6, 7, 8, 9, 10)
    digits = [[0] + [d for d in range(1, m) if m % d == 0] for m in moduli]
    tuples = list(itertools.product(*digits))
    assert len(tuples) == 9216
    key = search._orbit_key(moduli)
    assert len({key(v) for v in tuples}) == 128


def _leader_indices(moduli):
    ambient = CyclicProduct(moduli)
    return {ambient.index(v) for v in _orbit_leaders(moduli)}


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
    rooted_check = search._rooted_check

    def counting_check(*args):
        check = rooted_check(*args)

        def counting(mask, root):
            counted.append(mask)
            return check(mask, root)

        return counting

    monkeypatch.setattr(search, "_rooted_check", counting_check)
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


def test_leading_upper_bound_for_n_past_the_float_range():
    # n does not fit a float, its square root does
    assert upper_bound_leading(10**400, Signature((2, 2))) == pytest.approx(1e200, rel=1e-12)


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


def test_sidon_refined_upper_past_the_float_range():
    # n itself passes the float range; sqrt(n) is about 1e200
    assert sidon_refined_upper(10**400) == pytest.approx(1e200, rel=1e-12)
    with pytest.raises(BudgetExceededError, match=r"about 10\^350.0, past the float range"):
        sidon_refined_upper(10**700)


def outcome(f, *args):
    """repr of the value, or the refusal message."""
    try:
        return repr(f(*args))
    except BudgetExceededError as e:
        return str(e)


# around the float range's top, 2^1024 - 2^971: the first n below rounds
# down to it, the second rounds up past it
NS_AT_THE_TOP = [10**307, 2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400]


def turan_refused(*powers):
    return [f"turan_upper is about 10^{p}, past the float range" for p in powers]


@pytest.mark.parametrize(
    "lengths, leading, turan",
    [
        (
            (2, 2),
            ["3.1622776601683792e+153", "1.3407807929942596e+154",
             "1.3407807929942438e+154", "9.999999999999653e+199"],
            turan_refused("460.2", "462.1", "462.1", "599.7"),
        ),
        (
            (2, 2, 2),
            ["1.7782794100389227e+230", "1.5525180923007088e+231",
             "1.5525180923006372e+231", "9.999999999999763e+299"],
            turan_refused("843.5", "846.9", "846.9", "1099.2"),
        ),
        (
            (2,) * 171,
            ["1e+307", "1.7976931348623157e+308", "1.7976931348622732e+308",
             "upper_leading is about 10^400.0, past the float range"],
            turan_refused("52187.9", "52402.5", "52402.5", "68090.9"),
        ),
    ],
)
def test_bounds_past_the_float_range_keep_their_digits(lengths, leading, turan):
    # the digits and messages of the evaluator each bound had of its own;
    # approx(rel=1e-12) elsewhere would let the last digit drift
    sig = Signature(lengths)
    assert [outcome(upper_bound_leading, n, sig) for n in NS_AT_THE_TOP] == leading
    assert [outcome(turan_upper_bound, n, sig) for n in NS_AT_THE_TOP] == turan


def test_turan_bound_with_factorial_past_the_float_range_keeps_its_digits():
    sig = Signature((2,) * 171)
    assert [outcome(turan_upper_bound, n, sig) for n in (10, 100)] == [
        "8.057900396443356e-139", "8.057900396443475e+32",
    ]


def test_sidon_refined_upper_past_the_float_range_keeps_its_digits():
    # past the float range n^(1/4) + 1/2 is below half an ulp of sqrt(n)
    assert [outcome(sidon_refined_upper, n) for n in NS_AT_THE_TOP + [10**616]] == [
        "3.1622776601683792e+153", "1.3407807929942596e+154",
        "1.3407807929942438e+154", "9.999999999999653e+199",
        "1.0000000000000136e+308",
    ]
    assert [outcome(sidon_refined_upper, n) for n in (10**617, 10**700)] == [
        "sidon_refined is about 10^308.5, past the float range",
        "sidon_refined is about 10^350.0, past the float range",
    ]


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


@st.composite
def overlap_inputs(draw):
    """(A, B, X, r): in an interval, B holds the off-carrier shift 0 and
    A + B fits the carrier; in a product group |A|, |B| <= 8.  X is A + B
    plus random extra members, or, now and then, a random set that may
    miss some sum."""
    r = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = draw(st.integers(3, 24))
        B = {0} | draw(st.sets(st.integers(1, n // 3), max_size=6))
        A = draw(st.sets(st.integers(1, n - max(B)), min_size=1, max_size=8))
        ambient = IntegerInterval(n)
    else:
        ambient = CyclicProduct(draw(st.sampled_from([(7,), (12,), (2, 4), (3, 3), (2, 2, 3)])))
        elems = st.integers(0, ambient.cardinality - 1).map(ambient.element_at)
        A = draw(st.sets(elems, min_size=1, max_size=8))
        B = draw(st.sets(elems, min_size=1, max_size=8))
    carrier = [ambient.element_at(i) for i in range(ambient.cardinality)]
    extra = draw(st.sets(st.sampled_from(carrier)))
    if draw(st.integers(0, 4)) == 0:
        members = extra
    else:
        members = extra | {elem_add(a, b, ambient) for a in A for b in B}
    return A, B, GroundSet(ambient, members), r


@settings(max_examples=300, deadline=None)
@given(overlap_inputs())
def test_overlap_check_matches_subset_reference(case):
    A, B, X, r = case
    try:
        want = overlap_by_subsets(A, B, X, r)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=f"^{re.escape(str(exc))}$"):
            overlap_check(A, B, X, r)
    else:
        assert overlap_check(A, B, X, r) == want


def test_overlap_check_cost_does_not_grow_with_subsets():
    # 40 shifts, 0 among them, taken 8 at a time: C(40, 8) ~ 7.7e7 subsets
    rng = random.Random(8)
    A = rng.sample(range(1, 101), 40)
    B = [0] + rng.sample(range(1, 101), 39)
    X = GroundSet(IntegerInterval(200), range(1, 201))
    start = time.perf_counter()
    lhs, _ = overlap_check(A, B, X, 8)
    assert time.perf_counter() - start < 2.0
    assert lhs > 0
