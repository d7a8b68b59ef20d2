import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sumsetfree import (
    BudgetExceededError,
    CyclicProduct,
    GroundSet,
    IndexedMultiset,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    PreconditionError,
    Signature,
    StructureError,
    SumsetWitness,
    ap3_of_degenerate,
    contains_sumset,
    count_all_sumsets,
    elem_add,
    enumerate_sumsets,
    introduces_sumset,
    is_degenerate,
    is_hilbert_cube_free,
    is_sidon,
    verify_multiset,
    zp3_construction,
)

from sumsetfree.detect import _Bitsets, _bitsets, _rooted, _valued

from oracles import (
    cube3_sum_relations,
    cyclic_decompositions,
    decomposition_value_sets,
    has_cube_dim3_by_sum_system,
    interval_decompositions,
    sidon_by_sums,
)

SIG22 = Signature((2, 2))
SIG23 = Signature((2, 3))
SIG33 = Signature((3, 3))
SIG222 = Signature((2, 2, 2))


def interval_set(elems, n=None):
    if n is None:
        n = max(elems)
    return GroundSet(IntegerInterval(n), elems)


def test_smallest_pair_witness():
    w = contains_sumset(interval_set([1, 2, 3]), SIG22)
    assert w is not None
    assert w.offset == 1
    assert w.summands == ((0, 1), (0, 1))
    assert w.values() == (1, 2, 3)


def test_enumeration_of_short_interval():
    ws = list(enumerate_sumsets(interval_set([1, 2, 3, 4]), SIG22))
    listed = {(w.offset, w.summands) for w in ws}
    assert listed == {
        (1, ((0, 1), (0, 1))),
        (1, ((0, 1), (0, 2))),
        (1, ((0, 2), (0, 1))),
        (2, ((0, 1), (0, 1))),
    }
    assert len(ws) == 4
    assert len({frozenset(w.values()) for w in ws}) == 3


def test_sidon_set_has_no_pair_sumset():
    gs = interval_set([1, 2, 5, 11])
    assert contains_sumset(gs, SIG22) is None
    assert list(enumerate_sumsets(gs, SIG22)) == []
    assert is_sidon(gs)


def test_enumeration_budget():
    gs = interval_set(list(range(1, 13)))
    with pytest.raises(BudgetExceededError):
        list(enumerate_sumsets(gs, SIG22, limit=5))
    assert len(list(enumerate_sumsets(gs, SIG22, limit=10**6))) > 5


def test_enumeration_budget_boundary():
    # a limit of k admits all k decompositions; at k - 1 the first k - 1
    # witnesses come out before the refusal
    gs = interval_set(list(range(1, 7)))
    full = list(enumerate_sumsets(gs, SIG22))
    k = len(full)
    assert k > 1
    assert list(enumerate_sumsets(gs, SIG22, limit=k)) == full
    got = []
    message = f"^decomposition enumeration exceeded limit of {k - 1}$"
    with pytest.raises(BudgetExceededError, match=message):
        for w in enumerate_sumsets(gs, SIG22, limit=k - 1):
            got.append(w)
    assert got == full[:-1]


def test_detector_returns_first_enumerated():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(4, 12)
        elems = [x for x in range(1, n + 1) if rng.random() < 0.6]
        if not elems:
            continue
        gs = interval_set(elems, n)
        for sig in (SIG22, SIG23, SIG222):
            ws = list(enumerate_sumsets(gs, sig))
            found = contains_sumset(gs, sig)
            if ws:
                assert found is not None
                assert (found.offset, found.summands) == (ws[0].offset, ws[0].summands)
            else:
                assert found is None


@st.composite
def small_ground_sets(draw):
    ambient = draw(
        st.one_of(
            st.builds(IntegerInterval, st.integers(1, 14)),
            st.builds(
                CyclicProduct,
                st.sampled_from([(5,), (8,), (11,), (2, 4), (3, 3), (2, 2, 3), (3, 4)]),
            ),
        )
    )
    picked = draw(st.sets(st.integers(0, ambient.cardinality - 1)))
    return GroundSet(ambient, [ambient.element_at(i) for i in picked])


@settings(max_examples=80, deadline=None)
@given(small_ground_sets(), st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]))
def test_detection_agrees_with_enumeration(A, lengths):
    sig = Signature(lengths)
    witnesses = list(enumerate_sumsets(A, sig))
    assert (contains_sumset(A, sig) is None) == (not witnesses)
    assert all(w.is_valid_for(A) for w in witnesses)


@settings(max_examples=150, deadline=None)
@given(small_ground_sets(), st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]))
def test_detection_returns_first_enumerated_witness(A, lengths):
    # detection stops at the first last level; enumeration expands every one
    sig = Signature(lengths)
    assert contains_sumset(A, sig) == next(enumerate_sumsets(A, sig), None)


@settings(max_examples=80, deadline=None)
@given(small_ground_sets(), st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]))
def test_value_sets_match_oracle(A, lengths):
    ambient = A.ambient
    if isinstance(ambient, IntegerInterval):
        decomps = interval_decompositions(A.elements, lengths)
        moduli = None
    else:
        moduli = ambient.moduli
        decomps = cyclic_decompositions(moduli, A.elements, lengths)
    want = Counter(
        sum(1 << ambient.index(v) for v in vs)
        for vs in decomposition_value_sets(decomps, moduli)
    )
    got = [values for values, _ in _valued(A, Signature(lengths))]
    assert len(got) == len(decomps)
    assert Counter(got) == want


@st.composite
def translated_pairs(draw):
    """A set and a translate of it: in a product group by any element, on
    an interval by an offset that keeps the translate inside the carrier.
    Spans up to 40 with few elements make sparse sets, where the level cut
    of the detection kernel fires."""
    if draw(st.booleans()):
        ambient = CyclicProduct(draw(st.sampled_from([(11,), (3, 4), (2, 2, 3), (5, 5)])))
        picked = draw(st.sets(st.integers(0, ambient.cardinality - 1), max_size=12))
        elems = [ambient.element_at(i) for i in picked]
        t = ambient.element_at(draw(st.integers(0, ambient.cardinality - 1)))
        moved = [tuple((a + b) % m for a, b, m in zip(x, t, ambient.moduli)) for x in elems]
        return GroundSet(ambient, elems), GroundSet(ambient, moved)
    span = draw(st.integers(1, 40))
    elems = draw(st.sets(st.integers(1, span), max_size=12))
    t = draw(st.integers(0, 40 - span))
    ambient = IntegerInterval(40)
    return GroundSet(ambient, elems), GroundSet(ambient, [x + t for x in elems])


@settings(max_examples=60, deadline=None)
@given(translated_pairs(), st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
def test_freeness_is_translation_invariant(pair, lengths):
    A, moved = pair
    sig = Signature(lengths)
    assert (contains_sumset(A, sig) is None) == (contains_sumset(moved, sig) is None)


@st.composite
def member_masks(draw):
    """A set drawn member by member with even odds, so about half full:
    sparse sets rarely hold a sumset through a given member.  Ambients stay
    small enough for the brute-force oracles at (2,2,3)."""
    ambient = draw(
        st.one_of(
            st.builds(IntegerInterval, st.integers(1, 12)),
            st.builds(CyclicProduct, st.sampled_from([(5,), (7,), (2, 4), (4, 2), (2, 6), (3, 3), (2, 2, 2)])),
        )
    )
    keep = draw(st.lists(st.booleans(), min_size=ambient.cardinality, max_size=ambient.cardinality))
    return GroundSet(ambient, [ambient.element_at(i) for i, k in enumerate(keep) if k])


@settings(max_examples=150, deadline=None)
@given(
    member_masks(),
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 2, 2), (2, 2, 3)]),
)
def test_rooted_matches_oracle(A, lengths):
    # rooted at any member, the check holds exactly when some sumset
    # inside the set passes through that member
    ambient = A.ambient
    if isinstance(ambient, IntegerInterval):
        moduli = None
        decomps = interval_decompositions(A.elements, lengths)
    else:
        moduli = ambient.moduli
        decomps = cyclic_decompositions(moduli, A.elements, lengths)
    covered = set().union(*decomposition_value_sets(decomps, moduli))
    bits = _bitsets(ambient)
    for x in A.elements:
        root = ambient.index(x)
        assert _rooted(bits, A.bitmask, root, lengths) == (x in covered), x


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 40), unique=True),
    st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)]),
)
def test_introduces_matches_full_scan_on_interval(order, lengths):
    # S is built greedily from the drawn candidates, so it is free and
    # the integers never drawn may or may not complete a sumset; every c
    # outside S is asked, those below and between members of S too
    sig = Signature(lengths)
    ambient = IntegerInterval(40)
    S = []
    for x in order:
        if contains_sumset(GroundSet(ambient, S + [x]), sig) is None:
            S.append(x)
    for c in set(range(1, 41)) - set(S):
        expected = contains_sumset(GroundSet(ambient, S + [c]), sig) is not None
        assert introduces_sumset(S, c, sig, ambient) == expected, (S, c)


@pytest.mark.parametrize("p", [11, 13])
def test_level_cut_leaves_one_meets_call_on_zp3(monkeypatch, p):
    # The discrete-log set is (2,2,2)-free; without the level cut the
    # full scan makes 937 (p = 11) and 1651 (p = 13) meets calls.  Every
    # second level has too few repeated differences to yield, so only
    # the first level's call remains.
    calls = []
    meets = _Bitsets.meets

    def counted(self, *args):
        calls.append(args)
        return meets(self, *args)

    monkeypatch.setattr(_Bitsets, "meets", counted)
    assert contains_sumset(zp3_construction(p), SIG222) is None
    assert len(calls) == 1


def test_enumeration_order_frozen_on_zp3():
    # frozen before the last summand was carried as indices
    first = [
        (w.offset, w.summands)
        for w in itertools.islice(enumerate_sumsets(zp3_construction(13), SIG23), 5)
    ]
    head = ((0, 0, 0), (0, 1, 2)), ((0, 0, 0), (1, 4, 4))
    assert first == [
        ((1, 9, 11), (head[0], head[1] + (last,)))
        for last in [(4, 9, 9), (5, 7, 7), (6, 10, 10), (9, 8, 8), (10, 5, 5)]
    ]


def test_first_witness_frozen_on_planted_group_set():
    rng = random.Random(5)
    moduli = (12, 12, 12)
    universe = list(CyclicProduct(moduli).elements())
    chosen = {rng.choice(universe)}
    for d in [rng.choice(universe[1:]) for _ in range(3)]:
        chosen |= {tuple((a + b) % m for a, b, m in zip(s, d, moduli)) for s in chosen}
    rest = [u for u in universe if u not in chosen]
    rng.shuffle(rest)
    chosen.update(rest[: 100 - len(chosen)])
    w = contains_sumset(GroundSet(CyclicProduct(moduli), chosen), SIG222)
    assert (w.offset, w.summands) == (
        (4, 0, 8),
        (((0, 0, 0), (0, 0, 2)), ((0, 0, 0), (0, 0, 2)), ((0, 0, 0), (1, 8, 9))),
    )


def test_witness_list_frozen_on_sparse_interval_set():
    # The level cut skips four inner levels here; the two witnesses and
    # their order (offset 7 before 3) come from the levels that remain.
    gs = interval_set([1, 3, 4, 7, 9, 11, 13, 14, 15, 18, 22], 23)
    assert [(w.offset, w.summands) for w in enumerate_sumsets(gs, Signature((2, 2, 3)))] == [
        (7, ((0, 2), (0, 2), (0, 2, 4))),
        (3, ((0, 4), (0, 4), (0, 4, 11))),
    ]


@pytest.mark.parametrize("moduli", [(5,), (2, 4), (3, 3), (2, 2, 3), (3, 4, 5), (7, 1, 2)])
def test_digit_masks_match_division_formula(moduli):
    size = CyclicProduct(moduli).cardinality
    for stride, m, high in _Bitsets(CyclicProduct(moduli)).digits:
        period = m * stride
        ones = ((1 << size) - 1) // ((1 << period) - 1)
        for dj in range(1, m):
            assert high[dj] == ((1 << period) - (1 << dj * stride)) * ones


def test_enumeration_matches_direct_loops_interval():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(3, 11)
        elems = [x for x in range(1, n + 1) if rng.random() < 0.7]
        if not elems:
            continue
        gs = interval_set(elems, n)
        for sig in (SIG22, SIG23, SIG33, SIG222):
            got = {(w.offset, w.summands) for w in enumerate_sumsets(gs, sig)}
            want = set(interval_decompositions(elems, sig.lengths))
            assert got == want, (elems, sig.lengths)


def test_enumeration_matches_direct_loops_cyclic():
    # one coordinate as (n,), then products whose translates wrap in
    # several coordinates at once
    rng = random.Random(13)

    def cases():
        for _ in range(30):
            yield (rng.randrange(3, 9),)
        yield from [(2, 3), (3, 3), (2, 2, 3)] * 8

    for moduli in cases():
        cp = CyclicProduct(moduli)
        elems = [x for x in cp.elements() if rng.random() < 0.6]
        gs = GroundSet(cp, elems)
        for sig in (SIG22, SIG23):
            got = [(w.offset, w.summands) for w in enumerate_sumsets(gs, sig)]
            assert len(got) == len(set(got))
            got = set(got)
            want = set(cyclic_decompositions(moduli, elems, sig.lengths))
            assert got == want, (moduli, elems, sig.lengths)


def test_equal_summand_pair_in_small_group():
    # 1 + {0,2} + {0,2} covers {1,3} in Z_4, so {1,3} is not pair-free
    gs = GroundSet(CyclicProduct((4,)), [(1,), (3,)])
    w = contains_sumset(gs, SIG22)
    assert w is not None
    assert w.summands == (((0,), (2,)), ((0,), (2,)))
    assert not is_sidon(gs)


def test_two_torsion_pair_is_not_sidon():
    gs = GroundSet(CyclicProduct((2, 2)), [(0, 0), (1, 0)])
    assert not is_sidon(gs)
    assert contains_sumset(gs, SIG22) is not None


def test_is_sidon_matches_classical_sum_test():
    rng = random.Random(17)
    for _ in range(1000):
        elems = [x for x in range(1, 51) if rng.random() < 0.15]
        if len(elems) < 2:
            continue
        gs = interval_set(elems, 50)
        assert is_sidon(gs) == sidon_by_sums(elems)
        assert is_sidon(gs) == (contains_sumset(gs, SIG22) is None)


def test_is_sidon_in_groups_matches_ordered_differences():
    # Sidon in a group: the ordered pairs of distinct elements have
    # distinct differences, counted here pair by pair
    rng = random.Random(23)
    for _ in range(300):
        moduli = tuple(rng.choice((2, 3, 4, 5, 6)) for _ in range(rng.randint(1, 3)))
        group = list(itertools.product(*(range(m) for m in moduli)))
        elems = rng.sample(group, rng.randint(0, min(len(group), 7)))
        diffs = [
            tuple((x - y) % m for x, y, m in zip(a, b, moduli))
            for a, b in itertools.permutations(elems, 2)
        ]
        gs = GroundSet(CyclicProduct(moduli), elems)
        assert is_sidon(gs) == (len(set(diffs)) == len(diffs))


def test_incremental_detection_agrees_with_full_rescan():
    rng = random.Random(19)
    for sig in (SIG22, SIG23, SIG222):
        for _ in range(60):
            n = rng.randrange(5, 14)
            chosen = []
            for c in range(1, n + 1):
                if rng.random() < 0.5:
                    continue
                grows = introduces_sumset(chosen, c, sig, IntegerInterval(n))
                rescan = (
                    contains_sumset(interval_set(chosen + [c], n), sig) is not None
                )
                assert grows == rescan, (chosen, c, sig.lengths)
                if not grows:
                    chosen.append(c)


def test_incremental_detection_in_groups():
    rng = random.Random(23)
    cp = CyclicProduct((3, 4))
    universe = [cp.element_at(i) for i in range(cp.cardinality)]
    for _ in range(40):
        chosen = []
        for x in universe:
            if rng.random() < 0.4:
                continue
            grows = introduces_sumset(chosen, x, SIG22, cp)
            rescan = contains_sumset(GroundSet(cp, chosen + [x]), SIG22) is not None
            assert grows == rescan
            if not grows:
                chosen.append(x)


def test_hilbert_cube_freeness():
    assert not is_hilbert_cube_free(interval_set(list(range(1, 9))), 3)
    assert is_hilbert_cube_free(interval_set([1, 2, 4, 8, 13, 21, 31, 45]), 3)
    assert is_hilbert_cube_free(interval_set([1, 2]), 2)
    with pytest.raises(InvalidSignatureError):
        is_hilbert_cube_free(interval_set([1, 2]), 1)


def test_cube3_sum_system_agrees_with_detector():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(8, 16)
        elems = [x for x in range(1, n + 1) if rng.random() < 0.8]
        if not elems:
            continue
        gs = interval_set(elems, n)
        assert has_cube_dim3_by_sum_system(gs) == (
            contains_sumset(gs, SIG222) is not None
        )


def test_cube3_relations_reject_bad_points():
    iv = IntegerInterval(30)
    x, d1, d2, d3 = 1, 2, 5, 9
    pts = (x, x + d1, x + d2, x + d1 + d2, x + d3, x + d1 + d3, x + d2 + d3,
           x + d1 + d2 + d3)
    assert cube3_sum_relations(pts, iv)
    broken = pts[:7] + (pts[7] + 1,)
    assert not cube3_sum_relations(broken, iv)
    with pytest.raises(StructureError):
        cube3_sum_relations(pts[:7], iv)


def test_multiset_verification_example():
    iv = IntegerInterval(16)
    ms = IndexedMultiset(iv, SIG22, {(1, 1): 0, (2, 1): 1, (1, 2): 2, (2, 2): 3})
    assert verify_multiset(ms) == ((0, 1), (0, 2))
    bad = IndexedMultiset(iv, SIG22, {(1, 1): 0, (2, 1): 1, (1, 2): 2, (2, 2): 4})
    assert verify_multiset(bad) is None
    repeated = IndexedMultiset(iv, SIG22, {(1, 1): 0, (2, 1): 0, (1, 2): 2, (2, 2): 2})
    assert verify_multiset(repeated) is None
    with pytest.raises(StructureError):
        IndexedMultiset(iv, SIG22, {(1, 1): 0})


def test_multiset_round_trip_from_witnesses():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(4, 12)
        elems = [x for x in range(1, n + 1) if rng.random() < 0.7]
        gs = interval_set(elems or [1], n)
        for sig in (SIG22, SIG23, SIG222):
            for w in itertools.islice(enumerate_sumsets(gs, sig), 5):
                got = verify_multiset(IndexedMultiset.from_witness(w))
                assert got is not None
                assert got[0] == tuple(w.offset + d for d in w.summands[0])
                assert got[1:] == w.summands[1:]


def test_multiset_round_trip_in_product_groups():
    rng = random.Random(7)
    for moduli in ((4, 6), (3, 3, 3), (2, 2, 2, 2)):
        group = CyclicProduct(moduli)
        elems = [x for x in group.elements() if rng.random() < 0.6]
        gs = GroundSet(group, elems)
        for sig in (SIG22, SIG23, SIG222):
            for w in itertools.islice(enumerate_sumsets(gs, sig), 5):
                got = verify_multiset(IndexedMultiset.from_witness(w))
                assert got is not None
                assert got[0] == tuple(elem_add(w.offset, d, group) for d in w.summands[0])
                assert got[1:] == w.summands[1:]


@pytest.mark.parametrize(
    "ambient, lengths, offset, summands",
    [
        (IntegerInterval(30), (2, 2), 3, ((0, 1), (0, 4))),
        (IntegerInterval(30), (2, 2, 3), 1, ((0, 2), (0, 5), (0, 1, 9))),
        (CyclicProduct((4, 6)), (2, 3), (1, 1), (((0, 0), (1, 3)), ((0, 0), (0, 1), (2, 5)))),
        (CyclicProduct((2, 2, 2)), (2, 2, 2), (1, 0, 1), (((0, 0, 0), (1, 0, 0)),) * 3),
    ],
)
def test_multiset_one_cell_perturbation_is_rejected(ambient, lengths, offset, summands):
    # with r >= 2 every cell sits in a relation with three other cells
    values = IndexedMultiset.from_witness(SumsetWitness(ambient, offset, summands)).values
    sig = Signature(lengths)
    assert verify_multiset(IndexedMultiset(ambient, sig, values)) is not None
    bump = 1 if isinstance(ambient, IntegerInterval) else (1,) + (0,) * (len(offset) - 1)
    for cell, v in values.items():
        perturbed = {**values, cell: elem_add(v, bump, ambient)}
        assert verify_multiset(IndexedMultiset(ambient, sig, perturbed)) is None, cell


def test_multiset_wrong_typed_value_raises_with_one_summand():
    sig = Signature((2,))
    for ambient, good, bad in ((IntegerInterval(9), 1, (1,)), (CyclicProduct((4, 6)), (1, 1), 3)):
        with pytest.raises(StructureError):
            verify_multiset(IndexedMultiset(ambient, sig, {(1,): good, (2,): bad}))


def test_degeneracy_and_progression_extraction():
    iv = IntegerInterval(16)
    assert is_degenerate(((0, 1), (0, 1)), iv)
    assert ap3_of_degenerate(((0, 1), (0, 1))) == (0, 1, 2)
    assert ap3_of_degenerate(((0, 2), (0, 2))) == (0, 2, 4)
    assert not is_degenerate(((0, 1), (0, 2)), iv)
    with pytest.raises(PreconditionError):
        ap3_of_degenerate(((0, 1), (0, 2)))
    with pytest.raises(StructureError):
        is_degenerate(((0, 0), (0, 1)), iv)


def test_progression_from_unsorted_summands_ascends():
    # the sums 3 + 0 and 1 + 2 collide; the later choice (1, 2) has the
    # smaller first element, so the two choices trade places
    assert ap3_of_degenerate(((3, 1), (0, 2))) == (1, 3, 5)
    assert ap3_of_degenerate(((1, 0), (1, 0))) == (0, 1, 2)


def test_ap3_lies_inside_the_sumset_values():
    rng = random.Random(37)
    for _ in range(50):
        L1 = tuple(sorted(rng.sample(range(0, 9), rng.randrange(2, 4))))
        L2 = tuple(sorted(rng.sample(range(0, 9), rng.randrange(2, 4))))
        values = {a + b for a in L1 for b in L2}
        if len(values) == len(L1) * len(L2):
            continue
        a, b, c = ap3_of_degenerate((L1, L2))
        assert b - a == c - b > 0
        assert {a, b, c} <= values


def test_count_all_sumsets_small_values():
    assert count_all_sumsets(4, SIG22) == (4, 3)
    assert count_all_sumsets(2, SIG22) == (0, 0)
    with pytest.raises(BudgetExceededError):
        count_all_sumsets(100, SIG222, budget=10**6)


def test_count_all_sumsets_rejects_non_positive_n():
    with pytest.raises(InvalidInputError, match="interval endpoint"):
        count_all_sumsets(0, SIG22)


def test_count_all_matches_direct_loops():
    for n in range(1, 9):
        for sig in (SIG22, SIG23):
            decomps = interval_decompositions(range(1, n + 1), sig.lengths)
            value_sets = set()
            for x, combo in decomps:
                value_sets.add(
                    frozenset(x + sum(p) for p in itertools.product(*combo))
                )
            assert count_all_sumsets(n, sig) == (len(decomps), len(value_sets))
