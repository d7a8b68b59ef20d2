import pytest
from hypothesis import given, settings, strategies as st

from sumsetfree import (
    BudgetExceededError,
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    Signature,
    StructureError,
    SumsetWitness,
    best_translate,
    counting_function,
    elem_add,
    elem_sub,
    liminf_statistic,
    normalize_signature,
    parse_set_text,
    read_set_file,
    representation_counts,
    write_set_file,
)
from sumsetfree.core import _check_bits, _indices, _mask


def test_normalize_sorts_and_validates():
    sig = normalize_signature([3, 2])
    assert sig.lengths == (2, 3)
    assert (sig.r, sig.product, sig.prefix_product, sig.total) == (2, 6, 2, 5)
    assert str(sig) == "2,3"


def test_signature_rejects_small_parts():
    with pytest.raises(InvalidSignatureError):
        normalize_signature([1, 2])
    with pytest.raises(InvalidSignatureError):
        normalize_signature([])
    with pytest.raises(InvalidSignatureError):
        Signature((3, 2))


def test_signature_single_summand():
    sig = Signature((5,))
    assert sig.r == 1
    assert sig.prefix_product == 1
    assert sig.product == 5


def test_interval_carrier():
    iv = IntegerInterval(16)
    assert iv.cardinality == 16
    assert iv.describe() == "interval n=16"
    assert iv.index(5) == 4
    assert iv.element_at(4) == 5
    assert iv.contains(1) and iv.contains(16)
    assert not iv.contains(0) and not iv.contains(17)
    assert not iv.contains(True)
    with pytest.raises(StructureError):
        iv.index(0)


def test_interval_zero_based():
    iv = IntegerInterval(255, lo=0)
    assert iv.cardinality == 256
    assert iv.describe() == "interval n=255 lo=0"
    assert iv.contains(0)
    assert iv.element_at(0) == 0
    with pytest.raises(InvalidInputError):
        IntegerInterval(10, lo=2)
    with pytest.raises(InvalidInputError):
        IntegerInterval(0)


def test_product_index_is_lexicographic():
    cp = CyclicProduct((4, 4))
    assert cp.cardinality == 16
    assert cp.describe() == "product 4,4"
    assert cp.index((1, 3)) == 7
    assert cp.element_at(7) == (1, 3)
    listed = [cp.element_at(i) for i in range(16)]
    assert listed == sorted(listed)
    assert cp.zero == (0, 0)
    with pytest.raises(StructureError):
        cp.index((1, 4))
    with pytest.raises(InvalidInputError):
        CyclicProduct(())
    # the strides are derived, not a field: eq, hash and repr see only moduli
    mixed = CyclicProduct((2, 3, 4))
    assert mixed.strides == (12, 4, 1)
    assert [mixed.index(x) for x in mixed.elements()] == list(range(24))
    assert [mixed.element_at(i) for i in range(24)] == list(mixed.elements())
    assert repr(mixed) == "CyclicProduct(moduli=(2, 3, 4))"
    assert mixed == CyclicProduct((2, 3, 4)) and hash(mixed) == hash(((2, 3, 4),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: representation_counts(IntegerInterval(10), 2),
        lambda: best_translate(IntegerInterval(10), GroundSet(IntegerInterval(10), [1]), 2),
        lambda: counting_function(GroundSet(CyclicProduct((3, 3)), [(0, 1)]), 5),
        lambda: liminf_statistic(GroundSet(CyclicProduct((3, 3)), [(0, 1)]), Signature((2, 2)), 5),
    ],
    ids=["representation_counts", "best_translate", "counting_function", "liminf_statistic"],
)
def test_wrong_ambient_is_a_structure_error(call):
    with pytest.raises(StructureError):
        call()


def test_elem_arithmetic():
    iv = IntegerInterval(16)
    assert elem_add(3, 5, iv) == 8
    assert elem_sub(3, 5, iv) == -2
    cp = CyclicProduct((4, 4))
    assert elem_add((1, 3), (3, 2), cp) == (0, 1)
    assert elem_sub((0, 1), (3, 2), cp) == (1, 3)
    with pytest.raises(StructureError):
        elem_add((1, 2, 3), (0, 0), cp)
    with pytest.raises(StructureError):
        elem_add((1, 2), 3, cp)


def test_ground_set_basics():
    iv = IntegerInterval(16)
    gs = GroundSet(iv, [3, 1, 2, 2])
    assert gs.elements == (1, 2, 3)
    assert gs.bitmask == 0b111
    assert 2 in gs and 4 not in gs
    assert len(gs) == 3
    assert list(gs) == [1, 2, 3]
    assert frozenset(gs) == frozenset({1, 2, 3})
    assert gs == GroundSet(iv, (2, 3, 1))
    assert gs != GroundSet(IntegerInterval(17), (1, 2, 3))


def test_ground_set_is_immutable_and_checks_carrier():
    gs = GroundSet(IntegerInterval(5), [1, 5])
    with pytest.raises(AttributeError):
        gs.elements = ()
    with pytest.raises(StructureError):
        GroundSet(IntegerInterval(5), [6])
    with pytest.raises(StructureError):
        GroundSet(CyclicProduct((3, 3)), [(0, 3)])


@st.composite
def ground_set_inputs(draw):
    """(ambient, elements): an interval from 0 or 1 or a product group,
    and a list of carrier elements with repeats, in any order."""
    ambient = draw(
        st.one_of(
            st.builds(IntegerInterval, st.integers(1, 40), st.sampled_from([0, 1])),
            st.builds(CyclicProduct, st.sampled_from([(6,), (2, 5), (3, 3), (2, 2, 3)])),
        )
    )
    index = st.integers(0, ambient.cardinality - 1)
    return ambient, draw(st.lists(index.map(ambient.element_at), max_size=30))


def foreign_values(ambient):
    """Values that are no element of the ambient's carrier."""
    if isinstance(ambient, IntegerInterval):
        return [True, False, 1.0, 0.5, [1], [1, 0], (1,), ambient.lo - 1, ambient.n + 1, -5]
    k = len(ambient.moduli)
    return [
        True, False, 0, 1, 0.0, [0] * k, (0,) * (k + 1), (0,) * (k - 1),
        tuple(ambient.moduli), (-1,) + (0,) * (k - 1), (0.0,) * k,
    ]


@settings(max_examples=200, deadline=None)
@given(ground_set_inputs())
def test_ground_set_contract(case):
    ambient, elems = case
    gs = GroundSet(ambient, elems)
    members = frozenset(elems)
    ordered = sorted(members, key=ambient.index)
    assert len(gs) == len(members)
    assert list(gs) == ordered
    assert gs.elements == tuple(ordered)
    assert gs.bitmask == sum(1 << ambient.index(x) for x in members)
    again = GroundSet(ambient, reversed(elems))
    assert gs == again and hash(gs) == hash(again)
    if members:
        assert gs != GroundSet(ambient, ordered[1:])
    assert parse_set_text(gs.to_text()) == gs
    assert GroundSet._from_indices(ambient, sorted(map(ambient.index, members))) == gs
    for i in range(ambient.cardinality):
        x = ambient.element_at(i)
        assert (x in gs) == (x in members), x
    for x in foreign_values(ambient):
        assert x not in gs, x


def test_ground_set_from_indices_checks_both_ends():
    assert GroundSet._from_indices(IntegerInterval(10), range(10)) == GroundSet(
        IntegerInterval(10), range(1, 11)
    )
    assert len(GroundSet._from_indices(CyclicProduct((3, 3)), [])) == 0
    for ambient, indices in [
        (IntegerInterval(10), [0, 10]),
        (IntegerInterval(10, lo=0), [-1, 3]),
        (CyclicProduct((3, 3)), [2, 9]),
    ]:
        with pytest.raises(StructureError, match="out of range"):
            GroundSet._from_indices(ambient, indices)
    # inside an ambient wider than the bitset limit, but past it
    for ambient in (IntegerInterval(2**31), CyclicProduct((2**16, 2**16))):
        GroundSet._from_indices(ambient, [5, 2**30 - 1])
        with pytest.raises(BudgetExceededError, match="bitset limit"):
            GroundSet._from_indices(ambient, [5, 2**30])


def test_ground_set_bitmask_matches_indices():
    cp = CyclicProduct((3, 2))
    gs = GroundSet(cp, [(0, 1), (2, 0)])
    assert gs.bitmask == (1 << cp.index((0, 1))) | (1 << cp.index((2, 0)))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 300), max_size=600),  # dense
        st.lists(st.integers(0, 3 * 10**5), max_size=40),  # sparse, past 10^5 bits
    )
)
def test_mask_and_indices_round_trip(xs):
    mask = _mask(xs)
    assert mask == sum(1 << x for x in set(xs))
    assert _indices(mask) == sorted(set(xs))


def test_mask_and_indices_edge_cases():
    assert _mask([]) == 0 and _indices(0) == []
    assert _mask([0]) == 1 and _indices(1) == [0]
    assert _indices(_mask(range(5000))) == list(range(5000))
    assert _indices(1 << 10**6 | 1 << 10**5) == [10**5, 10**6]
    # either side of the 4 KiB (32 768-bit) pieces _indices reads at a time
    for xs in ([32767, 32768], [0, 32767, 32768, 65535, 65536], list(range(32000, 33000))):
        assert _indices(_mask(xs)) == xs
    with pytest.raises(BudgetExceededError, match="bitset limit"):
        _mask([3, 2**30])


def test_bitset_refusal_names_an_index_past_the_int_to_str_limit_by_bits():
    limit = "exceeds the bitset limit of 1073741824 bits"
    _check_bits(2**30 - 1)
    for top, name in [
        (2**30, "1073741824"),
        (10**4299, "1" + "0" * 4299),  # 4300 digits, the most str() prints
        (10**4300, "of 14285 bits"),
        (2**(2 * 10**6), "of 2000001 bits"),
    ]:
        with pytest.raises(BudgetExceededError) as err:
            _check_bits(top)
        assert str(err.value) == f"element index {name} {limit}"


def test_set_file_round_trip(tmp_path):
    for gs in (
        GroundSet(IntegerInterval(16), [1, 2, 5, 11]),
        GroundSet(IntegerInterval(255, lo=0), [0, 73, 147]),
        GroundSet(CyclicProduct((4, 4, 4)), [(1, 1, 1), (3, 2, 2)]),
    ):
        path = tmp_path / "set.txt"
        write_set_file(gs, path)
        assert read_set_file(path) == gs


def test_parse_set_text_headers_and_comments():
    gs = parse_set_text(
        "# a comment\n#ambient interval n=9\n3\n# another\n7\n\n"
    )
    assert gs.elements == (3, 7)
    assert gs.ambient == IntegerInterval(9)
    gs = parse_set_text("#ambient product 4,4\n1,3\n")
    assert gs.elements == ((1, 3),)


def test_parse_set_text_errors():
    with pytest.raises(StructureError):
        parse_set_text("5\n#ambient interval n=9\n")
    with pytest.raises(StructureError):
        parse_set_text("#ambient interval n=9\n#ambient interval n=9\n1\n")
    with pytest.raises(StructureError):
        parse_set_text("1\n2\n")
    with pytest.raises(StructureError):
        parse_set_text("#ambient lattice n=9\n1\n")
    with pytest.raises(StructureError):
        parse_set_text("#ambient interval n=9 hi=2\n1\n")


@pytest.mark.parametrize(
    "text",
    [
        "#ambients below\n#ambient interval n=9\n3\n",
        "#ambient interval n=9\n#ambientish note\n3\n",
    ],
)
def test_parse_set_text_header_is_its_first_word(text):
    # only a line whose first word is #ambient is the header
    gs = parse_set_text(text)
    assert gs.ambient == IntegerInterval(9)
    assert gs.elements == (3,)


@pytest.mark.parametrize(
    "text, message",
    [
        ("#ambient\n1\n", "line 1: empty #ambient header"),
        ("# note\n#ambient interval lo=0\n1\n", "line 2: interval header missing n="),
        ("# only a comment\n\n", "no #ambient header found"),
        ("", "no #ambient header found"),
        ("#ambient interval n=3 n=40\n30\n", "line 1: repeated interval header key n="),
        ("#ambient interval n=9 lo=0 lo=1\n1\n", "line 1: repeated interval header key lo="),
    ],
)
def test_parse_set_text_header_messages(text, message):
    with pytest.raises(StructureError, match=f"^{message}$"):
        parse_set_text(text)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("#ambient interval n=9\n1\nabc\n", 3),
        ("#ambient interval n=x\n1\n", 1),
        ("# comment\n#ambient interval n=9 lo=z\n", 2),
        ("#ambient product 4,x\n1,1\n", 1),
        ("#ambient product 4,4\n1,1\n\n2,y\n", 4),
    ],
)
def test_parse_set_text_non_integer_values(text, lineno):
    with pytest.raises(StructureError, match=f"^line {lineno}: "):
        parse_set_text(text)


def test_ground_set_bitmask_sparse_and_large():
    iv = IntegerInterval(5 * 10**6)
    elems = [1, 9, 4_999_999, 5 * 10**6]
    gs = GroundSet(iv, elems)
    assert gs.bitmask == sum(1 << (x - 1) for x in elems)
    assert gs.bitmask.bit_count() == len(gs)
    assert GroundSet(iv).bitmask == 0


def test_witness_validation():
    iv = IntegerInterval(16)
    with pytest.raises(StructureError):
        SumsetWitness(iv, 1, ())
    with pytest.raises(StructureError):
        SumsetWitness(iv, 1, ((0,),))
    with pytest.raises(StructureError):
        SumsetWitness(iv, 1, ((0, 0),))


def test_witness_canonical_absorbs_shifts():
    iv = IntegerInterval(20)
    w = SumsetWitness(iv, 1, ((2, 3), (1, 4)))
    c = w.canonical()
    assert c.offset == 4
    assert c.summands == ((0, 1), (0, 3))
    assert c.canonical() == c
    assert w.values() == c.values()


def test_witness_canonical_in_group():
    cp = CyclicProduct((4, 4))
    w = SumsetWitness(cp, (1, 0), (((1, 2), (3, 0)),))
    c = w.canonical()
    assert c.summands == (((0, 0), (2, 2)),)
    assert c.offset == (2, 2)
    assert set(w.values()) == set(c.values())


def test_witness_values_and_validity():
    iv = IntegerInterval(10)
    w = SumsetWitness(iv, 1, ((0, 1), (0, 1)))
    assert w.values() == (1, 2, 3)
    assert w.value_multiset_size() == 4
    assert w.signature.lengths == (2, 2)
    assert w.is_valid_for(GroundSet(iv, [1, 2, 3, 9]))
    assert not w.is_valid_for(GroundSet(iv, [1, 2]))
    assert not w.is_valid_for(GroundSet(IntegerInterval(11), [1, 2, 3]))
    assert w.to_dict() == {"offset": 1, "summands": [[0, 1], [0, 1]]}
