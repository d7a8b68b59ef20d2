import math

import pytest
from hypothesis import given, settings, strategies as st

from sumsetfree import (
    BudgetExceededError,
    DyadicParams,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    Signature,
    behrend_set,
    contains_sumset,
    counting_function,
    dyadic_random_sequence,
    greedy_sequence,
    introduces_sumset,
    liminf_statistic,
)

from sumsetfree import construct

from oracles import decimal_statistic, greedy_sidon

SIG22 = Signature((2, 2))
SIG23 = Signature((2, 3))


def test_greedy_pair_free_start():
    g = greedy_sequence(SIG22, 45)
    assert g.elements == (1, 2, 4, 8, 13, 21, 31, 45)
    assert g.ambient == IntegerInterval(45)
    assert len(g) == 8


def test_greedy_pair_free_is_mian_chowla():
    # the Mian-Chowla sequence below 1000, OEIS A005282
    assert greedy_sequence(SIG22, 1000).elements == (
        1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123, 148, 182, 204, 252, 290,
        361, 401, 475, 565, 593, 662, 775, 822, 916, 970,
    )


def test_greedy_matches_difference_oracle():
    for limit in (10, 45, 120, 300):
        assert greedy_sequence(SIG22, limit).elements == tuple(greedy_sidon(limit))


def test_greedy_past_the_recursion_limit_is_a_budget_error():
    with pytest.raises(BudgetExceededError, match="1500 summands"):
        greedy_sequence(Signature((2,) * 1500), 1600)


def test_greedy_other_signatures():
    assert greedy_sequence(SIG23, 8).elements == (1, 2, 3, 5, 8)
    assert greedy_sequence(Signature((3,)), 10).elements == (1, 2)


def test_greedy_matches_introduces_sumset_loop():
    for lengths in ((2, 3), (2, 2, 2), (3, 3)):
        sig = Signature(lengths)
        ambient = IntegerInterval(200)
        terms = []
        for c in range(1, 201):
            if not introduces_sumset(terms, c, sig, ambient):
                terms.append(c)
        assert greedy_sequence(sig, 200).elements == tuple(terms), lengths


def test_greedy_cube_free_to_1500_frozen():
    # the 138 terms of `sequence greedy --signature 2,2,2 --limit 1500`
    assert greedy_sequence(Signature((2, 2, 2)), 1500).elements == (
        1, 2, 3, 5, 6, 8, 12, 13, 15, 21, 23, 26, 27, 32, 36, 40, 47, 50, 55, 65,
        67, 72, 73, 76, 83, 88, 92, 105, 113, 116, 124, 139, 141, 146, 160, 163,
        164, 167, 173, 178, 198, 212, 214, 222, 235, 249, 262, 267, 268, 270, 275,
        286, 293, 295, 317, 327, 332, 353, 362, 365, 391, 394, 405, 408, 410, 428,
        437, 443, 444, 467, 473, 486, 487, 517, 522, 532, 560, 568, 623, 630, 631,
        635, 652, 661, 701, 703, 706, 719, 720, 726, 736, 740, 742, 757, 792, 824,
        843, 844, 857, 869, 872, 886, 910, 913, 936, 964, 985, 999, 1016, 1043,
        1061, 1069, 1082, 1091, 1099, 1110, 1112, 1134, 1164, 1180, 1193, 1195,
        1205, 1219, 1296, 1315, 1327, 1336, 1342, 1378, 1383, 1384, 1415, 1427,
        1431, 1433, 1438, 1489,
    )


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]),
    st.integers(1, 60),
)
def test_greedy_skips_only_integers_that_complete_a_sumset(lengths, limit):
    sig = Signature(lengths)
    terms = greedy_sequence(sig, limit)
    ambient = IntegerInterval(limit)
    for c in range(1, limit + 1):
        if c not in terms:
            below = [t for t in terms if t < c]
            grown = GroundSet(ambient, below + [c])
            assert contains_sumset(grown, sig) is not None, (c, below)


def test_greedy_prefixes_are_free():
    for sig in (SIG22, SIG23, Signature((2, 2, 2))):
        assert contains_sumset(greedy_sequence(sig, 60), sig) is None


def test_greedy_rejects_non_positive_limit():
    with pytest.raises(InvalidInputError, match="limit must be a positive integer"):
        greedy_sequence(SIG22, 0)


def test_counting_function():
    g = greedy_sequence(SIG22, 45)
    assert counting_function(g, 21) == 6
    assert counting_function(g, 20.5) == 5
    assert counting_function(g, 45) == 8
    assert counting_function(g, 0.5) == 0


def test_liminf_statistic():
    g = greedy_sequence(SIG22, 45)
    got = liminf_statistic(g, SIG22, 45)
    assert got == pytest.approx(2.3267831840227657)
    want = 8 * math.sqrt(45 * math.log(45)) / 45
    assert got == pytest.approx(want)
    with pytest.raises(InvalidInputError):
        liminf_statistic(g, SIG22, 1.0)
    for x in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            liminf_statistic(g, SIG22, x)


def test_liminf_statistic_past_the_float_range():
    # x ln x passes the float range at x = 1e308 and 10**400; the statistic
    # is then taken from logarithms, and is 0.0 for a zero count
    g = greedy_sequence(SIG22, 45)
    empty = GroundSet(IntegerInterval(45))
    for x in (1e308, 10**400):
        assert liminf_statistic(empty, SIG22, x) == 0.0
        want = decimal_statistic(len(g), x, 2)
        assert liminf_statistic(g, SIG22, x) == pytest.approx(want, rel=1e-12)
    assert liminf_statistic(g, SIG22, 1e300) == 8 * math.sqrt(1e300 * math.log(1e300)) / 1e300


@pytest.mark.parametrize(
    "lengths, stats",
    [
        ((2, 2), ["4.2428812673504647e-151", "2.1304590433307498e-152",
                  "2.4278834070163523e-198"]),
        ((2, 2, 2), ["3.684727948644443e-228", "4.128398278587686e-230",
                     "4.407160906539613e-299"]),
    ],
)
def test_liminf_statistic_past_the_float_range_keeps_its_digits(lengths, stats):
    # count * exp(...) from logarithms, digit for digit; approx(rel=1e-12)
    # above would let the last digit drift
    sig = Signature(lengths)
    g = greedy_sequence(SIG22, 45)
    empty = GroundSet(IntegerInterval(45))
    xs = (2.5e305, 1e308, 10**400)
    assert [repr(liminf_statistic(g, sig, x)) for x in xs] == stats
    assert [liminf_statistic(empty, sig, x) for x in xs] == [0.0, 0.0, 0.0]


def test_liminf_statistic_with_x_and_prefix_product_past_the_float_range():
    # P' = 2^1099 and the int x both pass the float range; (ln x + ln ln x)
    # / P' is then below half an ulp of ln x, so the statistic is count / x
    sig = Signature((2,) * 1100)
    g = greedy_sequence(SIG22, 45)
    assert liminf_statistic(g, sig, 10**309) == pytest.approx(8e-309, rel=1e-12)
    assert liminf_statistic(g, sig, 10**400) == 0.0
    assert liminf_statistic(GroundSet(IntegerInterval(45)), sig, 10**309) == 0.0


def test_dyadic_params():
    with pytest.raises(InvalidInputError):
        DyadicParams(epsilon=0.1, m_min=0, m_max=4, seed=0)
    with pytest.raises(InvalidInputError):
        DyadicParams(epsilon=0.1, m_min=1, m_max=0, seed=0)
    with pytest.raises(InvalidInputError):
        DyadicParams(epsilon=-1.0, m_min=1, m_max=3, seed=0)
    for vacuous in (2.0, 3.0, 1e308):
        with pytest.raises(InvalidInputError):
            DyadicParams(epsilon=vacuous, m_min=1, m_max=3, seed=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            DyadicParams(epsilon=bad, m_min=1, m_max=3, seed=0)


def test_dyadic_alpha_comes_from_signature_and_epsilon():
    # alpha = (S - r)/(P - 1) + epsilon/2
    p = DyadicParams(epsilon=0.1, m_min=1, m_max=3, seed=0)
    for lengths, alpha in (((2, 2), 2 / 3), ((2, 3), 3 / 5), ((2, 2, 2), 3 / 7)):
        rep = dyadic_random_sequence(Signature(lengths), p)
        assert rep.alpha == pytest.approx(alpha + 0.05)
        assert rep.prefix.ambient == IntegerInterval(4**5 + 4**3)


def test_dyadic_fixed_seed_run():
    p = DyadicParams(epsilon=0.1, m_min=1, m_max=6, seed=0)
    rep = dyadic_random_sequence(SIG22, p)
    assert rep.prefix.elements == (257, 269)
    assert not rep.experimental
    assert [b.m for b in rep.blocks] == [1, 2, 3, 4, 5, 6]
    assert [b.block_start for b in rep.blocks] == [64, 256, 1024, 4096, 16384, 65536]
    assert [b.block_size for b in rep.blocks] == [4, 16, 64, 256, 1024, 4096]
    assert [b.base_size for b in rep.blocks] == [3, 8, 16, 39, 112, 256]
    assert [b.sampled_size for b in rep.blocks] == [0, 2, 0, 0, 0, 0]
    assert [b.retained_size for b in rep.blocks] == [0, 2, 0, 0, 0, 0]
    assert all(b.obstruction_count == 0 for b in rep.blocks)
    assert not any(b.dense for b in rep.blocks)


def test_dyadic_is_deterministic():
    p = DyadicParams(epsilon=0.1, m_min=1, m_max=6, seed=0)
    a = dyadic_random_sequence(SIG22, p)
    b = dyadic_random_sequence(SIG22, p)
    assert a.prefix.elements == b.prefix.elements
    assert a.blocks == b.blocks


def test_dyadic_prefix_is_stable_under_extension():
    short = DyadicParams(epsilon=0.1, m_min=1, m_max=4, seed=0)
    long = DyadicParams(epsilon=0.1, m_min=1, m_max=6, seed=0)
    a = dyadic_random_sequence(SIG22, short)
    b = dyadic_random_sequence(SIG22, long)
    assert b.prefix.elements[: len(a.prefix)] == a.prefix.elements
    assert b.blocks[:4] == a.blocks[:4]


def test_dyadic_prefixes_are_free():
    for sig, seeds in ((SIG22, (0, 1, 6)), (SIG23, (0, 1))):
        for seed in seeds:
            p = DyadicParams(epsilon=0.1, m_min=1, m_max=6, seed=seed)
            rep = dyadic_random_sequence(sig, p)
            assert contains_sumset(rep.prefix, sig) is None


def test_dyadic_experimental_flag():
    for lengths, flag in (
        ((2, 2), False),
        ((2, 3), False),
        ((2, 2, 2), False),
        ((3, 3), True),
    ):
        sig = Signature(lengths)
        p = DyadicParams(epsilon=0.1, m_min=1, m_max=3, seed=0)
        assert dyadic_random_sequence(sig, p).experimental is flag


def test_dyadic_checks_one_base_per_run(monkeypatch):
    # every block's base is a prefix of the largest block's, so one exact
    # sweep covers them all
    swept = []
    sweep = construct._has_progression

    def counted(values):
        swept.append(len(values))
        return sweep(values)

    monkeypatch.setattr(construct, "_has_progression", counted)
    for m_min, m_max in ((1, 6), (3, 7), (2, 2)):
        swept.clear()
        dyadic_random_sequence(SIG22, DyadicParams(0.1, m_min, m_max, 0))
        assert len(swept) == 1


def test_dyadic_block_bases_are_the_behrend_sets_of_their_length():
    rep = dyadic_random_sequence(SIG22, DyadicParams(0.1, 1, 9, 0))
    assert [b.base_size for b in rep.blocks] == [len(behrend_set(4**m)) for m in range(1, 10)]
