import math

import pytest
from hypothesis import given, settings, strategies as st

from sumsetfree import (
    DyadicParams,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    Signature,
    contains_sumset,
    counting_function,
    dyadic_random_sequence,
    greedy_sequence,
    introduces_sumset,
    liminf_statistic,
)

from oracles import greedy_sidon

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


def test_liminf_statistic_rejects_overflow():
    # x ln x overflows a float at x = 1e308: inf for a positive count, nan
    # for a zero one
    g = greedy_sequence(SIG22, 45)
    empty = GroundSet(IntegerInterval(45))
    for prefix in (g, empty):
        with pytest.raises(InvalidInputError, match="overflows"):
            liminf_statistic(prefix, SIG22, 1e308)
        with pytest.raises(InvalidInputError, match="overflows"):
            liminf_statistic(prefix, SIG22, 10**400)
    assert liminf_statistic(g, SIG22, 1e300) == 8 * math.sqrt(1e300 * math.log(1e300)) / 1e300


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
