import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from sumsetfree import (
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    Signature,
    StructureError,
    behrend_set,
    contains_sumset,
    DyadicParams,
    deletion_with_retries,
    dyadic_random_sequence,
    integer_l222_construction,
    integer_l222_prime,
    is_sidon,
    mixed_radix_embed,
    primitive_root,
    random_deletion,
    zp3_construction,
)

from sumsetfree import construct, sequences
from sumsetfree.construct import _digits01_values, _has_progression

from oracles import (
    decomposition_value_sets,
    has_progression,
    interval_decompositions,
    ternary_01_set,
)

SIG222 = Signature((2, 2, 2))


def test_progression_free_block_small_values():
    b = behrend_set(14)
    assert b.elements == (1, 2, 4, 5, 10, 11, 13, 14)
    assert b.ambient.describe() == "interval n=14"
    assert behrend_set(1).elements == (1,)


def test_progression_free_block_never_has_ap3():
    for n in (1, 2, 3, 5, 9, 20, 27, 40, 81, 200, 729):
        assert not has_progression(behrend_set(n).elements), n


def test_progression_free_block_sizes_at_powers():
    assert len(behrend_set(10**4).elements) == 512
    assert len(behrend_set(4096).elements) == 256
    assert len(behrend_set(10**6).elements) == 8192


@settings(max_examples=300)
@given(
    st.lists(st.integers(-40, 40), max_size=14),
    st.integers(1, 1000),
    st.integers(-10**9, 10**9),
)
@example([], 1, 0)
@example([5], 1, 0)
@example([3, 3], 1, 0)
@example([7, 7, 7], 1, 0)
@example([4, -2, 1], 1, 0)
@example([0, 2, 1, 1], 3, -7)
def test_progression_check_matches_triple_scan(values, step, shift):
    values = [shift + step * v for v in values]
    assert _has_progression(values) == has_progression(values)


@settings(max_examples=100)
@given(st.integers(1, 729), st.integers(-10, 740))
def test_progression_check_on_ternary_base_plus_one(n, extra):
    values = _digits01_values(n) + [extra]
    assert _has_progression(values) == has_progression(values)


def test_behrend_rejects_non_positive_length():
    with pytest.raises(InvalidInputError, match="interval length"):
        behrend_set(0)


def test_progression_free_block_is_rechecked(monkeypatch):
    monkeypatch.setattr(construct, "_digits01_values", lambda n: [0, 3, 1, 5])
    with pytest.raises(RuntimeError):
        behrend_set(6)


def test_progression_free_block_matches_ternary_digit_oracle():
    around_powers = [3**k + e for k in range(1, 13) for e in (-1, 0, 1)]
    for n in [*range(1, 3001), *around_powers, 10**4]:
        assert behrend_set(n).elements == ternary_01_set(n), n


def test_deletion_seed_zero_report():
    rep = random_deletion(10**4, SIG222, 0)
    assert rep.to_dict() == {
        "n": 10000,
        "signature": [2, 2, 2],
        "seed": 0,
        "p": 0.003959549021916447,
        "sizes": {"S": 4, "bad": 0, "A": 4},
    }
    assert rep.base_size == 512
    assert rep.success_threshold == pytest.approx(0.5068222748053052)
    assert set(rep.result.as_set()) == set(rep.sampled) - set(rep.deleted)
    assert contains_sumset(rep.result, SIG222) is None


def test_deletion_is_deterministic():
    a = random_deletion(10**4, SIG222, 5)
    b = random_deletion(10**4, SIG222, 5)
    assert a.to_dict() == b.to_dict()
    assert a.result.elements == b.result.elements


def test_deletion_retries_move_to_next_seed():
    # seed 9 samples nothing at n = 10**4, so the retry loop advances
    rep, attempts, ok = deletion_with_retries(10**4, SIG222, 9, max_attempts=3)
    assert (attempts, ok, rep.seed) == (2, True, 10)
    assert len(rep.result.elements) >= rep.success_threshold


@pytest.mark.parametrize("max_attempts, attempts, ok, seed", [(3, 3, True, 20), (2, 2, False, 19)])
def test_deletion_retries_build_the_base_once(monkeypatch, max_attempts, attempts, ok, seed):
    # seeds 18 and 19 fall short at n = 10**4 and seed 20 does not
    calls = []

    def counted(n):
        calls.append(n)
        return behrend_set(n)

    monkeypatch.setattr(construct, "behrend_set", counted)
    rep, got_attempts, got_ok = deletion_with_retries(
        10**4, SIG222, 18, max_attempts=max_attempts
    )
    assert calls == [10**4]
    assert (got_attempts, got_ok, rep.seed) == (attempts, ok, seed)
    monkeypatch.undo()
    alone = random_deletion(10**4, SIG222, seed)
    assert rep.to_dict() == alone.to_dict()
    assert rep.result.elements == alone.result.elements


def test_deletion_validates_input():
    with pytest.raises(InvalidSignatureError):
        random_deletion(10**4, Signature((4,)), 0)
    with pytest.raises(InvalidInputError):
        random_deletion(1, SIG222, 0)


def test_deletion_retries_need_an_attempt():
    with pytest.raises(InvalidInputError, match="max_attempts must be at least 1"):
        deletion_with_retries(10**4, SIG222, 0, max_attempts=0)


class _KeepAll(random.Random):
    """A stream whose every draw is 0.0, so every sampled element is kept."""

    def random(self):
        return 0.0


def _oracle_maxima(elems, lengths):
    """The largest value of each distinct value set of a forbidden sumset
    in elems, one entry per value set."""
    decomps = interval_decompositions(elems, lengths)
    return [max(vs) for vs in set(decomposition_value_sets(decomps))]


# The tuned densities keep almost nothing at sizes a test can afford, so
# these runs keep every element to reach the deletion step with many
# obstructions.
@pytest.mark.parametrize("lengths", [(2, 2), (2, 3), (2, 2, 2)])
def test_deletion_with_every_element_kept_matches_oracle(monkeypatch, lengths):
    monkeypatch.setattr(construct, "random", SimpleNamespace(Random=_KeepAll))
    rep = random_deletion(40, Signature(lengths), 0)
    sampled = behrend_set(40).elements
    assert rep.sampled.elements == sampled
    maxima = set(_oracle_maxima(sampled, lengths))
    assert 4 <= len(maxima) <= 10
    assert rep.deleted == tuple(sorted(maxima))
    assert rep.result.elements == tuple(x for x in sampled if x not in maxima)


# Blocks m = 1..2 cover [64, 68) and [256, 272); sumsets span both blocks.
# Started at m = 2, the second block alone has fewer obstructions.
@pytest.mark.parametrize(
    "lengths, m_min, counts",
    [((2, 2), 1, [0, 22]), ((2, 3), 2, [12]), ((2, 3), 1, [0, 27])],
)
def test_dyadic_with_every_element_kept_matches_oracle(monkeypatch, lengths, m_min, counts):
    monkeypatch.setattr(sequences, "_block_stream", lambda seed, m: _KeepAll())
    sig = Signature(lengths)
    rep = dyadic_random_sequence(sig, DyadicParams(0.1, m_min, 2, 0))
    blocks = [
        [4 ** (m + 2) - 1 + b for b in behrend_set(4**m).elements]
        for m in range(m_min, 3)
    ]
    maxima = _oracle_maxima([v for block in blocks for v in block], lengths)
    assert rep.prefix.elements == tuple(v for block in blocks for v in block if v not in maxima)
    assert [b.obstruction_count for b in rep.blocks] == counts
    for outcome, block in zip(rep.blocks, blocks):
        assert outcome.sampled_size == len(block)
        assert outcome.obstruction_count == sum(v in block for v in maxima)
        assert outcome.retained_size == sum(v not in maxima for v in block)


def test_primitive_roots():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(13) == 2
    for bad in (1, 4, 6, 15):
        with pytest.raises(InvalidInputError):
            primitive_root(bad)


def test_log_surface_smallest_prime():
    z = zp3_construction(5)
    assert z.ambient.describe() == "product 4,4,4"
    assert z.elements == ((1, 1, 1), (2, 2, 3), (2, 3, 2), (3, 2, 2))
    assert contains_sumset(z, SIG222) is None


def test_log_surface_defining_equation():
    for p in (5, 7, 11, 13):
        theta = primitive_root(p)
        z = zp3_construction(p)
        assert len(z.elements) == (p - 3) ** 2
        for x1, x2, x3 in z.elements:
            assert 1 <= x1 <= p - 2 and 1 <= x2 <= p - 2 and 1 <= x3 <= p - 2
            total = pow(theta, x1, p) + pow(theta, x2, p) + pow(theta, x3, p)
            assert total % p == 1


def test_log_surface_rejects_non_primes():
    for bad in (2, 3, 4, 6):
        with pytest.raises(InvalidInputError):
            zp3_construction(bad)


def test_embedding_of_log_surface():
    e = mixed_radix_embed(zp3_construction(5))
    assert e.elements == (73, 147, 154, 210)
    assert e.ambient.describe() == "interval n=255 lo=0"
    assert contains_sumset(e, SIG222) is None


def test_embedding_weights():
    g = GroundSet(CyclicProduct((3, 5)), [(0, 0), (1, 2), (2, 4)])
    e = mixed_radix_embed(g)
    assert e.elements == (0, 13, 26)
    assert e.ambient.describe() == "interval n=29 lo=0"


def test_embedding_preserves_pair_freeness_small():
    cp = CyclicProduct((5, 5))
    g = GroundSet(cp, [(0, 0), (1, 0), (0, 1), (2, 3)])
    image = mixed_radix_embed(g)
    assert is_sidon(g) == is_sidon(image)


def test_embedding_needs_product_ambient():
    with pytest.raises(StructureError):
        mixed_radix_embed(GroundSet(IntegerInterval(5), [1, 2]))


def test_integer_construction_prime_choice():
    assert integer_l222_prime(256) == 5
    assert integer_l222_prime(4000) == 11
    assert integer_l222_prime(10**4) == 13
    with pytest.raises(InvalidInputError):
        integer_l222_prime(255)


def test_integer_construction_results():
    c = integer_l222_construction(256)
    assert c.elements == (73, 147, 154, 210)
    assert c.ambient.describe() == "interval n=255 lo=0"
    assert len(integer_l222_construction(4000).elements) == 64
    big = integer_l222_construction(10**4)
    assert len(big.elements) == 100
    assert big.ambient.describe() == "interval n=9999 lo=0"
    assert contains_sumset(c, SIG222) is None
    with pytest.raises(InvalidInputError):
        integer_l222_construction(100)
