"""End-to-end acceptance checks.

Each test covers one shipped guarantee and carries its own timing guard,
so `pytest tests/test_acceptance.py -v` prints one pass or fail line per
guarantee.  Expected values that appear inline were computed once with
the brute-force oracles in oracles.py and frozen here.
"""

import json
import random
import time
from fractions import Fraction

from sumsetfree import (
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    Signature,
    cayley_hypergraph,
    contains_complete_rpartite,
    contains_sumset,
    count_all_sumsets,
    dyadic_random_sequence,
    DyadicParams,
    elem_add,
    greedy_sequence,
    is_sidon,
    liminf_statistic,
    max_free_set,
    mixed_radix_embed,
    overlap_check,
    random_deletion,
    representation_counts,
    sidon_refined_upper,
    zp3_construction,
)
from sumsetfree.cli import run

from oracles import (
    cyclic_free_table,
    exhaustive_max_free,
    interval_decompositions,
    interval_free_table,
    popcount_table,
)

INTERVAL_MAX_TABLE = {
    (2, 2): [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6],
    (2, 3): [1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 7],
    (3, 3): [1, 2, 3, 4, 4, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 10],
    (2, 2, 2): [1, 2, 3, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 10, 10],
}


def test_criterion_01_single_summand_maximum():
    start = time.perf_counter()
    for n in range(1, 51):
        for length in range(2, 11):
            report = max_free_set(IntegerInterval(n), Signature((length,)))
            assert report.best_size == min(n, length - 1), (n, length)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_search_and_detector_match_brute_force():
    start = time.perf_counter()
    for lengths, frozen in INTERVAL_MAX_TABLE.items():
        sig = Signature(lengths)
        for n in range(1, 19):
            want = exhaustive_max_free(interval_free_table(n, lengths))
            got = max_free_set(IntegerInterval(n), sig).best_size
            assert got == want == frozen[n - 1], (lengths, n)
    n = 14
    tables = {
        lengths: interval_free_table(n, lengths)
        for lengths in ((2, 2), (2, 3), (2, 2, 2))
    }
    rng = random.Random(2024)
    iv = IntegerInterval(n)
    for _ in range(10**4):
        mask = rng.randrange(1 << n)
        elems = [i + 1 for i in range(n) if mask >> i & 1]
        gs = GroundSet(iv, elems)
        for lengths, table in tables.items():
            free = contains_sumset(gs, Signature(lengths)) is None
            assert free == bool(table[mask]), (mask, lengths)
    assert time.perf_counter() - start < 600.0


def test_criterion_03_pair_free_maximum_below_refined_bound():
    start = time.perf_counter()
    for n in range(1, 19):
        best = max_free_set(IntegerInterval(n), Signature((2, 2))).best_size
        assert best <= sidon_refined_upper(n), n
    assert time.perf_counter() - start < 10.0


def test_criterion_04_log_surface_size_freeness_and_slices():
    start = time.perf_counter()
    sig = Signature((2, 2, 2))
    rng = random.Random(404)
    for p in (5, 7, 11, 13):
        A = zp3_construction(p)
        assert len(A.elements) == (p - 3) ** 2, p
        assert contains_sumset(A, sig) is None, p
        group = A.ambient
        members = frozenset(A)
        zero = group.zero
        if p <= 7:
            translates = (
                group.element_at(i) for i in range(group.cardinality)
            )
            ys = [y for y in translates if y != zero]
        else:
            ys = []
            while len(ys) < 200:
                y = group.element_at(rng.randrange(group.cardinality))
                if y != zero:
                    ys.append(y)
        for y in ys:
            shifted = {elem_add(a, y, group) for a in members}
            slice_set = GroundSet(group, members & shifted)
            assert is_sidon(slice_set), (p, y)
    assert time.perf_counter() - start < 300.0


def test_criterion_05_embedded_log_surface_in_interval():
    A = zp3_construction(5)
    embedded = mixed_radix_embed(A)
    assert len(embedded.elements) == 4
    assert embedded.ambient.describe() == "interval n=255 lo=0"
    assert all(0 <= x < 256 for x in embedded.elements)
    assert contains_sumset(embedded, Signature((2, 2, 2))) is None


def test_criterion_06_decomposition_counts():
    for lengths in ((2, 2), (2, 2, 2)):
        sig = Signature(lengths)
        bound_exp = sig.total - sig.r + 1
        for n in range(1, 13):
            decomps, value_sets = count_all_sumsets(n, sig)
            assert decomps <= n**bound_exp, (n, lengths)
            assert value_sets <= decomps
            want = len(interval_decompositions(range(1, n + 1), lengths))
            assert decomps == want, (n, lengths)


def test_criterion_07_overlap_inequality_in_regime():
    start = time.perf_counter()
    rng = random.Random(97)
    checked = 0
    while checked < 1000:
        n = rng.randrange(8, 30)
        b_top = rng.randrange(0, n // 3 + 1)
        b_size = min(rng.randrange(1, 5), b_top + 1)
        B = sorted(rng.sample(range(0, b_top + 1), b_size))
        a_top = n - B[-1]
        A = sorted(rng.sample(range(1, a_top + 1), rng.randrange(1, min(a_top, 8) + 1)))
        sigma = Fraction(len(A) * len(B), n)
        valid = [r for r in (1, 2, 3, 4) if sigma > r - 2]
        r = rng.choice(valid)
        X = GroundSet(IntegerInterval(n), range(1, n + 1))
        lhs, rhs = overlap_check(A, B, X, r)
        assert lhs >= rhs, (n, A, B, r)
        checked += 1
    assert time.perf_counter() - start < 60.0


def test_criterion_08_group_maxima_have_clean_sum_hypergraphs():
    frozen_best = [1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
    frozen_counts = [2, 3, 4, 10, 12, 14, 16, 54, 40, 110, 120]
    pair = Signature((2, 2))
    for n in range(2, 13):
        group = CyclicProduct((n,))
        table = cyclic_free_table(n, (2, 2))
        pc = popcount_table(n)
        best = int(pc[table].max())
        assert best == frozen_best[n - 2], n
        maxima = [
            mask
            for mask in range(1 << n)
            if table[mask] and pc[mask] == best
        ]
        assert len(maxima) == frozen_counts[n - 2], n
        counts = representation_counts(group, 2)
        assert sum(counts.values()) == n * (n - 1) // 2, n
        for mask in maxima:
            elems = [(i,) for i in range(n) if mask >> i & 1]
            A = GroundSet(group, elems)
            assert contains_sumset(A, pair) is None, (n, mask)
            graph = cayley_hypergraph(group, A, 2)
            assert contains_complete_rpartite(graph, pair) is None, (n, mask)


def test_criterion_09_random_deletion_at_ten_thousand():
    start = time.perf_counter()
    sig = Signature((2, 2, 2))
    sampled_sizes = []
    successes = 0
    for seed in range(10):
        report = random_deletion(10**4, sig, seed)
        assert contains_sumset(report.result, sig) is None, seed
        sampled_sizes.append(len(report.sampled))
        if len(report.result.elements) >= report.success_threshold / 2:
            successes += 1
    assert sampled_sizes == [4, 2, 1, 1, 2, 5, 5, 4, 2, 0]
    assert successes >= 1
    assert time.perf_counter() - start < 600.0


def test_criterion_10_greedy_pair_free_prefix():
    prefix = greedy_sequence(Signature((2, 2)), 45)
    assert prefix.elements == (1, 2, 4, 8, 13, 21, 31, 45)


def test_criterion_11_dyadic_runs_report_without_thresholds():
    for lengths in ((2, 2), (2, 3)):
        sig = Signature(lengths)
        params = DyadicParams(epsilon=0.1, m_min=1, m_max=6, seed=0)
        report = dyadic_random_sequence(sig, params)
        assert not report.experimental
        assert [b.m for b in report.blocks] == list(range(1, 7))
        assert contains_sumset(report.prefix, sig) is None
        for block in report.blocks:
            assert block.retained_size <= block.sampled_size <= block.base_size
            assert block.block_size == 4**block.m
            # growth statistic is recorded per block end, not thresholded
            x = block.block_start + block.block_size - 1
            assert liminf_statistic(report.prefix, sig, x) >= 0.0


def test_criterion_12_seeded_commands_are_reproducible(capsys):
    jobs = [
        [
            "construct", "random", "--n", "10000", "--signature", "2,2,2",
            "--seed", "3",
        ],
        [
            "sequence", "dyadic", "--signature", "2,2", "--epsilon", "0.1",
            "--m-max", "6", "--seed", "0",
        ],
    ]
    for argv in jobs:
        outputs = []
        for extra in ([], [], ["--threads", "4"], ["--threads", "16"]):
            assert run(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1, argv
        json.loads(outputs[0])


def test_criterion_13_interval_search_work_is_frozen(capsys):
    # A work guard that does not depend on machine speed: with the
    # Russian-doll bound the n = 24 search explores 29 148 nodes, every
    # run that fills the bound table included (the bare cardinality bound
    # took 128 722).
    assert run(["search", "--n", "24", "--signature", "2,2,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["F"] == 12
    assert report["nodes"] == 29148
