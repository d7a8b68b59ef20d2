import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sumsetfree
from sumsetfree import (
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    read_set_file,
    write_set_file,
)
from sumsetfree import cli, search
from sumsetfree.cli import run

from oracles import decimal_statistic


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_interval_set(path, n, elems):
    write_set_file(GroundSet(IntegerInterval(n), elems), path)
    return str(path)


def write_group_set(path, moduli, elems):
    write_set_file(GroundSet(CyclicProduct(moduli), elems), path)
    return str(path)


def twos(r):
    return ",".join(["2"] * r)


def run_module(*argv, cap_mb=1500):
    """Run `python -m sumsetfree.cli` in a child process under an
    address-space cap of cap_mb MiB and a timeout, so an input that a
    regression makes cost hours or gigabytes fails the test instead of
    stalling the suite."""
    src = str(Path(sumsetfree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    limit = cap_mb * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "sumsetfree.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )


def test_detect_sidon(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 13, [1, 2, 5, 11])
    code, out, _ = run_cli(capsys, "detect", "--set", s, "--sidon")
    assert code == 0
    assert json.loads(out) == {"sidon": True}


@pytest.mark.parametrize("elems, cell", [([1, 2, 5, 11], "true"), ([1, 2, 3], "false")])
def test_detect_sidon_csv_is_frozen(tmp_path, capsys, elems, cell):
    s = write_interval_set(tmp_path / "s.txt", 13, elems)
    code, out, _ = run_cli(capsys, "detect", "--set", s, "--sidon", "--format", "csv")
    assert code == 0
    assert out == f"sidon\n{cell}\n"


def test_detect_signature_with_witness(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 3, [1, 2, 3])
    code, out, _ = run_cli(capsys, "detect", "--set", s, "--signature", "2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["free"] is False
    assert payload["signature"] == [2, 2]
    assert payload["witness"]["offset"] == 1
    assert payload["witness"]["summands"] == [[0, 1], [0, 1]]


def test_detect_hilbert(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 45, [1, 2, 4, 8, 13, 21, 31, 45])
    code, out, _ = run_cli(capsys, "detect", "--set", s, "--hilbert", "3")
    assert code == 0
    assert json.loads(out) == {"dimension": 3, "free": True}


def test_detect_hilbert_past_the_recursion_limit_exits_3(tmp_path):
    # the walk recurses once per summand: 900 fits Python's default limit,
    # 990 does not and is refused instead of ending in a RecursionError
    s = write_interval_set(tmp_path / "s.txt", 1600, range(1, 1601))
    done = run_module("detect", "--set", s, "--hilbert", "900")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"dimension": 900, "free": False}
    done = run_module("detect", "--set", s, "--hilbert", "990")
    assert done.returncode == 3
    assert "990 summands" in done.stderr and "Traceback" not in done.stderr


def test_hypergraph_check_past_the_recursion_limit_exits_3(tmp_path):
    # one edge of 1100 vertices: seeding 1100 classes of two recursed past
    # Python's limit and exited 1 with a traceback
    graph = tmp_path / "edge.graph"
    graph.write_text("#hypergraph n=1200 r=1100\n" + " ".join(map(str, range(1100))) + "\n")
    done = run_module("hypergraph", "check", "--graph", str(graph), "--signature", twos(1100))
    assert (done.returncode, done.stdout) == (3, "")
    assert "1100 summands" in done.stderr and "Traceback" not in done.stderr


def test_detect_hilbert_of_huge_dimension_answers_at_once(tmp_path, capsys):
    # the level plan is one pass over the signature; built from its tail
    # slices it took quadratic time, about 46 s at dimension 100 000
    s = write_interval_set(tmp_path / "s.txt", 10, [1, 2, 4])
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "detect", "--set", s, "--hilbert", "100000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out) == {"dimension": 100000, "free": True}


def test_search_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "search", "--signature", "2,2", "--n", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["F"] == 5
    assert payload["witness"] == [1, 2, 5, 10, 12]
    code, out, _ = run_cli(
        capsys, "search", "--signature", "2,2", "--n", "12", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ambient,signature,F,nodes,ms"
    cells = lines[1].split(",")
    assert cells[0] == "interval n=12"
    assert cells[1] == "2;2"
    assert cells[2] == "5"
    assert cells[3] == "401"


def test_search_save_set(tmp_path, capsys):
    target = tmp_path / "best.txt"
    code, _, _ = run_cli(
        capsys, "search", "--signature", "2,3", "--n", "5",
        "--save-set", str(target),
    )
    assert code == 0
    assert read_set_file(target).elements == (1, 2, 3, 5)


def test_enumerate_interval_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--signature", "2,2", "--n", "4")
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "signature": [2, 2],
        "decompositions": 4,
        "distinct_value_sets": 3,
    }


def test_enumerate_huge_decomposition_space_exits_on_budget(capsys):
    # 5^8001 has 5 593 digits, past the int-to-str limit of the message
    code, out, err = run_cli(capsys, "enumerate", "--signature", twos(8000), "--n", "5")
    assert code == 3
    assert out == ""
    assert "decomposition space 5^8001 exceeds budget" in err


def test_enumerate_set_witness_listing(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 4, [1, 2, 3, 4])
    code, out, _ = run_cli(capsys, "enumerate", "--set", s, "--signature", "2,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["decompositions"] == 4
    assert len(payload["witnesses"]) == 4
    code, out, _ = run_cli(
        capsys, "enumerate", "--set", s, "--signature", "2,2", "--count-only"
    )
    assert "witnesses" not in json.loads(out)


def test_bounds_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--signature", "2,2", "--n", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_leading"] == 100.0
    assert payload["lower_exponent"] == "1/3"
    assert payload["turan_upper"] == 500000.0
    assert payload["sidon_refined"] == 110.5
    code, out, _ = run_cli(capsys, "bounds", "--signature", "2,3", "--n", "100")
    assert "sidon_refined" not in json.loads(out)


def test_bounds_with_factorial_past_the_float_range(capsys):
    # 171! passes the float range; the Turan bound itself is near 8e-139
    code, out, _ = run_cli(capsys, "bounds", "--signature", twos(171), "--n", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["turan_upper"] == pytest.approx(10**171 / math.factorial(171), rel=1e-12)
    assert payload["upper_leading"] == 10.0


def test_bounds_with_prefix_product_past_the_float_range(capsys):
    # 1 / P' with P' = 2^1099 is 0.0, not an OverflowError
    code, out, _ = run_cli(capsys, "bounds", "--signature", twos(1100), "--n", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_leading"] == 10.0
    assert payload["turan_upper"] == 0.0  # 10^1100 / 1100! is about 1e-1752


def test_bounds_past_the_float_range_exit_on_budget(capsys):
    n = str(10**300)  # the Turan bound n^1.5 / 2 is about 10^450
    code, out, err = run_cli(capsys, "bounds", "--signature", "2,2", "--n", n)
    assert code == 3
    assert out == ""
    assert "turan_upper is about 10^449.7, past the float range" in err


def test_bounds_overlap(tmp_path, capsys):
    a = write_interval_set(tmp_path / "a.txt", 8, [1, 2])
    b = write_interval_set(tmp_path / "b.txt", 8, [1, 2, 3])
    x = write_interval_set(tmp_path / "x.txt", 8, range(1, 9))
    code, out, _ = run_cli(
        capsys, "bounds", "--overlap", "--a", a, "--b", b, "--x", x, "--r", "2"
    )
    assert code == 0
    assert json.loads(out) == {
        "r": 2,
        "lhs": "1/4",
        "rhs": "-3/32",
        "holds": True,
    }
    code, _, err = run_cli(
        capsys, "bounds", "--overlap", "--a", a, "--b", b, "--x", x
    )
    assert code == 2
    assert "--r" in err


def write_overlap_sets(tmp_path, a, b, n):
    """Set files for A, B (in an interval from 0) and X = {1..n}."""
    write_set_file(GroundSet(IntegerInterval(n, lo=0), b), tmp_path / "b.txt")
    return (
        write_interval_set(tmp_path / "a.txt", n, a),
        str(tmp_path / "b.txt"),
        write_interval_set(tmp_path / "x.txt", n, range(1, n + 1)),
    )


def test_bounds_overlap_report_is_frozen(tmp_path, capsys):
    a, b, x = write_overlap_sets(tmp_path, range(1, 42), range(40), 200)
    code, out, _ = run_cli(capsys, "bounds", "--overlap", "--a", a, "--b", b, "--x", x, "--r", "3")
    assert code == 0
    assert out == (
        '{\n  "holds": true,\n  "lhs": "10127/10",\n  "r": 3,\n  "rhs": "7626/125"\n}\n'
    )


def test_bounds_overlap_refuses_r_past_the_shifts(tmp_path):
    # with r > |B| the falling factorial C(41 * 40 / 200, r) used to pass
    # the int-to-str limit and end in a ValueError traceback
    a, b, x = write_overlap_sets(tmp_path, range(1, 42), range(40), 200)
    proc = run_module("bounds", "--overlap", "--a", a, "--b", b, "--x", x, "--r", "30000")
    assert proc.returncode == 2
    assert proc.stderr == "error: --r 30000 exceeds |B| = 40: B has no r-subsets\n"


def test_bounds_overlap_refuses_unprintable_rhs_up_front(tmp_path, capsys):
    # C(3000/3001, 2000) has a denominator of at least 3001^2000, some
    # 6950 digits: refused before the 2000-term product
    a, b, x = write_overlap_sets(tmp_path, [1], range(3000), 3001)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--overlap", "--a", a, "--b", b, "--x", x, "--r", "2000")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err.startswith("error: rhs C(3000/3001, 2000) has more than")
    # below the limit the same rhs is printed in full
    code, out, _ = run_cli(capsys, "bounds", "--overlap", "--a", a, "--b", b, "--x", x, "--r", "1000")
    assert code == 0
    assert len(json.loads(out)["rhs"]) > 3000


def test_bounds_overlap_render_refuses_unprintable_value():
    # the render's refusal, for an exact side no up-front bound caught
    with pytest.raises(sumsetfree.BudgetExceededError, match="string conversion"):
        cli._fraction_text(Fraction(10**5000 + 1, 3))
    assert cli._fraction_text(Fraction(-3, 32)) == "-3/32"


def test_construct_behrend(tmp_path, capsys):
    target = tmp_path / "b.txt"
    code, out, _ = run_cli(
        capsys, "construct", "behrend", "--n", "14", "--save-set", str(target)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 8
    assert payload["elements"] == [1, 2, 4, 5, 10, 11, 13, 14]
    assert read_set_file(target).elements == (1, 2, 4, 5, 10, 11, 13, 14)


def test_construct_random_determinism(capsys):
    argv = [
        "construct", "random", "--n", "10000", "--signature", "2,2,2",
        "--seed", "3",
    ]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, threaded, _ = run_cli(capsys, *argv, "--threads", "4")
    assert first == threaded
    _, other, _ = run_cli(
        capsys, "construct", "random", "--n", "10000", "--signature", "2,2,2",
        "--seed", "4",
    )
    assert other != first
    assert json.loads(first)["sizes"]["A"] == 1


def test_construct_random_with_product_past_the_float_range(capsys):
    # P - 1 = 2^1030 - 1 is divided exactly; p is 0.5 n^(-9e-308), so 0.5
    code, out, _ = run_cli(
        capsys, "construct", "random", "--n", "1000", "--signature", twos(1030),
        "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 0.5
    assert payload["sizes"]["bad"] == 0


def test_construct_random_retries(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "random", "--n", "10000", "--signature", "2,2,2",
        "--seed", "9", "--retries", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 10
    assert payload["attempts"] == 2
    assert payload["succeeded"] is True


def test_construct_zp3_and_embed_round_trip(tmp_path, capsys):
    group_file = tmp_path / "zp3.txt"
    code, out, _ = run_cli(
        capsys, "construct", "zp3", "--p", "5", "--save-set", str(group_file)
    )
    assert code == 0
    assert json.loads(out)["elements"] == [[1, 1, 1], [2, 2, 3], [2, 3, 2], [3, 2, 2]]
    code, out, _ = run_cli(capsys, "construct", "embed", "--set", str(group_file))
    assert code == 0
    embedded = json.loads(out)
    assert embedded["elements"] == [73, 147, 154, 210]
    assert embedded["ambient"] == "interval n=255 lo=0"
    code, out, _ = run_cli(capsys, "construct", "zp3", "--p", "5", "--embed")
    assert json.loads(out)["elements"] == [73, 147, 154, 210]


def test_construct_l222(capsys):
    code, out, _ = run_cli(capsys, "construct", "l222", "--n", "256")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5
    assert payload["size"] == 4


@pytest.mark.parametrize(
    "n, digest",
    [
        (5000000, "fab83a0abadb8f9a3c3bb4394fe6e308b9989c7767533c8fd0d141ef450feb13"),
        (100000000, "942811b2f930bedf1e421823d78e3690a92afcbc1f832eeae283a5331a28e47a"),
    ],
)
def test_construct_l222_stdout_is_frozen(capsys, n, digest):
    # the reports as they were when the set went through one element tuple
    # per index; 10^9 is pinned under a memory cap below
    code, out, _ = run_cli(capsys, "construct", "l222", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hypergraph_flow(tmp_path, capsys):
    set_file = write_group_set(
        tmp_path / "z5.txt", (5,), [(0,), (1,)]
    )
    graph_file = tmp_path / "z5.graph"
    code, out, _ = run_cli(
        capsys, "hypergraph", "build", "--set", set_file, "--r", "2",
        "--save-graph", str(graph_file), "--list-edges",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 5,
        "r": 2,
        "edges": 4,
        "edge_list": [[0, 1], [1, 4], [2, 3], [2, 4]],
    }
    code, out, _ = run_cli(
        capsys, "hypergraph", "check", "--graph", str(graph_file),
        "--signature", "2,2",
    )
    assert code == 0
    assert json.loads(out) == {"signature": [2, 2], "free": True, "classes": None}
    code, out, _ = run_cli(
        capsys, "hypergraph", "best-translate", "--set", set_file, "--r", "2"
    )
    assert code == 0
    assert json.loads(out) == {"translate": [0], "edges": 4, "mean": "4"}


def test_detect_in_large_product_builds_only_the_masks_it_uses(tmp_path):
    # Z_10000^2 has 10^8 elements, so one digit mask of the kernel takes
    # 12.5 MB and the masks of every digit 250 GB.
    s = tmp_path / "big.txt"
    s.write_text("#ambient product 10000,10000\n0,0\n0,1\n1,0\n1,1\n", encoding="utf-8")
    proc = run_module("detect", "--set", str(s), "--signature", "2,2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["free"] is False
    assert payload["witness"] == {
        "offset": [0, 0],
        "summands": [[[0, 0], [0, 1]], [[0, 0], [1, 0]]],
    }


def test_detect_in_product_of_eight_small_moduli(tmp_path):
    # Z_10^8 also has 10^8 elements; building bit 0 of every period of
    # each digit by long division of the all-ones mask took over 3 minutes
    zero, first, last = [0] * 8, [1] + [0] * 7, [0] * 7 + [1]
    lines = [",".join(map(str, e)) for e in (zero, last, first, [1] + [0] * 6 + [1])]
    s = tmp_path / "z10.txt"
    text = "#ambient product " + ",".join(["10"] * 8) + "\n" + "\n".join(lines) + "\n"
    s.write_text(text, encoding="utf-8")
    proc = run_module("detect", "--set", str(s), "--signature", "2,2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["witness"] == {"offset": zero, "summands": [[zero, last], [zero, first]]}


@pytest.mark.parametrize(
    "text",
    [
        "#ambient product 1000000000,1000000000\n999999999,999999999\n",
        "#ambient interval n=1000000000000000000\n999999999999999999\n",
        "#ambient product 1000000000,1000000000\n0,0\n0,1\n1,0\n1,1\n",
        "#ambient interval n=2000000000\n1999999999\n",
        "#ambient product 100000,100000\n0,0\n0,1\n1,0\n1,1\n",
    ],
)
def test_detect_in_too_wide_ambient_exits_on_budget(tmp_path, text):
    # the first two need a set bitset of 10^18 bits, the third kernel masks
    # of as many; the fourth a set bitset of 2 * 10^9 bits, the last kernel
    # masks of 10^10, all past the limit of 2^30
    s = tmp_path / "wide.txt"
    s.write_text(text, encoding="utf-8")
    proc = run_module("detect", "--set", str(s), "--signature", "2,2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "bitset limit" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "zp3", "--p", "100003"),
        ("construct", "behrend", "--n", "10000000000000"),
    ],
)
def test_construction_past_bitset_limit_exits_before_building(argv):
    # refused before listing the (p - 3)^2 = 10^10 triples or the
    # n^0.63 = 2.7 * 10^8 values
    proc = run_module(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "bitset limit" in proc.stderr


def test_l222_near_the_bitset_limit_fits_256_mib():
    # p = 619: 379 456 triples embedded below 10^9.  A ground set holding
    # a bitmask over that span peaked at 608 MB of address space
    proc = run_module("construct", "l222", "--n", "1000000000", cap_mb=256)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "750b59dc4a7f93ca020e59fa3d5cb905ced316fa9d463c932b610586f72b476b"


def test_sidon_parabola_in_a_large_group_fits_512_mib(tmp_path):
    # {(x, x^2)} is a Sidon set; over Z_4093^2 each kept digit mask holds
    # 16.8 M bits, and keeping one per digit met ran out of memory
    elems = [(x, x * x % 4093) for x in range(1, 301)]
    s = write_group_set(tmp_path / "parabola.txt", (4093, 4093), elems)
    proc = run_module("detect", "--set", s, "--sidon", cap_mb=512)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"sidon": True}


def test_sparse_set_near_the_bitset_limit_fits_512_mib(tmp_path):
    # {2^30 - 2^k}, a Sidon set of 20 elements whose bitmask is 128 MiB:
    # decoding it through one bin() string of 2^30 characters, or copying
    # the int once per set bit, ran out of memory
    n = 2**30 - 1
    s = write_interval_set(tmp_path / "s.txt", n, [2**30 - 2**k for k in range(10, 30)])
    proc = run_module("detect", "--set", s, "--sidon", cap_mb=512)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"sidon": True}


def test_l222_past_bitset_limit_exits_before_building(capsys):
    # p = 787: its 614 656 triples took seconds and some 300 MB before the
    # first image past 2^30 was refused; 4 (p - 1)^2 (p - 2) bounds the
    # largest image from below and is known from p alone
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "l222", "--n", "2000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: element index 1939879440 exceeds the bitset limit of 1073741824 bits\n"


@pytest.mark.parametrize("n", [10**21, 10**100])
def test_l222_for_huge_n_exits_before_any_prime_search(capsys, n):
    # every such n has p >= 647, whose images reach 4 * 646^2 * 645
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "l222", "--n", str(n))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: element index 1076675280 exceeds the bitset limit of 1073741824 bits\n"


@pytest.mark.parametrize("p", [1000000000000000003, 1000000000000000001])
def test_zp3_past_bitset_limit_exits_before_primality_test(capsys, p):
    # the first is prime, the second composite; trial division of the
    # prime takes some 5 * 10^8 steps
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "zp3", "--p", str(p))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: element index {(p - 1) ** 3 - 1} exceeds the bitset limit of 1073741824 bits\n"


def test_zp3_composite_below_bitset_limit_exits_on_input(capsys):
    code, out, err = run_cli(capsys, "construct", "zp3", "--p", "1001")
    assert (code, out) == (2, "")
    assert err == "error: expected a prime >= 5, got 1001\n"


def test_best_translate_with_r_at_least_the_group_order_exits_on_budget(tmp_path):
    # C(N, r) is 1 at r = N, so the N scores are what the budget bounds
    s = tmp_path / "g.txt"
    s.write_text("#ambient product 1000000,1000000\n0,0\n", encoding="utf-8")
    proc = run_module("hypergraph", "best-translate", "--set", str(s), "--r", "1000000000000")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: 1000000000000 subsets exceed the combination budget 5000000\n"
    )


def test_hypergraph_build_past_the_vertex_budget_exits_at_once(tmp_path):
    # the complements' 5.7 * 10^8 vertex entries ran out of memory before
    # they were charged to the budget
    s = write_group_set(tmp_path / "g.txt", (2000,), [(x,) for x in range(0, 2000, 7)])
    start = time.perf_counter()
    proc = run_module("hypergraph", "build", "--set", s, "--r", "1998")
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: 285857 edges of 1998 vertices exceed the combination budget 5000000\n"
    )


def test_best_translate_past_the_budget_bit_length_exits_at_once(tmp_path):
    # C(N, r) >= 2^min(r, N - r), so the count need not be computed: it
    # has 301 030 digits here
    s = tmp_path / "g.txt"
    s.write_text("#ambient product 1000000\n0\n", encoding="utf-8")
    proc = run_module("hypergraph", "best-translate", "--set", str(s), "--r", "500000")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: C(1000000, 500000) >= 2^500000 subsets exceed the combination "
        "budget 5000000\n"
    )


@pytest.mark.parametrize("moduli", ["40,40", ",".join(["2"] * 20)])
def test_large_group_search_exits_on_node_budget(moduli):
    # a recursion per candidate index hit Python's recursion limit past
    # about 1000 elements; the search keys only the indices it meets
    # second, not the 2^20 elements of Z_2^20
    proc = run_module(
        "search", "--moduli", moduli, "--signature", "2,2", "--allow-large",
        "--max-nodes", "5000",
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: search exceeded node budget 5000\n"


def test_group_search_keys_no_more_orbits_than_its_node_budget(capsys, monkeypatch):
    # keying one class representative per tuple of divisor digits, 9 216
    # for these moduli, before the first node cost 0.4 s that --max-nodes
    # did not see; now each key is taken at a node
    keyed = []
    orbit_key = search._orbit_key

    def counted(moduli):
        key = orbit_key(moduli)
        return lambda v: keyed.append(v) or key(v)

    monkeypatch.setattr(search, "_orbit_key", counted)
    code, out, err = run_cli(
        capsys, "search", "--moduli", "2,3,4,5,6,7,8,9,10", "--signature", "2,2",
        "--allow-large", "--max-nodes", "10",
    )
    assert (code, out) == (3, "")
    assert err == "error: search exceeded node budget 10\n"
    assert 0 < len(keyed) <= 10


def test_long_interval_search_exits_on_node_budget():
    # a bound table of n + 1 entries, built before the first node, would
    # need some 4 GB at n = 10^8; the table grows by one entry per run
    proc = run_module(
        "search", "--n", "100000000", "--signature", "2,2", "--allow-large",
        "--max-nodes", "10",
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: search exceeded node budget 10\n"


def test_hypergraph_check_on_one_wide_edge(tmp_path):
    # one edge of rank 12 and twelve equal class sizes: a single seed, not 12!
    graph_file = tmp_path / "wide.graph"
    graph_file.write_text("#hypergraph n=12 r=12\n" + " ".join(map(str, range(12))) + "\n")
    proc = run_module(
        "hypergraph", "check", "--graph", str(graph_file), "--signature", ",".join(["2"] * 12)
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"signature": [2] * 12, "free": True, "classes": None}


def test_hypergraph_build_needs_group_set(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 5, [1, 2])
    code, _, err = run_cli(capsys, "hypergraph", "build", "--set", s, "--r", "2")
    assert code == 2
    assert "product-group" in err


def test_sequence_greedy(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "greedy", "--signature", "2,2", "--limit", "45"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [1, 2, 4, 8, 13, 21, 31, 45]
    assert payload["size"] == 8


def test_sequence_dyadic_report(capsys):
    argv = [
        "sequence", "dyadic", "--signature", "2,2", "--epsilon", "0.1",
        "--m-max", "6", "--seed", "0",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [257, 269]
    assert payload["experimental"] is False
    assert payload["provenance"]["kind"] == "dyadic"
    assert payload["provenance"]["alpha"] == pytest.approx(2 / 3 + 0.05)
    assert [row["m"] for row in payload["per_m"]] == [1, 2, 3, 4, 5, 6]
    assert all(set(row) == {"m", "S", "N", "retained", "dense"}
               for row in payload["per_m"])
    assert [row["x"] for row in payload["statistics"]] == [
        67, 271, 1087, 4351, 17407, 69631,
    ]
    _, again, _ = run_cli(capsys, *argv)
    assert out == again
    _, threaded, _ = run_cli(capsys, *argv, "--threads", "8")
    assert out == threaded


def test_sequence_dyadic_csv_table(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "dyadic", "--signature", "2,2", "--epsilon", "0.1",
        "--m-max", "3", "--seed", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,S,N,retained,dense"
    assert len(lines) == 4
    assert lines[2] == "2,2,0,2,false"


DYADIC_ARGV = [
    "sequence", "dyadic", "--signature", "2,2", "--epsilon", "0.1",
    "--m-max", "3", "--seed", "0",
]


def test_sequence_dyadic_save_set_is_frozen(tmp_path, capsys):
    # the free prefix lands in 1..4^(m_max+2) + 4^m_max, the last block's end
    target = tmp_path / "dyadic.txt"
    code, out, _ = run_cli(capsys, *DYADIC_ARGV, "--save-set", str(target))
    assert code == 0
    assert target.read_bytes() == b"#ambient interval n=1088\n257\n269\n"
    assert (code, out) == run_cli(capsys, *DYADIC_ARGV)[:2]


def test_sequence_greedy_save_set_is_frozen(tmp_path, capsys):
    argv = ["sequence", "greedy", "--signature", "2,2", "--limit", "45"]
    target = tmp_path / "greedy.txt"
    code, out, _ = run_cli(capsys, *argv, "--save-set", str(target))
    assert code == 0
    assert target.read_bytes() == b"#ambient interval n=45\n1\n2\n4\n8\n13\n21\n31\n45\n"
    assert (code, out) == run_cli(capsys, *argv)[:2]


def test_sequence_dyadic_table_is_frozen(capsys):
    # a nested dict (provenance) and two row lists (per_m, statistics)
    code, out, _ = run_cli(capsys, *DYADIC_ARGV, "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "signature: 2, 2",
        "provenance:",
        "  kind: dyadic",
        "  epsilon: 0.1",
        "  m_min: 1",
        "  m_max: 3",
        "  seed: 0",
        "  alpha: 0.7166666666666667",
        "experimental: false",
        "per_m:",
        "  m  S  N  retained  dense",
        "  1  0  0  0         false",
        "  2  2  0  2         false",
        "  3  0  0  0         false",
        "statistics:",
        "  x     count  stat               ",
        "  67    0      0.0                ",
        "  271   2      0.2875553871468785 ",
        "  1087  2      0.16039483122760118",
        "size: 2",
        "terms: 257, 269",
    ]
    assert out.endswith("269\n")


def test_construct_random_csv_flattens_nested_sizes(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "random", "--n", "200", "--signature", "2,2,2",
        "--seed", "1", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "n,signature,seed,p,sizes.S,sizes.bad,sizes.A\n"
        "200,2;2;2,1,0.03146247376604567,5,0,5\n"
    )


def test_sequence_stats(tmp_path, capsys):
    s = write_interval_set(tmp_path / "mc.txt", 45, [1, 2, 4, 8, 13, 21, 31, 45])
    code, out, _ = run_cli(
        capsys, "sequence", "stats", "--signature", "2,2", "--set", s,
        "--x", "45", "--x", "21",
    )
    assert code == 0
    stats = json.loads(out)["statistics"]
    assert stats[0]["x"] == 45.0
    assert stats[0]["count"] == 8
    assert stats[0]["stat"] == pytest.approx(2.3267831840227657)
    assert stats[1]["count"] == 6
    code, _, err = run_cli(
        capsys, "sequence", "stats", "--signature", "2,2", "--set", s
    )
    assert code == 2
    assert "--x" in err


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "greedy", "--signature", "2,2", "--limit", "8",
        "--format", "table",
    )
    assert code == 0
    assert "signature: 2, 2" in out
    assert "terms: 1, 2, 4, 8" in out


def test_exit_code_on_bad_signature(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 5, [1, 2])
    code, _, err = run_cli(capsys, "detect", "--set", s, "--signature", "x")
    assert code == 2
    assert "bad signature" in err


def test_exit_code_on_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "detect", "--set", "/nonexistent/set.txt", "--sidon"
    )
    assert code == 2
    assert "error" in err


def test_exit_code_on_bounds_without_signature(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "--signature" in err


def test_exit_code_on_bounds_without_n(capsys):
    code, out, err = run_cli(capsys, "bounds", "--signature", "2,2")
    assert code == 2
    assert out == ""
    assert err == "error: bounds needs --n or --overlap\n"


def test_exit_code_on_best_translate_of_interval_set(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 9, [1, 2, 4])
    code, out, err = run_cli(capsys, "hypergraph", "best-translate", "--set", s, "--r", "2")
    assert code == 2
    assert out == ""
    assert err == "error: best-translate expects a product-group set file\n"


def test_exit_code_on_sequence_stats_of_non_positive_terms(tmp_path, capsys):
    s = tmp_path / "z.txt"
    s.write_text("#ambient interval n=50 lo=0\n0\n3\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "sequence", "stats", "--signature", "2,2", "--set", str(s), "--x", "5"
    )
    assert code == 2
    assert out == ""
    assert err == "error: sequence terms must be positive integers\n"


def test_exit_code_on_sequence_stats_of_product_set(tmp_path, capsys):
    s = write_group_set(tmp_path / "g.txt", (4, 4), [(0, 0), (1, 1)])
    code, out, err = run_cli(
        capsys, "sequence", "stats", "--signature", "2,2", "--set", s, "--x", "5"
    )
    assert code == 2
    assert out == ""
    assert err == "error: sequence stats expect an interval set file\n"


def test_module_entry_point_runs():
    proc = run_module("search", "--n", "5", "--signature", "2,2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["F"] == 3
    assert payload["signature"] == [2, 2]


def test_exit_code_on_missing_seed(capsys):
    code, _, err = run_cli(
        capsys, "construct", "random", "--n", "100", "--signature", "2,2"
    )
    assert code == 2


def test_exit_code_on_budget(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--signature", "2,2", "--n", "50",
        "--max-decompositions", "10",
    )
    assert code == 3
    assert "budget" in err or "exceed" in err


def test_enumerate_set_budget_boundary(tmp_path, capsys):
    s = write_interval_set(tmp_path / "s.txt", 6, range(1, 7))
    k = len(list(sumsetfree.enumerate_sumsets(read_set_file(s), sumsetfree.Signature((2, 2)))))
    argv = ["enumerate", "--set", s, "--signature", "2,2", "--max-decompositions"]
    code, out, _ = run_cli(capsys, *argv, str(k))
    assert code == 0
    assert json.loads(out)["decompositions"] == k
    code, out, err = run_cli(capsys, *argv, str(k - 1))
    assert (code, out) == (3, "")
    assert err == f"error: decomposition enumeration exceeded limit of {k - 1}\n"


def test_construct_random_obstruction_budget_boundary(capsys):
    # seed 2689 samples all of the base {1, 2, 4, 5} = 1 + {0, 1} + {0, 3}
    # of n = 5, so the deletion step has decompositions to count
    sig = sumsetfree.Signature((2, 2))
    sampled = sumsetfree.random_deletion(5, sig, 2689).sampled
    k = len(list(sumsetfree.enumerate_sumsets(sampled, sig)))
    assert k > 0
    argv = ["construct", "random", "--n", "5", "--signature", "2,2", "--seed", "2689"]
    code, out, _ = run_cli(capsys, *argv, "--max-obstructions", str(k))
    assert code == 0
    assert json.loads(out)["sizes"]["S"] == len(sampled)
    code, out, err = run_cli(capsys, *argv, "--max-obstructions", str(k - 1))
    assert (code, out) == (3, "")
    assert err == f"error: decomposition enumeration exceeded limit of {k - 1}\n"


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("LFREE_BUDGET", "10")
    code, _, _ = run_cli(capsys, "enumerate", "--signature", "2,2", "--n", "50")
    assert code == 3
    code, _, _ = run_cli(
        capsys, "enumerate", "--signature", "2,2", "--n", "50",
        "--max-decompositions", "10000000",
    )
    assert code == 0
    monkeypatch.setenv("LFREE_BUDGET", "not-a-number")
    code, _, err = run_cli(capsys, "enumerate", "--signature", "2,2", "--n", "50")
    assert code == 2
    assert "LFREE_BUDGET" in err


def test_budget_env_variable_leaves_cardinality_budget_alone(capsys, monkeypatch):
    # --cardinality-budget defaults to 64 in the parser, so LFREE_BUDGET
    # overrides only --max-nodes, --max-decompositions, --max-obstructions
    # and --max-combinations
    monkeypatch.setenv("LFREE_BUDGET", "1000000")
    code, out, err = run_cli(capsys, "search", "--n", "65", "--signature", "2,2")
    assert code == 3
    assert out == ""
    assert "ambient cardinality 65 exceeds search budget 64" in err


def test_exit_code_on_bad_modulus_list(capsys):
    code, out, err = run_cli(capsys, "search", "--moduli", "3,x", "--signature", "2,2")
    assert code == 2
    assert out == ""
    assert "bad modulus list" in err


def test_hypergraph_check_on_malformed_file_exits_2(tmp_path):
    graph_file = tmp_path / "bad.graph"
    graph_file.write_text("#hypergraph n=4 r=2\n0 x\n")
    proc = run_module(
        "hypergraph", "check", "--graph", str(graph_file), "--signature", "2,2"
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line 2: bad edge line")
    assert "Traceback" not in proc.stderr


def test_hypergraph_with_huge_uniformity_exits_at_once(tmp_path):
    # no work may grow with r when no edge is r-uniform
    graph_file = tmp_path / "short.graph"
    graph_file.write_text("#hypergraph n=3 r=1000000000000\n0 1\n")
    proc = run_module("hypergraph", "check", "--graph", str(graph_file), "--signature", "2,2")
    assert proc.returncode == 2
    assert proc.stderr == "error: edge (0, 1) is not 1000000000000-uniform\n"
    s = tmp_path / "s.txt"
    s.write_text("#ambient product 6\n1\n", encoding="utf-8")
    saved = tmp_path / "g.graph"
    proc = run_module(
        "hypergraph", "build", "--set", str(s), "--r", "1000000000000", "--save-graph", str(saved)
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["edges"] == 0
    assert saved.read_text() == "#hypergraph n=6 r=1000000000000\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "search", "--signature", "2,2", "--n", "8", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["F"] == 4


@pytest.mark.parametrize(
    "text",
    ["#ambient interval n=9\nabc\n", "#ambient interval n=x\n", "#ambient product 4,x\n"],
)
def test_exit_code_on_non_integer_set_file(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, _, err = run_cli(capsys, "detect", "--set", str(path), "--sidon")
    assert code == 2
    assert err.startswith("error: line ")


def test_exit_code_on_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run_cli(
        capsys, "search", "--signature", "2,2", "--n", "8", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--signature", "2,2", "--n", "8", "--max-nodes", "-5"],
        ["enumerate", "--signature", "2,2", "--n", "8", "--max-decompositions", "-1"],
        ["construct", "random", "--n", "1000", "--signature", "2,2,2", "--seed", "0",
         "--max-obstructions", "-1"],
        ["hypergraph", "build", "--set", "SET", "--r", "3", "--max-combinations", "-1"],
        ["search", "--signature", "2,2", "--n", "5", "--cardinality-budget", "-5"],
        ["search", "--signature", "2,2", "--n", "5", "--cardinality-budget", "-5",
         "--allow-large"],
    ],
)
def test_exit_code_on_negative_budget(tmp_path, capsys, argv):
    s = write_group_set(tmp_path / "g.txt", (3, 3), [(0, 0), (1, 2)])
    argv = [s if a == "SET" else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "non-negative" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(capsys, threads):
    argv = ["search", "--n", "5", "--signature", "2,2"]
    assert run_cli(capsys, *argv, "--threads", "1")[0] == 0
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "--threads" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sequence", "dyadic", "--signature", "2,2", "--epsilon", "nan", "--m-max", "3",
         "--seed", "0"],
        ["sequence", "dyadic", "--signature", "2,2", "--epsilon", "inf", "--m-max", "3",
         "--seed", "0"],
        ["sequence", "stats", "--signature", "2,2", "--set", "SET", "--x", "nan"],
        ["sequence", "stats", "--signature", "2,2", "--set", "SET", "--x", "inf"],
    ],
)
def test_exit_code_on_non_finite_float(tmp_path, capsys, argv):
    s = write_interval_set(tmp_path / "s.txt", 45, [1, 2, 4, 8, 13, 21, 31, 45])
    argv = [s if a == "SET" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("epsilon", ["2", "3", "1e308"])
def test_exit_code_on_vacuous_epsilon(capsys, epsilon):
    # from epsilon = 2 the density target size^(1 - epsilon/2) is at most 1,
    # so every block would read "dense": true
    code, out, err = run_cli(
        capsys, "sequence", "dyadic", "--signature", "2,2", "--epsilon", epsilon,
        "--m-max", "3", "--seed", "0",
    )
    assert code == 2
    assert out == ""
    assert "below 2" in err


@pytest.mark.parametrize("elems", [[], [1, 2, 4, 8, 13, 21, 31, 45]])
def test_sequence_stats_past_the_float_range(tmp_path, capsys, elems):
    # x ln x passes the float range at x = 1e308; the statistic is then
    # taken from logarithms, and is 0.0 for a zero count
    s = write_interval_set(tmp_path / "s.txt", 45, elems)
    code, out, _ = run_cli(
        capsys, "sequence", "stats", "--signature", "2,2", "--set", s, "--x", "1e308"
    )
    assert code == 0
    [row] = json.loads(out)["statistics"]
    assert row["count"] == len(elems)
    assert row["stat"] == pytest.approx(decimal_statistic(len(elems), 1e308, 2), rel=1e-12)


def test_statistic_with_prefix_product_past_the_float_range(tmp_path, capsys):
    # (x ln x)^(1/P') is 1.0 for P' = 2^1099; it used to read as an overflow
    s = write_interval_set(tmp_path / "s.txt", 10, [1, 2, 4])
    code, out, _ = run_cli(
        capsys, "sequence", "stats", "--signature", twos(1100), "--set", s, "--x", "5"
    )
    assert code == 0
    assert json.loads(out)["statistics"] == [{"count": 3, "stat": 0.6, "x": 5.0}]
    code, out, _ = run_cli(
        capsys, "sequence", "dyadic", "--signature", twos(1100), "--epsilon", "0.1",
        "--m-max", "1", "--seed", "0",
    )
    assert code == 0
    assert json.loads(out)["statistics"] == [{"count": 3, "stat": 3 / 67, "x": 67}]
    # an x past the float range is still refused
    code, out, err = run_cli(
        capsys, "sequence", "stats", "--signature", twos(1100), "--set", s,
        "--x", "1e400",
    )
    assert code == 2
    assert out == ""
    assert "finite x" in err


def test_negative_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("LFREE_BUDGET", "-5")
    code, _, err = run_cli(capsys, "search", "--signature", "2,2", "--n", "8")
    assert code == 2
    assert "LFREE_BUDGET" in err


# Replacement fields: malformed numbers, stray headers and arbitrary text.
# No run of four digits, so no drawn ambient needs more than ~10^6 bits.
_junk = st.one_of(
    st.sampled_from(["", "x", "1.5", "-1", "0", "0x3", " 4", "٣", "#", "#ambient interval n=3"]),
    st.text(max_size=8).filter(lambda t: not re.search(r"\d{4}", t)),
)


@st.composite
def _set_texts(draw):
    """A well-formed set file with up to three of its fields replaced by junk."""
    moduli = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    if draw(st.booleans()):
        n = sum(moduli)
        fields = [["#ambient interval", f"n={n}"]]
        fields += draw(st.lists(st.integers(1, n).map(lambda x: [str(x)]), max_size=8))
    else:
        fields = [["#ambient product", ",".join(map(str, moduli))]]
        row = st.tuples(*(st.integers(0, m - 1).map(str) for m in moduli)).map(list)
        fields += draw(st.lists(row, max_size=8))
    for i, j, junk in draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2), _junk), max_size=3)):
        line = fields[i % len(fields)]
        line[j % len(line)] = junk
    return "\n".join([" ".join(fields[0])] + [",".join(line) for line in fields[1:]])


@settings(max_examples=60, deadline=None)
@given(_set_texts())
def test_fuzzed_set_file_never_crashes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "set.txt"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run(["detect", "--set", str(path), "--signature", "2,2"])
    assert code in (0, 2, 3), out.getvalue()
