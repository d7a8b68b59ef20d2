"""Output checks for every benchmark job.

Each job's report is compared with answers frozen from the program when
the benchmark was added (F and witness of every search, zp3 sizes and
freeness, the decomposition count, the hypergraph edge count), and every
returned witness or free set is re-checked by the small brute-force
checker below.  The checker shares no code with `sumsetfree`: it parses
the set files itself and does its own group arithmetic.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

FROZEN_SEARCH = {
    "search-n30-22": (7, [1, 2, 4, 9, 13, 23, 29]),
    "search-n22-222": (12, [1, 2, 3, 6, 7, 9, 10, 15, 17, 19, 20, 22]),
    "search-n23-222": (12, [1, 2, 3, 5, 6, 8, 13, 14, 17, 19, 22, 23]),
    "search-n24-222": (12, [1, 2, 3, 5, 6, 8, 12, 14, 17, 21, 22, 24]),
    "search-z333-22": (5, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]),
}
# `sequence greedy --signature 2,2,2 --limit 1500`
FROZEN_GREEDY = (
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
FROZEN_ENUMERATE = {"decompositions": 40992, "distinct_value_sets": 20496}
# density of `construct random --n 1000000 --signature 2,2,2`, seed-free
FROZEN_RANDOM_P = 0.000370242036993147


# ---------------------------------------------------------------------------
# independent arithmetic and brute-force sumset search


def _adder(moduli):
    if moduli is None:
        return lambda a, b: a + b
    return lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def _diffs(X, moduli) -> list:
    """Candidate nonzero shifts: positive differences over the integers,
    every nonzero difference in a group."""
    if moduli is None:
        return sorted({b - a for a in X for b in X if b > a})
    return sorted(
        {tuple((y - x) % m for x, y, m in zip(a, b, moduli)) for a in X for b in X if a != b}
    )


def has_sumset(X, lengths, moduli=None) -> bool:
    """Does X contain x + L1 + ... + Lr with |Li| = lengths[i]?

    Translating every summand to contain zero, this holds when some set D
    of l1 - 1 nonzero shifts leaves the intersection of X - d over
    d in D and d = 0 containing the remaining sumset.
    """
    X = set(X)
    if len(lengths) == 1:
        return len(X) >= lengths[0]
    add = _adder(moduli)
    for D in itertools.combinations(_diffs(X, moduli), lengths[0] - 1):
        Y = {x for x in X if all(add(x, d) in X for d in D)}
        if len(Y) >= 2 and has_sumset(Y, lengths[1:], moduli):
            return True
    return False


def witness_problems(w: dict, X, lengths, moduli=None) -> list:
    """Problems with a reported witness {"offset", "summands"} for X."""
    if w is None:
        return ["no witness"]
    enc = (lambda v: tuple(v)) if moduli is not None else (lambda v: v)
    summands = [[enc(v) for v in L] for L in w["summands"]]
    if sorted(len(L) for L in summands) != sorted(lengths):
        return [f"summand sizes {[len(L) for L in summands]} != {list(lengths)}"]
    if any(len(set(L)) != len(L) for L in summands):
        return ["repeated element in a summand"]
    add = _adder(moduli)
    sums = {enc(w["offset"])}
    for L in summands:
        sums = {add(s, v) for s in sums for v in L}
    missing = [s for s in sums if s not in set(X)]
    return [f"witness sums outside the set: {missing[:3]}"] if missing else []


def read_set(path: Path):
    """(moduli or None, sorted elements) of a set file."""
    moduli = None
    elements = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#ambient", 1)
        if len(line) == 2:
            kind, _, spec = line[1].strip().partition(" ")
            if kind == "product":
                moduli = tuple(int(t) for t in spec.split(","))
            continue
        text = line[0].split("#", 1)[0].strip()
        if text:
            vals = tuple(int(t) for t in text.split(","))
            elements.append(vals if moduli is not None else vals[0])
    return moduli, sorted(elements)


def _primitive_root(p: int) -> int:
    order = p - 1
    factors = {q for q in range(2, order + 1) if order % q == 0 and all(q % r for r in range(2, q))}
    return next(g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in factors))


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % q for q in range(2, int(m**0.5) + 1))


def zp3_problems(p: int, triples) -> list:
    """Certificate of the discrete-log construction: (p-3)^2 distinct triples
    (a, b, c) with g^a + g^b + g^c = 1 mod p and g^a, g^b, g^c != 1."""
    g = _primitive_root(p)
    triples = [tuple(t) for t in triples]
    if len(set(triples)) != len(triples) or len(triples) != (p - 3) ** 2:
        return [f"{len(triples)} elements, expected (p-3)^2 = {(p - 3) ** 2} distinct"]
    for t in triples:
        if any(not 0 < e < p - 1 for e in t):
            return [f"exponent outside 1..p-2 in {t}"]
        if sum(pow(g, e, p) for e in t) % p != 1:
            return [f"{t} is not a discrete-log triple of u + v + w = 1 mod {p}"]
    return []


# ---------------------------------------------------------------------------
# per-job checks


def _search(name: str, r: dict) -> list:
    F, witness = FROZEN_SEARCH[name]
    out = []
    if r["F"] != F or r["witness"] != witness:
        out.append(f"F={r['F']} witness={r['witness']}, expected F={F} {witness}")
    if len(r["witness"]) != r["F"]:
        out.append("witness size differs from F")
    if r["ambient"].startswith("product"):
        moduli = tuple(int(t) for t in r["ambient"].split()[1].split(","))
        X = [tuple(v) for v in r["witness"]]
    else:
        moduli = None
        X = r["witness"]
    if has_sumset(X, r["signature"], moduli):
        out.append("witness is not free")
    return out


def _greedy(r: dict) -> list:
    terms = r["terms"]
    out = []
    if tuple(terms) != FROZEN_GREEDY or len(terms) != r["size"]:
        out.append(f"greedy prefix of size {r['size']} differs from the frozen one")
    if terms != sorted(set(terms)) or not 1 <= terms[0] <= terms[-1] <= r["limit"]:
        out.append("terms not strictly increasing inside 1..limit")
    if has_sumset(terms, r["signature"]):
        out.append("greedy terms contain a forbidden sumset")
    return out


def _zp3(r: dict, path: Path) -> list:
    p = r["p"]
    moduli, elements = read_set(path)
    out = zp3_problems(p, elements)
    if moduli != (p - 1,) * 3 or r["size"] != len(elements):
        out.append("saved file disagrees with the report")
    if [tuple(e) for e in r["elements"]] != elements:
        out.append("report elements differ from the saved set")
    return out


def _detect(r: dict, path: Path, expect_free: bool) -> list:
    if r["free"] != expect_free:
        return [f"free={r['free']}, expected {expect_free}"]
    if expect_free:
        return [] if r["witness"] is None else ["free set reported with a witness"]
    moduli, elements = read_set(path)
    return witness_problems(r["witness"], elements, r["signature"], moduli)


def _hg_build(r: dict, set_path: Path, graph_path: Path) -> list:
    moduli, elements = read_set(set_path)
    N = 1
    for m in moduli:
        N *= m
    # with 2 and 3 invertible, every value is the sum of (N^2 - 3N + 2)/6
    # 3-subsets of distinct elements
    expected = len(elements) * (N * N - 3 * N + 2) // 6
    lines = graph_path.read_text(encoding="utf-8").splitlines()
    if (r["n"], r["r"], r["edges"]) != (N, 3, expected):
        return [f"n={r['n']} r={r['r']} edges={r['edges']}, expected {N} 3 {expected}"]
    if sum(1 for ln in lines if ln and not ln.startswith("#")) != expected:
        return ["saved graph has the wrong number of edges"]
    return []


def _hg_check(r: dict, set_path: Path) -> list:
    moduli, elements = read_set(set_path)
    if r["free"] or r["classes"] is None:
        return ["no complete 3-partite subgraph found around the planted sumset"]
    classes = r["classes"]
    flat = [v for c in classes for v in c]
    if sorted(len(c) for c in classes) != sorted(r["signature"]) or len(set(flat)) != len(flat):
        return [f"classes {classes} are not disjoint with sizes {r['signature']}"]
    universe = sorted(itertools.product(*(range(m) for m in moduli)))
    add = _adder(moduli)
    members = set(elements)
    for transversal in itertools.product(*classes):
        total = universe[transversal[0]]
        for v in transversal[1:]:
            total = add(total, universe[v])
        if total not in members:
            return [f"transversal {transversal} is not an edge"]
    return []


def _random(r: dict, seed: int, path: Path) -> list:
    _, elements = read_set(path)
    out = []
    if (r["n"], r["seed"], r["signature"], r["p"]) != (1000000, seed, [2, 2, 2], FROZEN_RANDOM_P):
        out.append(f"report header changed: {r['n']} {r['seed']} {r['signature']} {r['p']}")
    s = r["sizes"]
    if s["A"] != s["S"] - s["bad"] or s["A"] != len(elements):
        out.append(f"sizes {s} disagree with the {len(elements)} saved elements")
    if elements and not 1 <= elements[0] <= elements[-1] <= r["n"]:
        out.append("kept element outside 1..n")
    if has_sumset(elements, r["signature"]):
        out.append("kept set contains a forbidden sumset")
    return out


def _l222(r: dict) -> list:
    n = r["n"]
    p = max(q for q in range(5, round((n / 4) ** (1 / 3)) + 3) if _is_prime(q) and 4 * (q - 1) ** 3 <= n)
    xs = r["elements"]
    if (r["p"], r["size"], len(xs)) != (p, (p - 3) ** 2, (p - 3) ** 2):
        return [f"p={r['p']} size={r['size']}, expected p={p} size={(p - 3) ** 2}"]
    if xs != sorted(set(xs)) or not 0 <= xs[0] <= xs[-1] < n:
        return ["elements not strictly increasing inside [0, n)"]
    base = 2 * (p - 1)
    triples = [(x % base, x // base % base, x // base**2) for x in xs]
    return zp3_problems(p, triples)


def _dyadic(r: dict, seed: int) -> list:
    terms = r["terms"]
    prov = r["provenance"]
    out = []
    if (prov["seed"], prov["m_min"], prov["m_max"]) != (seed, 1, 9):
        out.append(f"provenance {prov} does not match the arguments")
    if [row["m"] for row in r["per_m"]] != list(range(1, 10)):
        out.append("per_m rows do not cover m = 1..9")
    if r["size"] != len(terms) or sum(row["retained"] for row in r["per_m"]) != len(terms):
        out.append("size, terms and retained counts disagree")
    if terms and (terms != sorted(set(terms)) or terms[0] < 1):
        out.append("terms not strictly increasing positive integers")
    if has_sumset(terms, r["signature"]):
        out.append("dyadic terms contain a forbidden sumset")
    return out


def check_job(name: str, report: str, seed: int, workdir: Path) -> list:
    """Problems with one job's report text; empty when it is correct."""
    try:
        r = json.loads(report)
    except ValueError:
        return ["report is not JSON"]
    w = Path(workdir)
    try:
        if name in FROZEN_SEARCH:
            return _search(name, r)
        if name == "greedy-222":
            return _greedy(r)
        if name in ("zp3-11", "zp3-13"):
            return _zp3(r, w / f"zp3_{name[4:]}.txt")
        if name in ("detect-zp3-11", "detect-zp3-13"):
            return _detect(r, w / f"zp3_{name[11:]}.txt", expect_free=True)
        if name == "detect-z12":
            return _detect(r, w / "z12.txt", expect_free=False)
        if name == "enumerate-zp3-13":
            got = {k: r[k] for k in FROZEN_ENUMERATE}
            return [] if got == FROZEN_ENUMERATE else [f"{got} != {FROZEN_ENUMERATE}"]
        if name == "hg-build":
            return _hg_build(r, w / "z5.txt", w / "z5.graph")
        if name == "hg-check":
            return _hg_check(r, w / "z5.txt")
        if name == "random-1e6":
            return _random(r, seed, w / "random.txt")
        if name == "l222-5e6":
            return _l222(r)
        if name == "dyadic-22":
            return _dyadic(r, seed)
    except (KeyError, TypeError, IndexError, ValueError, OSError) as exc:
        return [f"malformed report or file: {exc!r}"]
    return [f"no check defined for job {name!r}"]


def comparable(subcommand: str, report: str) -> str:
    """The part of a report that must be byte-identical across repeats:
    everything except the wall-clock `ms` field of search reports."""
    if subcommand != "search":
        return report
    return "\n".join(ln for ln in report.splitlines() if not ln.lstrip().startswith('"ms":'))
