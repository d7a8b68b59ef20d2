"""Command-line interface.

Subcommands mirror the library: detect / enumerate / search / bounds for
analysis of explicit sets, construct (behrend, random, zp3, embed, l222)
for the set constructions, hypergraph (build, check, best-translate) for
the sum hypergraph view, and sequence (greedy, dyadic, stats) for the
growing-sequence experiments.

Reports are printed to stdout as JSON with sorted keys by default;
--format csv and --format table rerender the same payload, and --out
writes to a file instead.  Set files use the text format documented in
the core module, hypergraph files the one in the hypergraph module.
Commands that consume randomness (construct random, sequence dyadic)
require an explicit --seed and print byte-identical reports for equal
arguments.  The LFREE_BUDGET environment variable overrides the defaults
of four budgets, --max-nodes, --max-decompositions, --max-obstructions
and --max-combinations; explicit flags still win, and the search
--cardinality-budget keeps its own default of 64.  --threads
takes an integer of at least 1 (below that the command exits 2); it is
accepted for forward compatibility and does not change results, as
execution is sequential.

run builds the argument parser once per process (build_parser is
cached) and parses each argv into a fresh namespace, so repeated calls
in one process, as a benchmark or a test makes them, pay for the parser
once and see no value from an earlier call.  enumerate --count-only
counts the value sets of the kernel walk in C, with no Python code per
decomposition.

Exit codes: 0 on success, 2 on usage or validation errors, 3 when a
computation exceeds its budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from math import fsum, lgamma, log, log10
from operator import itemgetter

from .core import (
    BudgetExceededError,
    CyclicProduct,
    GroundSet,
    IntegerInterval,
    InvalidInputError,
    InvalidSignatureError,
    PreconditionError,
    Signature,
    StructureError,
    _element_json,
    _elements_json,
    normalize_signature,
    read_set_file,
    write_set_file,
)
from .construct import (
    DEFAULT_OBSTRUCTION_BUDGET,
    behrend_set,
    deletion_with_retries,
    integer_l222_construction,
    integer_l222_prime,
    mixed_radix_embed,
    random_deletion,
    zp3_construction,
)
from .detect import (
    DEFAULT_DECOMPOSITION_BUDGET,
    _valued,
    _witness_maker,
    contains_sumset,
    count_all_sumsets,
    is_hilbert_cube_free,
    is_sidon,
)
from .hypergraph import (
    DEFAULT_COMBINATION_BUDGET,
    best_translate,
    cayley_hypergraph,
    contains_complete_rpartite,
    read_hypergraph_file,
    write_hypergraph_file,
)
from .search import (
    DEFAULT_CARDINALITY_BUDGET,
    lower_bound_exponent,
    max_free_set,
    overlap_check,
    sidon_refined_upper,
    turan_upper_bound,
    upper_bound_leading,
)
from .sequences import (
    DyadicParams,
    counting_function,
    dyadic_random_sequence,
    greedy_sequence,
    liminf_statistic,
)

BUDGET_ENV = "LFREE_BUDGET"


# ---------------------------------------------------------------------------
# argument helpers


def _parse_signature(text: str) -> Signature:
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidSignatureError(f"bad signature {text!r}") from exc
    return normalize_signature(parts)


def _parse_moduli(text: str) -> CyclicProduct:
    try:
        moduli = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad modulus list {text!r}") from exc
    return CyclicProduct(moduli)


def _budget(flag_value, fallback: int) -> int:
    value, what = flag_value, "budget"
    if value is None:
        env = os.environ.get(BUDGET_ENV)
        if env is None:
            return fallback
        try:
            value, what = int(env), BUDGET_ENV
        except ValueError as exc:
            raise InvalidInputError(f"bad {BUDGET_ENV} value {env!r}") from exc
    if value < 0:
        raise InvalidInputError(f"{what} must be non-negative, got {value}")
    return value


def _set_payload(gs: GroundSet) -> dict:
    return {
        "ambient": gs.ambient.describe(),
        "size": len(gs),
        "elements": _elements_json(gs),
    }


def _maybe_save(gs: GroundSet, path) -> None:
    if path:
        write_set_file(gs, path)


# ---------------------------------------------------------------------------
# rendering


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ";".join(
            json.dumps(x, separators=(",", ":")) if isinstance(x, (list, dict))
            else _cell(x)
            for x in v
        )
    return str(v)


def render_report(payload: dict, fmt: str, csv_spec) -> str:
    """Render a report payload as json, csv, or an aligned table.

    csv_spec is ("row", columns), one row of those columns that the
    flattened payload holds, or ("table", key, columns), a row per entry
    of payload[key].
    """
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_spec[0] == "table":
            _, key, columns = csv_spec
            writer.writerow(columns)
            for row in payload[key]:
                writer.writerow([_cell(row.get(c, "")) for c in columns])
        else:
            flat = _flatten(payload)
            columns = [c for c in csv_spec[1] if c in flat]
            writer.writerow(columns)
            writer.writerow([_cell(flat[c]) for c in columns])
        return buf.getvalue()
    if fmt == "table":
        lines: list[str] = []
        _table_lines(payload, lines, 0)
        return "\n".join(lines) + "\n"
    raise InvalidInputError(f"unknown format {fmt!r}")


def _table_lines(d: dict, lines: list, indent: int) -> None:
    pad = " " * indent
    for k, v in d.items():
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            _table_lines(v, lines, indent + 2)
        elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            lines.append(f"{pad}{k}:")
            columns = list(v[0])
            for row in v[1:]:
                columns += [c for c in row if c not in columns]
            grid = [columns] + [[_cell(row.get(c, "")) for c in columns] for row in v]
            widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
            for row in grid:
                lines.append(
                    pad + "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
                )
        elif isinstance(v, list):
            lines.append(f"{pad}{k}: " + ", ".join(str(x) for x in v))
        else:
            lines.append(f"{pad}{k}: {_cell(v)}")


# ---------------------------------------------------------------------------
# subcommand handlers, each returning (payload, csv_spec)


def _cmd_detect(args):
    gs = read_set_file(args.set)
    if args.sidon:
        return {"sidon": is_sidon(gs)}, ("row", ["sidon"])
    if args.hilbert is not None:
        free = is_hilbert_cube_free(gs, args.hilbert)
        return {"dimension": args.hilbert, "free": free}, ("row", ["dimension", "free"])
    sig = _parse_signature(args.signature)
    witness = contains_sumset(gs, sig)
    payload = {
        "signature": list(sig.lengths),
        "free": witness is None,
        "witness": None if witness is None else witness.to_dict(),
    }
    return payload, ("row", ["signature", "free"])


def _cmd_enumerate(args):
    sig = _parse_signature(args.signature)
    budget = _budget(args.max_decompositions, DEFAULT_DECOMPOSITION_BUDGET)
    if args.n is not None:
        decomps, distinct = count_all_sumsets(args.n, sig, budget=budget)
        payload = {"n": args.n}
    else:
        # one kernel walk gives the counts and, unless count-only, the witnesses
        gs = read_set_file(args.set)
        walk = _valued(gs, sig, budget)
        if args.count_only:  # counted in C, with no Python code per decomposition
            value_sets = Counter(map(itemgetter(0), walk))
        else:
            witness, value_sets, witnesses = _witness_maker(gs.ambient), Counter(), []
            for values, decomposition in walk:
                value_sets[values] += 1
                witnesses.append(witness(decomposition).to_dict())
        decomps, distinct = sum(value_sets.values()), len(value_sets)
        payload = {}
    payload.update(signature=list(sig.lengths), decompositions=decomps)
    payload["distinct_value_sets"] = distinct
    if args.set is not None and not args.count_only:
        payload["witnesses"] = witnesses
    return payload, ("row", ["n", "signature", "decompositions", "distinct_value_sets"])


def _cmd_search(args):
    sig = _parse_signature(args.signature)
    ambient = IntegerInterval(args.n) if args.n is not None else _parse_moduli(args.moduli)
    # a negative budget exits 2 even with --allow-large; LFREE_BUDGET
    # leaves it alone
    budget = args.cardinality_budget
    if budget < 0:
        raise InvalidInputError(f"budget must be non-negative, got {budget}")
    report = max_free_set(
        ambient,
        sig,
        cardinality_budget=None if args.allow_large else budget,
        max_nodes=_budget(args.max_nodes, None),
    )
    if args.save_set:
        write_set_file(report.witness, args.save_set)
    return report.to_dict(), ("row", ["ambient", "signature", "F", "nodes", "ms"])


def _binomial_digits(sigma: Fraction, r: int) -> float:
    """A lower bound on the decimal digits of numerator or denominator of
    C(sigma, r) = prod(p - i q) / (q^r r!) in lowest terms, sigma = p / q.
    Every p - i q is prime to q, so the denominator keeps q^r and the
    numerator loses at most r!.  O(r) float logs, no r-term product."""
    p, q = sigma.numerator, sigma.denominator
    if q == 1 and 0 <= p < r:
        return 0.0  # a zero factor
    numerator = fsum(log10(abs(p - i * q)) for i in range(r)) - lgamma(r + 1) / log(10)
    return max(numerator, r * log10(q))


def _fraction_text(value: Fraction) -> str:
    """str(value), or exit 3 when a part passes the int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        raise BudgetExceededError(
            "exact value exceeds the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from None


def _cmd_bounds(args):
    if args.overlap:
        for name in ("a", "b", "x", "r"):
            if getattr(args, name) is None:
                raise InvalidInputError(f"--overlap needs --{name}")
        a, b, x = map(read_set_file, (args.a, args.b, args.x))
        if a and b and x and args.r > 0:
            # refused before overlap_check, so refusing costs O(1) or O(r)
            if args.r > len(b):
                raise InvalidInputError(
                    f"--r {args.r} exceeds |B| = {len(b)}: B has no r-subsets"
                )
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            sigma = Fraction(len(a) * len(b), len(x))
            if limit and _binomial_digits(sigma, args.r) > limit + 1:
                raise BudgetExceededError(
                    f"rhs C({sigma}, {args.r}) has more than the interpreter's "
                    f"limit of {limit} digits for integer string conversion"
                )
        lhs, rhs = overlap_check(a, b, x, args.r)
        payload = {
            "r": args.r,
            "lhs": _fraction_text(lhs),
            "rhs": _fraction_text(rhs),
            "holds": lhs >= rhs,
        }
        return payload, ("row", ["r", "lhs", "rhs", "holds"])
    if args.n is None:
        raise InvalidInputError("bounds needs --n or --overlap")
    if args.signature is None:
        raise InvalidInputError("bounds needs --signature")
    sig = _parse_signature(args.signature)
    payload = {
        "n": args.n,
        "signature": list(sig.lengths),
        "upper_leading": upper_bound_leading(args.n, sig),
        "lower_exponent": str(lower_bound_exponent(sig)),
        "turan_upper": turan_upper_bound(args.n, sig),
    }
    columns = ["n", "signature", "upper_leading", "lower_exponent", "turan_upper"]
    if sig.lengths == (2, 2):
        payload["sidon_refined"] = sidon_refined_upper(args.n)
        columns.append("sidon_refined")
    return payload, ("row", columns)


def _cmd_construct_behrend(args):
    gs = behrend_set(args.n)
    _maybe_save(gs, args.save_set)
    payload = {"n": args.n, **_set_payload(gs)}
    return payload, ("row", ["n", "size"])


def _cmd_construct_random(args):
    sig = _parse_signature(args.signature)
    budget = _budget(args.max_obstructions, DEFAULT_OBSTRUCTION_BUDGET)
    if args.retries is not None:
        report, attempts, succeeded = deletion_with_retries(
            args.n, sig, args.seed, max_attempts=args.retries,
            max_obstructions=budget,
        )
        payload = {**report.to_dict(), "attempts": attempts, "succeeded": succeeded}
    else:
        report = random_deletion(args.n, sig, args.seed, max_obstructions=budget)
        payload = report.to_dict()
    _maybe_save(report.result, args.save_set)
    return payload, ("row", ["n", "signature", "seed", "p", "sizes.S", "sizes.bad", "sizes.A"])


def _cmd_construct_zp3(args):
    gs = zp3_construction(args.p)
    if args.embed:
        gs = mixed_radix_embed(gs)
    _maybe_save(gs, args.save_set)
    payload = {"p": args.p, **_set_payload(gs)}
    return payload, ("row", ["p", "ambient", "size"])


def _cmd_construct_embed(args):
    gs = mixed_radix_embed(read_set_file(args.set))
    _maybe_save(gs, args.save_set)
    return _set_payload(gs), ("row", ["ambient", "size"])


def _cmd_construct_l222(args):
    gs = integer_l222_construction(args.n)
    _maybe_save(gs, args.save_set)
    payload = {"n": args.n, "p": integer_l222_prime(args.n), **_set_payload(gs)}
    return payload, ("row", ["n", "p", "size"])


def _cmd_hypergraph_build(args):
    gs = read_set_file(args.set)
    if not isinstance(gs.ambient, CyclicProduct):
        raise StructureError("hypergraph build expects a product-group set file")
    budget = _budget(args.max_combinations, DEFAULT_COMBINATION_BUDGET)
    graph = cayley_hypergraph(gs.ambient, gs, args.r, max_combinations=budget)
    if args.save_graph:
        write_hypergraph_file(graph, args.save_graph)
    payload = {"n": graph.n, "r": graph.r, "edges": graph.edge_count}
    if args.list_edges:
        payload["edge_list"] = [list(e) for e in graph.edges]
    return payload, ("row", ["n", "r", "edges"])


def _cmd_hypergraph_check(args):
    graph = read_hypergraph_file(args.graph)
    sig = _parse_signature(args.signature)
    classes = contains_complete_rpartite(graph, sig)
    payload = {
        "signature": list(sig.lengths),
        "free": classes is None,
        "classes": None if classes is None else [list(c) for c in classes],
    }
    return payload, ("row", ["signature", "free"])


def _cmd_hypergraph_best_translate(args):
    gs = read_set_file(args.set)
    if not isinstance(gs.ambient, CyclicProduct):
        raise StructureError("best-translate expects a product-group set file")
    budget = _budget(args.max_combinations, DEFAULT_COMBINATION_BUDGET)
    x, count, mean = best_translate(gs.ambient, gs, args.r, max_combinations=budget)
    payload = {"translate": _element_json(x), "edges": count, "mean": str(mean)}
    return payload, ("row", ["translate", "edges", "mean"])


def _cmd_sequence_greedy(args):
    sig = _parse_signature(args.signature)
    prefix = greedy_sequence(sig, args.limit)
    _maybe_save(prefix, args.save_set)
    payload = {
        "signature": list(sig.lengths),
        "limit": args.limit,
        "size": len(prefix),
        "terms": list(prefix),
    }
    return payload, ("row", ["signature", "limit", "size"])


def _statistics_payload(prefix: GroundSet, sig: Signature, xs) -> list:
    return [
        {"x": x, "count": counting_function(prefix, x), "stat": liminf_statistic(prefix, sig, x)}
        for x in xs
    ]


def _cmd_sequence_dyadic(args):
    sig = _parse_signature(args.signature)
    params = DyadicParams(args.epsilon, args.m_min, args.m_max, args.seed)
    budget = _budget(args.max_obstructions, DEFAULT_OBSTRUCTION_BUDGET)
    report = dyadic_random_sequence(sig, params, max_obstructions=budget)
    _maybe_save(report.prefix, args.save_set)
    per_m = [
        {
            "m": b.m,
            "S": b.sampled_size,
            "N": b.obstruction_count,
            "retained": b.retained_size,
            "dense": b.dense,
        }
        for b in report.blocks
    ]
    xs = [b.block_start + b.block_size - 1 for b in report.blocks]
    payload = {
        "signature": list(sig.lengths),
        "provenance": {
            "kind": "dyadic",
            "epsilon": params.epsilon,
            "m_min": params.m_min,
            "m_max": params.m_max,
            "seed": params.seed,
            "alpha": report.alpha,
        },
        "experimental": report.experimental,
        "per_m": per_m,
        "statistics": _statistics_payload(report.prefix, sig, xs),
        "size": len(report.prefix),
        "terms": list(report.prefix),
    }
    return payload, ("table", "per_m", ["m", "S", "N", "retained", "dense"])


def _cmd_sequence_stats(args):
    sig = _parse_signature(args.signature)
    gs = read_set_file(args.set)
    if not isinstance(gs.ambient, IntegerInterval):
        raise StructureError("sequence stats expect an interval set file")
    if 0 in gs:  # an interval starts at 0 or 1
        raise InvalidInputError("sequence terms must be positive integers")
    if not args.x:
        raise InvalidInputError("sequence stats need at least one --x")
    payload = {
        "signature": list(sig.lengths),
        "statistics": _statistics_payload(gs, sig, args.x),
    }
    return payload, ("table", "statistics", ["x", "count", "stat"])


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by
    every later one, so no caller may change it.  Parsing fills a fresh
    namespace and leaves the parser as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="json",
        help="output rendering (default json)",
    )
    common.add_argument("--out", metavar="PATH", help="write the report to a file")
    common.add_argument(
        "--threads", type=int, default=1,
        help="reserved, at least 1; execution is sequential and output does not depend on it",
    )

    parser = argparse.ArgumentParser(
        prog="sumsetfree",
        description="Detection, search, and construction of sumset-free sets.",
        epilog=f"The {BUDGET_ENV} environment variable overrides the defaults of "
        "--max-nodes, --max-decompositions, --max-obstructions and --max-combinations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", parents=[common], help="test a set file for freeness")
    p.add_argument("--set", required=True, metavar="PATH")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--signature", metavar="L1,L2,...")
    mode.add_argument("--sidon", action="store_true", help="repeated-difference test")
    mode.add_argument(
        "--hilbert", type=int, metavar="R", help="cube of dimension R test"
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "enumerate", parents=[common], help="list or count forbidden sumsets"
    )
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--set", metavar="PATH")
    src.add_argument(
        "--n", type=int, metavar="N", help="count over the full interval 1..N"
    )
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-decompositions", type=int, metavar="B")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "search", parents=[common], help="maximum free subset of an ambient"
    )
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    amb = p.add_mutually_exclusive_group(required=True)
    amb.add_argument("--n", type=int, metavar="N", help="interval 1..N")
    amb.add_argument("--moduli", metavar="N1,N2,...", help="product group")
    p.add_argument("--max-nodes", type=int, metavar="B")
    p.add_argument(
        "--cardinality-budget", type=int, default=DEFAULT_CARDINALITY_BUDGET,
        metavar="C",
    )
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "bounds", parents=[common], help="closed-form bounds or the overlap check"
    )
    p.add_argument("--signature", metavar="L1,L2,...")
    p.add_argument("--n", type=int, metavar="N")
    p.add_argument("--overlap", action="store_true")
    p.add_argument("--a", metavar="PATH")
    p.add_argument("--b", metavar="PATH")
    p.add_argument("--x", metavar="PATH")
    p.add_argument("--r", type=int, metavar="R")
    p.set_defaults(func=_cmd_bounds)

    pc = sub.add_parser("construct", help="set constructions")
    csub = pc.add_subparsers(dest="construction", required=True)

    p = csub.add_parser(
        "behrend", parents=[common], help="progression-free subset of 1..N"
    )
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_construct_behrend)

    p = csub.add_parser(
        "random", parents=[common], help="random sparsification with deletion"
    )
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--retries", type=int, metavar="K",
        help="retry consecutive seeds until the kept set is large enough",
    )
    p.add_argument("--max-obstructions", type=int, metavar="B")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_construct_random)

    p = csub.add_parser(
        "zp3", parents=[common], help="discrete-log triple construction mod p"
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--embed", action="store_true", help="embed into an interval")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_construct_zp3)

    p = csub.add_parser(
        "embed", parents=[common], help="mixed-radix embedding of a group set"
    )
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_construct_embed)

    p = csub.add_parser(
        "l222", parents=[common], help="integer set free of three-summand pair sums"
    )
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_construct_l222)

    ph = sub.add_parser("hypergraph", help="sum hypergraph operations")
    hsub = ph.add_subparsers(dest="operation", required=True)

    p = hsub.add_parser(
        "build", parents=[common], help="sum hypergraph of a group set"
    )
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--save-graph", metavar="PATH")
    p.add_argument("--list-edges", action="store_true")
    p.add_argument("--max-combinations", type=int, metavar="B")
    p.set_defaults(func=_cmd_hypergraph_build)

    p = hsub.add_parser(
        "check", parents=[common], help="search for a complete r-partite subgraph"
    )
    p.add_argument("--graph", required=True, metavar="PATH")
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    p.set_defaults(func=_cmd_hypergraph_check)

    p = hsub.add_parser(
        "best-translate", parents=[common], help="translate with the most edges"
    )
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-combinations", type=int, metavar="B")
    p.set_defaults(func=_cmd_hypergraph_best_translate)

    ps = sub.add_parser("sequence", help="growing sequence experiments")
    ssub = ps.add_subparsers(dest="experiment", required=True)

    p = ssub.add_parser("greedy", parents=[common], help="greedy prefix up to a limit")
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_sequence_greedy)

    p = ssub.add_parser(
        "dyadic", parents=[common], help="random dyadic block construction"
    )
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-obstructions", type=int, metavar="B")
    p.add_argument("--save-set", metavar="PATH")
    p.set_defaults(func=_cmd_sequence_dyadic)

    p = ssub.add_parser(
        "stats", parents=[common], help="normalized counting statistic of a set file"
    )
    p.add_argument("--signature", required=True, metavar="L1,L2,...")
    p.add_argument("--set", required=True, metavar="PATH")
    p.add_argument(
        "--x", type=float, action="append", metavar="X",
        help="evaluation point, repeatable",
    )
    p.set_defaults(func=_cmd_sequence_stats)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and print the rendered report."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.threads < 1:
            raise InvalidInputError(f"--threads must be at least 1, got {args.threads}")
        payload, csv_spec = args.func(args)
        text = render_report(payload, args.format, csv_spec)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, InvalidSignatureError, StructureError,
            PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
