"""Span recording around the public functions of each `sumsetfree` module.

The package binds its imports at import time (`from .detect import
introduces_sumset`), so a wrapper is installed by replacing the function in
the namespace of every module that holds it, not only where it is defined.
Spans stay in memory as parallel arrays (id, parent id, name, start,
duration, time covered by child spans) and are written out when the pass
ends.  A span's self time is its duration minus the time its children
cover.  Work counters are read off arguments and return values at the same
boundaries.

Per-element arithmetic (`elem_add`, `elem_sub`) runs millions of times per
job and is left unwrapped: a span per call would measure the tracer.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import Counter
from math import comb
from time import perf_counter

MODULES = ("cli", "core", "detect", "search", "construct", "hypergraph", "sequences")

# (module, attribute) of every traced function; span names are "module.attribute"
TRACED = (
    ("cli", "run"),
    ("cli", "render_report"),
    ("core", "GroundSet.__init__"),
    ("core", "read_set_file"),
    ("core", "write_set_file"),
    ("detect", "contains_sumset"),
    ("detect", "enumerate_sumsets"),
    ("detect", "introduces_sumset"),
    ("detect", "is_sidon"),
    ("detect", "is_hilbert_cube_free"),
    ("detect", "count_all_sumsets"),
    ("search", "max_free_set"),
    ("construct", "behrend_set"),
    ("construct", "random_deletion"),
    ("construct", "deletion_with_retries"),
    ("construct", "zp3_construction"),
    ("construct", "mixed_radix_embed"),
    ("construct", "integer_l222_construction"),
    ("hypergraph", "cayley_hypergraph"),
    ("hypergraph", "contains_complete_rpartite"),
    ("hypergraph", "best_translate"),
    ("hypergraph", "read_hypergraph_file"),
    ("hypergraph", "write_hypergraph_file"),
    ("sequences", "greedy_sequence"),
    ("sequences", "dyadic_random_sequence"),
)
GENERATORS = {"detect.enumerate_sumsets"}


def _count(name: str, counts: Counter, args: tuple, result) -> None:
    """Deterministic work counters read at the boundary of span `name`."""
    if name == "detect.introduces_sumset":
        counts["detect.introduces_true"] += bool(result)
    elif name == "core.GroundSet.__init__":
        counts["core.groundset_elems"] += len(args[0])
    elif name == "search.max_free_set":
        counts["search.nodes"] += result.nodes_explored
        counts["search.pruned_cardinality"] += result.pruned_by.get("cardinality", 0)
        counts["search.pruned_infeasible"] += result.pruned_by.get("infeasible", 0)
    elif name == "construct.behrend_set":
        counts["construct.behrend_elems"] += len(result)
    elif name == "construct.random_deletion":
        counts["construct.sampled"] += len(result.sampled)
        counts["construct.deleted"] += len(result.deleted)
    elif name == "hypergraph.cayley_hypergraph":
        counts["hypergraph.combinations"] += comb(args[0].cardinality, args[2])
        counts["hypergraph.edges"] += result.edge_count
    elif name == "sequences.greedy_sequence":
        counts["sequences.terms"] += len(result)
    elif name == "sequences.dyadic_random_sequence":
        counts["sequences.terms"] += len(result.prefix)


class Tracer:
    """In-memory span store plus counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.dur = array("d")
        self.child = array("d")
        self.counts: Counter = Counter()
        self._stack: list = []  # [span id, child time] of the open spans
        self._next = 0

    def _record(self, sid, parent, name_idx, start, dur, child) -> None:
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name_idx)
        self.start.append(start)
        self.dur.append(dur)
        self.child.append(child)

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        return sid, parent

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        counts = self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            sid, parent = self._open()
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self._record(sid, parent, idx, t0, dur, frame[1])
            counts[calls] += 1
            _count(name, counts, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator's work happens while it is resumed, so its span sums
        the resumptions and each resumption counts as child time of
        whichever span is open when it runs."""
        idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        counts = self.counts
        calls, yields = name + ".calls", name + ".yields"

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sid, parent = self._open()
            counts[calls] += 1

            def resumed():
                total = child = 0.0
                first = None
                try:
                    while True:
                        frame = [sid, 0.0]
                        stack.append(frame)
                        t0 = perf_counter()
                        if first is None:
                            first = t0
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            seg = perf_counter() - t0
                            stack.pop()
                            if stack:
                                stack[-1][1] += seg
                            total += seg
                            child += frame[1]
                        counts[yields] += 1
                        yield item
                finally:
                    if first is not None:
                        self._record(sid, parent, idx, first, total, child)

            return resumed()

        return traced

    # -----------------------------------------------------------------------
    # aggregation

    def totals(self) -> tuple[dict, dict]:
        """Summed duration and self time of every span name."""
        dur: Counter = Counter()
        self_t: Counter = Counter()
        for i in range(len(self.sid)):
            key = self.names[self.name[i]]
            dur[key] += self.dur[i]
            self_t[key] += self.dur[i] - self.child[i]
        return dur, self_t

    def nesting_problems(self, tolerance: float = 1e-6) -> list:
        """Spans whose children cover more than the span itself, or whose
        self time exceeds the duration of their parent span."""
        by_id = {self.sid[i]: i for i in range(len(self.sid))}
        out = []
        for i in range(len(self.sid)):
            own_self = self.dur[i] - self.child[i]
            if own_self < -tolerance:
                out.append(f"span {self.sid[i]} has negative self time {own_self}")
            p = by_id.get(self.parent[i])
            if self.parent[i] >= 0 and p is None:
                out.append(f"span {self.sid[i]} has an unrecorded parent")
            elif p is not None and own_self > self.dur[p] + tolerance:
                out.append(f"span {self.sid[i]} self time exceeds its parent's span")
            if len(out) >= 5:
                break
        return out

    def write(self, path) -> None:
        """Write every span as tab-separated id, parent, name, start, duration
        and self time, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tdur_s\tself_s\n")
            for i in range(len(self.sid)):
                fh.write(
                    f"{self.sid[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.dur[i]:.9f}\t"
                    f"{self.dur[i] - self.child[i]:.9f}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every traced function and patch the wrapper into each module
    namespace that binds the original."""
    mods = [importlib.import_module("sumsetfree")]
    mods += [importlib.import_module(f"sumsetfree.{m}") for m in MODULES]
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        home = importlib.import_module(f"sumsetfree.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(home, attr)
        wrap = tracer.wrap_generator if name in GENERATORS else tracer.wrap
        wrapped = wrap(name, original)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    dur, self_t = tracer.totals()
    c = tracer.counts
    calls = c["detect.introduces_sumset.calls"]
    return {
        "detect.introduces_calls": calls,
        "detect.introduces_s": dur["detect.introduces_sumset"],
        "detect.introduces_hit_ratio": c["detect.introduces_true"] / calls if calls else 0.0,
        "detect.contains_calls": c["detect.contains_sumset.calls"],
        "detect.contains_s": dur["detect.contains_sumset"],
        "detect.enumerate_s": dur["detect.enumerate_sumsets"],
        "detect.enumerate_yields": c["detect.enumerate_sumsets.yields"],
        "search.max_free_set_s": dur["search.max_free_set"],
        "search.self_s": self_t["search.max_free_set"],
        "search.nodes": c["search.nodes"],
        "search.pruned_cardinality": c["search.pruned_cardinality"],
        "search.pruned_infeasible": c["search.pruned_infeasible"],
        "construct.behrend_calls": c["construct.behrend_set.calls"],
        "construct.behrend_s": dur["construct.behrend_set"],
        "construct.behrend_elems": c["construct.behrend_elems"],
        "construct.zp3_s": dur["construct.zp3_construction"],
        "construct.embed_s": dur["construct.mixed_radix_embed"],
        "construct.random_deletion_self_s": self_t["construct.random_deletion"],
        "construct.sampled": c["construct.sampled"],
        "construct.deleted": c["construct.deleted"],
        "core.groundset_calls": c["core.GroundSet.__init__.calls"],
        "core.groundset_elems": c["core.groundset_elems"],
        "core.groundset_s": dur["core.GroundSet.__init__"],
        "core.read_set_s": dur["core.read_set_file"],
        "core.write_set_s": dur["core.write_set_file"],
        "hypergraph.build_s": dur["hypergraph.cayley_hypergraph"],
        "hypergraph.combinations": c["hypergraph.combinations"],
        "hypergraph.edges": c["hypergraph.edges"],
        "hypergraph.check_s": dur["hypergraph.contains_complete_rpartite"],
        "sequences.greedy_self_s": self_t["sequences.greedy_sequence"],
        "sequences.dyadic_self_s": self_t["sequences.dyadic_random_sequence"],
        "sequences.terms": c["sequences.terms"],
        "cli.run_s": dur["cli.run"],
        "cli.self_s": self_t["cli.run"],
        "cli.render_s": dur["cli.render_report"],
    }
