"""Job lists of the benchmark workloads and the input files they read.

A job is one `sumsetfree` command line.  Every workload is a fixed list of
jobs run in order inside one fresh process; later jobs may read files that
earlier jobs of the same pass wrote.  The workload seed only shapes the
generated inputs (random set files and the `--seed` of seeded commands);
the program sees nothing but the resulting argv and files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Job:
    name: str  # unique within the workload, keys the frozen answers
    argv: tuple  # arguments of cli.run
    subcommand: str  # first argv word, the per-subcommand time bucket


# why each workload was chosen is in BENCHMARK.json and README.md
NAMES = ("interval-search", "group-detect", "construct-large")


def _job(name: str, line: str) -> Job:
    argv = tuple(line.split())
    return Job(name, argv, argv[0])


def jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The ordered job list of a workload."""
    w = str(workdir)
    if workload == "interval-search":
        return [
            _job("search-n30-22", "search --n 30 --signature 2,2"),
            _job("search-n22-222", "search --n 22 --signature 2,2,2"),
            _job("search-n23-222", "search --n 23 --signature 2,2,2"),
            _job("search-n24-222", "search --n 24 --signature 2,2,2"),
            _job("greedy-222", "sequence greedy --signature 2,2,2 --limit 1500"),
        ]
    if workload == "group-detect":
        return [
            _job("zp3-11", f"construct zp3 --p 11 --save-set {w}/zp3_11.txt"),
            _job("zp3-13", f"construct zp3 --p 13 --save-set {w}/zp3_13.txt"),
            _job("detect-zp3-11", f"detect --set {w}/zp3_11.txt --signature 2,2,2"),
            _job("detect-zp3-13", f"detect --set {w}/zp3_13.txt --signature 2,2,2"),
            _job("detect-z12", f"detect --set {w}/z12.txt --signature 2,2,2"),
            _job(
                "enumerate-zp3-13",
                f"enumerate --set {w}/zp3_13.txt --signature 2,3 --count-only",
            ),
            _job("search-z333-22", "search --moduli 3,3,3 --signature 2,2"),
            _job(
                "hg-build",
                f"hypergraph build --set {w}/z5.txt --r 3 --save-graph {w}/z5.graph",
            ),
            _job("hg-check", f"hypergraph check --graph {w}/z5.graph --signature 2,2,2"),
        ]
    if workload == "construct-large":
        return [
            _job(
                "random-1e6",
                f"construct random --n 1000000 --signature 2,2,2 --seed {seed} "
                f"--save-set {w}/random.txt",
            ),
            _job("l222-5e6", "construct l222 --n 5000000"),
            _job(
                "dyadic-22",
                f"sequence dyadic --signature 2,2 --epsilon 0.1 --m-max 9 --seed {seed}",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# generated inputs


def _planted_subset(rng: random.Random, moduli: tuple, size: int) -> list:
    """A random subset of the product group that contains one planted
    sumset x + {0,d1} + {0,d2} + {0,d3}.

    The plant fixes the regime of the find-first jobs that read the set:
    without it, some seeds give a set free of (2,2,2) and the job turns
    into an exhaustive search an order of magnitude slower, so the
    workload's time would depend on the seed rather than on the program.
    """
    universe = list(itertools.product(*(range(m) for m in moduli)))

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    zero = tuple(0 for _ in moduli)
    x = rng.choice(universe)
    ds = [rng.choice([u for u in universe if u != zero]) for _ in range(3)]
    chosen = {x}
    for d in ds:
        chosen |= {add(s, d) for s in chosen}
    rest = [u for u in universe if u not in chosen]
    rng.shuffle(rest)
    chosen.update(rest[: size - len(chosen)])
    return sorted(chosen)


def _write_group_set(path: Path, moduli: tuple, elements: list) -> None:
    lines = ["#ambient product " + ",".join(map(str, moduli))]
    lines += [",".join(map(str, e)) for e in elements]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the seeded input files a workload's jobs read."""
    if workload == "group-detect":
        rng = random.Random(f"{seed}:z12")
        _write_group_set(
            workdir / "z12.txt", (12, 12, 12), _planted_subset(rng, (12, 12, 12), 100)
        )
        rng = random.Random(f"{seed}:z5")
        _write_group_set(
            workdir / "z5.txt", (5, 5, 5), _planted_subset(rng, (5, 5, 5), 16)
        )
