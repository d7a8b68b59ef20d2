"""The benchmark's span tracer (perfbench/spans.py) still fits the package.

The tracer wraps functions by name and reads work counters off their
arguments and results, so renaming a traced function or a field it reads
breaks `perfbench/run.py --trace 1` without failing any other test.  The
passes run in a child process because installing the tracer patches the
package's modules for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sumsetfree

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

SCRIPT = """
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)

from sumsetfree.cli import run

w = sys.argv[2]
jobs = [
    "search --n 12 --signature 2,2",
    "search --moduli 3,3 --signature 2,2",
    "sequence greedy --signature 2,2 --limit 60",
    "sequence dyadic --signature 2,2 --epsilon 0.1 --m-max 3 --seed 0",
    "construct random --n 200 --signature 2,2,2 --seed 1",
    f"construct zp3 --p 5 --save-set {w}/zp3.txt",
    f"enumerate --set {w}/zp3.txt --signature 2,2",
    f"hypergraph build --set {w}/zp3.txt --r 2 --save-graph {w}/zp3.graph",
    f"hypergraph check --graph {w}/zp3.graph --signature 2,2",
]
codes = [run(job.split() + ["--out", f"{w}/report.txt"]) for job in jobs]
print(json.dumps({
    "codes": codes,
    "layers": spans.layer_metrics(tracer),
    "problems": tracer.nesting_problems(),
}))
"""


def test_span_tracer_counts_every_layer(tmp_path):
    src = str(Path(sumsetfree.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SPANS), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 9
    assert result["problems"] == []
    layers = result["layers"]
    for counter in (
        "search.nodes",
        "construct.behrend_calls",
        "construct.sampled",
        "core.groundset_calls",
        "hypergraph.combinations",
        "hypergraph.edges",
        "sequences.terms",
        "detect.contains_calls",
    ):
        assert layers[counter] > 0, counter
    assert layers["cli.run_s"] > 0.0
