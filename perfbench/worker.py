"""One benchmark pass in a fresh process.

Imports the package from the checkout's `src/`, writes the workload's seeded
inputs, prints `ready`, then runs every job of the workload through
`sumsetfree.cli.run(argv)` and prints one JSON line with the job timings,
exit codes, reports and the process's peak RSS.  The CLI is called in
process rather than through `python -m sumsetfree.cli`, which runs nothing.

usage: worker.py --workload NAME --seed N --workdir DIR [--setup-only]
                 [--spans PATH]

The machine's speed drifts by tens of percent within seconds, so a pass
also samples it: every SAMPLE_INTERVAL_S of wall time a SIGALRM handler
times `reference`, a fixed bit of pure-Python set work that shares no code
with `sumsetfree`.  Each job reports its time without the handler's, and
the mean reference time measured while it ran.  Right after `ready` the
worker also times a burst of references for the set-up time.

With --spans the public functions of every module are wrapped (see
spans.py) before `ready`, and the pass adds per-layer metrics, work
counters and span-nesting problems to its JSON line and writes its spans
to PATH.  Span durations include the handler's time that falls inside
them, about 1 %.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_INTERVAL_S = 0.05
BURST = 40  # references per burst, about 20 ms
REFERENCE_SET = frozenset(range(0, 600, 3))


def reference() -> int:
    """About half a millisecond of set work, the same on every call."""
    s = REFERENCE_SET
    return sum(len({x for x in s if x + d in s}) for d in range(1, 40))


def reference_seconds() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def burst_seconds() -> float:
    """Mean time of BURST references in a row."""
    return statistics.mean(reference_seconds() for _ in range(BURST))


class SpeedSampler:
    """Times `reference` from a SIGALRM handler every SAMPLE_INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_seconds())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_job(cli, job, sampler: SpeedSampler) -> dict:
    report, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(errors):
        with sampler:
            t0 = perf_counter()
            try:
                code = cli.run(list(job.argv))
            except Exception:  # an escaped exception is a failed job, not a failed pass
                traceback.print_exc()
                code = 1
            seconds = perf_counter() - t0
    samples = sampler.samples
    return {
        "name": job.name,
        "subcommand": job.subcommand,
        "seconds": seconds - sum(samples),
        "reference_s": statistics.mean(samples) if samples else None,
        "exit": code,
        "report": report.getvalue(),
        "stderr": errors.getvalue(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from sumsetfree import cli

    import workloads

    workdir = Path(args.workdir)
    workloads.make_inputs(args.workload, args.seed, workdir)
    job_list = workloads.jobs(args.workload, args.seed, workdir)
    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    payload = {"setup_reference_s": burst_seconds()}
    if not args.setup_only:
        sampler = SpeedSampler()
        results = [run_job(cli, job, sampler) for job in job_list]
        payload.update(
            wall_s=sum(job["seconds"] for job in results),
            jobs=results,
            ru_maxrss=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    if tracer is not None:
        payload["layers"] = spans.layer_metrics(tracer)
        payload["counters"] = dict(sorted(tracer.counts.items()))
        payload["nesting_problems"] = tracer.nesting_problems()
        payload["spans"] = len(tracer.sid)
        tracer.write(args.spans)
    out.write(json.dumps(payload) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
