"""Benchmark of the `sumsetfree` command line.

Runs one workload (a fixed list of CLI jobs, see workloads.py) for about
--seconds seconds.  Every pass over the job list runs in its own fresh,
single-threaded Python process; passes run one after another.  Every job's
report is checked (checks.py), and the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload interval-search --seed 0 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics of untraced passes, with times in
nominal seconds: measured seconds scaled by a reference computation that
each worker times while it runs (see worker.py).  --trace 1
alternates traced and untraced passes and reports the per-layer metrics of
the traced ones (spans.py), including the tracing overhead.  Which metrics
go on the last line is read from BENCHMARK.json; the lines before it show
every metric by name and unit.  `--workload all` runs every workload and
ends with one table.  A results file with provenance goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8  # set-up-only processes per run, after one discarded warm-up
MIN_PASSES = 3  # traced runs alternate traced and untraced passes, starting traced
PASS_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # no pass starts that could end after this
# the reference time (worker.reference) that nominal seconds are scaled to
REFERENCE_NOMINAL_S = 0.0005
RSS_PER_MIB = 1024 * 1024 if sys.platform == "darwin" else 1024
RSS_UNIT = "bytes" if sys.platform == "darwin" else "KiB"

# per-subcommand times reported for a workload: those whose jobs take about
# a second or more there
SUBCOMMAND_TIMES = {
    "interval-search": ("search", "sequence"),
    "group-detect": ("detect", "enumerate", "search", "hypergraph"),
    "construct-large": ("construct", "sequence"),
}

UNITS = {"peak_rss_mb": "MiB", "failed_frac": "ratio", "detect.introduces_hit_ratio": "ratio"}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


# ---------------------------------------------------------------------------
# passes


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LFREE_BUDGET", None)  # a budget override would change the jobs
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload, seed, workdir, *, setup_only=False, spans_path=None) -> dict:
    """Start one worker process; time it to `ready` and collect its pass."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    err_path = Path(workdir) / "worker.stderr"
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, text=True,
            cwd=ROOT, env=_worker_env(),
        )
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    if ready.strip() != "ready" or code != 0:
        return {"error": f"worker exited {code}: {stderr.strip()[-2000:]}"}
    return {"setup_s": setup_s, **json.loads(rest.strip().splitlines()[-1])}


def run_passes(workload, seed, seconds, trace, workdir, out_dir) -> tuple:
    """Set-up probes, then passes until `seconds` are used; returns
    (set-up samples as (seconds, reference seconds right after), list of
    (kind, pass result))."""
    setups = []
    for i in range(SETUP_PROBES + 1):
        probe = run_worker(workload, seed, workdir, setup_only=True)
        if "error" in probe:
            raise RuntimeError(probe["error"])
        if i:  # the first one warms the bytecode cache
            setups.append((probe["setup_s"], probe["setup_reference_s"]))

    spans_path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    cycle = ("traced", "plain") if trace else ("plain",)
    passes = []
    start = perf_counter()
    durations = []
    while True:
        elapsed = perf_counter() - start
        estimate = statistics.median(durations) if durations else 0.0
        if len(passes) >= MIN_PASSES and elapsed + estimate > seconds:
            break
        if passes and elapsed + estimate > RUN_LIMIT_S:
            break
        kind = cycle[len(passes) % len(cycle)]
        t0 = perf_counter()
        result = run_worker(
            workload, seed, workdir,
            spans_path=spans_path if kind == "traced" else None,
        )
        durations.append(perf_counter() - t0)
        passes.append((kind, result))
        if kind == "plain" and "error" not in result:
            setups.append((result["setup_s"], result["setup_reference_s"]))
    return setups, passes


# ---------------------------------------------------------------------------
# checking and metrics


def judge(workload, seed, workdir, passes) -> tuple:
    """(attempted, failed, problems) over every job of every pass."""
    names = [j.name for j in workloads.jobs(workload, seed, workdir)]
    ok_passes = [r for _, r in passes if "error" not in r]
    problems = [r["error"] for _, r in passes if "error" in r]
    attempted = len(names) * len(passes)
    failed = len(names) * len(problems)
    if not ok_passes:
        return attempted, failed, problems
    first = {j["name"]: j for j in ok_passes[0]["jobs"]}
    verdict = {}
    for name in names:
        job = first[name]
        found = checks.check_job(name, job["report"], seed, workdir) if job["exit"] == 0 else []
        verdict[name] = found
        problems += [f"{name}: {p}" for p in found]
    for r in ok_passes:
        for job in r["jobs"]:
            name = job["name"]
            same = checks.comparable(job["subcommand"], job["report"]) == checks.comparable(
                job["subcommand"], first[name]["report"]
            )
            if job["exit"] != 0:
                problems.append(f"{name}: exit {job['exit']}: {job['stderr'].strip()[-500:]}")
            elif not same:
                problems.append(f"{name}: report differs from the first pass")
            if job["exit"] != 0 or not same or verdict[name]:
                failed += 1
    return attempted, failed, problems


def pass_reference(r) -> float:
    """Mean reference time of a pass's jobs."""
    return statistics.mean(j["reference_s"] for j in r["jobs"] if j["reference_s"])


def nominal(r, sub=None) -> float:
    """Summed nominal seconds of a pass's jobs (of subcommand `sub`): each
    job's measured seconds times REFERENCE_NOMINAL_S over the reference time
    measured while or around it, or the pass's mean for a job too short to
    be sampled."""
    return sum(
        REFERENCE_NOMINAL_S * j["seconds"] / (j["reference_s"] or pass_reference(r))
        for j in r["jobs"]
        if sub in (None, j["subcommand"])
    )


def end_to_end(workload, setups, plain) -> dict:
    """Medians over untraced passes of the end-to-end metrics, in nominal
    seconds; a set-up time is scaled by the reference time right after it.
    The measured values are kept under `*_measured_s`.
    """
    reference = statistics.median(pass_reference(r) for r in plain)
    metrics = {
        "wall_s": statistics.median(nominal(r) for r in plain),
        "setup_s": statistics.median(REFERENCE_NOMINAL_S * t / ref for t, ref in setups),
    }
    for sub in SUBCOMMAND_TIMES[workload]:
        metrics[f"{sub}_s"] = statistics.median(nominal(r, sub) for r in plain)
    metrics["peak_rss_mb"] = statistics.median(r["ru_maxrss"] for r in plain) / RSS_PER_MIB
    metrics["wall_measured_s"] = statistics.median(r["wall_s"] for r in plain)
    metrics["setup_measured_s"] = statistics.median(t for t, _ in setups)
    metrics["reference_s"] = reference
    return metrics


def per_layer(passes) -> tuple:
    """(median per-layer metrics over traced passes, problems).

    The tracing overhead is the median over each traced pass and the
    untraced pass right after it of their difference in nominal seconds.
    """
    traced = [r for kind, r in passes if kind == "traced" and "error" not in r]
    layers = {  # counts are asserted equal below, so the median keeps them exact
        k: v if isinstance(v, int) else statistics.median(r["layers"][k] for r in traced)
        for k, v in traced[0]["layers"].items()
    }
    layers["trace.overhead_s"] = statistics.median(
        nominal(t) - nominal(u)
        for (tk, t), (uk, u) in zip(passes, passes[1:])
        if (tk, uk) == ("traced", "plain") and "error" not in t and "error" not in u
    )
    problems = []
    for r in traced[1:]:
        if r["counters"] != traced[0]["counters"]:
            diff = {
                k for k in set(r["counters"]) | set(traced[0]["counters"])
                if r["counters"].get(k) != traced[0]["counters"].get(k)
            }
            problems.append(f"work counters differ between traced passes: {sorted(diff)}")
    for r in traced:
        problems += r["nesting_problems"]
    return layers, problems


# ---------------------------------------------------------------------------
# provenance and output

def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(workload, seed, seconds, trace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sumsetfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "ru_maxrss_unit": RSS_UNIT,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def benchmark_lists() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def run_workload(workload, seed, seconds, trace) -> dict:
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, passes = run_passes(workload, seed, seconds, trace, workdir, out_dir)
        attempted, failed, problems = judge(workload, seed, workdir, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [r for kind, r in passes if kind == "plain" and "error" not in r]
    traced = [r for kind, r in passes if kind == "traced" and "error" not in r]
    if not plain or (trace and not traced):
        raise RuntimeError("no pass completed: " + "; ".join(problems)[-2000:])
    metrics = end_to_end(workload, setups, plain)
    metrics["failed_frac"] = failed / attempted
    layers = {}
    if trace:
        layers, trace_problems = per_layer(passes)
        problems += trace_problems
    result = {
        "provenance": provenance(workload, seed, seconds, trace),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": [kind for kind, _ in passes],
        "end_to_end": metrics,
        "per_layer": layers,
        "setup_samples_s": [list(s) for s in setups],
        "pass_detail": [
            {
                "kind": kind,
                "wall_s": r.get("wall_s"),
                "job_seconds": [j["seconds"] for j in r.get("jobs", ())],
                "job_reference_s": [j["reference_s"] for j in r.get("jobs", ())],
            }
            for kind, r in passes
        ],
        "job_seconds": {
            j["name"]: statistics.median(
                jj["seconds"] for r in plain for jj in r["jobs"] if jj["name"] == j["name"]
            )
            for j in plain[0]["jobs"]
        },
        "counters": traced[0]["counters"] if traced else {},
        "spans": traced[-1]["spans"] if traced else 0,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result


def show(result: dict) -> None:
    p = result["provenance"]
    print(
        f"workload {p['workload']} seed {p['seed']}: {len(result['passes'])} passes "
        f"({', '.join(result['passes'])}), {result['attempted']} jobs attempted, "
        f"{result['failed']} failed; {p['python']}, nproc {p['nproc']}, "
        f"commit {p['git_commit'][:12]}; end-to-end times in nominal seconds"
    )
    for name, value in {**result["end_to_end"], **result["per_layer"]}.items():
        print(f"  {name:34s} {value:>16.6f} {unit(name)}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sumsetfree" / "cli.py").is_file():
        print(f"error: no sumsetfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_names, layer_names = benchmark_lists()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        show(results[workload])
    if args.workload == "all":
        _table(results)
    wanted = layer_names if args.trace else e2e_names
    metrics = {}
    for workload, r in results.items():
        values = {**r["end_to_end"], **r["per_layer"]}
        prefix = f"{workload}." if args.workload == "all" else ""
        for name in wanted:
            metrics[prefix + name] = {"value": values[name], "unit": unit(name)}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


def _table(results: dict) -> None:
    rows = []
    for r in results.values():
        rows += [n for n in {**r["end_to_end"], **r["per_layer"]} if n not in rows]
    heads = list(results)
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{h:>16s}" for h in heads))
    for name in rows:
        cells = []
        for h in heads:
            v = {**results[h]["end_to_end"], **results[h]["per_layer"]}.get(name)
            cells.append(f"{v:>16.6f}" if v is not None else f"{'-':>16s}")
        print(f"{name:34s} {unit(name):6s} " + " ".join(cells))


if __name__ == "__main__":
    raise SystemExit(main())
