"""Benchmark for ``avgcut``: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src`` directory, never from an installed
copy. Each workload is generated from the seed, solved closed-loop in a
fresh worker process for ``--seconds`` seconds through ``avgcut.cli.run_cli``,
and every report is checked after the timed loop. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import probes, scaled
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "avgcut"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_RUNS = 11
WORKER_TIMEOUT_S = 150

# parse.self_s and engine.self_s add up the layers that play those roles on
# each workload, so that BENCHMARK.json can list per-layer metrics that no
# workload reports as 0 (see README.md). The full per-layer table is printed
# above the JSON line.
PARSERS = ("io.parse_edgelist.self_s", "io.parse_newick.self_s", "dendro.parse_linkage_csv_s")
ENGINES = (
    "contraction.init_s",
    "contraction.run_s",
    "contraction.result_s",
    "oracle.count_cuts_s",
    "oracle.brute_force_optimum_s",
)


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or "unknown",
    }


def measure_setup() -> tuple[float, float]:
    """Time from starting a fresh interpreter to ``import avgcut.cli`` done.

    Returns the median wall time and the median scaled time (see
    ``probe.py``), with probes run before the first start and after each.
    The child reads the same monotonic clock as this process when the import
    returns, so interpreter shutdown and the wait for the child's exit are
    not counted.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import avgcut.cli, time; "
        "print(time.perf_counter())"
    )
    times = []
    groups = []
    for run in range(SETUP_RUNS + 1):
        if run:  # the first start also writes the bytecode cache
            groups.append(probes(0.0))
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], check=True, timeout=60, capture_output=True, text=True
        )
        if run:
            times.append(float(done.stdout) - started)
    groups.append(probes(0.0))
    return statistics.median(times), statistics.median(scaled(times, groups))


def _rate(work: list[int], solves: list[dict], key: str = "scaled") -> float:
    """Work completed per second of solve time, over all solves."""
    return sum(work[s["input"]] for s in solves) / sum(s[key] for s in solves)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool, tmp: Path):
    from checker import check, count_boundary_cuts, report_digest

    marks = [time.perf_counter()]
    inputs = workload.generate(seed, smoke)
    file_digests = []
    job_inputs = []
    for inp in inputs:
        path = tmp / inp.filename
        data = inp.text.encode()
        path.write_bytes(data)
        file_digests.append(hashlib.sha256(data).hexdigest())
        job_inputs.append({"argv": [str(path) if a == "{path}" else a for a in inp.argv]})

    marks.append(time.perf_counter())
    setup_wall_s, setup_s = measure_setup()
    marks.append(time.perf_counter())

    job = tmp / f"{workload.name}.job.json"
    out = tmp / f"{workload.name}.result.json"
    job.write_text(json.dumps(
        {"src": str(SRC), "inputs": job_inputs, "seconds": seconds, "trace": trace, "probe": workload.probe}
    ))
    subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(job), str(out)],
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    result = json.loads(out.read_text())
    marks.append(time.perf_counter())

    # Check one report per input; every other solve of that input must have
    # produced the same report, byte for byte apart from elapsed_ms.
    problems = [check(inp, d, r) for inp, d, r in zip(inputs, file_digests, result["reports"])]
    good = [report_digest(r) if not p else None for r, p in zip(result["reports"], problems)]
    marks.append(time.perf_counter())
    solves = result["solves"]
    groups = [result["first_probes"]] + [solve["probes"] for solve in solves]
    for solve, value in zip(solves, scaled([solve["seconds"] for solve in solves], groups, workload.probe)):
        solve["scaled"] = value
    for solve in solves:
        solve["ok"] = (
            solve["exit"] == 0 and solve["error"] is None and solve["digest"] == good[solve["input"]]
        )
    failed = sum(not s["ok"] for s in solves)

    plain = [s for s in solves if not s["traced"]]
    edges = [len(inp.edges) for inp in inputs]
    times = sorted(s["scaled"] for s in plain)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "inputs": [
            {"file": inp.filename, "sha256": d, "edges": n, "report_sha256": g, "problems": p}
            for inp, d, n, g, p in zip(inputs, file_digests, edges, good, problems)
        ],
        "phases_s": dict(zip(("generate", "setup", "loop", "check"), (b - a for a, b in zip(marks, marks[1:])))),
        "samples": len(plain),
        "attempted": len(solves),
        "failed": failed,
    }
    e2e = {"solve_p50_s": _metric(statistics.median(times), "s")}
    if len(times) >= 100:  # the highest percentile with ten samples beyond it
        e2e["solve_p90_s"] = _metric(statistics.quantiles(times, n=10)[-1], "s")
    e2e["edges_per_s"] = _metric(_rate(edges, plain), "1/s")
    if inputs[0].argv[0] == "oracle":
        e2e["cuts_per_s"] = _metric(_rate([count_boundary_cuts(i.edges) for i in inputs], plain), "1/s")
    if "peak_rss_mb" in result:
        e2e["peak_rss_mb"] = _metric(result["peak_rss_mb"], "MB")
    e2e["setup_s"] = _metric(setup_s, "s")
    e2e["failed_share"] = _metric(failed / len(solves), "share")
    e2e["wall.solve_p50_s"] = _metric(statistics.median(s["seconds"] for s in plain), "s")
    e2e["wall.edges_per_s"] = _metric(_rate(edges, plain, "seconds"), "1/s")
    e2e["wall.setup_s"] = _metric(setup_wall_s, "s")
    e2e["probe_p50_s"] = _metric(statistics.median(t for g in groups for t in g), "s")
    summary["end_to_end"] = e2e
    if trace:
        traced = [s for s in solves if s["traced"]]
        summary["traced_samples"] = len(traced)
        summary["per_layer"] = per_layer(plain, traced, result["peaks"])
        summary["spans"] = result["spans"]
    summary["solves"] = solves
    return summary


def per_layer(plain: list[dict], traced: list[dict], peaks: dict) -> dict:
    from tracer import PEAKS

    def median_of(value) -> float:
        return statistics.median([value(s) for s in traced])

    names = list(traced[0]["layers"])
    layers = {
        name: _metric(median_of(lambda s: s["layers"][name]), "s" if name.endswith("_s") else "count")
        for name in names
    }
    layers["cli.report_lines"] = _metric(median_of(lambda s: s["lines"]), "count")
    for span, metric in PEAKS.items():
        layers[metric] = _metric(peaks.get(span, 0) / 2**20, "MB")
    layers["parse.self_s"] = _metric(median_of(lambda s: sum(s["layers"][m] for m in PARSERS)), "s")
    layers["engine.self_s"] = _metric(median_of(lambda s: sum(s["layers"][m] for m in ENGINES)), "s")
    span_metrics = [n for n in names if n.endswith("_s")]
    traced_p50 = median_of(lambda s: s["seconds"])
    layers["traced.solve_p50_s"] = _metric(traced_p50, "s")
    layers["trace.overhead_s"] = _metric(traced_p50 - statistics.median([s["seconds"] for s in plain]), "s")
    layers["trace.self_sum_s"] = _metric(
        median_of(lambda s: sum(s["layers"][m] for m in span_metrics)), "s"
    )
    layers["trace.unattributed_s"] = _metric(
        median_of(lambda s: s["seconds"] - sum(s["layers"][m] for m in span_metrics)), "s"
    )
    return layers


def print_summary(summary: dict) -> None:
    env = summary["environment"]
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']}")
    print(
        f"workload {summary['workload']} (seed {summary['seed']}): closed loop, one caller in one "
        f"worker process; {summary['attempted']} inputs attempted, {summary['failed']} failed"
    )
    for item in summary["inputs"]:
        print(
            f"  input {item['file']}: sha256 {item['sha256']}, {item['edges']} edges, "
            f"report sha256 {item['report_sha256']}"
        )
        for problem in item["problems"]:
            print(f"    check failed: {problem}")
    print("  phases: " + ", ".join(f"{name} {s:.1f} s" for name, s in summary["phases_s"].items()))
    print(f"  end to end, untraced (n={summary['samples']} solves):")
    for name, metric in summary["end_to_end"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if "per_layer" in summary:
        print(f"  per layer, medians over traced solves (n={summary['traced_samples']}):")
        for name, metric in summary["per_layer"].items():
            print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C: subprocess.run kills and reaps the
    # worker, and the finally clause below removes the generated inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "avgcut" / "cli.py").is_file():
        print(f"error: no avgcut sources at {SRC}; run inside a checkout of the repository", file=sys.stderr)
        return 2
    reported = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    summaries = []
    try:
        for name in names:
            summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke, tmp)
            results = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            results.parent.mkdir(exist_ok=True)
            results.write_text(json.dumps(summary, indent=1))
            summary.pop("spans", None)
            summary.pop("solves")
            print_summary(summary)
            print(f"  results: {results.relative_to(ROOT)}")
            summaries.append(summary)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def pick(summary):
        table = summary["per_layer" if args.trace else "end_to_end"]
        return {m: table[m] for m in reported}

    if len(summaries) == 1:
        metrics = pick(summaries[0])
    else:
        metrics = {f"{s['workload']}.{m}": v for s in summaries for m, v in pick(s).items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
