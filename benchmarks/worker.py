"""One fresh process that solves a workload's inputs closed-loop.

Run as ``python3 -I worker.py JOB RESULT``: JOB is a JSON file written by
``run.py``, RESULT is where this process writes its measurements. A single
caller calls ``avgcut.cli.run_cli`` on one input at a time, cycling through
the inputs, and starts the next call only after the previous one returns.
Only that call is timed; digests, spans and checks happen between calls or
after the loop. Between calls the worker runs the speed probe of
``probe.py``, so that ``run.py`` can scale each call's time by the speed the
machine had around it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

PROBE_SHARE = 0.15


def _solve(cli, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    out = io.StringIO()
    error = None
    code = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run_cli(argv)
    except Exception as exc:  # a raised error is a failed input, not a crash
        error = repr(exc)
    return time.perf_counter() - started, code, out.getvalue(), error


def run(cli, inputs: list[dict], seconds: float, digest, tracer=None, kind: str = "text") -> dict:
    """Solve until ``seconds`` have passed and every input ran once.

    Probes of ``kind`` run before the first call and after every call, for
    at least ``PROBE_SHARE`` of the call's time.

    With a tracer, whole passes over the inputs alternate between untraced
    and traced, so both halves see the same machine conditions and their
    difference is the tracing overhead.
    """
    from probe import probes

    n = len(inputs)
    reports: list[str | None] = [None] * n
    solves: list[dict] = []
    spans: list[list] = []
    minimum = 2 * n if tracer else n
    first_probes = probes(0.0, kind)
    deadline = time.perf_counter() + seconds
    while len(solves) < minimum or time.perf_counter() < deadline:
        k = len(solves)
        index = k % n
        traced = tracer is not None and (k // n) % 2 == 1
        # Every call starts from the same heap state, as a fresh CLI process
        # would; otherwise garbage left by the previous call decides when the
        # collector interrupts this one.
        gc.collect()
        if traced:
            tracer.install()
        try:
            elapsed, code, report, error = _solve(cli, inputs[index]["argv"])
        finally:
            if traced:
                tracer.uninstall()
        solve = {
            "input": index,
            "seconds": elapsed,
            "exit": code,
            "error": error,
            "digest": digest(report),
            "lines": len(report.splitlines()),
            "traced": traced,
            "probes": probes(PROBE_SHARE * elapsed, kind),
        }
        if traced:
            solve_spans, solve["layers"] = tracer.take()
            spans.append(solve_spans)
        if reports[index] is None:
            reports[index] = report
        solves.append(solve)
    return {"solves": solves, "reports": reports, "spans": spans, "first_probes": first_probes}


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    # Started with -I, so neither PYTHONPATH nor this file's directory is on
    # the path: the program comes from the checkout's own sources.
    sys.path[:0] = [job["src"], str(Path(__file__).resolve().parent)]
    import avgcut.cli

    from checker import report_digest
    from tracer import Tracer

    inputs = job["inputs"]
    if not job["trace"]:
        result = run(avgcut.cli, inputs, job["seconds"], report_digest, kind=job["probe"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = Tracer()
        result = run(avgcut.cli, inputs, job["seconds"], report_digest, tracer, job["probe"])
        # A separate allocation pass: tracemalloc slows every allocation, so
        # the times of this pass are not used.
        tracer.memory = True
        tracer.install()
        tracemalloc.start()
        try:
            _solve(avgcut.cli, inputs[0]["argv"])
        finally:
            tracemalloc.stop()
            tracer.uninstall()
        tracer.take()
        result["peaks"] = tracer.peaks
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
