"""One measuring process of the benchmark; started by ``run.py``.

Usage: ``python3 perfbench/worker.py '<json spec>'``.  The spec names the
workload, seed, source and work directories, the mode and a time budget:

- mode ``setup``: import lshape, write the workload's input files, empty
  the package's ``lru_cache``s (making the inputs may have filled them),
  report the CPU time spent so far (``setup_s``), and exit.
- mode ``measure``: as ``setup``, then one cold pass over the job list
  (the ``lru_cache``s start empty) and warm passes while the budget lasts.
- mode ``trace``: as ``measure``, but the warm passes alternate untraced
  and traced, so the difference gives the tracing overhead.

Prints one JSON object on stdout.  Jobs run in-process through
``lshape.cli.main(argv)`` with stdout captured.  Every reported time is CPU
time of this process (``time.process_time``, user plus system, all
threads), not elapsed time: on a shared host the elapsed time of a pass
also holds the time other processes held the CPU, which varies far more
from run to run than the program's own work.  The time budget is counted
in elapsed time.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import workloads


def run_job(cli_main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a job that raises is a failed job, not a failed run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(cli_main, job_list: list[list[str]]) -> tuple[float, float, list[tuple[int | None, str, str]]]:
    """CPU time and elapsed time of one pass over the job list, and its reports."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in job_list:
        results.append(run_job(cli_main, argv))
    return time.process_time() - c0, time.perf_counter() - t0, results


def cache_stats(field) -> dict:
    return {name: getattr(field, name).cache_info()._asdict() for name in ("add_map", "digit_table")}


def cache_delta(before: dict, after: dict) -> dict:
    return {name: {k: after[name][k] - before[name][k] for k in ("hits", "misses")} for name in before}


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, so the cold pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "lshape" or name.startswith("lshape."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from lshape import cli, field

    workloads.setup_inputs(spec["workload"], spec["seed"], spec["workdir"], cli.main)
    clear_caches()
    out: dict = {"setup_s": time.process_time()}
    if spec["mode"] != "setup":
        out.update(measure(spec, cli.main, field))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


def measure(spec: dict, cli_main, field) -> dict:
    start = time.perf_counter()
    job_list = workloads.jobs(spec["workload"], spec["seed"], spec["workdir"])
    before = cache_stats(field)
    cold_s, last, first = run_pass(cli_main, job_list)
    cold_cache = cache_delta(before, cache_stats(field))
    reference = [(code, stdout) for code, stdout, _ in first]
    attempted = len(job_list)
    # per job: executions that exited nonzero, raised, or printed a report
    # other than the first pass's
    bad = [int(code != 0) for code, _, _ in first]
    warm_s: list[float] = []
    traced_s: list[float] = []
    layer_samples: list[dict] = []
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    while True:
        traced = tracer is not None and len(traced_s) < len(warm_s)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            cpu, last, results = run_pass(cli_main, job_list)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(job_list)
        for j, (code, stdout, _) in enumerate(results):
            bad[j] += int(code != 0 or (code, stdout) != reference[j])
        if traced:
            traced_s.append(cpu)
            metrics = layer_metrics(tracer.aggregate(), cold_cache)
            metrics["cli.report_bytes"] = sum(len(stdout) for _, stdout, _ in results)
            layer_samples.append(metrics)
        else:
            warm_s.append(cpu)
        enough = len(warm_s) >= 1 and (tracer is None or len(traced_s) >= 1)
        if enough and time.perf_counter() - start + last > spec["budget_s"]:
            break
    if tracer is not None:
        tracer.write_spans(os.path.join(spec["workdir"], "spans.jsonl"))
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "traced_s": traced_s,
        "layer_samples": layer_samples,
        "cold_cache": cold_cache,
        "attempted": attempted,
        "bad": bad,
        "reports": [{"code": code, "stdout": stdout, "stderr": stderr[-2000:]} for code, stdout, stderr in first],
    }


if __name__ == "__main__":
    main()
