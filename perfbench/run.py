"""End-to-end benchmark of the ``lshape`` command line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

One run measures one workload (see ``workloads.py`` and ``BENCHMARK.json``)
with a single closed-loop client that runs the workload's jobs in sequence
through ``lshape.cli.main(argv)`` inside worker processes (``worker.py``):

- ``setup_s`` is process start until the first job can run (interpreter,
  ``import lshape`` and numpy, input files), over a few set-up-only
  workers and every measuring worker;
- measuring workers each run one cold pass (``cold_s``: a fresh process,
  empty ``lru_cache``s) and then warm passes (``warm_s``), while the
  ``--seconds`` budget lasts; ``peak_rss_mb`` is a worker's peak resident
  memory;
- every time is CPU seconds of the worker process, with one BLAS thread,
  so that the time other tenants of a shared host take from it does not
  count (see ``worker.py``); the ``--seconds`` budget is elapsed time;
- with ``--trace 1`` a single worker alternates untraced and traced warm
  passes and the run reports the per-layer metrics instead (``tracing.py``).

Every job's report is checked (``checks.py``).  The run prints a table of
its metrics with their units and sample counts, a ``record:`` line with
the environment and all samples, and as its last line the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when the
run completed; 2 when the checkout lacks the package or its oracles.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3  # set-up-only workers per run; setup_s is the median over all workers
RUN_CAP_S = 150.0  # workers still running this long after the run began are stopped


def fail(msg: str, code: int) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lshape").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


class Workers:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, workload: str, seed: int, workdir: Path, env: dict) -> None:
        self.base = {"workload": workload, "seed": seed, "workdir": str(workdir), "src": str(ROOT / "src")}
        self.env = env
        self.started = time.monotonic()

    def run(self, mode: str, budget_s: float = 0.0) -> tuple[dict, float]:
        """The worker's result and its elapsed time from start to exit."""
        spec = dict(self.base, mode=mode, budget_s=budget_s)
        timeout = RUN_CAP_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                  capture_output=True, text=True, timeout=max(timeout, 1.0),
                                  env=self.env, cwd=str(ROOT))
        except subprocess.TimeoutExpired:
            fail(f"{mode} worker passed the {RUN_CAP_S:.0f} s run cap and was stopped", 1)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail(f"{mode} worker exited {proc.returncode}", 1)
        return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - t0


def main() -> None:
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in ("BENCHMARK.json", "src/lshape/cli.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found under {ROOT}; run from the root of a checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "tests"))
    import checks
    import oracles
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = HERE / "work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # one BLAS thread: the hot kernels are elementwise numpy, and the CPU
    # time of idle spinning BLAS threads would only add noise
    blas_threads = 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    workers = Workers(args.workload, args.seed, workdir, env)

    # the set-up-only workers run inside the --seconds budget, so that a
    # run takes little longer than --seconds
    deadline = time.monotonic() + args.seconds
    results = [workers.run("setup")[0] for _ in range(SETUP_RUNS)]
    if args.trace:
        results.append(workers.run("trace", deadline - time.monotonic())[0])
    else:
        least = 0.0
        while True:
            # a worker needs set-up, a cold pass and one warm pass; workers
            # do only that while two more fit, and the last one that fits
            # spends all the time left on warm passes
            remaining = deadline - time.monotonic()
            if least and remaining < least:
                break
            budget = remaining if least and remaining < 2 * least else 0.0
            out, elapsed = workers.run("measure", budget)
            results.append(out)
            if budget:
                break
            least = elapsed
    setup = [r["setup_s"] for r in results]
    results = results[SETUP_RUNS:]

    # correctness: every job's first report, once per run
    checker = checks.Checker(oracles)
    job_list = workloads.jobs(args.workload, args.seed, str(workdir))
    failures = []
    attempted = sum(r["attempted"] for r in results)
    failed = 0
    if args.workload == "increment":
        reason = checks.check_input_set(str(workdir / workloads.LFREE_SET), oracles)
        if reason:
            failures.append(("input", reason))
    first = results[0]["reports"]
    runs = attempted // len(job_list)
    for j, argv in enumerate(job_list):
        reason = checker.check_job(argv, first[j]["code"], first[j]["stdout"])
        if reason is None:
            differ = sum(r["reports"][j]["stdout"] != first[j]["stdout"] for r in results)
            bad = sum(r["bad"][j] for r in results) + differ
            reason = f"{bad} of {runs} executions failed or differ from the first" if bad else None
        else:
            bad = runs
            if first[j]["code"] != 0 and first[j]["stderr"].strip():
                reason += " | " + first[j]["stderr"].strip().splitlines()[-1]
        if reason:
            failures.append((" ".join(argv), reason))
            failed += bad
    correct = not failures

    warm = [s for r in results for s in r["warm_s"]]
    samples = {
        "setup_s": setup,
        "cold_s": [r["cold_s"] for r in results],
        "warm_s": warm,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    counts = {name: len(v) for name, v in samples.items()}
    shown = spec["end_to_end"]
    wanted = spec["end_to_end"]
    if args.trace:
        # the traced worker's untraced passes give the end-to-end figures in
        # the table; the result line carries the per-layer metrics
        layer = results[0]["layer_samples"]
        values.update({name: statistics.median([m[name] for m in layer]) for name in layer[0]})
        values["trace.overhead_s"] = statistics.median(results[0]["traced_s"]) - statistics.median(warm)
        values.update(checker.counts)
        counts.update({name: len(layer) for name in values if name not in counts})
        wanted = spec["per_layer"]
        shown = shown + wanted
    missing = {m["name"] for m in shown} ^ set(values)
    if missing:
        fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}", 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env_rec = environment(args.seed, blas_threads)
    print(f"lshape benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs/pass={len(job_list)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_rec.items()))
    print(f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4g} correct={correct}")
    for where, reason in failures:
        print(f"FAILED {where}: {reason}")
    for name, count in checker.counts.items():
        print(f"{name} = {count}")
    print(f"{'metric':42s} {'median':>14s} {'unit':9s} samples")
    for m in shown:
        print(f"{m['name']:42s} {values[m['name']]:14.6g} {m['unit']:9s} {counts[m['name']]}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env_rec, "samples": samples, "failures": failures, "named_counts": checker.counts,
    }
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
