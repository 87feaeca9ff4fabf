"""Run the benchmark over several workloads and seeds into one result set.

    python3 perfbench/sweep.py --out perfbench/results/x.jsonl \\
        [--base CHECKOUT] [--change CHECKOUT] \\
        [--workloads count,norms,increment,extremal] [--seeds 1-10] [--trace 0|1]

``--base`` and ``--change`` are the roots of two checkouts (``--base``
defaults to this one).  Every run uses the run length ``run_seconds`` of
BENCHMARK.json.  Runs ``run.py`` once per (seed, workload) and side, seeds
in the outer loop.  With ``--change`` the two sides run as a pair, one
right after the other, and the side that runs first alternates from pair
to pair, so that slow drift of the machine hits both sides alike; both
checkouts must hold the same benchmark files.  Appends one line per run to
``--out`` and prints ``compare.py``'s reading of the set: spreads for one
side, a verdict per (metric, workload) for two.  With ``--trace 1`` it
prints every per-layer metric of each run instead.  ``--out`` must not
exist yet, so that a result set holds the runs of one sweep only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_files(root: Path) -> dict[str, bytes]:
    """The benchmark's own files in a checkout, which both sides must share."""
    paths = [root / "BENCHMARK.json", *sorted((root / "perfbench").glob("*.py"))]
    return {str(p.relative_to(root)): p.read_bytes() for p in paths if p.is_file()}


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(root), timeout=900)
    ended = time.time()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record = json.loads(next(line for line in lines if line.startswith("record: "))[8:])
    return {"started": started, "ended": ended, "record": record, "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--base", type=Path, default=ROOT)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sides = {"base": args.base.resolve()}
    if args.change is not None:
        sides["change"] = args.change.resolve()
        if bench_files(sides["base"]) != bench_files(sides["change"]):
            parser.error("the two checkouts hold different benchmark files; "
                         "compare commits only with identical benchmark code")
    if Path(args.out).exists():
        parser.error(f"{args.out} exists; a result set holds the runs of one sweep")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    runs = []
    pair = 0
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = {"side": side, "pair": pair, **run_once(sides[side], workload, seed, args.trace)}
                runs.append(run)
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(run) + "\n")
                metrics = run["result"]["metrics"]
                values = "" if args.trace else " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
                print(f"{side} {workload} seed {seed}: correct={run['result']['correct']} {values}", flush=True)
                if args.trace:
                    for name, m in metrics.items():
                        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
            pair += 1
    if args.trace == 0:
        compare.validate(runs)
        print("\n".join(compare.report(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
