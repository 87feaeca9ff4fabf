"""Summarize or compare a benchmark result set.

A result set is a JSON-lines file written by ``sweep.py``: one object per
run with its ``side`` (``base`` or ``change``), its ``pair``, its start
and end times, and the run's ``record`` and ``result``.

    python3 perfbench/compare.py SET.jsonl

A set of one side prints the spread of every end-to-end metric per
workload.  A set of two sides prints that for each side and then one row
per (end-to-end metric, workload) that reads

- ``regressed`` when the change's median is worse than the base median by
  more than the metric's bound in BENCHMARK.json;
- ``improved`` when at least ten pairs were run, the change wins at least
  nine tenths of them (ties count for neither) and the medians differ by
  more than the base's spread (the distance between its quartiles);
- ``unresolved`` when either side's spread is wider than the bound, unless
  every change run reads better than every base run;
- ``unchanged`` otherwise.

Two sides are compared only when they were run the way ``sweep.py``
runs them: every pair holds one base and one change run of the same
workload and seed, started one right after the other, the side that ran
first alternates from pair to pair, and every run has the same run length,
``nproc`` and BLAS thread count.  Runs that were not correct are listed
and left out of the statistics.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
MIN_PAIRS = 10  # fewest pairs on which a gain may be claimed
PAIR_GAP_S = 60.0  # longest wait allowed between the two runs of a pair
SAME = ("seconds", "trace", "env.nproc", "env.blas_threads")


class Refused(Exception):
    pass


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def setting(run: dict, key: str):
    value = run["record"]
    for part in key.split("."):
        value = value[part]
    return value


def validate(runs: list[dict]) -> None:
    """Raise ``Refused`` unless the set was run as ``sweep.py`` runs it."""
    if not runs:
        raise Refused("the set is empty")
    for key in SAME:
        values = {setting(r, key) for r in runs}
        if len(values) > 1:
            raise Refused(f"runs differ in {key}: {sorted(values)}")
    sides = sorted({r["side"] for r in runs})
    if not set(sides) <= set(SIDES):
        raise Refused(f"unknown sides {sorted(set(sides) - set(SIDES))}")
    pairs: dict[int, list[dict]] = {}
    for r in runs:
        pairs.setdefault(r["pair"], []).append(r)
    first_side = None
    for k in sorted(pairs):
        pair = sorted(pairs[k], key=lambda r: r["started"])
        if sorted(r["side"] for r in pair) != sides:
            raise Refused(f"pair {k} does not hold one run of each side {sides}")
        if len(pair) == 1:
            continue
        a, b = pair
        if (a["record"]["workload"], a["record"]["seed"]) != (b["record"]["workload"], b["record"]["seed"]):
            raise Refused(f"pair {k} mixes workloads or seeds")
        if b["started"] < a["ended"] or b["started"] - a["ended"] > PAIR_GAP_S:
            raise Refused(f"the runs of pair {k} did not run one right after the other")
        if a["side"] == first_side:
            raise Refused(f"pair {k} runs {a['side']} first again; the first side must alternate")
        first_side = a["side"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(runs: list[dict], metric: str) -> dict[str, dict[int, float]]:
    """workload -> pair -> value, over the correct runs that report ``metric``."""
    out: dict[str, dict[int, float]] = {}
    for run in runs:
        res = run["result"]
        if res["correct"] and metric in res["metrics"]:
            out.setdefault(run["record"]["workload"], {})[run["pair"]] = res["metrics"][metric]["value"]
    return out


def incorrect(runs: list[dict]) -> list[str]:
    return [f"{r['side']} {r['record']['workload']} seed {r['record']['seed']}"
            for r in runs if not r["result"]["correct"]]


def summary(runs: list[dict], spec: dict) -> list[str]:
    lines = [f"{'workload':10s} {'metric':14s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'spread':>7s} {'bound':>6s}"]
    for m in spec["end_to_end"]:
        for workload, by_pair in sorted(series(runs, m["name"]).items()):
            q1, q2, q3 = quartiles(list(by_pair.values()))
            spread = (q3 - q1) / q2
            flag = " over bound" if spread > m["bound"] else (" over bound/3" if spread > m["bound"] / 3 else "")
            lines.append(f"{workload:10s} {m['name']:14s} {len(by_pair):3d} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                         f"{spread:7.2%} {m['bound']:6.0%}{flag}")
    return lines


def verdict(base: dict[int, float], change: dict[int, float], bound: float, lower_better: bool) -> str:
    sign = 1.0 if lower_better else -1.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    cq1, cmed, cq3 = quartiles(list(change.values()))
    if sign * (cmed - bmed) > bound * abs(bmed):
        return "regressed"
    paired = [k for k in base if k in change]
    wins = sum(sign * (change[k] - base[k]) < 0 for k in paired)
    if len(paired) >= MIN_PAIRS and wins >= 0.9 * len(paired) and sign * (bmed - cmed) > bq3 - bq1:
        return "improved"
    all_better = (max(change.values()) < min(base.values()) if lower_better
                  else min(change.values()) > max(base.values()))
    if max(bq3 - bq1, cq3 - cq1) > bound * abs(bmed) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(runs: list[dict], spec: dict) -> list[str]:
    sides = {s: [r for r in runs if r["side"] == s] for s in SIDES}
    lines = [f"{'workload':10s} {'metric':14s} {'base median':>12s} {'[q1, q3]':>27s} "
             f"{'change median':>13s} {'[q1, q3]':>27s} {'gap':>7s} {'bound':>6s}  verdict"]
    for m in spec["end_to_end"]:
        base, change = series(sides["base"], m["name"]), series(sides["change"], m["name"])
        for workload in sorted(set(base) & set(change)):
            b, c = base[workload], change[workload]
            bq = quartiles(list(b.values()))
            cq = quartiles(list(c.values()))
            gap = (cq[1] - bq[1]) / bq[1]
            v = verdict(b, c, m["bound"], m["better"] == "lower")
            lines.append(f"{workload:10s} {m['name']:14s} {bq[1]:12.6g} [{bq[0]:12.6g}, {bq[2]:12.6g}] "
                         f"{cq[1]:13.6g} [{cq[0]:12.6g}, {cq[2]:12.6g}] {gap:7.2%} {m['bound']:6.0%}  {v}")
    return lines


def report(runs: list[dict], spec: dict) -> list[str]:
    """The lines that ``main`` prints for a validated set."""
    lines = []
    bad = incorrect(runs)
    if bad:
        lines.append(f"not correct, left out: {', '.join(bad)}")
    sides = [s for s in SIDES if any(r["side"] == s for r in runs)]
    for side in sides:
        lines.append(f"-- {side}: spread of each end-to-end metric")
        lines += summary([r for r in runs if r["side"] == side], spec)
    if len(sides) == 2:
        lines.append("-- change against base")
        lines += compare(runs, spec)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load(argv[0])
    try:
        validate(runs)
    except Refused as exc:
        print(f"{argv[0]}: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
