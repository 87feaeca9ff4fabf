"""Job lists of the four benchmark workloads.

A workload is a fixed list of ``lshape`` command lines run in sequence by
one client (closed loop).  Every job that takes a ``--seed`` gets one
derived from the workload seed, so the same workload seed always gives
the same inputs.  ``setup_inputs`` writes the input files a workload
needs; its cost is part of the measured set-up time.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("count", "norms", "increment", "extremal")

LFREE_SET = "lfree_p3_n3.set"


def job_seed(seed: int, j: int) -> str:
    return str(1000 * seed + j)


def jobs(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """The argv lists of one pass over ``workload``."""
    s = lambda j: job_seed(seed, j)  # noqa: E731
    if workload == "count":
        # the exact-counting frontier through the dot obstruction at even
        # n = 6 (int64 indicator path), which takes over nine tenths of a
        # pass; both patterns on seeded sets, a p != 3 case and the
        # complex-table path through telescope_check run one size smaller
        # so that a run holds several passes
        return [
            ["count", "--p", "3", "--n", "4", "--seed", s(0)],
            ["count", "--p", "3", "--n", "4", "--pattern", "corner", "--seed", s(1)],
            ["count", "--example", "dot", "--p", "3", "--n", "6"],
            ["count", "--p", "5", "--n", "3", "--seed", s(2)],
            ["verify", "--suite", "patterns", "--p", "3", "--n", "4", "--seed", s(3)],
        ]
    if workload == "norms":
        # norms and spectral only: few large transform batches, the slot
        # norms, the literal-definition path and the cube product bound
        return [
            ["norm", "--kind", "slot0", "--p", "3", "--m", "10", "--seed", s(0)],
            ["norm", "--kind", "slot1", "--p", "3", "--m", "12", "--seed", s(1)],
            ["norm", "--kind", "slot2", "--p", "3", "--m", "12", "--seed", s(2)],
            ["norm", "--kind", "box", "--p", "3", "--m", "12", "--seed", s(3)],
            ["norm", "--kind", "gowers", "--order", "3", "--p", "3", "--m", "6", "--seed", s(4)],
            ["norm", "--kind", "gowers", "--order", "4", "--p", "3", "--m", "4", "--seed", s(5)],
            ["norm", "--kind", "gowers", "--order", "3", "--p", "3", "--m", "3",
             "--definition-only", "--seed", s(6)],
            ["verify", "--suite", "spectral", "--p", "3", "--n", "6", "--seed", s(7)],
            ["verify", "--suite", "norms", "--p", "3", "--n", "5", "--seed", s(8)],
        ]
    if workload == "increment":
        # structured-set construction, pseudorandomization and the moves
        return [
            ["increment", "--p", "3", "--n", "5", "--d", "1", "--seed", s(0)],
            ["increment", "--p", "3", "--n", "4", "--d", "2", "--seed", s(1)],
            ["increment", "--p", "5", "--n", "3", "--d", "1", "--seed", s(2)],
            ["increment", "--p", "3", "--n", "5", "--planted", "row-bias"],
            ["increment", "--p", "3", "--n", "5", "--planted", "line-bias"],
            ["pseudorandomize", "--p", "3", "--n", "5", "--d", "1", "--seed", s(3)],
            ["pseudorandomize", "--p", "5", "--n", "3", "--d", "1", "--seed", s(4)],
            ["increment", "--set", os.path.join(workdir, LFREE_SET), "--require-l-free"],
        ]
    if workload == "extremal":
        # the pure-Python search path: configuration enumeration, the
        # exhaustive branch-and-bound and the three heuristics
        return [
            ["extremal", "--p", "5", "--n", "1"],
            ["extremal", "--p", "3", "--n", "3", "--method", "greedy", "--seed", s(0)],
            ["extremal", "--p", "3", "--n", "2", "--method", "local", "--iterations", "200",
             "--seed", s(1)],
            ["extremal", "--p", "5", "--n", "2", "--method", "random", "--iterations", "20",
             "--seed", s(2)],
        ]
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def setup_inputs(workload: str, seed: int, workdir: str, cli_main) -> None:
    """Write the input files of ``workload`` into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    if workload != "increment":
        return
    # the configuration-free candidate set comes from a seeded greedy search
    argv = ["extremal", "--p", "3", "--n", "3", "--method", "greedy", "--seed", job_seed(seed, 99)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"input generation {' '.join(argv)} exited {code}")
    indices = json.loads(out.getvalue())["result"]["indices"]
    with open(os.path.join(workdir, LFREE_SET), "w", encoding="utf-8") as fh:
        fh.write("p=3 m=6\n")
        fh.writelines(f"{i}\n" for i in indices)
