"""Correctness checks of the reports that the benchmark's jobs print.

``check_job`` returns None when a report is correct, else a one-line
reason.  References never come from the package under test:

- counts and norm values of seeded inputs are recomputed by ``reference``
  (numpy, no lshape import), and counts on small spaces by the pure-Python
  oracles in ``tests/oracles.py``;
- inputs that do not depend on a seed are checked against values recorded
  at the commit that introduced the benchmark (``RECORDED``);
- reports with no closed-form answer (the increment driver and
  pseudorandomization) are checked for the identities their fields must
  satisfy: densities equal their counts, gains are positive, energy never
  falls.

Integer and string fields must match exactly; floats agree to 1e-9
relative.  The ``dot`` closed form (``predicted_count``) is not a reference:
it is wrong at even n (24057 against 24273 at p=3, n=4), so a disagreement
with it is counted as ``patterns.dot_closed_form_mismatch``, not a failure.
"""

from __future__ import annotations

import json

import numpy as np

import reference

REL = 1e-9

# values recorded at the commit that introduced the benchmark
RECORDED = {
    ("dot", 3, 6): {"cardinality": 177633, "exact_count": 14697369, "nontrivial_count": 14519736},
    ("extremal-optimum", 5, 1): 15,
}


class Mismatch(Exception):
    pass


def recorded(key: tuple):
    if key not in RECORDED:
        raise Mismatch(f"no value recorded for {key}")
    return RECORDED[key]


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(abs(want), 1e-300)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def expect_close(got, want, what: str) -> None:
    expect(isinstance(got, (int, float)) and close(float(got), float(want)),
           f"{what} is {got!r}, reference {want!r}")


def expect_equal(got, want, what: str) -> None:
    expect(got == want, f"{what} is {got!r}, reference {want!r}")


def options(argv: list[str]) -> tuple[str, dict[str, str | bool]]:
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return argv[0], opts


class Checker:
    """Checks the reports of one workload; keeps named counts on the side."""

    def __init__(self, oracles) -> None:
        self.oracles = oracles
        self.counts = {"patterns.dot_closed_form_mismatch": 0}
        reference.selfcheck(oracles)

    def check_job(self, argv: list[str], code: int | None, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        command, opts = options(argv)
        try:
            expect_equal(report.get("command"), command, "command")
            getattr(self, f"_{command}")(opts, report)
        except Mismatch as exc:
            return str(exc)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed report: {exc!r}"
        return None

    # -- count ---------------------------------------------------------------

    def _count(self, opts, report) -> None:
        res = report["result"]
        p, n = int(opts["p"]), int(opts["n"])
        pattern = opts.get("pattern", "lshape")
        size = p**n
        if opts.get("example") == "dot":
            rec = recorded(("dot", p, n))
            if res["predicted_count"] != res["exact_count"]:
                self.counts["patterns.dot_closed_form_mismatch"] += 1
        else:
            mask = reference.random_mask(p, 2 * n, int(opts["seed"]), float(opts.get("density", 0.5)))
            total, nontrivial = reference.pattern_counts(mask, p, n, pattern == "corner")
            rec = {"cardinality": int(mask.sum()), "exact_count": total, "nontrivial_count": nontrivial}
        for key in ("p", "n", "pattern"):
            expect_equal(res[key], {"p": p, "n": n, "pattern": pattern}[key], key)
        for key in ("cardinality", "exact_count", "nontrivial_count"):
            expect_equal(res[key], str(rec[key]), key)
        expect_close(res["density"], rec["cardinality"] / size**2, "density")
        expect_close(res["average"], rec["exact_count"] / size**3, "average")

    # -- norm ----------------------------------------------------------------

    def _norm(self, opts, report) -> None:
        res = report["result"]
        p, m = int(opts["p"]), int(opts["m"])
        vals = reference.random_table(p, m, int(opts["seed"]))
        kind = opts.get("kind", "gowers")
        if kind == "gowers":
            order = int(opts["order"])
            power = 2**order
            raw = reference.gowers_raw(vals, p, m, order)
            expect_close(res["raw_average"]["re"], raw, "raw_average.re")
            expect(abs(res["raw_average"]["im"]) <= REL * raw, "raw_average.im is not zero")
        elif kind == "box":
            power, raw = 4, reference.box_raw(vals, p, m // 2)
        else:
            slot = int(kind[-1])
            power, raw = (8, 4, 2)[slot], reference.slot_raw(vals, p, m // 2, slot)
        expect_equal((res["p"], res["m"], res["power"]), (p, m, power), "(p, m, power)")
        expect_close(res["value"], raw ** (1.0 / power), "value")

    # -- verify --------------------------------------------------------------

    def _verify(self, opts, report) -> None:
        checks = report["checks"]
        failing = [c["id"] for c in checks if c["holds"] is not True]
        expect(report["all_hold"] is True and not failing, f"checks fail: {failing}")
        ids = [c["id"] for c in checks]
        p, n, seed = int(opts["p"]), int(opts["n"]), int(opts["seed"])
        suite = opts["suite"]
        if suite == "spectral":
            trials = int(opts.get("trials", 4))
            per_trial = ["parseval-identity", "fourier-inversion", "u2-fourth-power", "inverse-u2-correlation"]
            expect_equal(ids, per_trial * trials + ["subspace-average-bound"], "check ids")
            for i, c in enumerate(c for c in checks if c["id"] == "inverse-u2-correlation"):
                spec = reference.spectrum(reference.random_table(p, n, seed + i), p, n)
                best = int(np.argmax(np.abs(spec)))
                expect_equal(c["frequency"], [(best // p**k) % p for k in range(n)], f"trial {i} frequency")
        elif suite == "patterns":
            expect_equal(ids, ["dot-obstruction-density", "dot-obstruction-count", "telescope-bound"], "check ids")
            total, _ = self.oracles.lshape_count_oracle([bool(v) for v in reference.dot_mask(3, 3)], 3, 3)
            expect_equal(checks[1]["count"], str(total), "dot count at n = 3")
        elif suite == "norms":
            expect_equal(ids, ["cube-product-bound", "system-von-neumann"], "check ids")
            want = self.oracles.cs_complexity_oracle(p, [[0, 1], [1, 1], [2, 1]])
            expect_equal(checks[1]["complexity"], want, "complexity")

    # -- increment and pseudorandomize ---------------------------------------

    def _pseudo_report(self, rep: dict, what: str) -> None:
        rounds, trace = rep["rounds"], rep["energy_trace"]
        expect_equal(rep["round_count"], len(rounds), f"{what} round_count")
        expect_equal(len(trace), len(rounds) + 1, f"{what} energy_trace length")
        expect(all(b >= a - 1e-12 for a, b in zip(trace, trace[1:])), f"{what} energy decreased")
        sel = rep["selected"]
        if sel is not None:
            expect_close(sel["ratio"], int(sel["s_count"]) / int(sel["t_count"]), f"{what} selected ratio")
            expect_close(sel["threshold"], rep["sigma"] + rep["tau"] / 4, f"{what} threshold")

    def _pseudorandomize(self, opts, report) -> None:
        self._pseudo_report(report["result"], "pseudorandomize")

    def _increment(self, opts, report) -> None:
        res = report["result"]
        traj = res["trajectory"]
        expect_equal(res["steps"], len(traj), "steps")
        expect(0 < len(traj) <= int(opts.get("max_steps", 12)), "step count out of range")
        for i, rec in enumerate(traj):
            what = f"step {i}"
            expect_equal(rec["step"], i, f"{what} number")
            s_count, t_count = int(rec["s_count"]), int(rec["t_count"])
            expect(0 < s_count <= t_count, f"{what} counts {s_count}/{t_count}")
            expect_close(rec["sigma"], s_count / t_count, f"{what} sigma")
            if rec["action"] in ("fiber-mean", "skew-line"):
                det = rec["detail"]
                expect(det["gained"] is True, f"{what} move did not gain")
                expect_close(det["sigma"], rec["sigma"], f"{what} move sigma")
                expect_close(det["new_sigma"], int(det["s_count"]) / int(det["t_count"]), f"{what} new_sigma")
                expect(det["new_sigma"] > rec["sigma"], f"{what} gain is not positive")
                if i + 1 < len(traj):
                    nxt = traj[i + 1]
                    expect_equal((nxt["s_count"], nxt["t_count"]), (det["s_count"], det["t_count"]),
                                 f"{what} counts carried to the next step")
            elif rec["action"] == "pseudorandomize":
                self._pseudo_report(rec["detail"], what)
        if "planted" in opts:
            # a planted bias must fire its own move and fill T
            move = {"row-bias": "fiber-mean", "line-bias": "skew-line"}[opts["planted"]]
            expect_equal([r["action"] for r in traj], [move, "halt"], "planted actions")
            expect_equal(res["final_sigma"], 1.0, "planted final_sigma")
        if "set" in opts:
            p, m, members = read_set(opts["set"])
            size = p ** (m // 2)
            expect_equal((traj[0]["s_count"], traj[0]["t_count"]), (str(len(members)), str(size * size)),
                         "first step counts")

    # -- extremal ------------------------------------------------------------

    def _extremal(self, opts, report) -> None:
        res = report["result"]
        p, n = int(opts["p"]), int(opts["n"])
        method = opts.get("method", "exhaustive")
        total = p ** (2 * n)
        idx = res["indices"]
        expect_equal((res["p"], res["n"], res["method"]), (p, n, method), "(p, n, method)")
        expect(idx == sorted(set(idx)) and all(0 <= i < total for i in idx), "indices not a sorted set")
        expect_equal(res["cardinality"], len(idx), "cardinality")
        expect_close(res["density"], len(idx) / total, "density")
        mask = np.zeros(total, dtype=bool)
        mask[idx] = True
        _, nontrivial = reference.pattern_counts(mask, p, n)
        expect_equal(nontrivial, 0, "configurations in the returned set")
        if method == "exhaustive":
            expect_equal(res["optimal"], True, "optimal")
            expect_equal(res["cardinality"], recorded(("extremal-optimum", p, n)), "optimum")
        else:
            expect_equal((res["optimal"], res["seed"]), (False, int(opts["seed"])), "(optimal, seed)")


def read_set(path: str) -> tuple[int, int, list[int]]:
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().split("\n")
    fields = dict(tok.split("=") for tok in header.split())
    return int(fields["p"]), int(fields["m"]), [int(v) for v in lines if v.strip()]


def check_input_set(path: str, oracles) -> str | None:
    """The generated candidate set must be configuration-free."""
    p, m, members = read_set(path)
    n = m // 2
    mask = [False] * p**m
    for i in members:
        mask[i] = True
    _, nontrivial = oracles.lshape_count_oracle(mask, p, n)
    return None if nontrivial == 0 else f"input set {path} has {nontrivial} configurations"
