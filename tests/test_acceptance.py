"""Acceptance properties for the whole package.

Each test covers one numbered acceptance property, enforces its runtime
budget, and prints a single PASS/FAIL line (run pytest with -s to see
them on success).
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles as orc
import references as ref
from lshape.extremal import search_extremal_L_free
from lshape.field import subspace_from_normals
from lshape.increment import (
    ProductCosetPartition,
    align_offset_increment,
    fiber_mean_increment,
    planted_row_instance,
    planted_skew_instance,
    pseudorandomize_u2,
    skew_line_increment,
)
from lshape.linforms import cs_complexity, lshape_slot_system, von_neumann_check
from lshape.norms import gcs_check, gowers_norm, slot_norm
from lshape.patterns import lshape_average, obstruction_example, ones_like, telescope_check
from lshape.spectral import dft, idft, inverse_u2, parseval_report, subspace_average_bound_check, u2_fourth
from lshape.structured import FiberFamily, StructuredProductSet, random_family
from lshape.tables import FunctionTable, product_lift


def criterion(num, name, cap_seconds=None):
    """Time the body, print one verdict line, and enforce the budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                extra = fn()
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"criterion {num} ({name}): FAIL ({dt:.2f}s)")
                raise
            dt = time.perf_counter() - t0
            in_budget = cap_seconds is None or dt < cap_seconds
            tail = f", {extra}" if extra else ""
            cap = "" if cap_seconds is None else f", cap {cap_seconds:g}s"
            print(f"criterion {num} ({name}): {'PASS' if in_budget else 'FAIL'} ({dt:.2f}s{cap}){tail}")
            assert in_budget, f"runtime {dt:.2f}s over the {cap_seconds}s budget"

        return wrapper

    return deco


def random_table(p, m, seed):
    """1-bounded complex table; moduli land in [0, 1)."""
    rng = np.random.default_rng(seed)
    size = p**m
    return FunctionTable(p, m, rng.random(size) * np.exp(2j * np.pi * rng.random(size)))


def random_set(p, m, seed, density=0.5):
    rng = np.random.default_rng(seed)
    mask = rng.random(p**m) < density
    if not mask.any():
        mask[0] = True
    return FunctionTable(p, m, mask)


def random_structured(p, n, d, seed, factor_density=0.8):
    rng = np.random.default_rng(seed)
    size = p**n
    fam = random_family(p, n, d, seed, 0.85)
    parts = []
    for _ in range(3):
        mask = rng.random(size) < factor_density
        if not mask.any():
            mask[0] = True
        parts.append(FunctionTable(p, n, mask))
    t = StructuredProductSet(parts[0], parts[1], parts[2], fam)
    s_mask = (t.table.values.real == 1.0) & (rng.random(size * size) < 0.5)
    return FunctionTable(p, 2 * n, s_mask), t


@criterion(1, "spectral identities", 10)
def test_criterion_1_spectral_identities():
    shapes = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2)]
    worst = 0.0
    for i in range(200):
        p, m = shapes[i % len(shapes)]
        f = random_table(p, m, 9000 + i)
        rep = parseval_report(f)
        assert abs(rep["relative_gap"]) <= 1e-9
        back = idft(dft(f))
        scale = max(1.0, float(np.abs(f.values).max()))
        round_trip = float(np.abs(back.values - f.values).max()) / scale
        assert round_trip <= 1e-9
        hat = dft(f).values
        lhs = u2_fourth(f)
        rhs = float(np.sum(np.abs(hat) ** 4))
        gap = abs(lhs - rhs) / max(1.0, abs(rhs))
        assert gap <= 1e-9
        worst = max(worst, abs(rep["relative_gap"]), round_trip, gap)
    return f"200 tables, worst gap {worst:.2e}"


@criterion(2, "dot obstruction exact count", 5)
def test_criterion_2_dot_obstruction():
    ex = obstruction_example("dot", 3, 3)
    assert ex.set.cardinality == 261
    assert ex.set.density == 261 / 729
    brute = lshape_average(ex.set, ex.set, ex.set, ex.set)
    assert brute.exact_count is not None
    closed_form = 1215
    discrepancy = brute.exact_count - closed_form
    # the brute-force count is authoritative; both sides agree here
    assert brute.exact_count == 1215
    return f"brute {brute.exact_count}, closed form {closed_form}, discrepancy {discrepancy}"


@criterion(3, "random-kind obstruction statistics", 30)
def test_criterion_3_random_obstructions():
    size = 27
    target = size**3 / 27
    good = 0
    for seed in range(20):
        ex = obstruction_example("random_phi", 3, 3, seed)
        res = lshape_average(ex.set, ex.set, ex.set, ex.set)
        density_ok = 0.8 / 3 <= ex.set.density <= 1.2 / 3
        count_ok = target / 2 <= res.nontrivial_count <= target * 2
        good += density_ok and count_ok
    assert good >= 18
    return f"{good}/20 seeds inside both windows"


@criterion(4, "directional-norm control of the 4-form", 60)
def test_criterion_4_control_inequalities():
    batches = [(3, 1, 500), (3, 2, 100)]
    checked = 0
    for p, n, trials in batches:
        for i in range(trials):
            fs = [random_table(p, 2 * n, 40000 + 10 * checked + j) for j in range(4)]
            ones = ones_like(fs[0])
            lam = lshape_average(fs[0], fs[1], fs[2], fs[3])
            assert abs(lam.average) <= slot_norm(fs[0], 0).value + 1e-9
            lam = lshape_average(ones, fs[1], fs[2], fs[3])
            assert abs(lam.average) <= slot_norm(fs[1], 1).value + 1e-9
            lam = lshape_average(ones, ones, fs[2], fs[3])
            assert abs(lam.average) <= slot_norm(fs[2], 2).value + 1e-9
            checked += 1
    return f"{checked} quadruples, 3 inequalities each, zero violations"


@criterion(5, "product-average property suites", 120)
def test_criterion_5_property_suites():
    ran = {"gcs": 0, "von-neumann": 0, "uniformity-count": 0,
           "subspace-average": 0, "transfer": 0, "telescope": 0}

    for i in range(100):
        p = (3, 5)[i % 2]
        m = 1 + (i // 2) % 2
        s = 1 + i % 3
        fam = [random_table(p, m, 50000 + 16 * i + j) for j in range(2**s)]
        assert gcs_check(fam, s)["holds"]
        ran["gcs"] += 1

    systems = [
        (lshape_slot_system(3), 3), (lshape_slot_system(5), 5),
        (ref.corner_slot_system(3), 3), (ref.corner_slot_system(5), 5),
        (ref.ap_system(3, 3), 3), (ref.ap_system(5, 3), 5), (ref.ap_system(5, 4), 5),
    ]
    for i in range(100):
        system, p = systems[i % len(systems)]
        n = 1 + i % 2
        s = cs_complexity(system).s
        tabs = [random_table(p, n, 60000 + 8 * i + j) for j in range(len(system.forms))]
        assert von_neumann_check(system, tabs, s, n)["holds"]
        ran["von-neumann"] += 1
        assert ref.uniformity_count_check(system, tabs, s, n)["holds"]
        ran["uniformity-count"] += 1

    for i in range(100):
        p = (3, 5)[i % 2]
        n = 1 + (i // 2) % 2
        rng = np.random.default_rng(70000 + i)
        normal = tuple(int(v) for v in rng.integers(0, p, size=n))
        if not any(normal):
            normal = (1,) + (0,) * (n - 1)
        coset = subspace_from_normals(p, n, (normal,), (int(rng.integers(0, p)),))
        f = random_table(p, n, 71000 + i)
        assert subspace_average_bound_check(f, coset)["holds"]
        ran["subspace-average"] += 1

    for i in range(100):
        p = (3, 5)[i % 2]
        n = 1 + (i // 2) % 2
        fam = random_family(p, n, min(n - 1, i % 2), 72000 + i, 0.7)
        s = 1 + i % 2
        assert ref.base_uniformity_transfer_check(fam, s)["holds"]
        ran["transfer"] += 1

    for i in range(100):
        p = (3, 5)[i % 2]
        n = 1 + (i // 2) % 2
        s = random_set(p, 2 * n, 73000 + i, 0.6)
        assert telescope_check(s)["holds"]
        ran["telescope"] += 1

    assert all(v >= 100 for v in ran.values())
    return "100 instances per family, zero violations"


@criterion(6, "recursion vs definition, and speed", 60)
def test_criterion_6_recursion_vs_definition():
    worst = 0.0
    for p, n, s_max in [(3, 1, 4), (3, 2, 4), (5, 1, 3)]:
        for s in range(1, s_max + 1):
            for rep in range(3):
                f = random_table(p, n, 80000 + 100 * s + rep)
                fast = gowers_norm(f, s).value
                slow = gowers_norm(f, s, definition_only=True).value
                gap = abs(fast - slow)
                assert gap <= 1e-9
                worst = max(worst, gap)

    f = random_table(3, 2, 81234)
    gowers_norm(f, 4)  # warm
    t0 = time.perf_counter()
    for _ in range(5):
        gowers_norm(f, 4)
    t_fast = (time.perf_counter() - t0) / 5
    t0 = time.perf_counter()
    gowers_norm(f, 4, definition_only=True)
    t_slow = time.perf_counter() - t0
    assert t_slow >= 10 * t_fast
    return f"worst gap {worst:.2e}, speedup {t_slow / t_fast:.0f}x at (3,2,4)"


@criterion(7, "spectral witness beats the U2 square", 10)
def test_criterion_7_inverse_u2_contract():
    shapes = [(3, 1), (3, 2), (5, 1)]
    for i in range(1000):
        p, m = shapes[i % len(shapes)]
        f = random_table(p, m, 90000 + i)
        _, corr = inverse_u2(f)
        assert corr >= gowers_norm(f, 2).value ** 2
    return "1000 tables, exact inequality"


@criterion(8, "energy monotonicity and pseudorandomization", 120)
def test_criterion_8_energy_machinery():
    rng = np.random.default_rng(414)
    checks = 0
    chains = 0
    while chains < 100:
        n = 2 if chains % 2 else 3
        _, t = random_structured(3, n, chains % 2, 95000 + chains)
        part = ProductCosetPartition(3, n, ())
        for _ in range(2):
            cand = tuple(int(v) for v in rng.integers(0, 3, size=n))
            if not any(cand):
                continue
            try:
                fine = part.refine(cand)
            except ValueError:
                continue
            assert ref.energy_monotone_check(part, fine, t)["holds"]
            part = fine
            checks += 1
        chains += 1

    for seed in range(20):
        d = seed % 2
        s, t = random_structured(3, 3, d, 96000 + seed)
        res = pseudorandomize_u2(s, t, eps=0.1, tau=0.1)
        assert res.report["round_count"] <= (4 + d) / 0.1**4
        trace = res.report["energy_trace"]
        for a, b in zip(trace, trace[1:]):
            assert b > a
    return f"{chains} chains ({checks} refinements), 20 pseudorandomize runs"


@criterion(9, "extremal search exactness", 1)
def test_criterion_9_extremal_exactness():
    res = search_extremal_L_free(3, 1, "exhaustive")
    assert res["cardinality"] == 6
    assert res["verified_free"]
    assert orc.extremal_scan_oracle(3, 1) == 6
    return "maximum 6 matches the 512-subset scan"


def _random_mixed_family(p, n, d, seed):
    rng = np.random.default_rng(seed)
    size = p**n
    base = ref.full_set(p, n)
    normals = np.zeros((size, d, n), dtype=np.int64)
    for x in range(size):
        while not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
    offsets = rng.integers(0, p, size=(size, n))
    return FiberFamily.from_normals(base, offsets, d, normals)


@criterion(10, "constructive increments on planted instances", 60)
def test_criterion_10_planted_increments():
    for n in (2, 3):
        s, t = planted_row_instance(3, n)
        rep = fiber_mean_increment(s, t, tau=0.1)
        assert rep["gained"] and rep["gain"] > 0
        new_s, new_t = rep["_new_s"], rep["_new_t"]
        recount = sum(1 for v in new_s.values.real if v == 1.0)
        assert recount == new_s.cardinality
        assert rep["new_sigma"] == recount / new_t.table.cardinality

        s, t = planted_skew_instance(3, n)
        rep = skew_line_increment(s, t, tau=0.1)
        assert rep["gained"] and rep["gain"] > 0
        new_s, new_t = rep["_new_s"], rep["_new_t"]
        recount = sum(1 for v in new_s.values.real if v == 1.0)
        assert recount == new_s.cardinality
        assert rep["new_sigma"] == recount / new_t.table.cardinality

    full = ref.full_set(3, 2)
    for seed in range(50):
        mixed = _random_mixed_family(3, 2, 1, 97000 + seed)
        t_mixed = (
            product_lift(full, "y")
            .times(product_lift(full, "x+y"))
            .times(product_lift(full, "2x+y"))
            .times(mixed.table)
        )
        rng = np.random.default_rng(98000 + seed)
        s_vals = t_mixed.values.real * (rng.random(81) < 0.6)
        s = FunctionTable(3, 4, s_vals == 1.0)
        rep = align_offset_increment(s, StructuredProductSet(full, full, full, mixed), tau=0.1)
        assert rep["identity_lhs"] == rep["identity_rhs"]
    return "both split moves gain and re-verify; 50 exact alignment identities"


@criterion(11, "byte-identical reports", None)
def test_criterion_11_determinism():
    commands = [
        ["verify", "--suite", "norms", "--trials", "2", "--seed", "9"],
        ["count", "--example", "dot", "--p", "3", "--n", "3"],
        ["extremal", "--p", "3", "--n", "1", "--method", "greedy", "--seed", "5"],
        ["pseudorandomize", "--p", "3", "--n", "2", "--d", "1", "--seed", "2"],
        ["increment", "--planted", "row-bias", "--p", "3", "--n", "2"],
        ["norm", "--p", "3", "--m", "2", "--order", "2", "--seed", "1"],
    ]
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "lshape.cli", *cmd],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, cmd
        assert runs[0].stdout
    return f"{len(commands)} commands, two runs each"
