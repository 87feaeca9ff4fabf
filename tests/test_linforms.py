"""Linear-form systems, their complexity, and product-average bounds."""

import numpy as np
import pytest

import oracles as orc
import references as ref
from lshape.linforms import LinearFormSystem, cs_complexity, lshape_slot_system, von_neumann_check
from lshape.tables import FunctionTable


def _one_bounded(p, m, seed):
    rng = np.random.default_rng(seed)
    size = p**m
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    vals /= max(1.0, float(np.abs(vals).max()))
    return FunctionTable(p, m, vals, "complex")


def test_zero_forms_rejected():
    with pytest.raises(ValueError):
        LinearFormSystem.from_rows(3, [[0, 1], [3, 0]])
    with pytest.raises(ValueError):
        LinearFormSystem.from_rows(3, [[0, 1], [1, 0, 1]])


def test_slot_system_complexities():
    # frozen values, cross-checked against the partition-scan oracle
    cases = [
        (ref.corner_slot_system(3), [(0, 1), (1, 1), (1, 0)], 1),
        (lshape_slot_system(3), [(0, 1), (1, 1), (2, 1)], 1),
        (ref.ap_system(5, 4), [(1, j) for j in range(4)], 2),
        (ref.ap_system(5, 3), [(1, j) for j in range(3)], 1),
    ]
    for system, rows, want in cases:
        cert = cs_complexity(system)
        assert not cert.is_infinite
        assert cert.s == want
        assert orc.cs_complexity_oracle(system.p, rows) == want
        assert ref.verify_certificate(system, cert)


def test_wraparound_makes_complexity_infinite():
    # x and x + 3y coincide mod 3, so no partition can ever work
    cert = cs_complexity(ref.ap_system(3, 4))
    assert cert.is_infinite
    assert cert.parallel_pair == (0, 3)
    assert orc.cs_complexity_oracle(3, [(1, j) for j in range(4)]) is None
    assert ref.verify_certificate(ref.ap_system(3, 4), cert)


def test_complexity_matches_oracle_on_random_systems():
    rng = np.random.default_rng(17)
    agree = 0
    for _ in range(40):
        rows = rng.integers(0, 3, size=(3, 2))
        if any(not row.any() for row in rows):
            continue
        system = LinearFormSystem.from_rows(3, [list(map(int, r)) for r in rows])
        cert = cs_complexity(system)
        want = orc.cs_complexity_oracle(3, [tuple(map(int, r)) for r in rows])
        if cert.is_infinite:
            assert want is None
        else:
            assert cert.s == want
            assert ref.verify_certificate(system, cert)
        agree += 1
    assert agree >= 25


def test_complexity_needs_scalar_forms():
    # the stacked point systems are not scalar, so complexity is undefined
    with pytest.raises(ValueError):
        cs_complexity(ref.lshape_point_system(3))
    with pytest.raises(ValueError):
        cs_complexity(ref.corner_point_system(3))


def test_system_average_matches_pattern_counters():
    from lshape.patterns import corner_average, count_system, lshape_average

    rng = np.random.default_rng(5)
    s = FunctionTable(3, 2, rng.random(9) < 0.5)
    got = count_system([s] * 4, ref.lshape_point_system(3), 1).average
    want = lshape_average(*[s] * 4).average
    assert complex(got) == pytest.approx(complex(want), abs=1e-12)
    got3 = count_system([s] * 3, ref.corner_point_system(3), 1).average
    want3 = corner_average(*[s] * 3).average
    assert complex(got3) == pytest.approx(complex(want3), abs=1e-12)


def test_von_neumann_bound_holds():
    for p in (3, 5):
        system = lshape_slot_system(p)
        for seed in range(6):
            tables = [_one_bounded(p, 1, 100 * p + seed * 4 + j) for j in range(3)]
            rep = von_neumann_check(system, tables, 1, 1)
            assert rep["holds"]
            assert rep["complexity"] == 1
    with pytest.raises(ValueError):
        von_neumann_check(ref.ap_system(3, 4), [_one_bounded(3, 1, 0)] * 4, 3, 1)
    big = FunctionTable(3, 1, _one_bounded(3, 1, 1).values * 2.0)
    with pytest.raises(ValueError):
        von_neumann_check(lshape_slot_system(3), [big] * 3, 1, 1)


def test_uniformity_count_bound_holds():
    for p in (3, 5):
        system = lshape_slot_system(p)
        for seed in range(6):
            tables = [_one_bounded(p, 1, 300 * p + seed * 4 + j) for j in range(3)]
            rep = ref.uniformity_count_check(system, tables, 1, 1)
            assert rep["holds"]
            assert len(rep["deviations"]) == 3


def test_uniformity_count_gap_vanishes_for_constants():
    # constant tables have zero deviation, so the product formula is exact
    p = 3
    tables = [FunctionTable(p, 1, np.full(3, c), "real") for c in (0.3, 0.7, 0.5)]
    rep = ref.uniformity_count_check(lshape_slot_system(p), tables, 1, 1)
    assert rep["gap"] == pytest.approx(0.0, abs=1e-12)
    assert rep["bound"] == pytest.approx(0.0, abs=1e-12)
