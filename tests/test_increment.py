"""Partitions, energy, the refinement loop, splits, and the driver."""

import numpy as np
import pytest

import oracles as orc
from lshape.field import GroupVector
from lshape.increment import (
    Cell,
    ProductCosetPartition,
    _renormalize_to_cell,
    align_offset_increment,
    energy_monotone_check,
    fiber_mean_increment,
    increment_driver,
    partition_energy,
    planted_row_instance,
    planted_skew_instance,
    pseudorandomize_u2,
    refine_on_character,
    search_extremal_L_free,
    skew_line_increment,
)
from lshape.structured import FiberFamily, MixedFiberFamily, StructuredProductSet, fiber_levels, random_family
from lshape.tables import FunctionTable, IndicatorSet, product_lift


def _random_structured(p, n, d, seed, base_density=0.85, factor_density=0.8):
    rng = np.random.default_rng(seed)
    size = p**n
    fam = random_family(p, n, d, seed, base_density)
    sets = []
    for _ in range(3):
        mask = rng.random(size) < factor_density
        if not mask.any():
            mask[0] = True
        sets.append(IndicatorSet.from_mask(p, n, mask))
    t = StructuredProductSet(sets[0], sets[1], sets[2], fam)
    s_mask = (t.table.table.values.real == 1.0) & (rng.random(size * size) < 0.5)
    return IndicatorSet.from_mask(p, 2 * n, s_mask), t


def test_trivial_partition_covers():
    part = ProductCosetPartition(3, 2, ())
    assert part.codim == 0
    assert part.cover_check()["point_cover_ok"]
    assert len(part.cells()) == 1
    cell = part.cells()[0]
    assert cell.measure == 1.0
    assert cell.pair_member_mask().all()


def test_partition_refinement_and_labels():
    part = ProductCosetPartition(3, 2, ())
    fine = part.refine((1, 0))
    assert fine.codim == 1
    assert fine.cover_check()["point_cover_ok"]
    labels = fine.label_index()
    for x in range(9):
        assert labels[x] == orc.digits_le(x, 3, 2)[0]
    # refinement by a dependent row must be rejected
    with pytest.raises(ValueError):
        fine.refine((2, 0))
    finer = fine.refine((0, 1))
    assert finer.direction_dim == 0
    cells = fine.cells()
    masks = np.stack([c.pair_member_mask() for c in cells])
    assert masks.sum(axis=0).max() == 1
    assert masks.any(axis=0).all()


def test_refine_on_character_partitions_cell():
    part = ProductCosetPartition(3, 2, ())
    cell = part.cells()[0]
    subcells = refine_on_character(cell, (1, 2))
    assert len(subcells) == 9
    cover = np.zeros(81, dtype=int)
    for sc in subcells:
        cover += sc.pair_member_mask().astype(int)
    assert (cover == 1).all()


def test_partition_energy_range_and_convexity():
    s, t = _random_structured(3, 2, 1, seed=3)
    coarse = ProductCosetPartition(3, 2, ())
    fine = coarse.refine((1, 1))
    e0 = partition_energy(coarse, t)
    e1 = partition_energy(fine, t)
    assert 0.0 <= e0["energy"] <= 1.0
    assert 0.0 <= e1["energy"] <= 1.0
    assert e1["energy"] >= e0["energy"] - 1e-12
    rep = energy_monotone_check(coarse, fine, t)
    assert rep["holds"]
    with pytest.raises(ValueError):
        energy_monotone_check(fine, coarse, t)


def test_energy_monotone_random_chains():
    rng = np.random.default_rng(31)
    for seed in range(10):
        s, t = _random_structured(3, 2, rng.integers(0, 2), seed=100 + seed)
        part = ProductCosetPartition(3, 2, ())
        prev = partition_energy(part, t)["energy"]
        for _ in range(2):
            cand = tuple(int(v) for v in rng.integers(0, 3, size=2))
            if not any(cand):
                continue
            try:
                part = part.refine(cand)
            except ValueError:
                continue
            cur = partition_energy(part, t)["energy"]
            assert cur >= prev - 1e-9
            prev = cur


def test_pseudorandomize_terminates_and_gains():
    for seed in range(6):
        s, t = _random_structured(3, 2, seed % 2, seed=seed)
        if s.cardinality == 0:
            continue
        res = pseudorandomize_u2(s, t, eps=0.1, tau=0.1)
        rep = res.report
        assert rep["round_count"] <= (4 + t.fibers.d) / 0.1**4
        trace = rep["energy_trace"]
        assert len(trace) == rep["round_count"] + 1
        for a, b in zip(trace, trace[1:]):
            assert b > a  # each completed round must strictly gain
        for rec in rep["rounds"]:
            assert rec["certified_gain"] <= rec["energy_gain"] + 1e-9
        assert res.cell is None or isinstance(res.cell, Cell)
        assert res.met_threshold == rep["selected"]["met_threshold"]


def test_pseudorandomize_flat_instance_reports_no_rounds():
    # T is everything, so no factor can ever trigger a refinement
    full = IndicatorSet.full(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    rng = np.random.default_rng(5)
    s = IndicatorSet.from_mask(3, 4, rng.random(81) < 0.4)
    res = pseudorandomize_u2(s, t, eps=0.1, tau=0.1)
    assert res.report["round_count"] == 0
    assert res.report["energy_trace"] == [pytest.approx(1.0)]  # all factor densities are 1
    assert not res.met_threshold
    assert res.report["selected"]["ratio"] == pytest.approx(s.cardinality / 81)


def test_pseudorandomize_structured_factor_triggers():
    # B concentrated on a coset forces at least one refinement round
    p, n = 3, 2
    b = IndicatorSet.from_mask(p, n, np.array([orc.digits_le(y, p, n)[0] != 2 for y in range(9)]))
    full = IndicatorSet.full(p, n)
    t = StructuredProductSet(b, full, full, FiberFamily.full(full))
    rng = np.random.default_rng(7)
    s_mask = (t.table.table.values.real == 1.0) & (rng.random(81) < 0.5)
    s = IndicatorSet.from_mask(p, 2 * n, s_mask)
    res = pseudorandomize_u2(s, t, eps=0.1, tau=0.1)
    assert res.report["round_count"] >= 1
    trace = res.report["energy_trace"]
    assert trace[-1] > trace[0]
    first = res.report["rounds"][0]
    assert first["certified_gain"] <= first["energy_gain"] + 1e-9


def test_fiber_mean_fires_on_planted_rows():
    for n in (1, 2):
        s, t = planted_row_instance(3, n)
        rep = fiber_mean_increment(s, t, tau=0.1)
        assert rep["gained"]
        assert rep["chosen_pencil"] == "x-rows"
        assert rep["gain"] > 0
        new_s, new_t = rep["_new_s"], rep["_new_t"]
        # the claimed density must re-verify by exact counting
        inter = int(np.rint(np.sum(new_s.table.values.real)))
        assert inter == new_s.cardinality
        assert rep["new_sigma"] == pytest.approx(new_s.cardinality / new_t.table.cardinality)


def test_fiber_mean_ignores_balanced_instances():
    s, t = planted_skew_instance(3, 2)
    rep = fiber_mean_increment(s, t, tau=0.1)
    assert not rep["gained"]
    for pencil in ("x-rows", "y-columns", "anti-diagonals"):
        assert not rep["pencils"][pencil]["fires"]


def test_skew_line_fires_on_planted_lines():
    for n in (1, 2):
        s, t = planted_skew_instance(3, n)
        rep = skew_line_increment(s, t, tau=0.1)
        assert rep["gained"]
        assert rep["gain"] > 0
        new_s, new_t = rep["_new_s"], rep["_new_t"]
        assert rep["new_sigma"] == pytest.approx(new_s.cardinality / new_t.table.cardinality)
        assert new_s.cardinality <= new_t.table.cardinality


def test_split_moves_reject_outside_candidates():
    big = IndicatorSet.from_mask(3, 2, np.ones(9, dtype=bool))
    small_t = StructuredProductSet(
        IndicatorSet.from_mask(3, 1, np.array([1, 1, 0], dtype=bool)),
        IndicatorSet.full(3, 1),
        IndicatorSet.full(3, 1),
        FiberFamily.full(IndicatorSet.full(3, 1)),
    )
    with pytest.raises(ValueError):
        fiber_mean_increment(big, small_t, tau=0.1)
    with pytest.raises(ValueError):
        skew_line_increment(big, small_t, tau=0.1)


def _mixed_family(p, n, d, seed):
    rng = np.random.default_rng(seed)
    size = p**n
    base = IndicatorSet.full(p, n)
    normals = np.zeros((size, d, n), dtype=np.int64)
    for x in range(size):
        while orc._span_contains((0,) * n, [tuple(r) for r in normals[x]], p) and not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
        while not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
    offsets = rng.integers(0, p, size=(size, n))
    return MixedFiberFamily(p, n, base, offsets, d, normals)


def test_align_offset_identity_and_gain():
    p, n, d = 3, 2, 1
    full = IndicatorSet.full(p, n)
    for seed in range(10):
        mixed = _mixed_family(p, n, d, seed)
        lifted = (
            product_lift(full.table, "y")
            .times(product_lift(full.table, "x+y"))
            .times(product_lift(full.table, "2x+y"))
            .times(mixed.table.table)
        )
        t_mixed = IndicatorSet.from_table(lifted)
        rng = np.random.default_rng(1000 + seed)
        s_vals = t_mixed.table.values.real * (rng.random(p ** (2 * n)) < 0.6)
        s = IndicatorSet.from_mask(p, 2 * n, s_vals == 1.0)
        rep = align_offset_increment(s, mixed, full, full, full, tau=0.1)
        assert rep["identity_lhs"] == rep["identity_rhs"]
        if "new_sigma" in rep:
            # the weighted average of per-offset densities is the mixed
            # density, so the best offset can never lose
            assert rep["new_sigma"] >= rep["sigma_mixed"] - 1e-12


def test_extremal_exhaustive_matches_subset_scan():
    res = search_extremal_L_free(3, 1, "exhaustive")
    assert res["cardinality"] == 6
    assert res["optimal"]
    assert res["verified_free"]
    assert orc.extremal_scan_oracle(3, 1) == 6
    mask = [False] * 9
    for i in res["indices"]:
        mask[i] = True
    _, nontrivial = orc.lshape_count_oracle(mask, 3, 1)
    assert nontrivial == 0


def test_extremal_heuristics_produce_free_sets():
    for method in ("greedy", "local", "random"):
        res = search_extremal_L_free(3, 1, method, seed=3, iterations=30)
        assert res["verified_free"]
        assert res["cardinality"] <= 6
        mask = [False] * 9
        for i in res["indices"]:
            mask[i] = True
        _, nontrivial = orc.lshape_count_oracle(mask, 3, 1)
        assert nontrivial == 0
    with pytest.raises(ValueError):
        search_extremal_L_free(3, 1, "mystery")


def test_extremal_resource_caps_fire_before_enumeration():
    from lshape.field import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        search_extremal_L_free(3, 2, "exhaustive")
    with pytest.raises(ResourceLimitError):
        search_extremal_L_free(3, 5, "greedy")


def test_driver_on_planted_instances():
    for maker in (planted_row_instance, planted_skew_instance):
        s, t = maker(3, 2)
        res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=False)
        assert res["steps"] >= 1
        first = res["trajectory"][0]
        assert first["action"] in ("fiber-mean", "skew-line")
        assert first["detail"]["gain"] > 0
        assert res["final_sigma"] == pytest.approx(1.0)


def test_renormalized_cell_matches_fiber_levels():
    # restricted to one cell and one fiber level, S and Phi keep exactly
    # the points fiber_levels assigns to that level, in new coordinates
    checked = 0
    for d, seed in ((0, 1), (1, 2), (2, 3)):
        s, t = _random_structured(3, 2, d, seed)
        for cell in ProductCosetPartition(3, 2, ((1, 1),)).cells():
            levels = fiber_levels(t.fibers, cell.x_coset, cell.y_coset)
            for level in range(d + 1):
                out = _renormalize_to_cell(s, t, cell, level)
                exact = levels[level].exact
                if out is None:
                    assert not np.any(s.mask & exact.mask)
                    continue
                s_new, mixed = out[:2]
                assert mixed.table.cardinality == exact.cardinality
                assert s_new.cardinality == np.count_nonzero(s.mask & exact.mask)
                checked += 1
    assert checked >= 6


def test_driver_restricts_to_the_selected_cell():
    # with tau this large neither split fires and no cell triggers, so the
    # driver renormalizes S to the selected cell and realigns the fibers
    s, t = _random_structured(3, 2, 0, seed=1)
    res = increment_driver(s, t, eps=0.1, tau=5.0, require_l_free=False)
    step = res["trajectory"][0]
    assert step["action"] == "pseudorandomize"
    assert step["alignment"]["identity_lhs"] == step["alignment"]["identity_rhs"]
    assert res["halted_because"] == "no density gain from restriction"


def test_driver_empty_candidate_gives_empty_trajectory():
    full = IndicatorSet.full(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    s = IndicatorSet.empty(3, 4)
    res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=False)
    assert res["trajectory"] == []
    assert res["halted_because"] == "candidate set is empty"


def test_driver_full_candidate_halts_immediately():
    full = IndicatorSet.full(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    s = IndicatorSet.from_table(t.table.table)
    res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=False)
    assert res["halted_because"] == "candidate set fills the structured set"
    assert res["trajectory"][0]["action"] == "halt"


def test_driver_flags_configured_candidates():
    full = IndicatorSet.full(3, 1)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    s = IndicatorSet.from_table(t.table.table)  # everything: full of configurations
    with pytest.raises(AssertionError):
        increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=True)


def test_driver_accepts_l_free_candidate():
    res6 = search_extremal_L_free(3, 1, "exhaustive")
    s = IndicatorSet.from_indices(3, 2, res6["indices"])
    full = IndicatorSet.full(3, 1)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=True)
    assert res["halted_because"] != ""
    # every recorded sigma must be a genuine ratio
    for rec in res["trajectory"]:
        assert 0 <= rec["sigma"] <= 1
