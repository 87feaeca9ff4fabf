"""Partitions, energy, the refinement loop, splits, the driver, and the extremal search."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lshape.extremal as extremal
import lshape.increment as increment
import oracles as orc
import references as ref
from lshape.extremal import (
    METHODS,
    _exhaustive_l_free,
    _greedy_l_free,
    _l_quads,
    _point_index,
    search_extremal_L_free,
)
from lshape.field import digit_table, digits_of, index_of, rank_mod, subspace_from_normals
from lshape.increment import (
    ProductCosetPartition,
    _fiber_level_of_points,
    _pull_back,
    _renormalize_to_cell,
    _top_characters,
    align_offset_increment,
    fiber_mean_increment,
    increment_driver,
    partition_energy,
    planted_row_instance,
    planted_skew_instance,
    pseudorandomize_u2,
    skew_line_increment,
)
from lshape.norms import gowers_norm
from lshape.spectral import inverse_u2
from lshape.structured import FiberFamily, StructuredProductSet, random_family
from lshape.tables import FunctionTable, product_lift


def _random_structured(p, n, d, seed, base_density=0.85, factor_density=0.8):
    rng = np.random.default_rng(seed)
    size = p**n
    fam = random_family(p, n, d, seed, base_density)
    sets = []
    for _ in range(3):
        mask = rng.random(size) < factor_density
        if not mask.any():
            mask[0] = True
        sets.append(FunctionTable(p, n, mask))
    t = StructuredProductSet(sets[0], sets[1], sets[2], fam)
    s_mask = (t.table.values.real == 1.0) & (rng.random(size * size) < 0.5)
    return FunctionTable(p, 2 * n, s_mask), t


def _random_partition(p, n, k, rng):
    """A partition of codimension k, refined by random characters."""
    part = ProductCosetPartition(p, n, ())
    while part.codim < k:
        try:
            part = part.refine(tuple(int(v) for v in rng.integers(0, p, size=n)))
        except ValueError:
            continue
    return part


def test_trivial_partition_covers():
    part = ProductCosetPartition(3, 2, ())
    assert part.codim == 0
    assert ref.cover_check(part)["point_cover_ok"]
    assert len(ref.cells(part)) == 1
    cell = ref.cells(part)[0]
    assert ref.cell_measure(cell) == 1.0
    assert ref.pair_member_mask(cell).all()


def test_partition_refinement_and_labels():
    part = ProductCosetPartition(3, 2, ())
    fine = part.refine((1, 0))
    assert fine.codim == 1
    assert ref.cover_check(fine)["point_cover_ok"]
    labels = fine.label_index()
    for x in range(9):
        assert labels[x] == orc.digits_le(x, 3, 2)[0]
    # refinement by a dependent row must be rejected
    with pytest.raises(ValueError):
        fine.refine((2, 0))
    finer = fine.refine((0, 1))
    assert finer.direction.dim == 0
    cells = ref.cells(fine)
    masks = np.stack([ref.pair_member_mask(c) for c in cells])
    assert masks.sum(axis=0).max() == 1
    assert masks.any(axis=0).all()


def test_partition_refuses_unreduced_normals():
    # a scaled row, rows left unreduced, and a row with an entry past p are
    # each refused at construction, before any table reads the pivots
    for normals in (((2, 0),), ((1, 1), (1, 0)), ((4, 0),)):
        with pytest.raises(ValueError, match="reduced independent rows"):
            ProductCosetPartition(3, 2, normals)


def test_member_table_matches_the_coset_route():
    # row c of the member table is coset c as AffineSubspace lists it from
    # the parity checks; the y, sum and skew labels of a cell are the labels
    # of b, a + b and 2a + b, for points a and b of its x and y cosets
    rng = np.random.default_rng(20)
    for p, n in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 2)):
        dt = digit_table(p, n)
        for k in range(n + 1):
            part = _random_partition(p, n, k, rng)
            assert part.members.shape == (p**k, p ** (n - k))
            for c in range(p**k):
                coset = subspace_from_normals(p, n, part.normals, digits_of(p, k, c))
                assert np.array_equal(part.members[c], coset.member_indices()), (p, n, k, c)
            first = dt[part.members[:, 0]]
            for coeff, want in zip((0, 1, 2), part.cell_labels, strict=True):
                got = part.label_index()[index_of(p, (coeff * first[None, :] + first[:, None]) % p)]
                assert np.array_equal(got.reshape(-1), want), (p, n, k, coeff)


def test_member_table_audit_fires_on_a_corrupted_table(monkeypatch):
    # rows rolled by one label still hold every point once, but row c then
    # lies on coset c - 1; a point listed twice is caught as well
    real = increment.combine
    monkeypatch.setattr(increment, "combine", lambda *a: np.roll(real(*a), 1, axis=0))
    with pytest.raises(AssertionError, match="leaves its coset"):
        ProductCosetPartition(3, 2, ((1, 0),)).members
    monkeypatch.setattr(increment, "combine", lambda *a: np.where(real(*a) == 1, 0, real(*a)))
    with pytest.raises(AssertionError, match="misses or repeats"):
        ProductCosetPartition(3, 2, ((1, 0),)).members


def test_fiber_levels_match_the_rank_definition():
    # level(x) = rank(R stacked with x's normals) - codim V on the base, -1
    # off it; d = 0, k = 0 and k = n are all among the cases
    rng = np.random.default_rng(11)
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)):
        for d in range(n + 1):
            base = FunctionTable(p, n, rng.random(p**n) < 0.8)
            normals = ref.random_normals(p, n, d, rng)
            for offsets in (rng.integers(0, p, size=n), rng.integers(0, p, size=(p**n, n))):
                fam = FiberFamily.from_normals(base, offsets, d, normals)
                for k in range(n + 1):
                    part = _random_partition(p, n, k, rng)
                    rows = np.array(part.normals, dtype=np.int64).reshape(k, n)
                    want = np.full(p**n, -1)
                    for x in np.flatnonzero(fam.base.values):
                        want[x] = rank_mod(np.vstack([rows, normals[x]]), p) - k
                    got = _fiber_level_of_points(fam, part.label_index(), k)
                    assert np.array_equal(got, want), (p, n, d, k)


def test_partition_energy_range_and_convexity():
    s, t = _random_structured(3, 2, 1, seed=3)
    coarse = ProductCosetPartition(3, 2, ())
    fine = coarse.refine((1, 1))
    e0 = partition_energy(coarse, t)
    e1 = partition_energy(fine, t)
    assert 0.0 <= e0["energy"] <= 1.0
    assert 0.0 <= e1["energy"] <= 1.0
    assert e1["energy"] >= e0["energy"] - 1e-12
    rep = ref.energy_monotone_check(coarse, fine, t)
    assert rep["holds"]
    with pytest.raises(ValueError):
        ref.energy_monotone_check(fine, coarse, t)


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
        assert res.cell is None or 0 <= res.cell < 3 ** (2 * res.partition.codim)
        assert rep["selected"]["met_threshold"] == (rep["selected"]["ratio"] >= rep["selected"]["threshold"])


def test_pseudorandomize_builds_each_partition_tables_once(monkeypatch):
    # the tables of a partition serve its energy, its round and the final
    # selection, so each partition of the run is tabulated exactly once
    built = []
    real = increment._partition_tables

    def counted(partition, t):
        built.append(partition.normals)
        return real(partition, t)

    monkeypatch.setattr(increment, "_partition_tables", counted)
    for p, n, d, seed in ((3, 4, 1, 1), (3, 4, 2, 5), (3, 3, 0, 2)):
        s, t = _random_structured(p, n, d, seed)
        built.clear()
        res = pseudorandomize_u2(s, t, 0.1, 0.1)
        seen = list(built)
        assert res.report["round_count"] >= 1
        assert len(seen) == len(set(seen)) == res.report["round_count"] + 1
        assert seen[-1] == res.partition.normals
        # and the energies it reports are those of freshly built tables
        trace = [partition_energy(ProductCosetPartition(p, n, normals), t)["energy"] for normals in seen]
        assert trace == res.report["energy_trace"]


def test_pseudorandomize_flat_instance_reports_no_rounds():
    # T is everything, so no factor can ever trigger a refinement
    full = ref.full_set(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    rng = np.random.default_rng(5)
    s = FunctionTable(3, 4, rng.random(81) < 0.4)
    res = pseudorandomize_u2(s, t, eps=0.1, tau=0.1)
    assert res.report["round_count"] == 0
    assert res.report["energy_trace"] == [pytest.approx(1.0)]  # all factor densities are 1
    assert not res.report["selected"]["met_threshold"]
    assert res.report["selected"]["ratio"] == pytest.approx(s.cardinality / 81)


def test_pseudorandomize_structured_factor_triggers():
    # B concentrated on a coset forces at least one refinement round
    p, n = 3, 2
    b = FunctionTable(p, n, np.array([orc.digits_le(y, p, n)[0] != 2 for y in range(9)]))
    full = ref.full_set(p, n)
    t = StructuredProductSet(b, full, full, FiberFamily.full(full))
    rng = np.random.default_rng(7)
    s_mask = (t.table.values.real == 1.0) & (rng.random(81) < 0.5)
    s = FunctionTable(p, 2 * n, s_mask)
    res = pseudorandomize_u2(s, t, eps=0.1, tau=0.1)
    assert res.report["round_count"] >= 1
    trace = res.report["energy_trace"]
    assert trace[-1] > trace[0]
    first = res.report["rounds"][0]
    assert first["certified_gain"] <= first["energy_gain"] + 1e-9


def _one_row_top_character(row, p, dim, eps):
    """The one-row path: balance, gowers_norm(., 2) against eps, then inverse_u2."""
    vals = row.astype(np.complex128)
    table = FunctionTable(p, dim, vals - vals.mean())
    if gowers_norm(table, 2).value < eps:
        return None
    freq, corr = inverse_u2(table)
    return index_of(p, freq), corr


def test_batched_top_characters_match_the_one_row_path():
    rng = np.random.default_rng(41)
    eps = 0.15
    for p, dim in ((3, 2), (5, 2), (7, 2), (3, 6), (5, 4), (7, 3)):
        size = p**dim
        # 300 rows, or one block and 9 rows: not a multiple of the block
        k = 300 if dim == 2 else increment._U2_BLOCK // size + 9
        # rows biased along a random character by a random amount, so that
        # about half reach eps; 0/1 rows and real rows, whose coefficients
        # at xi and -xi always tie
        xi = rng.integers(0, p, size=(k, dim))
        phase = 2 * np.pi * ((xi @ digit_table(p, dim).T) % p) / p + 2 * np.pi * rng.random((k, 1))
        prob = 0.5 + rng.uniform(0, 0.45, size=(k, 1)) * np.cos(phase)
        rows = (rng.random((k, size)) < prob).astype(np.float64)
        rows[::3] = prob[::3]
        rows[1] = 1.0  # constant: nothing left after balancing
        rows[2] = np.cos(2 * np.pi * (np.arange(size) % p) / p)  # ties at indices 1 and p - 1
        index, corr = _top_characters(rows, p, dim, eps)
        assert index[1] == -1 and index[2] == 1
        assert 0 < np.count_nonzero(index >= 0) < k
        for row, got, got_corr in zip(rows, index, corr):
            want = _one_row_top_character(row, p, dim, eps)
            if want is None:
                assert got == -1
            else:
                assert got == want[0]
                assert got_corr == pytest.approx(want[1], abs=1e-12)
        # a row just below eps, and just above it
        row = rows[3:4]
        u2 = gowers_norm(FunctionTable(p, dim, row[0] - row[0].mean()), 2).value
        assert _top_characters(row, p, dim, u2 * (1 + 1e-9))[0][0] == -1
        assert _one_row_top_character(row[0], p, dim, u2 * (1 + 1e-9)) is None
        top = _one_row_top_character(row[0], p, dim, 0)[0]
        assert _top_characters(row, p, dim, u2 * (1 - 1e-9))[0][0] == top


def test_constant_rows_skip_the_transform_and_keep_the_other_rows_bits():
    rng = np.random.default_rng(47)
    eps = 0.15
    for p, dim in ((3, 2), (5, 2), (3, 6)):
        size = p**dim
        k = 40 if dim == 2 else increment._U2_BLOCK // size + 9
        # 0/1 rows biased along a random character, so that some reach eps
        xi = rng.integers(0, p, size=(k, dim))
        phase = 2 * np.pi * ((xi @ digit_table(p, dim).T) % p) / p
        rows = rng.random((k, size)) < 0.5 + rng.uniform(0, 0.45, size=(k, 1)) * np.cos(phase)
        constant = rng.random(k) < 0.4
        rows[constant] = (rng.random(k) < 0.5)[constant, None]  # all True or all False
        index, corr = _top_characters(rows, p, dim, eps)
        assert np.all(index[constant] == -1) and np.all(corr[constant] == 0.0)
        assert np.any(index[~constant] >= 0)
        # bit for bit what the stack without its constant rows gives, and
        # what a transform of every row gives
        sub_index, sub_corr = _top_characters(rows[~constant], p, dim, eps)
        assert np.array_equal(index[~constant], sub_index) and np.array_equal(corr[~constant], sub_corr)
        dense_index, dense_corr = ref.top_characters_dense(rows, p, dim, eps)
        assert np.array_equal(index[~constant], dense_index[~constant])
        assert np.array_equal(corr[~constant], dense_corr[~constant])
    # one varied row among constant ones keeps its bits too: a transform of
    # that row alone can round differently from the block
    rows = np.zeros((5, 9), dtype=bool)
    rows[1:3] = True
    rows[3, [0, 1, 2, 3, 7]] = True  # alone, its top coefficient 2/9 can round an ulp off
    index, corr = _top_characters(rows, 3, 2, 1e-3)
    dense_index, dense_corr = ref.top_characters_dense(rows, 3, 2, 1e-3)
    assert index.tolist() == [-1, -1, -1, dense_index[3], -1] and dense_index[3] >= 0
    assert corr[3] == dense_corr[3] and np.count_nonzero(corr) == 1


def test_pull_back_solves_basis_nu_equals_xi():
    rng = np.random.default_rng(43)
    n = 3
    for p in (3, 5, 11):
        for dim in (1, 2, 3):
            normals = rng.integers(0, p, size=(n - dim, n))
            while rank_mod(normals, p) != n - dim:
                normals = rng.integers(0, p, size=(n - dim, n))
            direction = subspace_from_normals(p, n, normals, (0,) * (n - dim))
            basis = direction.basis()
            pivots = [row.index(1) for row in direction.normals]
            free = np.delete(np.arange(n), pivots)
            xi = np.array([orc.digits_le(i, p, dim) for i in range(1, p**dim)], dtype=np.int64)
            nu = _pull_back(xi, free, basis, p)
            # xi on the free coordinates, 0 on the pivots, and a solution
            assert np.array_equal(nu[:, free], xi) and not nu[:, pivots].any()
            assert np.array_equal(nu @ basis.T % p, xi)
            # basis . nu = xi is checked by an explicit raise, which -O keeps;
            # a basis without the identity on its free columns pulls
            # xi = e_0 back wrongly
            broken = basis.copy()
            broken[0, free[0]] = 0
            with pytest.raises(AssertionError, match="fails basis"):
                _pull_back(xi, free, broken, p)


def test_fiber_mean_fires_on_planted_rows():
    for n in (1, 2):
        s, t = planted_row_instance(3, n)
        rep = fiber_mean_increment(s, t, tau=0.1)
        assert rep["gained"]
        assert rep["chosen_pencil"] == "x-rows"
        assert rep["gain"] > 0
        new_s, new_t = rep["_new_s"], rep["_new_t"]
        # the claimed density must re-verify by exact counting
        inter = int(np.rint(np.sum(new_s.values.real)))
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
    big = FunctionTable(3, 2, np.ones(9, dtype=bool))
    small_t = StructuredProductSet(
        FunctionTable(3, 1, np.array([1, 1, 0], dtype=bool)),
        ref.full_set(3, 1),
        ref.full_set(3, 1),
        FiberFamily.full(ref.full_set(3, 1)),
    )
    with pytest.raises(ValueError):
        fiber_mean_increment(big, small_t, tau=0.1)
    with pytest.raises(ValueError):
        skew_line_increment(big, small_t, tau=0.1)


def _mixed_family(p, n, d, seed):
    rng = np.random.default_rng(seed)
    size = p**n
    base = ref.full_set(p, n)
    normals = np.zeros((size, d, n), dtype=np.int64)
    for x in range(size):
        while orc._span_contains((0,) * n, [tuple(r) for r in normals[x]], p) and not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
        while not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
    offsets = rng.integers(0, p, size=(size, n))
    return FiberFamily.from_normals(base, offsets, d, normals)


def test_align_offset_identity_and_gain():
    p, n, d = 3, 2, 1
    full = ref.full_set(p, n)
    for seed in range(10):
        mixed = _mixed_family(p, n, d, seed)
        t_mixed = (
            product_lift(full, "y")
            .times(product_lift(full, "x+y"))
            .times(product_lift(full, "2x+y"))
            .times(mixed.table)
        )
        rng = np.random.default_rng(1000 + seed)
        s_vals = t_mixed.values.real * (rng.random(p ** (2 * n)) < 0.6)
        s = FunctionTable(p, 2 * n, s_vals == 1.0)
        t = StructuredProductSet(full, full, full, mixed)
        assert np.array_equal(t.table.values, t_mixed.values)
        rep = align_offset_increment(s, t, tau=0.1)
        assert rep["identity_lhs"] == rep["identity_rhs"]
        if "new_sigma" in rep:
            # the weighted average of per-offset densities is the mixed
            # density, so the best offset can never lose
            assert rep["new_sigma"] >= rep["sigma_mixed"] - 1e-12


def test_line_scores_match_built_candidates():
    # the scores of every candidate, the losers' too, are the counts on
    # the structured set the candidate builds to
    for p, n in ((3, 3), (5, 2), (7, 2), (11, 2)):
        for d in (0, 1, 2):
            s, t = _random_structured(p, n, d, seed=10 * p + d)
            rng = np.random.default_rng(10 * p + d)
            for slot, factor in (("x", t.fibers.base), ("y", t.y_set), ("x+y", t.sum_set), ("2x+y", t.skew_set)):
                cands = increment._best_row_split(factor.values, rng.standard_normal(factor.size), 0.5)
                assert cands, (p, n, d, slot)
                masks = np.array([mask for _, mask in cands])
                inter, mass = increment._line_scores(s, t, slot, masks)
                built = (ref.split_candidate(t, slot, FunctionTable(p, n, mask)) for mask in masks)
                assert (inter.tolist(), mass.tolist()) == ref.built_scores(s, built), (p, n, d, slot)
            # alignment: the fibers through u, for every u some fiber passes
            columns = t.fibers.table.as_pair_grid().T
            offsets = np.flatnonzero(columns.any(axis=1))
            inter, mass = increment._line_scores(s, t, "x", columns[offsets])
            built = (ref.aligned_candidate(t, int(u)) for u in offsets)
            assert (inter.tolist(), mass.tolist()) == ref.built_scores(s, built), (p, n, d)


def _same_structured(a, b):
    """Whether two structured sets have the same factors, fibers and table."""
    return (
        a.fibers.d == b.fibers.d
        and np.array_equal(a.fibers.table.values, b.fibers.table.values)
        and all(np.array_equal(a.factor(slot).values, b.factor(slot).values) for slot in ("x", "y", "x+y", "2x+y"))
        and np.array_equal(a.table.values, b.table.values)
    )


def test_slot_lookups_match_the_reference_builds():
    # factor(slot) is the set whose points index the slot's lines, and
    # with_factor builds what the reference builds field by field
    for p, n, d, seed in ((3, 2, 1, 0), (3, 3, 0, 2), (5, 2, 2, 1)):
        s, t = _random_structured(p, n, d, seed)
        rng = np.random.default_rng(seed)
        fields = {"x": t.fibers.base, "y": t.y_set, "x+y": t.sum_set, "2x+y": t.skew_set}
        for slot, factor in fields.items():
            assert t.factor(slot) is factor
            sub = FunctionTable(p, n, factor.values & (rng.random(p**n) < 0.6))
            assert _same_structured(t.with_factor(slot, sub), ref.split_candidate(t, slot, sub)), (p, n, d, slot)
        for u in np.flatnonzero(t.fibers.table.as_pair_grid().any(axis=0)).tolist():
            got = t.with_factor("x", t.fibers.aligned_base_at(u))
            assert _same_structured(got, ref.aligned_candidate(t, u)), (p, n, d, u)
        # the product of the other densities keeps the order of the moves'
        # thresholds, bit for bit
        alpha, beta, gamma, delta = (f.density for f in fields.values())
        rho = t.fibers.rho
        assert t.others_density("2x+y", 0.3) == 0.3 * alpha * beta * gamma * rho
        assert t.others_density("x") == beta * gamma * delta * rho
        assert t.others_density("x+y") == alpha * beta * delta * rho


def test_level_cell_counts_match_the_fiber_level_reference():
    # phi_dens[i] is, cell by cell, the number of Phi's pairs of level at
    # most i over the squared coset size, with the counts taken from the
    # reference, which takes every fiber as an explicit coset; the same
    # integers divided the same way must give the same bits
    rng = np.random.default_rng(24)
    for p, n in ((3, 2), (5, 3)):
        for d in (1, 2):
            base = FunctionTable(p, n, rng.random(p**n) < 0.8)
            normals = ref.random_normals(p, n, d, rng)
            offsets = rng.integers(0, p, size=(p**n, n))
            fam = FiberFamily.from_normals(base, offsets, d, normals)
            full = ref.full_set(p, n)
            t = StructuredProductSet(full, full, full, fam)
            for k in range(1, n):
                part = _random_partition(p, n, k, rng)
                got = increment._partition_tables(part, t)["phi_dens"]
                counts = [
                    [lv.cumulative.cardinality for lv in ref.fiber_levels(fam, normals, offsets, c.x_coset, c.y_coset)]
                    for c in ref.cells(part)
                ]
                assert np.array_equal(got, np.array(counts).T / p ** (2 * (n - k))), (p, n, d, k)


def _planted_lines(p, n, slot, seed):
    """S = the points of the whole space on a random half of the lines
    along ``slot``, inside the whole space as T."""
    full = ref.full_set(p, n)
    lines = FunctionTable(p, n, np.random.default_rng(seed).random(p**n) < 0.5)
    return product_lift(lines, slot), StructuredProductSet(full, full, full, FiberFamily.full(full))


def test_each_move_builds_only_its_winner(monkeypatch):
    cases = [(fiber_mean_increment, *planted_row_instance(3, 2)), (skew_line_increment, *planted_skew_instance(3, 2))]
    # the y-column and anti-diagonal pencils fire on S biased along their lines
    cases += [(fiber_mean_increment, *_planted_lines(5, 2, slot, 4)) for slot in ("y", "x+y")]
    for p, n, d, seed in ((3, 3, 1, 0), (5, 2, 1, 1), (11, 2, 2, 1)):
        s, t = _random_structured(p, n, d, seed)
        cases += [(move, s, t) for move in (fiber_mean_increment, skew_line_increment, align_offset_increment)]
    cases.append((align_offset_increment, *_random_structured(3, 2, 1, 3)))
    builds = []
    real = StructuredProductSet.__post_init__

    def counted(self):
        builds.append(self)
        real(self)

    monkeypatch.setattr(StructuredProductSet, "__post_init__", counted)
    built_by = set()
    for move, s, t in cases:
        builds.clear()
        rep = move(s, t, tau=0.1)
        # one build at most, and it is the structured set the move returns
        assert len(builds) == ("_new_t" in rep)
        assert all(b is rep["_new_t"] for b in builds)
        if builds:
            built_by.add(rep.get("chosen_pencil", move.__name__))
    assert built_by == {"x-rows", "y-columns", "anti-diagonals", "skew_line_increment", "align_offset_increment"}


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


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_exhaustive_returns_the_plain_search_set(data):
    # the bounded search returns the plain search's bitset, not just a set
    # of the same size: on random row subsets of the configurations at
    # (3, 1) and (5, 1), and on random 4-point hyperedges
    if data.draw(st.booleans(), label="l_quads"):
        p = data.draw(st.sampled_from([3, 5]), label="p")
        quads, total = _l_quads(p, 1), p * p
        rows = data.draw(st.lists(st.booleans(), min_size=len(quads), max_size=len(quads)), label="rows")
        quads = quads[np.array(rows, dtype=bool)]
    else:
        total = data.draw(st.integers(4, 20), label="total")
        edge = st.lists(st.integers(0, total - 1), min_size=4, max_size=4, unique=True)
        quads = np.array(data.draw(st.lists(edge, max_size=40), label="edges"), dtype=np.int32).reshape(-1, 4)
    assert _exhaustive_l_free(quads, total) == ref.exhaustive_l_free_plain(quads, total)


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


def test_extremal_search_at_n_zero_keeps_the_single_point():
    # the configuration table is empty: no width can be read off a row
    for method in ("exhaustive", "greedy", "local", "random"):
        res = search_extremal_L_free(3, 0, method)
        assert res["indices"] == [0] and res["cardinality"] == 1 and res["verified_free"], method


def test_extremal_resource_caps_fire_before_enumeration():
    from lshape.field import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        search_extremal_L_free(3, 2, "exhaustive")
    with pytest.raises(ResourceLimitError):
        search_extremal_L_free(3, 5, "greedy")


def test_extremal_search_refuses_a_negative_n_by_the_n_given():
    for method in ("exhaustive", "greedy"):
        with pytest.raises(ValueError, match=r"nonnegative, got -1$"):
            search_extremal_L_free(3, -1, method)


@pytest.mark.parametrize("p", [9, 121])
def test_extremal_search_refuses_a_composite_modulus_before_any_table(p, monkeypatch):
    def unbuilt(p, n):
        raise AssertionError("the configuration table was built")

    monkeypatch.setattr(extremal, "_l_quads", unbuilt)
    for method in METHODS:
        with pytest.raises(ValueError, match=rf"^p = {p} is not prime$"):
            search_extremal_L_free(p, 1, method)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2)]), st.integers(0, 2**32 - 1), st.data())
def test_greedy_matches_oracle_and_is_maximal(pn, seed, data):
    p, n = pn
    total = p ** (2 * n)
    rng = np.random.default_rng(seed)
    # a start set drawn from a configuration-free set, as local search
    # refills from the survivors of one
    free = orc.greedy_l_free_oracle(p, n, rng.permutation(total).tolist())
    start = data.draw(st.sets(st.sampled_from(sorted(free))), label="start")
    order = rng.permutation(total)
    start_mask = np.zeros(total, dtype=bool)
    start_mask[list(start)] = True
    quads = _l_quads(p, n)
    start_counts = start_mask[quads].sum(axis=1, dtype=np.int8)
    got, filled = _greedy_l_free(quads, _point_index(quads, total), order, start=(start_mask, start_counts))
    want = orc.greedy_l_free_oracle(p, n, order.tolist(), start)
    assert set(np.flatnonzero(got).tolist()) == want
    assert np.array_equal(filled, got[quads].sum(axis=1))

    mask = got.tolist()
    assert orc.lshape_count_oracle(mask, p, n)[1] == 0
    outside = [pt for pt in range(total) if not mask[pt]]
    if total > 81:  # the count oracle takes about 0.1 s a call at (5, 2)
        outside = data.draw(st.lists(st.sampled_from(outside), min_size=1, max_size=2, unique=True))
    for pt in outside:
        grown = list(mask)
        grown[pt] = True
        assert orc.lshape_count_oracle(grown, p, n)[1] > 0, pt


@pytest.mark.parametrize("pn", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2)])
def test_point_table_rows_are_the_configurations_through_each_point(pn):
    p, n = pn
    total = p ** (2 * n)
    quads = _l_quads(p, n)
    rows = _point_index(quads, total)
    assert rows.shape == (total, 4 * (p**n - 1)) and rows.dtype == np.int32
    ptr, ids = ref.point_index_csr(quads, total)
    for pt in range(total):
        mine = rows[pt]
        assert len(set(mine.tolist())) == len(mine)
        assert (quads[mine] == pt).any(axis=1).all()
        assert set(mine.tolist()) == set(ids[ptr[pt] : ptr[pt + 1]].tolist())
    if pn != (7, 2):  # the oracle walks every (x, y, z) in Python
        through = orc._configurations_through(p, n)
        assert set(map(tuple, quads.tolist())) == {q for at_pt in through.values() for q in at_pt}


@pytest.mark.parametrize("pn", [(3, 2), (5, 2), (3, 3)])
def test_greedy_counts_carry_through_dropped_points(pn):
    # the walk's counts are the recount of its set, and a walk resumed from
    # carried counts, less the dropped points' rows, is the walk resumed
    # from a recount of the survivors
    p, n = pn
    total = p ** (2 * n)
    quads = _l_quads(p, n)
    rows = _point_index(quads, total)
    rng = np.random.default_rng(p + n)
    chosen, filled = _greedy_l_free(quads, rows, rng.permutation(total))
    assert np.array_equal(filled, chosen[quads].sum(axis=1))
    for _ in range(3):
        trial, carried = chosen.copy(), filled.copy()
        for pt in rng.choice(np.flatnonzero(chosen), size=2, replace=False).tolist():
            trial[pt] = False
            carried[rows[pt]] -= 1
        recount = trial[quads].sum(axis=1, dtype=np.int8)
        assert np.array_equal(carried, recount)
        order = rng.permutation(total)
        got, got_filled = _greedy_l_free(quads, rows, order, start=(trial.copy(), carried))
        want, want_filled = _greedy_l_free(quads, rows, order, start=(trial.copy(), recount))
        assert np.array_equal(got, want) and np.array_equal(got_filled, want_filled)
        assert np.array_equal(got_filled, got[quads].sum(axis=1))
        assert not (got_filled == 4).any()
        chosen, filled = got, got_filled


@pytest.mark.parametrize("pn", [(3, 1), (3, 2), (5, 1)])
def test_local_search_replays_the_oracle_walks(pn):
    # the same draws through the oracle's walk and a plain drop-and-refill
    # loop give the set of the search that carries its counts
    p, n = pn
    total, seed, iterations = p ** (2 * n), 5, 25
    rng = np.random.default_rng(seed)
    best = orc.greedy_l_free_oracle(p, n, rng.permutation(total).tolist())
    for _ in range(iterations):
        trial = set(best)
        if trial:
            trial -= set(rng.choice(sorted(trial), size=min(2, len(trial)), replace=False).tolist())
        trial = orc.greedy_l_free_oracle(p, n, rng.permutation(total).tolist(), trial)
        if len(trial) >= len(best):
            best = trial
    res = search_extremal_L_free(p, n, "local", seed=seed, iterations=iterations)
    assert res["indices"] == sorted(best)


@pytest.mark.parametrize("pn", [(3, 1), (3, 2), (5, 1)])
def test_random_search_replays_the_oracle_walks(pn):
    # the best of the oracle's walks over the same draws, replaced only by
    # a strictly larger set, is the set of the random search
    p, n = pn
    total, seed, iterations = p ** (2 * n), 5, 25
    rng = np.random.default_rng(seed)
    best = set()
    for _ in range(iterations):
        walk = orc.greedy_l_free_oracle(p, n, rng.permutation(total).tolist())
        if len(walk) > len(best):
            best = walk
    res = search_extremal_L_free(p, n, "random", seed=seed, iterations=iterations)
    assert res["indices"] == sorted(best)


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
    # the points fiber_levels assigns to that level, in the coordinates of
    # the cell's coset parameters; fibers with one shared offset and with
    # per-point offsets (a renormalized cell again), partitions of
    # codimension 1 and 2
    rng = np.random.default_rng(4)
    checked = []
    for p, n, d in ((3, 2, 0), (3, 2, 1), (3, 2, 2), (5, 3, 1), (5, 3, 2)):
        base = FunctionTable(p, n, rng.random(p**n) < 0.85)
        normals = ref.random_normals(p, n, d, rng)
        for offsets in (rng.integers(0, p, size=n), rng.integers(0, p, size=(p**n, n))):
            fam = FiberFamily.from_normals(base, offsets, d, normals)
            factors = [FunctionTable(p, n, rng.random(p**n) < 0.8) for _ in range(3)]
            t = StructuredProductSet(*factors, fam)
            s = FunctionTable(p, 2 * n, t.table.values & (rng.random(p ** (2 * n)) < 0.5))
            checked.append(0)
            for codim in range(1, n):
                part = _random_partition(p, n, codim, rng)
                cells = ref.cells(part)
                for j in rng.choice(len(cells), size=min(len(cells), 12), replace=False):
                    cell = cells[j]
                    xs, ys = cell.x_coset.member_indices(), cell.y_coset.member_indices()
                    levels = ref.fiber_levels(fam, normals, offsets, cell.x_coset, cell.y_coset)
                    for level in range(d + 1):
                        out = _renormalize_to_cell(s, t, part, cell.id, level)
                        exact = levels[level].exact.as_pair_grid()[np.ix_(xs, ys)]
                        if out is None:
                            assert not exact.any()
                            continue
                        s_new, t_cell = out
                        assert t_cell.fibers.d == level
                        assert np.array_equal(t_cell.fibers.table.as_pair_grid(), exact)
                        assert np.array_equal(s_new.as_pair_grid(), s.as_pair_grid()[np.ix_(xs, ys)] & exact)
                        assert not np.any(s_new.values & ~t_cell.table.values)
                        checked[-1] += 1
    assert all(checked), checked


def test_driver_restricts_to_the_selected_cell():
    # with tau this large neither split fires and no cell triggers, so the
    # driver renormalizes S to the selected cell and realigns the fibers
    s, t = _random_structured(3, 2, 0, seed=1)
    res = increment_driver(s, t, eps=0.1, tau=5.0, require_l_free=False)
    step = res["trajectory"][0]
    assert step["action"] == "pseudorandomize"
    assert step["alignment"]["identity_lhs"] == step["alignment"]["identity_rhs"]
    assert res["halted_because"] == "no density gain from restriction"


def test_driver_recounts_only_after_coordinate_changes(monkeypatch):
    # a skew-line split, a renormalize-and-align step, then a halt: the set
    # is counted on entry and after the renormalization, not after the split
    recounts = []

    def counted(s, *others):
        recounts.append(s)
        return SimpleNamespace(nontrivial_count=0)

    monkeypatch.setattr(increment, "lshape_average", counted)
    s, t = _random_structured(3, 3, 1, seed=2)
    res = increment_driver(s, t, eps=0.3, tau=0.5)
    assert [rec["action"] for rec in res["trajectory"]] == ["skew-line", "pseudorandomize", "halt"]
    assert len(recounts) == 2
    assert recounts[0] is s


def test_driver_rejects_a_split_that_leaves_the_candidate_set(monkeypatch):
    real = increment.fiber_mean_increment

    def leaky(s_set, t_set, tau):
        rep = real(s_set, t_set, tau)
        values = rep["_new_s"].values.copy()
        values[np.flatnonzero(~s_set.values)[0]] = True
        rep["_new_s"] = FunctionTable(s_set.p, s_set.m, values)
        return rep

    monkeypatch.setattr(increment, "fiber_mean_increment", leaky)
    s, t = planted_row_instance(3, 2)
    with pytest.raises(AssertionError, match="left the candidate set"):
        increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=False)


def test_driver_empty_candidate_gives_empty_trajectory():
    full = ref.full_set(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    s = FunctionTable(3, 4, np.zeros(81, dtype=bool))
    res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=False)
    assert res["trajectory"] == []
    assert res["halted_because"] == "candidate set is empty"


def test_driver_full_candidate_halts_immediately():
    full = ref.full_set(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    s = t.table
    res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=False)
    assert res["halted_because"] == "candidate set fills the structured set"
    assert res["trajectory"][0]["action"] == "halt"


def test_driver_flags_configured_candidates():
    full = ref.full_set(3, 1)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    s = t.table  # everything: full of configurations
    with pytest.raises(ValueError, match="holds .* nontrivial configurations"):
        increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=True)


def test_driver_accepts_l_free_candidate():
    res6 = search_extremal_L_free(3, 1, "exhaustive")
    s = FunctionTable.from_indices(3, 2, res6["indices"])
    full = ref.full_set(3, 1)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    res = increment_driver(s, t, eps=0.1, tau=0.1, require_l_free=True)
    assert res["halted_because"] != ""
    # every recorded sigma must be a genuine ratio
    for rec in res["trajectory"]:
        assert 0 <= rec["sigma"] <= 1


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
def test_densest_matches_the_candidate_loop(scores):
    # small counts make equal ratios and empty candidates common, so the
    # first-maximum tie rule and the skip are both exercised
    mass = np.array([a + b for a, b in scores], dtype=np.int64)
    inter = np.array([a for a, _ in scores], dtype=np.int64)
    keys = [f"cand{i}" for i in range(len(scores))]
    got = increment._densest(keys, inter, mass)
    assert got == ref.densest_loop(keys, inter.tolist(), mass.tolist())
    if got is not None:
        assert all(type(v) in (float, str, int) for v in got)
