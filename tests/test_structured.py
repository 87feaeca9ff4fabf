"""Fiber families, the product obstruction set, and its statistics."""

import itertools

import numpy as np
import pytest

import oracles as orc
from lshape.field import GroupVector, subspace_from_normals
from lshape.linforms import LinearFormSystem
from lshape.structured import (
    FiberFamily,
    MixedFiberFamily,
    StructuredProductSet,
    approx_poly_proportion,
    base_uniformity_transfer_check,
    face_derivative_statistic,
    fiber_levels,
    fiber_stats,
    intersection_codim_statistic,
    load_fibers,
    random_family,
    save_fibers,
)
from lshape.tables import IndicatorSet


def _base(p, n, seed, density=0.7):
    rng = np.random.default_rng(seed)
    mask = rng.random(p**n) < density
    mask[0] = True
    return IndicatorSet.from_mask(p, n, mask)


def test_full_family_is_base_times_everything():
    base = _base(3, 2, 1)
    fam = FiberFamily.full(base)
    assert fam.d == 0 and fam.rho == 1.0
    assert fam.table.cardinality == base.cardinality * 9
    vals = fam.table.table.values.real
    bvals = base.table.values.real
    for x in range(9):
        for y in range(9):
            assert vals[x + 9 * y] == bvals[x]


def test_phi_map_membership_and_cardinality():
    p, n = 3, 2
    base = _base(p, n, 2)
    rng = np.random.default_rng(3)
    phi = rng.integers(0, p, size=(p**n, n))
    for x in range(p**n):
        while not phi[x].any():
            phi[x] = rng.integers(0, p, size=n)
    u = GroupVector(p, (1, 2))
    fam = FiberFamily.from_phi_map(base, phi, u)
    assert fam.table.cardinality == base.cardinality * p ** (n - 1)
    vals = fam.table.table.values.real
    bvals = base.table.values.real
    for x in range(p**n):
        for y in range(p**n):
            rel = [
                (a - b) % p
                for a, b in zip(orc.digits_le(y, p, n), u.digits)
            ]
            member = bvals[x] == 1.0 and sum(c * r for c, r in zip(phi[x], rel)) % p == 0
            assert (vals[x + p**n * y] == 1.0) == member


def test_phi_map_rejects_degenerate_rows():
    p, n = 3, 2
    base = IndicatorSet.from_indices(p, n, [0, 4])
    phi = np.zeros((9, 2), dtype=np.int64)
    phi[0] = (1, 0)  # x = 4 left at zero, and 4 is in the base
    with pytest.raises(ValueError):
        FiberFamily.from_phi_map(base, phi, GroupVector.zero(p, n))
    # a zero row off the base is harmless
    phi2 = np.zeros((9, 2), dtype=np.int64)
    phi2[0] = (1, 0)
    phi2[4] = (0, 1)
    fam = FiberFamily.from_phi_map(base, phi2, GroupVector.zero(p, n))
    assert fam.table.cardinality == 2 * 3


def test_fiber_subspace_members():
    fam = random_family(3, 2, 1, seed=5)
    vals = fam.table.table.values.real
    for x in range(9):
        sub = fam.fiber_subspace(x)
        members = set(int(i) for i in sub.member_indices())
        for y in range(9):
            assert (vals[x + 9 * y] == 1.0) == (y in members)
        assert sub.contains(fam.offset)


def test_mixed_family_alignment():
    p, n, d = 3, 2, 1
    rng = np.random.default_rng(8)
    base = _base(p, n, 9)
    normals = np.zeros((9, d, n), dtype=np.int64)
    offsets = rng.integers(0, p, size=(9, n))
    for x in range(9):
        while not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
    mixed = MixedFiberFamily(p, n, base, offsets, d, normals)
    assert mixed.table.cardinality == base.cardinality * 3

    u = GroupVector(p, (0, 1))
    a_u = mixed.aligned_base_at(u)
    vals = mixed.table.table.values.real
    expect = {x for x in range(9) if vals[x + 9 * u.index] == 1.0}
    assert set(int(i) for i in a_u.member_indices()) == expect
    if a_u.cardinality:
        aligned = mixed.with_common_offset(u)
        assert aligned.base.cardinality == a_u.cardinality
        assert aligned.offset == u


def test_alignment_counting_identity():
    # every family point (x, y) is counted at u = y exactly once, so the
    # aligned base sizes sum to the family cardinality
    mixedes = []
    for seed in (0, 1, 2):
        fam = random_family(3, 2, 1, seed=seed)
        mixed = MixedFiberFamily(
            fam.p, fam.n, fam.base,
            np.repeat(fam.offset.as_array()[None, :], 9, axis=0),
            fam.d, fam.normals,
        )
        mixedes.append(mixed)
    for mixed in mixedes:
        total = sum(mixed.aligned_base_at(GroupVector.from_index(3, 2, u)).cardinality
                    for u in range(9))
        assert total == mixed.table.cardinality


def test_product_set_membership():
    p, n = 3, 1
    rng = np.random.default_rng(12)
    b = IndicatorSet.from_mask(p, n, np.array([1, 1, 0], dtype=bool))
    c = IndicatorSet.from_mask(p, n, np.array([1, 0, 1], dtype=bool))
    d_set = IndicatorSet.from_mask(p, n, np.array([0, 1, 1], dtype=bool))
    fam = FiberFamily.full(IndicatorSet.full(p, n))
    t = StructuredProductSet(b, c, d_set, fam)
    vals = t.table.table.values.real
    for x in range(3):
        for y in range(3):
            want = (
                b.table.values.real[y] == 1.0
                and c.table.values.real[(x + y) % 3] == 1.0
                and d_set.table.values.real[(2 * x + y) % 3] == 1.0
            )
            assert (vals[x + 3 * y] == 1.0) == want
    rep = t.density_report()
    assert rep["density"] == pytest.approx(t.table.cardinality / 9)


def test_product_set_audit_catches_a_corrupted_lift(monkeypatch):
    import lshape.structured as structured
    from lshape.tables import FunctionTable, product_lift

    p, n = 3, 2
    size = p**n

    def corrupted(a, slot):
        # drop the pairs (x, y) = (5, 0) and (2, 7) from the lifted y factor
        vals = product_lift(a, slot).values.copy()
        if slot == "y":
            vals[[5, 2 + size * 7]] = False
        return FunctionTable(p, 2 * n, vals)

    full = IndicatorSet.full(p, n)
    monkeypatch.setattr(structured, "product_lift", corrupted)
    with pytest.raises(AssertionError, match=r"on row x = 2$"):
        StructuredProductSet(full, full, full, FiberFamily.full(full))


def test_product_set_rejects_mismatched_factors():
    fam = FiberFamily.full(IndicatorSet.full(3, 1))
    wrong = IndicatorSet.full(3, 2)
    with pytest.raises(ValueError):
        StructuredProductSet(wrong, IndicatorSet.full(3, 1), IndicatorSet.full(3, 1), fam)


def test_fiber_stats_full_set_has_no_deviation():
    full = IndicatorSet.full(3, 2)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    rep = fiber_stats(t, 0.05)
    for pencil in ("rows", "columns", "anti_diagonals", "skew_lines"):
        assert rep[pencil]["max_deviation"] == pytest.approx(0.0, abs=1e-12)
        assert rep[pencil]["deviating_proportion"] == 0.0


def test_fiber_stats_sees_planted_row_bias():
    p, n = 3, 2
    full = IndicatorSet.full(p, n)
    half = IndicatorSet.from_mask(p, n, np.arange(9) < 6)
    t = StructuredProductSet(full, full, full, FiberFamily.full(half))
    rep = fiber_stats(t, 0.05)
    # the base kills three rows entirely, so row densities split 0 / 1
    assert rep["rows"]["max_deviation"] > 0.3
    assert rep["columns"]["max_deviation"] < 0.34  # column target includes alpha


def test_fiber_levels_partition():
    p, n = 3, 2
    full = IndicatorSet.full(p, n)
    phi = np.tile(np.array([[1, 0]]), (9, 1))
    fam = FiberFamily.from_phi_map(full, phi, GroupVector.zero(p, n))
    whole = subspace_from_normals(p, n, [], [])
    levels = fiber_levels(fam, whole, whole)
    assert [lv.i for lv in levels] == [0, 1]
    # a codimension-1 fiber fills a p-th of the full cell: everything at level 1
    assert levels[0].exact.cardinality == 0
    assert levels[1].exact.cardinality == fam.table.cardinality
    assert levels[1].cumulative.cardinality == fam.table.cardinality

    inside = subspace_from_normals(p, n, [(1, 0)], [0])
    levels2 = fiber_levels(fam, whole, inside)
    # the y-coset equals every fiber, so each fiber fills its cell: level 0
    assert levels2[0].exact.cardinality == fam.table.cardinality
    assert levels2[1].exact.cardinality == 0


def test_base_uniformity_transfer():
    for seed in range(8):
        fam = random_family(3, 2, 1, seed=seed, base_density=0.6)
        for s in (1, 2):
            assert base_uniformity_transfer_check(fam, s)["holds"]


def test_approx_poly_constant_and_linear():
    p, n = 3, 1
    const = np.tile(np.array([[2]]), (3, 1))
    rep = approx_poly_proportion(const, 1, p, n)
    assert rep["exact"] and rep["proportion"] == 1.0

    mat = np.array([[2]])
    linear = np.array([(mat @ np.array(orc.digits_le(x, p, n))) % p for x in range(3)])
    rep1 = approx_poly_proportion(linear, 1, p, n)
    assert rep1["proportion"] < 1.0  # first differences see the slope
    rep2 = approx_poly_proportion(linear, 2, p, n)
    assert rep2["exact"] and rep2["proportion"] == 1.0


def test_approx_poly_respects_base():
    p, n = 3, 1
    base = IndicatorSet.from_indices(p, n, [0])
    phi = np.zeros((3, 1), dtype=np.int64)
    rep = approx_poly_proportion(phi, 1, p, n, base=base)
    # only x = h = 0 keeps both cube corners in the base
    assert rep["admissible"] == 1
    assert rep["proportion"] == 1.0


def _cube_oracle(phi, base, p, n, x, hs, faces):
    """(admissible, vanishing) of the difference cube through x with sides
    hs, walked corner by corner with plain index additions."""
    corners = {}
    for bits in itertools.product((0, 1), repeat=len(hs)):
        pt = x
        for bit, h in zip(bits, hs):
            pt = orc.add_indices(pt, h, p, n) if bit else pt
        corners[bits] = pt
    if not all(base[pt] for pt in corners.values()):
        return 0, 0
    if faces:
        groups = [[w for w in corners if w[i] == e] for i in range(len(hs)) for e in (0, 1)]
    else:
        groups = [list(corners)]
    vanish = all(
        all(sum((-1) ** sum(w) * int(phi[corners[w]][j]) for w in group) % p == 0 for j in range(n))
        for group in groups
    )
    return 1, int(vanish)


def test_cube_statistics_match_corner_walk():
    p, n = 3, 2
    size = p**n
    rng = np.random.default_rng(21)
    phi = rng.integers(0, p, size=(size, n))
    base = _base(p, n, 22, density=0.8)
    for s, faces, stat in ((1, False, approx_poly_proportion), (0, True, face_derivative_statistic)):
        sides = 2 * s + 2 if faces else s
        args = (phi, s, p, n, base) if not faces else (phi, base, s, p, n)
        exact = stat(*args)
        want = np.sum([_cube_oracle(phi, base.mask, p, n, t[0], t[1:], faces)
                       for t in itertools.product(range(size), repeat=sides + 1)], axis=0)
        assert exact["exact"] and [exact["admissible"], exact["vanishing"]] == want.tolist()
        # the sampled branch draws x, then the sides, from the seeded generator
        sampled = stat(*args, cap=1, seed=5, samples=300)
        draws = np.random.default_rng(5)
        want = np.sum([_cube_oracle(phi, base.mask, p, n, int(draws.integers(size)),
                                    [int(draws.integers(size)) for _ in range(sides)], faces)
                       for _ in range(300)], axis=0)
        assert not sampled["exact"] and [sampled["admissible"], sampled["vanishing"]] == want.tolist()


def test_face_derivative_statistic_constant_vs_linear():
    p, n = 3, 1
    const = np.tile(np.array([[1]]), (3, 1))
    rep = face_derivative_statistic(const, None, 0, p, n)
    assert rep["exact"] and rep["proportion"] == 1.0
    linear = np.array([[(2 * x) % 3] for x in range(3)])
    rep_lin = face_derivative_statistic(linear, None, 0, p, n)
    assert rep_lin["proportion"] < 1.0


def test_intersection_codim_statistic():
    p, n = 3, 2
    full = IndicatorSet.full(p, n)
    fam0 = FiberFamily.full(full)
    pair_system = LinearFormSystem.from_rows(p, [[1, 0], [0, 1]])
    shifts = [GroupVector.zero(p, n)] * 2
    rep0 = intersection_codim_statistic(fam0, pair_system, shifts)
    assert rep0["proportion"] == 0.0  # d = 0 never degenerates

    # constant normals: two stacked copies have rank 1, never the generic 2
    phi = np.tile(np.array([[1, 0]]), (9, 1))
    fam1 = FiberFamily.from_phi_map(full, phi, GroupVector.zero(p, n))
    rep1 = intersection_codim_statistic(fam1, pair_system, shifts)
    assert rep1["generic_codim"] == 2
    assert rep1["proportion"] == 1.0


def test_random_family_is_deterministic():
    a = random_family(3, 2, 1, seed=7, base_density=0.5)
    b = random_family(3, 2, 1, seed=7, base_density=0.5)
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.table.table.values, b.table.table.values)
    c = random_family(3, 2, 1, seed=8, base_density=0.5)
    assert not np.array_equal(a.table.table.values, c.table.table.values)


def test_fiber_file_round_trip(tmp_path):
    fam = random_family(3, 2, 1, seed=4, base_density=0.7)
    path = tmp_path / "fam.txt"
    save_fibers(str(path), fam)
    back = load_fibers(str(path))
    assert back.p == fam.p and back.n == fam.n and back.d == fam.d
    assert back.offset == fam.offset
    assert np.array_equal(back.table.table.values, fam.table.table.values)
