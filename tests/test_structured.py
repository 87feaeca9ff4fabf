"""Fiber families, the product obstruction set, and fiber levels."""

import numpy as np
import pytest

import oracles as orc
import references as ref
from lshape.field import digits_of, subspace_from_normals
from lshape.structured import FiberFamily, StructuredProductSet, random_family
from lshape.tables import FunctionTable


def _base(p, n, seed, density=0.7):
    rng = np.random.default_rng(seed)
    mask = rng.random(p**n) < density
    mask[0] = True
    return FunctionTable(p, n, mask)


def test_full_family_is_base_times_everything():
    base = _base(3, 2, 1)
    fam = FiberFamily.full(base)
    assert fam.d == 0 and fam.rho == 1.0
    assert fam.table.cardinality == base.cardinality * 9
    vals = fam.table.values.real
    bvals = base.values.real
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
    u = (1, 2)
    fam = ref.from_phi_map(base, phi, u)
    assert fam.table.cardinality == base.cardinality * p ** (n - 1)
    vals = fam.table.values.real
    bvals = base.values.real
    for x in range(p**n):
        for y in range(p**n):
            rel = [
                (a - b) % p
                for a, b in zip(orc.digits_le(y, p, n), u)
            ]
            member = bvals[x] == 1.0 and sum(c * r for c, r in zip(phi[x], rel)) % p == 0
            assert (vals[x + p**n * y] == 1.0) == member


def test_phi_map_rejects_degenerate_rows():
    p, n = 3, 2
    base = FunctionTable.from_indices(p, n, [0, 4])
    phi = np.zeros((9, 2), dtype=np.int64)
    phi[0] = (1, 0)  # x = 4 left at zero, and 4 is in the base
    with pytest.raises(ValueError):
        ref.from_phi_map(base, phi, (0, 0))
    # a zero row off the base is harmless
    phi2 = np.zeros((9, 2), dtype=np.int64)
    phi2[0] = (1, 0)
    phi2[4] = (0, 1)
    fam = ref.from_phi_map(base, phi2, (0, 0))
    assert fam.table.cardinality == 2 * 3


def test_dependent_normals_are_refused_at_the_first_base_point():
    p, n, d = 3, 2, 2
    normals = np.zeros((9, d, n), dtype=np.int64)
    normals[:] = [[1, 0], [0, 1]]
    normals[2] = [[1, 2], [2, 1]]  # second row is twice the first, but x = 2 is off the base
    normals[4] = [[0, 1], [0, 2]]
    normals[7] = [[1, 1], [0, 0]]
    base = FunctionTable.from_indices(p, n, [0, 1, 4, 7])
    with pytest.raises(ValueError, match=r"^normals at x = 4 are dependent; codimension would drop below 2$"):
        FiberFamily.from_normals(base, (0, 0), d, normals)
    normals[4] = [[2, 0], [1, 1]]
    with pytest.raises(ValueError, match=r"^normals at x = 7 are dependent"):
        FiberFamily.from_normals(base, (0, 0), d, normals)
    normals[7] = [[1, 1], [1, 2]]
    fam = FiberFamily.from_normals(base, (0, 0), d, normals)
    assert fam.table.cardinality == base.cardinality
    assert np.array_equal(fam.base.values, base.values)


def test_table_built_family_refuses_a_row_of_the_wrong_size():
    p, n, d = 3, 2, 1
    grid = random_family(p, n, d, seed=3).table.as_pair_grid().copy()
    grid[5] = False
    grid[5, [1, 7]] = True
    with pytest.raises(ValueError, match=r"^the fiber at x = 5 has 2 points, not p\^\(n - d\) = 3$"):
        FiberFamily(p, n, d, FunctionTable.from_pair_grid(p, n, grid))
    grid[5] = True
    with pytest.raises(ValueError, match=r"^the fiber at x = 5 has 9 points"):
        FiberFamily(p, n, d, FunctionTable.from_pair_grid(p, n, grid))
    # an empty row is a point off the base
    grid[5] = False
    fam = FiberFamily(p, n, d, FunctionTable.from_pair_grid(p, n, grid))
    assert np.array_equal(fam.base.values, np.arange(9) != 5)


def test_fiber_subspace_members():
    p, n, d = 3, 2, 1
    rng = np.random.default_rng(5)
    normals, u = ref.random_normals(p, n, d, rng), rng.integers(0, p, size=n)
    fam = FiberFamily.from_normals(ref.full_set(p, n), u, d, normals)
    vals = fam.table.values.real
    for x in range(9):
        sub = ref.fiber_subspace(p, normals, u, x)
        members = set(int(i) for i in sub.member_indices())
        for y in range(9):
            assert (vals[x + 9 * y] == 1.0) == (y in members)
        assert ref.contains(sub, ref.offset(fam.base, u))


def test_mixed_family_alignment():
    p, n, d = 3, 2, 1
    rng = np.random.default_rng(8)
    base = _base(p, n, 9)
    normals = np.zeros((9, d, n), dtype=np.int64)
    offsets = rng.integers(0, p, size=(9, n))
    for x in range(9):
        while not normals[x].any():
            normals[x] = rng.integers(0, p, size=(d, n))
    mixed = FiberFamily.from_normals(base, offsets, d, normals)
    assert mixed.table.cardinality == base.cardinality * 3
    # per-point offsets have no shared offset
    with pytest.raises(ValueError):
        ref.offset(base, offsets)

    for u in range(9):
        expect = {int(x) for x in base.member_indices() if ref.contains(ref.fiber_subspace(p, normals, offsets, x), u)}
        assert set(int(i) for i in mixed.aligned_base_at(u).member_indices()) == expect
    u = 3
    a_u = mixed.aligned_base_at(u)
    if a_u.cardinality:
        aligned = mixed.restrict(mixed.aligned_base_at(u))
        assert aligned.base.cardinality == a_u.cardinality
        # the same fibers rebuilt with u as their shared offset
        rebuilt = FiberFamily.from_normals(a_u, digits_of(p, n, u), d, normals)
        assert np.array_equal(aligned.table.values, rebuilt.table.values)


def test_common_offset_lies_on_every_kept_fiber():
    p, n, d = 5, 2, 1
    rng = np.random.default_rng(21)
    mixed = FiberFamily.from_normals(
        _base(p, n, 22), rng.integers(0, p, size=(p**n, n)), d, ref.random_normals(p, n, d, rng)
    )
    phi = mixed.table.as_pair_grid()
    for u in range(p**n):
        aligned = mixed.restrict(mixed.aligned_base_at(u))
        grid = aligned.table.as_pair_grid()
        # column u of the new Phi is the new base, which is A_u
        assert np.array_equal(grid[:, u], aligned.base.values)
        assert np.array_equal(aligned.base.values, mixed.aligned_base_at(u).values)
        # and the kept fibers are the old ones
        assert np.array_equal(grid, phi & aligned.base.values[:, None])


def test_alignment_counting_identity():
    # every family point (x, y) is counted at u = y exactly once, so the
    # aligned base sizes sum to the family cardinality
    mixedes = []
    rng = np.random.default_rng(0)
    for _ in range(3):
        normals, u = ref.random_normals(3, 2, 1, rng), rng.integers(0, 3, size=2)
        per_point = np.repeat(u[None, :], 9, axis=0)
        mixed = FiberFamily.from_normals(ref.full_set(3, 2), per_point, 1, normals)
        assert np.array_equal(ref.offset(mixed.base, per_point), u)
        assert np.array_equal(mixed.table.values, FiberFamily.from_normals(mixed.base, u, 1, normals).table.values)
        mixedes.append(mixed)
    for mixed in mixedes:
        total = sum(mixed.aligned_base_at(u).cardinality for u in range(9))
        assert total == mixed.table.cardinality


def test_product_set_membership():
    p, n = 3, 1
    rng = np.random.default_rng(12)
    b = FunctionTable(p, n, np.array([1, 1, 0], dtype=bool))
    c = FunctionTable(p, n, np.array([1, 0, 1], dtype=bool))
    d_set = FunctionTable(p, n, np.array([0, 1, 1], dtype=bool))
    fam = FiberFamily.full(ref.full_set(p, n))
    t = StructuredProductSet(b, c, d_set, fam)
    vals = t.table.values.real
    for x in range(3):
        for y in range(3):
            want = (
                b.values.real[y] == 1.0
                and c.values.real[(x + y) % 3] == 1.0
                and d_set.values.real[(2 * x + y) % 3] == 1.0
            )
            assert (vals[x + 3 * y] == 1.0) == want
    assert t.table.density == pytest.approx(t.table.cardinality / 9)


def test_audit_grids_are_cached_read_only_sums():
    from lshape.structured import _audit_grids

    p, n = 3, 2
    size = p**n
    sums, skews = _audit_grids(p, n)
    for x in range(size):
        for y in range(size):
            assert sums[x, y] == orc.add_indices(x, y, p, n)
            assert skews[x, y] == orc.add_indices(orc.scale_index(2, x, p, n), y, p, n)
    # cached per (p, n), so no caller may write to them
    again = _audit_grids(p, n)
    assert again[0] is sums and again[1] is skews
    assert not sums.flags.writeable and not skews.flags.writeable


def test_phi_blocks_agree_with_one_block(monkeypatch):
    import lshape.structured as structured

    for p, n, d in ((3, 2, 1), (3, 3, 2), (5, 2, 1), (3, 2, 0)):
        whole = random_family(p, n, d, seed=9, base_density=0.6)
        # one base point per block
        monkeypatch.setattr(structured, "_PHI_BLOCK", 1)
        blocked = random_family(p, n, d, seed=9, base_density=0.6)
        monkeypatch.undo()
        assert np.array_equal(blocked.table.values, whole.table.values)


def test_product_set_audit_catches_a_corrupted_lift(monkeypatch):
    import lshape.structured as structured
    from lshape.tables import product_lift

    p, n = 3, 2
    size = p**n

    def corrupted(a, slot):
        # drop the pairs (x, y) = (5, 0) and (2, 7) from the lifted y factor
        vals = product_lift(a, slot).values.copy()
        if slot == "y":
            vals[[5, 2 + size * 7]] = False
        return FunctionTable(p, 2 * n, vals)

    full = ref.full_set(p, n)
    monkeypatch.setattr(structured, "product_lift", corrupted)
    with pytest.raises(AssertionError, match=r"on row x = 2$"):
        StructuredProductSet(full, full, full, FiberFamily.full(full))


def test_product_set_rejects_mismatched_factors():
    fam = FiberFamily.full(ref.full_set(3, 1))
    wrong = ref.full_set(3, 2)
    with pytest.raises(ValueError):
        StructuredProductSet(wrong, ref.full_set(3, 1), ref.full_set(3, 1), fam)


def test_real_tables_are_refused_by_name():
    ones = FunctionTable(3, 1, np.ones(3))
    assert ones.kind == "real"
    full = ref.full_set(3, 1)
    with pytest.raises(ValueError, match="base must be an indicator table"):
        FiberFamily.full(ones)
    fam = FiberFamily.full(full)
    for pos, name in enumerate(("y_set", "sum_set", "skew_set")):
        factors = [full, full, full]
        factors[pos] = ones
        with pytest.raises(ValueError, match=f"{name} must be an indicator table"):
            StructuredProductSet(*factors, fam)


def test_fiber_levels_partition():
    p, n = 3, 2
    full = ref.full_set(p, n)
    phi = np.tile(np.array([[1, 0]]), (9, 1))
    fam = ref.from_phi_map(full, phi, (0, 0))
    normals = phi[:, None, :]
    whole = subspace_from_normals(p, n, [], [])
    levels = ref.fiber_levels(fam, normals, (0, 0), whole, whole)
    assert [lv.i for lv in levels] == [0, 1]
    # a codimension-1 fiber fills a p-th of the full cell: everything at level 1
    assert levels[0].exact.cardinality == 0
    assert levels[1].exact.cardinality == fam.table.cardinality
    assert levels[1].cumulative.cardinality == fam.table.cardinality

    inside = subspace_from_normals(p, n, [(1, 0)], [0])
    levels2 = ref.fiber_levels(fam, normals, (0, 0), whole, inside)
    # the y-coset equals every fiber, so each fiber fills its cell: level 0
    assert levels2[0].exact.cardinality == fam.table.cardinality
    assert levels2[1].exact.cardinality == 0


def test_base_uniformity_transfer():
    for seed in range(8):
        fam = random_family(3, 2, 1, seed=seed, base_density=0.6)
        for s in (1, 2):
            assert ref.base_uniformity_transfer_check(fam, s)["holds"]


def test_random_family_is_deterministic():
    a = random_family(3, 2, 1, seed=7, base_density=0.5)
    b = random_family(3, 2, 1, seed=7, base_density=0.5)
    assert np.array_equal(a.base.values, b.base.values)
    assert np.array_equal(a.table.values, b.table.values)
    c = random_family(3, 2, 1, seed=8, base_density=0.5)
    assert not np.array_equal(a.table.values, c.table.values)


def test_random_family_refuses_a_codimension_outside_zero_to_n():
    # no d x n matrix has rank d > n, so redrawing normals would never end
    for d in (-1, 3):
        with pytest.raises(ValueError, match=r"^codimension d = -?\d outside \[0, 2\]$"):
            random_family(3, 2, d, seed=0)


def test_random_family_draws_the_per_point_stream(monkeypatch):
    # a batch holds one candidate per point still to fill and its rank-d
    # candidates go to those points in draw order, so the normals and the
    # offset drawn after them are the per-point loop's; d = n at p = 3
    # rejects over half the candidates.  Phi is from_normals of the base,
    # the offset and the normals, so the two draws are compared through
    # the arguments they pass it, which skips 144 Phi builds at p = 11
    drawn = []
    monkeypatch.setattr(FiberFamily, "from_normals",
                        classmethod(lambda cls, base, u, d, normals: drawn.append((base.values, u, normals))))
    for p in (3, 5, 7, 11):
        for n in range(4):
            for d in range(n + 1):
                for seed in range(6):
                    for density in (1.0, 0.85, 0.3):
                        random_family(p, n, d, seed, density)
                        ref.random_family_loop(p, n, d, seed, density)
                        got, want = drawn
                        drawn.clear()
                        for a, b in zip(got, want):
                            assert np.array_equal(a, b), (p, n, d, seed, density)
