"""Dense tables, indicator sets, pair-space views and file round trips."""

import numpy as np
import pytest

import oracles as orc
from lshape.field import GroupVector, ResourceLimitError, subspace_from_normals
from lshape.tables import (
    FunctionTable,
    IndicatorSet,
    balanced,
    load_any,
    load_set,
    load_table,
    pair_index,
    product_lift,
    save_set,
    save_table,
    slot_index_array,
    unpair_index,
)


def _random_complex(p, m, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    size = p**m
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_pair_index_round_trip():
    n_points = 9
    for x in range(n_points):
        for y in range(n_points):
            pair = pair_index(x, y, n_points)
            assert pair == x + n_points * y
            assert unpair_index(pair, n_points) == (x, y)


def test_kind_validation(tmp_path):
    # the storage dtype is the kind, and carries it into a new table
    for kind, dtype in (("indicator", np.bool_), ("real", np.float64), ("complex", np.complex128)):
        f = FunctionTable(3, 1, [0.0, 1.0, 1.0], kind)
        assert f.values.dtype == dtype and f.kind == kind
        assert FunctionTable(3, 1, f.values).kind == kind
    assert FunctionTable(3, 1, [0, 1, 2]).kind == "real"
    # values from a file are checked against its kind= header
    for kind, bad in (("real", "1.0 0.5"), ("indicator", "0.5 0.0")):
        path = tmp_path / f"bad_{kind}.table"
        path.write_text(f"p=3 m=1 kind={kind}\n0.0 0.0\n{bad}\n1.0 0.0\n")
        with pytest.raises(ValueError):
            load_table(str(path))
    with pytest.raises(ValueError):
        FunctionTable(3, 1, [0.0, 0.5, 1.0], "indicator")
    with pytest.raises(ValueError):
        FunctionTable(3, 1, [0.0, 1j, 1.0], "real")
    with pytest.raises(ValueError):
        FunctionTable(3, 1, [0.0, 1.0], "real")
    with pytest.raises(ValueError):
        FunctionTable(3, 1, [0.0, 1.0, 0.0], "bogus")
    with pytest.raises(ResourceLimitError):
        FunctionTable(3, 30, np.zeros(1), "real")
    for p in (2, 4, 9):  # the modulus must be an odd prime
        with pytest.raises(ValueError):
            FunctionTable(p, 1, np.zeros(p), "real")
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError):
            FunctionTable(3, 1, [0.0, bad, 1.0], "complex")


def test_values_are_frozen():
    f = FunctionTable(3, 1, [1.0, 2.0, 3.0], "real")
    with pytest.raises(ValueError):
        f.values[0] = 9.0


def test_mean_and_bounds():
    f = FunctionTable(3, 1, [1.0, 1.0, 1.0], "real")
    assert f.mean() == 1.0
    assert f.is_one_bounded()
    g = f.scale(1.5)
    assert not g.is_one_bounded()
    assert g.max_modulus() == pytest.approx(1.5)


def test_translate_matches_oracle():
    p, m = 3, 2
    vals = _random_complex(p, m, 0)
    f = FunctionTable(p, m, vals, "complex")
    for h in range(p**m):
        shifted = f.translate(h)
        for x in range(p**m):
            assert shifted.values[x] == vals[orc.add_indices(x, h, p, m)]
    g = f.translate(GroupVector.from_index(p, m, 4))
    assert np.array_equal(g.values, f.translate(4).values)


def test_pointwise_algebra():
    f = FunctionTable(3, 1, [1.0, 2.0, 3.0], "real")
    g = FunctionTable(3, 1, [1j, 0.0, 1.0], "complex")
    assert np.array_equal(f.times(g).values, f.values * g.values)
    assert np.array_equal(f.plus(g).values, f.values + g.values)
    assert np.array_equal(f.conj().values, np.conj(f.values))
    assert np.array_equal(f.minus_const(2.0).values, f.values - 2.0)
    assert f.minus_const(2.0).kind == "real"
    assert f.times(g).kind == f.plus(g).kind == "complex"
    ind = FunctionTable(3, 1, [True, False, True])
    other = FunctionTable(3, 1, [True, True, False])
    assert ind.times(other).kind == "indicator"
    assert ind.times(other).values.tolist() == [True, False, False]
    assert ind.minus_const(0.5).values.dtype == np.float64
    assert ind.plus(ind).values.tolist() == [2.0, 0.0, 2.0]  # a sum, not a logical or
    for t in (ind, f, g):
        assert t.conj().values.dtype == t.values.dtype
    assert np.array_equal(ind.conj().values, ind.values)


def test_pair_grid_orientation():
    # grid[x, y] must be the value at canonical pair index x + N*y
    p, n = 3, 1
    vals = _random_complex(p, 2 * n, 3)
    f = FunctionTable(p, 2 * n, vals, "complex")
    grid = f.as_pair_grid()
    for x in range(3):
        for y in range(3):
            assert grid[x, y] == vals[x + 3 * y]
    back = FunctionTable.from_pair_grid(p, n, grid)
    assert np.array_equal(back.values, vals)


def test_indicator_set_counts():
    mask = np.array([1, 0, 1, 1, 0, 0, 0, 1, 0], dtype=bool)
    s = IndicatorSet.from_mask(3, 2, mask)
    assert s.cardinality == 4
    assert s.density == pytest.approx(4 / 9)
    assert IndicatorSet.full(3, 2).cardinality == 9
    assert IndicatorSet.empty(3, 2).cardinality == 0
    assert s.mask.tolist() == mask.tolist()
    assert s.member_indices().tolist() == [0, 2, 3, 7]
    assert s.contains_index(3) and not s.contains_index(4)
    with pytest.raises(ValueError):
        s.mask[1] = True  # membership is read-only
    with pytest.raises(ValueError):
        IndicatorSet.from_table(FunctionTable(3, 2, mask * 0.5, "real"))


def test_balanced_function():
    s = IndicatorSet.from_mask(3, 1, np.array([1, 1, 0], dtype=bool))
    g = balanced(s)
    assert abs(g.mean()) < 1e-15
    assert g.values[0] == pytest.approx(1 - 2 / 3)
    assert g.values[2] == pytest.approx(-2 / 3)


def test_slot_index_arrays():
    p, n = 3, 1
    size = p**n
    for slot, expect in [
        ("y", lambda x, y: y),
        ("x+y", lambda x, y: orc.add_indices(x, y, p, n)),
        ("2x+y", lambda x, y: orc.add_indices(orc.scale_index(2, x, p, n), y, p, n)),
        ("x", lambda x, y: x),
    ]:
        arr = slot_index_array(p, n, slot)
        for x in range(size):
            for y in range(size):
                assert int(arr[x + size * y]) == expect(x, y)
    with pytest.raises(ValueError):
        slot_index_array(p, n, "3x+y")


def test_product_lift_pointwise():
    p, n = 3, 1
    size = p**n
    a = _random_complex(p, n, 5)
    at = FunctionTable(p, n, a, "complex")
    for slot, expect in [
        ("y", lambda x, y: a[y]),
        ("x+y", lambda x, y: a[orc.add_indices(x, y, p, n)]),
        ("2x+y", lambda x, y: a[orc.add_indices(orc.scale_index(2, x, p, n), y, p, n)]),
    ]:
        lifted = product_lift(at, slot)
        assert lifted.m == 2 * n
        for x in range(size):
            for y in range(size):
                assert lifted.values[x + size * y] == expect(x, y)


def test_restrict_parameterizes_coset():
    p, m = 3, 2
    vals = _random_complex(p, m, 8)
    f = FunctionTable(p, m, vals, "complex")
    coset = subspace_from_normals(p, m, [(1, 2)], [1])
    r = f.restrict(coset)
    members = coset.member_indices()
    assert r.m == coset.dim
    assert np.array_equal(r.values, vals[members])


def test_set_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    mask = rng.random(27) < 0.4
    s = IndicatorSet.from_mask(3, 3, mask)
    path = tmp_path / "s.txt"
    save_set(str(path), s)
    back = load_set(str(path))
    assert back.p == 3 and back.m == 3
    assert np.array_equal(back.table.values, s.table.values)
    assert isinstance(load_any(str(path)), IndicatorSet)


def test_table_file_round_trip(tmp_path):
    vals = _random_complex(3, 2, 13)
    f = FunctionTable(3, 2, vals, "complex")
    path = tmp_path / "f.txt"
    save_table(str(path), f)
    back = load_table(str(path))
    assert back.p == 3 and back.m == 2 and back.kind == "complex"
    assert np.abs(back.values - vals).max() < 1e-12
    assert isinstance(load_any(str(path)), FunctionTable)
    # each kind round-trips bit for bit, in the bytes complex storage wrote
    cases = [
        ([True, False, True], "indicator", "1.0 0.0\n0.0 0.0\n1.0 0.0\n"),
        ([0.5, -0.25, 1 / 3], "real", "0.5 0.0\n-0.25 0.0\n0.3333333333333333 0.0\n"),
        ([0.5 + 0.25j, complex(0, -1), 1 / 3], "complex", "0.5 0.25\n0.0 -1.0\n0.3333333333333333 0.0\n"),
    ]
    for values, kind, body in cases:
        f = FunctionTable(3, 1, values)
        path = tmp_path / f"{kind}.table"
        save_table(str(path), f)
        assert path.read_text() == f"p=3 m=1 kind={kind}\n" + body
        back = load_table(str(path))
        assert back.kind == kind
        assert back.values.tobytes() == f.values.tobytes()
