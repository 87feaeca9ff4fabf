"""Dense tables, sets as indicator tables, pair-space views and file round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
import references as ref
from lshape.field import ResourceLimitError, subspace_from_normals
from lshape.tables import (
    FunctionTable,
    load_any,
    load_set,
    load_table,
    line_counts,
    line_means,
    product_lift,
    save_set,
    save_table,
    slot_index_array,
)


def _random_complex(p, m, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    size = p**m
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


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
    for p in (1, 2, 4, 6, 9, 15):  # the modulus must be an odd prime
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
    g = FunctionTable(3, 1, f.values * 1.5)
    assert not g.is_one_bounded()
    assert g.max_modulus() == pytest.approx(1.5)


def test_pointwise_algebra():
    f = FunctionTable(3, 1, [1.0, 2.0, 3.0], "real")
    g = FunctionTable(3, 1, [1j, 0.0, 1.0], "complex")
    assert np.array_equal(f.times(g).values, f.values * g.values)
    assert np.array_equal(f.conj().values, np.conj(f.values))
    assert np.array_equal(f.minus_const(2.0).values, f.values - 2.0)
    assert f.minus_const(2.0).kind == "real"
    assert f.times(g).kind == "complex"
    ind = FunctionTable(3, 1, [True, False, True])
    other = FunctionTable(3, 1, [True, True, False])
    assert ind.times(other).kind == "indicator"
    assert ind.times(other).values.tolist() == [True, False, False]
    assert ind.minus_const(0.5).values.dtype == np.float64
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


def test_indicator_set_counts():
    mask = np.array([1, 0, 1, 1, 0, 0, 0, 1, 0], dtype=bool)
    s = FunctionTable(3, 2, mask)
    assert s.kind == "indicator"
    assert s.cardinality == 4 and type(s.cardinality) is int
    assert s.density == 4 / 9
    assert FunctionTable(3, 2, np.ones(9, dtype=bool)).cardinality == 9
    assert FunctionTable(3, 2, np.zeros(9, dtype=bool)).cardinality == 0
    assert s.member_indices().tolist() == [0, 2, 3, 7]
    with pytest.raises(ValueError):
        s.values[1] = True  # membership is read-only
    # a 0/1 int array makes a real table, not a set
    assert FunctionTable(3, 2, mask.astype(int)).kind == "real"
    # indices are deduplicated and range-checked, even past int64
    assert np.array_equal(FunctionTable.from_indices(3, 2, [7, 0, 3, 2, 3]).values, mask)
    assert FunctionTable.from_indices(3, 2, []).cardinality == 0
    for bad in ([9], [-1], [10**30]):
        with pytest.raises(ValueError, match="out of range"):
            FunctionTable.from_indices(3, 2, bad)


def test_balanced_function():
    s = FunctionTable(3, 1, np.array([1, 1, 0], dtype=bool))
    g = ref.balanced(s)
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
        # cached per (p, n, slot), so no caller may write to it
        assert slot_index_array(p, n, slot) is arr and not arr.flags.writeable
    with pytest.raises(ValueError):
        slot_index_array(p, n, "3x+y")


def test_line_means_match_oracle():
    rng = np.random.default_rng(9)
    for p in (3, 5):
        for n in (1, 2, 3):
            size = p**n
            grid = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            # the rows x = w are the y-columns of the transposed grid
            for slot, c, oracle_grid in (("x", 0, grid.T), ("y", 0, grid), ("x+y", 1, grid), ("2x+y", 2, grid)):
                got = line_means(grid, p, n, slot)
                want = orc.line_means_oracle(oracle_grid.tolist(), p, n, c)
                assert np.allclose(got, want, rtol=0, atol=1e-12)
                # pair-grid views are F-ordered; the layout must not change a bit
                assert np.array_equal(line_means(np.asfortranarray(grid), p, n, slot), got)


def test_line_counts_match_oracle():
    rng = np.random.default_rng(10)
    for p in (3, 5):
        for n in (1, 2, 3):
            size = p**n
            grid = rng.random((size, size)) < 0.4
            # the rows x = w are the y-columns of the transposed grid
            for slot, c, oracle_grid in (("x", 0, grid.T), ("y", 0, grid), ("x+y", 1, grid), ("2x+y", 2, grid)):
                got = line_counts(grid, p, n, slot)
                assert got.dtype == np.int64
                want = np.rint(np.array(orc.line_means_oracle(oracle_grid.astype(int).tolist(), p, n, c)) * size)
                assert np.array_equal(got, want), (p, n, slot)
                assert np.array_equal(line_counts(np.asfortranarray(grid), p, n, slot), got)


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
    s = FunctionTable(3, 3, mask)
    path = tmp_path / "s.txt"
    save_set(str(path), s)
    back = load_set(str(path))
    assert back.p == 3 and back.m == 3 and back.kind == "indicator"
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(load_any(str(path)).values, s.values)


def test_set_file_digit_lines(tmp_path):
    # little-endian digits reduced mod p, even past int64, next to plain indices
    path = tmp_path / "digits.set"
    path.write_text("p=3 m=2\n# members\n1,2\n\n4\n-1,5\n2,100000000000000000000000\n")
    assert load_set(str(path)).member_indices().tolist() == [4, 5, 7, 8]
    path.write_text("p=3 m=2\n1,2,0\n")
    with pytest.raises(ValueError, match=r":2: expected 2 digits$"):
        load_set(str(path))


def test_malformed_lines_name_their_file(tmp_path):
    for name, text, message in (
        ("junk.set", "p=3 m=1 junk\n0\n", ":1: header tokens must be key=value"),
        ("junk.table", "p=3 m=1 kind=real\nx 0.0\n0.0 0.0\n0.0 0.0\n", ":2: expected '<re> <im>'"),
        ("junk-member.set", "p=3 m=2\n0\n1,x\n", ":3: expected an index or comma-separated digits"),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_any(str(path))
        assert str(info.value).startswith(str(path) + message), info.value


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


#: Header moduli: small primes, so that bodies get parsed, small values,
#: primes and composites past the enumeration cap (2^61 - 1 is prime, so
#: only the cap keeps its trial division short), and anything up to 2^80
#: in size.
HEADER_P = st.one_of(
    st.sampled_from([3, 5, 7]),
    st.integers(-3, 60),
    st.sampled_from([4093, 4099, 2**31 - 1, 2**61 - 1, 2**61 + 1, (2**31 - 1) * (2**61 - 1)]),
    st.integers(-(2**80), 2**80),
)
BODY_LINE = st.one_of(
    st.integers(-2, 2**70).map(str),
    st.lists(st.integers(-5, 2**70), min_size=1, max_size=4).map(lambda ds: ",".join(map(str, ds))),
    st.tuples(st.sampled_from(["0.0", "1.0", "0.5", "nan", "-inf", "1e400", "x"]),
              st.sampled_from(["0.0", "-0.5", "x"])).map(" ".join),
    st.text(alphabet="0123456789,.-+e #xj=\t", max_size=12),
)


@given(
    p=HEADER_P,
    m=st.one_of(st.integers(0, 2), st.integers(-2, 30)),
    kind=st.sampled_from([None, "indicator", "real", "complex", "", "junk"]),
    extra=st.sampled_from(["", " junk", " q=1", " p=5", " m=1"]),
    body=st.lists(BODY_LINE, max_size=8),
)
def test_file_headers_load_or_refuse(tmp_path_factory, p, m, kind, extra, body):
    # any header and body either loads or is refused with ValueError or
    # ResourceLimitError, within the default deadline: no trial division
    # past the cap, and nothing allocated for a size the header refuses
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    header = f"p={p} m={m}" + ("" if kind is None else f" kind={kind}") + extra
    path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    try:
        f = load_any(str(path))
    except (ValueError, ResourceLimitError):
        return
    assert f.values.size == f.p**f.m
