"""Digit arithmetic, residue linear algebra and coset enumeration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
import references as ref
from lshape.field import (
    AffineSubspace,
    ResourceLimitError,
    add_map,
    combine,
    digit_table,
    digits_of,
    index_of,
    modular_rref,
    rank_mod,
    scale_map,
    subspace_from_normals,
    translations,
)


def test_digit_round_trip():
    for p, m in [(3, 1), (3, 3), (5, 2), (7, 1)]:
        for i in range(p**m):
            d = digits_of(p, m, i)
            assert tuple(int(t) for t in d) == orc.digits_le(i, p, m)
            assert int(index_of(p, d)) == i


@given(st.sampled_from([3, 5, 7, 11]), st.integers(0, 4), st.data())
def test_digit_round_trip_fuzz(p, m, data):
    # one index and a batch of them, and digits off by multiples of p
    size = p**m
    i = data.draw(st.integers(0, size - 1), label="i")
    d = digits_of(p, m, i)
    assert d.shape == (m,) and all(0 <= t < p for t in d.tolist())
    assert index_of(p, d) == i
    batch = np.array(data.draw(st.lists(st.integers(0, size - 1), max_size=8), label="batch"), dtype=np.int64)
    assert np.array_equal(index_of(p, digits_of(p, m, batch)), batch)
    shift = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m), label="shift"))
    assert index_of(p, d + p * shift) == i


def test_digit_table_rows():
    dt = digit_table(3, 2)
    assert dt.shape == (9, 2)
    assert [tuple(int(t) for t in row) for row in dt] == [orc.digits_le(i, 3, 2) for i in range(9)]
    with pytest.raises(ValueError):
        dt[0, 0] = 5  # the table is shared and must stay read-only


def test_add_and_scale_maps():
    p, m = 3, 2
    for h in range(p**m):
        am = add_map(p, m, h)
        for x in range(p**m):
            assert int(am[x]) == orc.add_indices(x, h, p, m)
    for c in range(p):
        sm = scale_map(p, m, c)
        for x in range(p**m):
            assert int(sm[x]) == orc.scale_index(c, x, p, m)


@pytest.mark.parametrize("p,m", [(3, 0), (3, 1), (3, 2), (3, 5), (3, 6), (5, 5), (67, 1)])
def test_translations_match_combine(p, m):
    # odd m splits into unequal halves, m = 1 adds one digit directly and
    # m = 0 has the single element 0
    size = p**m
    h = np.random.default_rng(p + m).integers(0, size, size=min(size, 50))
    rows = translations(p, m, h)
    assert rows.shape == (len(h), size)
    assert np.array_equal(rows, combine(p, m, (1, 1), (np.arange(size), h[:, None])))
    assert np.array_equal(add_map(p, m, int(h[-1])), rows[-1])


def test_modular_rref_properties():
    rng = np.random.default_rng(4)
    for p in (3, 5):
        for _ in range(30):
            mat = rng.integers(0, p, size=(3, 4))
            red, pivots = modular_rref(mat, p)
            assert len(pivots) == len(red)
            again, again_piv = modular_rref(red, p)
            assert np.array_equal(again, red)
            assert again_piv == pivots
            for i, c in enumerate(pivots):
                col = red[:, c]
                assert col[i] == 1 and np.count_nonzero(col) == 1


def test_rank_mod_counts_pivots():
    rng = np.random.default_rng(6)
    for p in (3, 5):
        for _ in range(20):
            mat = rng.integers(0, p, size=(3, 4))
            assert rank_mod(mat, p) == len(modular_rref(mat, p)[1])
    assert rank_mod(np.zeros((0, 3), dtype=np.int64), 3) == 0
    assert rank_mod([[1, 2], [2, 4]], 3) == 1
    assert rank_mod([[1, 2], [2, 4]], 5) == 1
    assert rank_mod([[1, 2], [2, 1]], 3) == 1  # (2, 1) = 2 * (1, 2) mod 3
    assert rank_mod([[1, 2], [2, 1]], 5) == 2


def test_combine_matches_oracle():
    rng = np.random.default_rng(8)
    for p in (3, 5):
        for m in (1, 2, 3):
            size = p**m
            for coeffs in [(1, 1), (2, 1), (1, -1), (1, -2), (-1, 2, -2), (0, 2)]:
                idx = [rng.integers(0, size, 50) for _ in coeffs]
                want = [orc.combine_oracle(p, m, coeffs, [int(i[t]) for i in idx]) for t in range(50)]
                assert combine(p, m, coeffs, idx).tolist() == want
    # operands broadcast: got[i, j] combines element j with element i
    x = np.arange(9)
    got = combine(3, 2, (1, -1), (x[None, :], x[:, None]))
    assert got.shape == (9, 9)
    for i in range(9):
        for j in range(9):
            assert got[i, j] == orc.combine_oracle(3, 2, (1, -1), (j, i))


def test_subspace_members_match_scan():
    cases = [
        (3, 3, [(1, 2, 0), (0, 1, 1)], [1, 2]),
        (3, 2, [(1, 1)], [0]),
        (5, 2, [(2, 3)], [4]),
        (3, 3, [], []),
    ]
    for p, m, normals, offsets in cases:
        sub = subspace_from_normals(p, m, normals, offsets)
        got = sorted(int(i) for i in sub.member_indices())
        want = orc.subspace_members_oracle(p, m, normals, offsets)
        assert got == want
        assert sub.cardinality == len(want)
        for x in range(p**m):
            assert ref.contains(sub, x) == (x in want)


def test_subspace_reduces_redundant_rows():
    # the second row is twice the first, so only one constraint survives
    sub = subspace_from_normals(3, 2, [(1, 2), (2, 1)], [1, 2])
    assert sub.codimension == 1
    assert sub.cardinality == 3


def test_inconsistent_rows_give_empty_set():
    sub = subspace_from_normals(3, 2, [(1, 2), (2, 1)], [1, 0])
    assert sub.is_empty
    assert sub.cardinality == 0
    assert list(sub.member_indices()) == []
    assert not ref.contains(sub, 0)


def test_subspace_basis_spans_members():
    sub = subspace_from_normals(3, 3, [(1, 0, 2)], [2])
    base = sub.offset_point()
    bs = sub.basis()
    assert bs.shape == (sub.dim, 3) and bs.dtype == np.int64
    assert base.shape == (3,) and ref.contains(sub, base)
    span = set()
    for t0 in range(3):
        for t1 in range(3):
            span.add(int(combine(3, 3, (1, t0, t1), (index_of(3, base), index_of(3, bs[0]), index_of(3, bs[1])))))
    assert span == set(int(i) for i in sub.member_indices())
    # the empty coset has no basis and no offset point
    empty = subspace_from_normals(3, 2, [(1, 2), (2, 1)], [1, 0])
    assert empty.basis().shape == (0, 2)
    with pytest.raises(ValueError):
        empty.offset_point()


def test_enumeration_cap_raises():
    with pytest.raises(ResourceLimitError):
        subspace_from_normals(3, 20, [], []).member_indices()
