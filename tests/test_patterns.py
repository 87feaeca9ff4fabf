"""Configuration averages and the structured obstruction examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
import references as ref
from lshape import patterns
from lshape.field import ResourceLimitError, add_map
from lshape.linforms import LinearForm, LinearFormSystem
from lshape.patterns import (
    corner_average,
    count_system,
    lshape_average,
    obstruction_example,
    ones_like,
    telescope_check,
)
from lshape.tables import FunctionTable


def _random_complex_tables(p, n, seed, count):
    rng = np.random.default_rng(seed)
    size = p ** (2 * n)
    out = []
    for _ in range(count):
        vals = 0.6 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        out.append(FunctionTable(p, 2 * n, vals, "complex"))
    return out


def _random_set(p, n, seed, density=0.4):
    rng = np.random.default_rng(seed)
    return FunctionTable(p, 2 * n, rng.random(p ** (2 * n)) < density)


def test_lshape_average_matches_oracle():
    for seed in range(5):
        fs = _random_complex_tables(3, 1, seed, 4)
        lib = lshape_average(*fs).average
        ref = orc.lshape_average_oracle(*[list(f.values) for f in fs], 3, 1)
        assert complex(lib) == pytest.approx(ref, abs=1e-12)


def test_lshape_counts_match_oracle():
    for p, n, seed in [(3, 1, 0), (3, 1, 1), (3, 2, 2)]:
        s = _random_set(p, n, seed)
        res = lshape_average(s, s, s, s)
        mask = [bool(b) for b in (s.values.real == 1.0)]
        total, nontrivial = orc.lshape_count_oracle(mask, p, n)
        assert res.exact_count == total
        assert res.nontrivial_count == nontrivial
        assert res.average == pytest.approx(total / p ** (3 * n))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (67, 1), (3, 4)])
def test_counts_of_distinct_sets_match_oracle(p, n):
    # four different sets, so a wrong slot (the shifted last table above
    # all) cannot hide; k = n fills one word, p = 67 > 64 leaves one bit
    # per word, p >= 11 is the paper's regime, and n = 4 > k = 3 at p = 3
    # moves the first tables' words by each of three high shifts
    sets = [_random_set(p, n, 100 * p + 10 * n + i, density=0.7) for i in range(4)]
    tabs = sets
    vals = [list(t.values) for t in tabs]
    ones = [1.0] * p ** (2 * n)
    masks = np.array([s.values for s in sets])

    def expected(avg, slots):
        total = round(avg.real * p ** (3 * n))
        return total, total - int(masks[slots].all(axis=0).sum())

    res = lshape_average(*tabs)
    total, nontrivial = expected(orc.lshape_average_oracle(*vals, p, n), [0, 1, 2, 3])
    assert (res.exact_count, res.nontrivial_count) == (total, nontrivial)
    res = corner_average(*tabs[:3])
    total, nontrivial = expected(orc.lshape_average_oracle(vals[0], vals[1], ones, vals[2], p, n), [0, 1, 2])
    assert (res.exact_count, res.nontrivial_count) == (total, nontrivial)


@pytest.mark.parametrize(
    "p,n,word", [(3, 3, np.uint32), (5, 2, np.uint32), (7, 2, np.uint64), (11, 2, np.uint16), (67, 1, np.uint8)]
)
def test_shift_built_copies_match_packed_gathers(p, n, word):
    # copy z_lo of the last table, made by bit shifts, against packing the
    # grid gathered at x + z_lo; p = 67 leaves k = 0 and one copy
    k, low, dtype = patterns._word_layout(p, n)
    assert dtype == word
    grid = _random_set(p, n, p + n, density=0.5).as_pair_grid()
    words = patterns._pack_rows(grid, low, dtype)
    # bit x_lo of w[y, x_hi] is grid[x_lo + low x_hi, y], and no bit at or above low is set
    bits = (words[:, :, None] >> np.arange(8 * dtype.itemsize, dtype=dtype)) & 1
    assert np.array_equal(bits[:, :, :low].reshape(grid.shape), grid.T)
    assert not bits[:, :, low:].any()
    copies = patterns._shifted_copies(words, p, k)
    assert len(copies) == low
    for z_lo, copy in enumerate(copies):
        assert copy.dtype == dtype
        assert np.array_equal(copy, patterns._pack_rows(grid[add_map(p, n, z_lo)], low, dtype)), z_lo


def test_counting_leaves_the_translation_cache_empty():
    # the kernels take their rows from field.translations a block at a
    # time, so no p^n-entry permutation per translation is kept
    add_map.cache_clear()
    s = _random_set(3, 4, 7)
    lshape_average(s, s, s, s)
    corner_average(s, s, s)
    lshape_average(*_random_complex_tables(3, 1, 8, 4))
    assert add_map.cache_info().currsize == 0


def test_corner_counts_match_oracle():
    for seed in range(3):
        s = _random_set(3, 1, seed + 10)
        res = corner_average(s, s, s)
        mask = [bool(b) for b in (s.values.real == 1.0)]
        total, nontrivial = orc.corner_count_oracle(mask, 3, 1)
        assert res.exact_count == total
        assert res.nontrivial_count == nontrivial


@st.composite
def _masks(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    return p, draw(st.lists(st.booleans(), min_size=p * p, max_size=p * p))


@settings(deadline=None)
@given(_masks())
def test_counts_match_oracle_on_drawn_masks(pm):
    p, mask = pm
    t = FunctionTable(p, 2, np.array(mask, dtype=bool))
    res = lshape_average(t, t, t, t)
    assert (res.exact_count, res.nontrivial_count) == orc.lshape_count_oracle(mask, p, 1)
    res = corner_average(t, t, t)
    assert (res.exact_count, res.nontrivial_count) == orc.corner_count_oracle(mask, p, 1)


def test_pattern_count_accessors():
    s = _random_set(3, 1, 3)
    res = lshape_average(s, s, s, s)
    assert res.real_average == res.average.real
    mixed = lshape_average(*_random_complex_tables(3, 1, 4, 4))
    assert mixed.exact_count is None


def test_empty_set_counts_zero():
    e = FunctionTable(3, 2, np.zeros(9, dtype=bool))
    res = lshape_average(e, e, e, e)
    assert res.exact_count == 0
    assert res.nontrivial_count == 0
    assert res.average == 0


def test_full_set_counts_everything():
    # pair space with N = 3: every (x, y, z) triple hits, z = 0 gives N^2 of them
    f = ref.full_set(3, 2)
    res = lshape_average(f, f, f, f)
    assert res.exact_count == 3**3
    assert res.nontrivial_count == 3**3 - 3**2
    assert res.average == pytest.approx(1.0)


def test_ones_like_accepts_both():
    s = _random_set(3, 1, 7)
    # a set, or any other table on the same space
    for arg in (s, s.minus_const(0.5)):
        one = ones_like(arg)
        assert one.kind == "indicator"
        assert float(one.values.real.min()) == 1.0


def test_telescope_inequality():
    for seed in range(10):
        s = _random_set(3, 1, seed + 40, density=0.5)
        rep = telescope_check(s)
        assert rep["holds"]
        assert len(rep["terms"]) == 3


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_telescope_terms_match_the_complex_path(p, n):
    # the exact terms against lam(1^j, g, S^(3-j)) of the balanced real
    # table g = S - sigma, summed by the non-indicator enumerator in float64
    s = _random_set(p, n, 7 * p + n, density=0.5)
    one, g = ones_like(s), ref.balanced(s)
    assert g.kind == "real"
    rep = telescope_check(s)
    want = [abs(lshape_average(*[one] * j, g, *[s] * (3 - j)).average) for j in range(3)]
    assert rep["terms"] == pytest.approx(want, abs=1e-12)
    sigma, lam = s.density, lshape_average(s, s, s, s).average.real
    assert rep["density"] == sigma
    assert rep["configuration_average"] == lam
    assert rep["lhs"] == pytest.approx(abs(lam - sigma**4), abs=1e-12)
    assert rep["rhs"] == pytest.approx(want[0] + sigma * want[1] + sigma**2 * want[2], abs=1e-12)
    assert rep["holds"]
    with pytest.raises(ValueError, match="indicator"):
        telescope_check(g)


def test_balanced_decomposition_is_exact():
    # lam(S..S) - sigma^4 must equal the three-term telescoping sum exactly
    s = _random_set(3, 1, 99, density=0.6)
    st, sigma = s, s.density
    one = ones_like(s)
    g = ref.balanced(s)
    lhs = lshape_average(st, st, st, st).average - sigma**4
    rhs = (
        lshape_average(g, st, st, st).average
        + sigma * lshape_average(one, g, st, st).average
        + sigma**2 * lshape_average(one, one, g, st).average
        + sigma**3 * complex(g.mean())
    )
    assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-12)


def test_dot_obstruction_exact_values():
    ex = obstruction_example("dot", 3, 3)
    assert ex.set.cardinality == 261
    assert ex.predicted_density == pytest.approx(261 / 729)
    assert ex.set.density == pytest.approx(261 / 729)
    assert ex.predicted_count == 1215
    res = lshape_average(*[ex.set] * 4)
    assert res.exact_count == 1215
    assert res.nontrivial_count == 954
    with pytest.raises(ValueError):
        obstruction_example("dot", 3, 2)


def test_dot_closed_form_at_odd_and_even_n():
    # brute force, the closed form and the recorded count agree at odd and even n
    for p, n, recorded in [(3, 3, 1215), (3, 4, 24273), (3, 6, 14697369), (5, 4, 2148625)]:
        ex = obstruction_example("dot", p, n)
        assert lshape_average(*[ex.set] * 4).exact_count == ex.predicted_count == recorded


def test_dot_count_at_the_frontier():
    ex = obstruction_example("dot", 3, 7)
    assert lshape_average(*[ex.set] * 4).exact_count == ex.predicted_count == 390609135


def test_dot_obstruction_membership():
    ex = obstruction_example("dot", 3, 3)
    vals = ex.set.values.real
    for x in range(27):
        for y in range(27):
            dot = sum(
                a * b for a, b in zip(orc.digits_le(x, 3, 3), orc.digits_le(y, 3, 3))
            ) % 3
            assert (vals[x + 27 * y] == 1.0) == (dot == 0)


def test_random_phi_density_is_exact():
    for seed in range(6):
        ex = obstruction_example("random_phi", 3, 3, seed)
        assert ex.set.cardinality == 27 * 9  # every row is a genuine hyperplane
        assert ex.extras["resampled_rows"] >= 0


def test_coordinate_obstruction_membership():
    ex = obstruction_example("coordinate", 3, 2, 4)
    vals = ex.set.values.real
    assert ex.set.density == pytest.approx(1 / 3)
    for x in range(9):
        row = [y for y in range(9) if vals[x + 9 * y] == 1.0]
        digits0 = {orc.digits_le(y, 3, 2)[0] for y in row}
        assert len(digits0) == 1  # the first digit of y is pinned per x
        assert len(row) == 3


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        obstruction_example("mystery", 3, 3)


def test_obstructions_refuse_a_negative_n_by_the_n_given():
    # not by the 2n digits of the pair space
    for kind in ("dot", "random_phi", "coordinate"):
        with pytest.raises(ValueError, match=r"nonnegative, got -2$"):
            obstruction_example(kind, 3, -2)


def test_count_system_agrees_with_direct_counters():
    s = _random_set(3, 1, 21)
    pair_tables = [s] * 4
    res = count_system(pair_tables, ref.lshape_point_system(3), 1)
    direct = lshape_average(*pair_tables)
    assert res.exact_count == direct.exact_count
    res3 = count_system([s] * 3, ref.corner_point_system(3), 1)
    direct3 = corner_average(*[s] * 3)
    assert res3.exact_count == direct3.exact_count


def _form_tables(system, n, kind, rng):
    # kind "bool+complex" alternates the two along the forms
    out = []
    for i, form in enumerate(system.forms):
        m = len(form.rows) * n
        size = system.p**m
        k = kind.split("+")[i % len(kind.split("+"))]
        if k == "bool":
            vals = rng.random(size) < 0.6
        elif k == "float":
            vals = rng.standard_normal(size)
        else:
            vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        out.append(FunctionTable(system.p, m, vals))
    return out


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("r", [2, 3])
def test_count_system_matches_the_tuple_loop(p, n, r):
    # fixed forms reach every path of the enumerator: a row with v_0
    # coefficient 0, a row whose other variables are out of index order
    # (1, 2, 0), 2-row forms with their variables increasing, repeated
    # and decreasing; random 1- and 2-row forms ride along
    rng = np.random.default_rng(100 * p + 10 * n + r)
    fixed = [
        [(1, 2, 0)], [(0, 1, 0)], [(1, 1, 0), (0, 0, 1)], [(0, 1, 0), (1, 0, 1)],
        [(0, 0, 1), (1, 1, 0)], [(1, 1, 1)],
    ] if r == 3 else [[(1, 2)], [(0, 1)], [(1, 1)], [(0, 1), (1, 1)], [(1, 0), (2, 1)]]
    forms = [LinearForm(tuple(rows)) for rows in fixed]
    while len(forms) < len(fixed) + 2:
        rows = tuple(tuple(int(c) for c in rng.integers(0, p, r)) for _ in range(int(rng.integers(1, 3))))
        if any(any(row) for row in rows):
            forms.append(LinearForm(rows))
    system = LinearFormSystem(p, r, tuple(forms))
    for kind in ("bool", "float", "complex", "bool+complex"):
        tables = _form_tables(system, n, kind, rng)
        want = ref.form_sum_loop(tables, system, n)
        res = count_system(tables, system, n)
        if kind == "bool":
            assert res.exact_count == want
            assert res.average == want / p ** (r * n)
        else:
            assert res.exact_count is None
            assert complex(res.average) == pytest.approx(want / p ** (r * n), abs=1e-12)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
def test_non_indicator_averages_match_oracle(p, n):
    # real, complex and indicator tables mixed, so every dtype of the
    # enumerator meets the configuration; the corner is the four-point
    # average with ones in slot 2
    rng = np.random.default_rng(10 * p + n)
    size = p ** (2 * n)
    real = FunctionTable(p, 2 * n, rng.standard_normal(size))
    cplx = _random_complex_tables(p, n, 5 * p + n, 2)
    s = _random_set(p, n, 7 * p + n, density=0.5)
    ones = [1.0] * size
    for tabs in ([real, real, s, real], [cplx[0], s, cplx[1], real], [s, s, cplx[0], s]):
        vals = [list(t.values) for t in tabs]
        got = lshape_average(*tabs)
        assert got.exact_count is None
        assert complex(got.average) == pytest.approx(orc.lshape_average_oracle(*vals, p, n), abs=1e-12)
        got = corner_average(tabs[0], tabs[1], tabs[3])
        want = orc.lshape_average_oracle(vals[0], vals[1], ones, vals[3], p, n)
        assert complex(got.average) == pytest.approx(want, abs=1e-12)


def test_non_indicator_averages_past_the_cap_are_refused():
    # 625^3 triples at p = 5, n = 4 is past the 10^8 cap; sets still count
    g = FunctionTable(5, 8, np.full(5**8, 0.5))
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        lshape_average(g, g, g, g)
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        corner_average(g, g, g)
