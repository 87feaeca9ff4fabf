"""Uniformity norms: cube averages, pair-space directional norms, GCS."""

import numpy as np
import pytest

import oracles as orc
import references as ref
from lshape import norms
from lshape.field import ResourceLimitError
from lshape.norms import box_norm, gcs_check, gowers_norm, slot_norm
from lshape.tables import FunctionTable


def _random_table(p, m, seed, scale=0.6):
    rng = np.random.default_rng(seed)
    size = p**m
    vals = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return FunctionTable(p, m, vals, "complex")


def _one_bounded(p, m, seed):
    f = _random_table(p, m, seed, scale=1.0)
    return FunctionTable(p, m, f.values * (1.0 / max(1.0, f.max_modulus())))


def test_delta_pointwise():
    p, m = 3, 2
    f = _random_table(p, m, 1)
    for h in (0, 4, 7):
        d = ref.delta(f, h)
        for x in range(p**m):
            want = f.values[x] * np.conj(f.values[orc.add_indices(x, h, p, m)])
            assert d.values[x] == pytest.approx(want)


def test_gowers_matches_literal_sum():
    for p, m, s in [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)]:
        f = _random_table(p, m, 10 * s + p)
        res = gowers_norm(f, s)
        raw = orc.gowers_raw_oracle(list(f.values), p, m, s)
        assert complex(res.raw_average) == pytest.approx(raw, abs=1e-9)
        assert res.value == pytest.approx(abs(raw) ** (1 / 2**s), abs=1e-9)
        assert res.power == 2**s


def test_definition_only_path_agrees():
    f = _random_table(3, 2, 42)
    fast = gowers_norm(f, 3)
    slow = gowers_norm(f, 3, definition_only=True)
    assert fast.value == pytest.approx(slow.value, abs=1e-10)


def test_definition_only_matches_oracle():
    for p, m, s_max in [(3, 1, 4), (3, 2, 3), (5, 1, 3)]:
        for s in range(1, s_max + 1):
            f = _random_table(p, m, 700 + 10 * s + p)
            raw = orc.gowers_raw_oracle(list(f.values), p, m, s)
            got = gowers_norm(f, s, definition_only=True).raw_average
            assert complex(got) == pytest.approx(raw, abs=1e-12), (p, m, s)


def test_cube_kernel_matches_general_steps(monkeypatch):
    # the package kernel factors out the last difference; the reference
    # sums over it, step by step
    for p, m, s in [(3, 2, 1), (3, 2, 2), (3, 2, 3), (5, 1, 2), (5, 1, 3), (3, 1, 4)]:
        size = p**m
        corners = [_random_table(p, m, 800 + 10 * s + w).values for w in range(2**s)]
        want = ref.cube_average(corners, [np.arange(size)] * s, p, m)
        assert norms._cube_average(corners, p, m) == pytest.approx(want, abs=1e-12)
        # two tuples (h_1, ..., h_(s-1)) a block: p^m is odd, so the last
        # block of each fold is ragged
        with monkeypatch.context() as mp:
            mp.setattr(norms, "_CUBE_BLOCK", 2**s * size)
            assert norms._cube_average(corners, p, m) == pytest.approx(want, abs=1e-12)


def test_fast_path_blocks_agree(monkeypatch):
    for p, m, s in [(3, 2, 3), (3, 2, 4), (5, 1, 4), (3, 1, 5)]:
        f = _random_table(p, m, 900 + 10 * s + p)
        whole = gowers_norm(f, s).raw_average
        assert complex(whole) == pytest.approx(gowers_norm(f, s, definition_only=True).raw_average, abs=1e-12)
        for block in (1, 3 * p**m):  # one row a block, then three
            with monkeypatch.context() as mp:
                mp.setattr(norms, "_CUBE_BLOCK", block)
                assert complex(gowers_norm(f, s).raw_average) == pytest.approx(complex(whole), abs=1e-12)


def test_delta_rows_stay_within_block():
    # 2^r > p^m: many differences on a small group
    for p, m, r in [(3, 1, 11), (2, 2, 6), (3, 2, 4), (5, 1, 5)]:
        rows = 0
        for block in norms._delta_rows(np.ones((1, p**m), complex), p, m, r):
            assert block.size <= max(norms._CUBE_BLOCK, p**m), (p, m, r)
            rows += len(block)
        assert rows == p ** (m * r), (p, m, r)


def test_many_differences_on_a_small_group():
    # 2^s > p^m, where a table of every cube corner outgrows the batch
    f = _one_bounded(3, 1, 950)
    fast = gowers_norm(f, 9)
    slow = gowers_norm(f, 9, definition_only=True)
    # the average is about 2e-5 here, so compare relatively
    assert complex(slow.raw_average) == pytest.approx(complex(fast.raw_average), rel=1e-9)
    # U^12 <= U^13; both rows batches stay within a block
    assert gowers_norm(f, 12).value <= gowers_norm(f, 13).value + 1e-12


def test_gowers_nesting_for_bounded_tables():
    for seed in range(10):
        f = _one_bounded(3, 2, seed + 60)
        u1 = gowers_norm(f, 1).value
        u2 = gowers_norm(f, 2).value
        u3 = gowers_norm(f, 3).value
        assert u1 <= u2 + 1e-12
        assert u2 <= u3 + 1e-12


def test_gowers_of_character_is_one():
    p, m = 3, 2
    xd = orc.digits_le(5, p, m)
    vals = [
        orc.unit_root(p, sum(a * b for a, b in zip(xd, orc.digits_le(x, p, m))))
        for x in range(p**m)
    ]
    f = FunctionTable(p, m, np.array(vals), "complex")
    # a nonzero character has mean zero but is perfectly structured above U^1
    assert gowers_norm(f, 1).value == pytest.approx(0.0, abs=1e-10)
    for s in (2, 3):
        assert gowers_norm(f, s).value == pytest.approx(1.0, abs=1e-10)


def test_box_norm_matches_oracle():
    g = _random_table(3, 2, 7)
    res = box_norm(g)
    raw = orc.box_raw_oracle(list(g.values), 3, 1)
    assert res.raw_average == pytest.approx(raw.real, abs=1e-12)
    assert res.value == pytest.approx(abs(raw) ** 0.25, abs=1e-12)


def test_slot_norms_match_oracles():
    g = _random_table(3, 2, 8)
    vals = list(g.values)
    for slot, oracle, power in [
        (0, orc.slot0_raw_oracle, 8),
        (1, orc.slot1_raw_oracle, 4),
        (2, orc.slot2_raw_oracle, 2),
    ]:
        res = slot_norm(g, slot)
        raw = oracle(vals, 3, 1)
        assert res.power == power
        assert complex(res.raw_average) == pytest.approx(complex(raw), abs=1e-10)
    with pytest.raises(ValueError):
        slot_norm(g, 3)


def test_slot0_pairs_match_oracle_at_n2():
    # n = 2 has four pairs {h3, -h3}; n = 1 has only one
    rng = np.random.default_rng(12)
    tables = [
        FunctionTable(3, 4, rng.standard_normal(81), "real"),
        _random_table(3, 4, 13),
        FunctionTable(3, 4, rng.random(81) < 0.5),
    ]
    for g in tables:
        want = orc.slot0_raw_oracle(list(g.values), 3, 2)
        got = slot_norm(g, 0).raw_average
        assert complex(got) == pytest.approx(complex(want), abs=1e-12), g.kind


def test_constant_slot_norms_are_modulus():
    for c in (1.0, -0.5, 0.3 + 0.4j):
        g = FunctionTable(3, 2, np.full(9, c), "complex")
        for slot in (0, 1, 2):
            assert slot_norm(g, slot).value == pytest.approx(abs(c), abs=1e-12)
        assert box_norm(g).value == pytest.approx(abs(c), abs=1e-12)


def test_directional_average_single_direction():
    # one direction (-1, 2) reproduces the squared line-average norm
    rng = np.random.default_rng(3)
    g = FunctionTable(3, 2, rng.standard_normal(9), "real")
    avg = ref.directional_average(g, [(-1, 2)])
    want = orc.slot2_raw_oracle(list(g.values), 3, 1)
    assert avg == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        ref.directional_average(g, [(0, 0)])
    with pytest.raises(ResourceLimitError):
        ref.directional_average(g, [(0, 1)] * 4)


def test_directional_average_three_directions_is_slot0():
    rng = np.random.default_rng(5)
    g = FunctionTable(3, 2, rng.standard_normal(9), "real")
    avg = ref.directional_average(g, [(0, 1), (0, 1), (1, 0)])
    want = orc.slot0_raw_oracle(list(g.values), 3, 1)
    assert avg == pytest.approx(want.real, abs=1e-12)


def test_directional_average_two_directions_at_n2():
    g = _random_table(3, 4, 14)
    for dirs in ([(1, 1), (2, 1)], [(0, 1), (-1, 1)]):
        want = orc.stack_raw_oracle(list(g.values), 3, 2, dirs)
        assert ref.directional_average(g, dirs) == pytest.approx(want.real, abs=1e-12)


def test_cube_product_matches_oracle(monkeypatch):
    for p, m, s in [(3, 1, 2), (3, 2, 2), (5, 1, 2), (3, 1, 3), (3, 2, 3)]:
        family = [_random_table(p, m, 500 + 10 * s + w) for w in range(2**s)]
        want = abs(orc.cube_raw_oracle([list(t.values) for t in family], p, m, s))
        assert gcs_check(family, s)["product_average"] == pytest.approx(want, abs=1e-12)
        # two tuples (h_1, ..., h_(s-1)) a block: several per sum, and
        # p^m is odd, so the last one is ragged
        with monkeypatch.context() as mp:
            mp.setattr(norms, "_CUBE_BLOCK", 2**s * p**m)
            assert gcs_check(family, s)["product_average"] == pytest.approx(want, abs=1e-12)


def test_gcs_inequality_random_families():
    for p, s in [(3, 2), (5, 2), (3, 3)]:
        for seed in range(8):
            family = [_one_bounded(p, 1, 100 * s + 10 * seed + w) for w in range(2**s)]
            rep = gcs_check(family, s)
            assert rep["holds"]
    with pytest.raises(ValueError):
        gcs_check([_one_bounded(3, 1, 0)] * 3, 2)


def test_gcs_equality_for_matching_characters():
    # every vertex carrying the same character makes both sides 1
    p, m, s = 3, 1, 2
    vals = np.array([orc.unit_root(p, 2 * x) for x in range(p)])
    f = FunctionTable(p, m, vals, "complex")
    rep = gcs_check([f] * (2**s), s)
    assert rep["product_average"] == pytest.approx(1.0, abs=1e-10)
    assert rep["norm_product"] == pytest.approx(1.0, abs=1e-10)


def test_indicator_first_norm_is_density():
    s = FunctionTable(3, 2, np.array([1, 0, 1, 0, 0, 1, 0, 0, 0], dtype=bool))
    assert gowers_norm(s, 1).value == pytest.approx(s.density, abs=1e-12)
