"""Character transforms, Parseval, and the large-coefficient inverse step."""

import numpy as np
import pytest

import oracles as orc
from lshape.field import digit_table, index_of, subspace_from_normals
from lshape.spectral import (
    dft,
    dft_reference,
    dft_values,
    idft,
    inverse_u2,
    parseval_report,
    subspace_average_bound_check,
    u2_fourth,
    u2_fourth_batch,
)
from lshape.tables import FunctionTable


def _random_table(p, m, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    size = p**m
    vals = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return FunctionTable(p, m, vals, "complex")


def test_dft_matches_oracle():
    for p, m in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        f = _random_table(p, m, 10 * p + m)
        lib = dft(f).values
        ref = np.array(orc.dft_oracle(list(f.values), p, m))
        assert np.abs(lib - ref).max() < 1e-12


def test_dft_reference_path_agrees():
    for seed in range(5):
        f = _random_table(3, 3, seed)
        assert np.abs(dft(f).values - dft_reference(f).values).max() < 1e-10


def test_dft_reference_indexes_the_literal_phases():
    # the phase matrix indexes p roots of unity by the exponent table; its
    # output is bit for bit that of one exp call per entry
    for p, m in [(3, 1), (3, 4), (3, 6), (5, 3), (7, 2), (13, 1)]:
        f = _random_table(p, m, 7 * p + m)
        d = digit_table(p, m)
        literal = np.exp(-2j * np.pi * ((d @ d.T) % p) / p) @ f.values / f.size
        assert np.array_equal(dft_reference(f).values, literal), (p, m)


def test_inversion_round_trip():
    for seed in range(10):
        f = _random_table(3, 2, seed + 50)
        back = idft(dft(f))
        assert np.abs(back.values - f.values).max() < 1e-12


# several digit groups (three digits a group at p = 3, two at p = 5, one
# from p = 7 on) and a ragged last group
GROUPED_SHAPES = [(3, 4), (3, 5), (3, 7), (5, 3), (7, 2), (11, 2), (13, 1)]


def _close(got, want, tol=1e-12):
    return np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def test_grouped_transforms_match_references():
    for p, m in GROUPED_SHAPES:
        f = _random_table(p, m, 100 * p + m)
        fc = FunctionTable(p, m, np.conj(f.values), "complex")
        # idft(g) = p^m conj(dft(conj g)), so both directions meet the references
        assert _close(dft(f).values, dft_reference(f).values), (p, m)
        assert _close(idft(f).values, f.size * np.conj(dft_reference(fc).values)), (p, m)
        if f.size <= 243:  # the double loop takes seconds beyond
            assert _close(dft(f).values, np.array(orc.dft_oracle(list(f.values), p, m))), (p, m)
            want = f.size * np.conj(np.array(orc.dft_oracle(list(fc.values), p, m)))
            assert _close(idft(f).values, want), (p, m)


def test_grouped_batch_matches_single_rows():
    for p, m in GROUPED_SHAPES:
        rows = np.stack([_random_table(p, m, 7 * p + m + i).values for i in range(4)])
        batch = dft_values(rows, p, m)
        fourths = u2_fourth_batch(rows, p, m)
        for i, row in enumerate(rows):
            single = FunctionTable(p, m, row, "complex")
            assert _close(batch[i], dft(single).values), (p, m, i)
            assert fourths[i] == pytest.approx(u2_fourth(single), rel=1e-12), (p, m, i)


def test_grouped_round_trip():
    for seed in range(5):
        f = _random_table(3, 5, seed + 70)
        assert _close(idft(dft(f)).values, f.values)
        assert _close(dft(idft(f)).values, f.values)


def test_dft_of_character_is_delta():
    # f(x) = e_p(xi . x) has spectrum concentrated at xi with weight 1
    p, m = 5, 2
    xi = 7
    xd = orc.digits_le(xi, p, m)
    vals = [
        orc.unit_root(p, sum(a * b for a, b in zip(xd, orc.digits_le(x, p, m))))
        for x in range(p**m)
    ]
    f = FunctionTable(p, m, np.array(vals), "complex")
    spec = dft(f).values
    expect = np.zeros(p**m, dtype=complex)
    expect[xi] = 1.0
    assert np.abs(spec - expect).max() < 1e-12


def test_parseval_report():
    for seed in range(10):
        f = _random_table(3, 2, seed + 90)
        rep = parseval_report(f)
        assert abs(rep["relative_gap"]) < 1e-12
        direct = float(np.mean(np.abs(f.values) ** 2))
        assert rep["time_side"] == pytest.approx(direct)
        assert rep["frequency_side"] == pytest.approx(direct)


def test_u2_fourth_is_spectral_fourth_moment():
    for p, m in [(3, 1), (3, 2), (5, 1)]:
        f = _random_table(p, m, p + m)
        spec = dft(f).values
        assert u2_fourth(f) == pytest.approx(float(np.sum(np.abs(spec) ** 4)), abs=1e-12)
        raw = orc.gowers_raw_oracle(list(f.values), p, m, 2)
        assert u2_fourth(f) == pytest.approx(raw.real, abs=1e-9)
        assert abs(raw.imag) < 1e-12


def test_batched_transforms_match_single():
    p, m = 3, 2
    rows = np.stack([_random_table(p, m, s).values for s in range(6)])
    batch = dft_values(rows, p, m)
    for i in range(6):
        single = dft(FunctionTable(p, m, rows[i], "complex")).values
        assert np.abs(batch[i] - single).max() < 1e-12
    fourths = u2_fourth_batch(rows, p, m)
    for i in range(6):
        assert fourths[i] == pytest.approx(u2_fourth(FunctionTable(p, m, rows[i], "complex")))


def test_inverse_u2_matches_scan():
    for seed in range(20):
        f = _random_table(3, 2, seed + 300, scale=0.4)
        freq, corr = inverse_u2(f)
        xi, best = orc.inverse_u2_oracle(list(f.values), 3, 2)
        assert index_of(3, freq) == xi
        assert corr == pytest.approx(best, abs=1e-12)


def test_inverse_u2_correlation_contract():
    for seed in range(50):
        f = _random_table(3, 2, seed + 600)
        f = FunctionTable(3, 2, f.values * (1.0 / max(1.0, f.max_modulus())))
        assert f.is_one_bounded()
        _, corr = inverse_u2(f)
        assert corr >= u2_fourth(f) ** 0.5


def test_inverse_u2_tie_breaks_to_smallest_index():
    # two characters with equal weight: the smaller index must win
    p, m = 3, 1
    vals = [
        orc.unit_root(p, x) + orc.unit_root(p, 2 * x)
        for x in range(p)
    ]
    f = FunctionTable(p, m, np.array(vals) / 2, "complex")
    freq, corr = inverse_u2(f)
    assert freq.tolist() == [1]
    assert corr == pytest.approx(0.5)


def test_subspace_average_bound():
    coset = subspace_from_normals(3, 3, [(1, 1, 0)], [2])
    for seed in range(20):
        f = _random_table(3, 3, seed + 900, scale=0.5)
        rep = subspace_average_bound_check(f, coset)
        assert rep["holds"]
        assert rep["codimension"] == 1
    with pytest.raises(ValueError):
        subspace_average_bound_check(
            _random_table(3, 3, 1), subspace_from_normals(3, 3, [(1, 0, 0), (2, 0, 0)], [0, 1])
        )
