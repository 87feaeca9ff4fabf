"""Reference values for the benchmark's correctness checks.

Nothing here imports lshape.  The values are recomputed from the
package's documented conventions only: indices are little-endian base p,
a pair (x, y) of Z_p^n x Z_p^n sits at index x + N*y with N = p^n, and
averages are normalized by the full domain.  Transforms use numpy's FFT on
the (p,)*m digit tensor instead of the package's p-point butterflies, and
counts use boolean masks instead of integer products.  ``selfcheck``
compares these functions with the pure-Python oracles in ``tests/oracles.py``
on small inputs.

``random_mask`` and ``random_table`` reproduce the CLI's documented
seeded generators (``numpy.random.default_rng``), so the reference sees the
inputs that a ``--seed`` job receives.
"""

from __future__ import annotations

import numpy as np


def digits(p: int, n: int) -> np.ndarray:
    idx = np.arange(p**n, dtype=np.int64)
    return (idx[:, None] // p ** np.arange(n, dtype=np.int64)) % p


def index(p: int, digs: np.ndarray) -> np.ndarray:
    return (digs % p) @ (p ** np.arange(digs.shape[-1], dtype=np.int64))


def translations(p: int, n: int, c: int = 1) -> np.ndarray:
    """T[a, b] = index of a + c*b."""
    d = digits(p, n)
    return index(p, d[:, None, :] + c * d[None, :, :])


def random_mask(p: int, m: int, seed: int, density: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mask = rng.random(p**m) < density
    if not mask.any():
        mask[int(rng.integers(p**m))] = True
    return mask


def random_table(p: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = p**m
    vals = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    scale = np.abs(vals).max()
    return vals * (0.9 / scale) if scale > 0 else vals


def dot_mask(p: int, n: int) -> np.ndarray:
    """The obstruction set {(x, y) : x . y = 0} as a flat pair-space mask."""
    d = digits(p, n)
    grid = (d @ d.T) % p == 0  # grid[x, y]
    return grid.T.reshape(-1)


def pattern_counts(mask: np.ndarray, p: int, n: int, corner: bool = False) -> tuple[int, int]:
    """(all, z != 0) counts of (x,y),(x,y+z),(x,y+2z),(x+z,y) in a set;
    the corner drops (x,y+2z)."""
    size = p**n
    grid = np.asarray(mask, dtype=bool).reshape(size, size).T  # grid[x, y]
    plus = translations(p, n)
    total = trivial = 0
    for z in range(size):
        shift = plus[:, z]
        hit = grid & grid[:, shift] & grid[shift, :]
        if not corner:
            hit &= grid[:, plus[shift, z]]
        count = int(np.count_nonzero(hit))
        total += count
        if z == 0:
            trivial = count
    return total, total - trivial


def spectrum(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """f_hat(xi) = p^-m sum_x f(x) e_p(-xi . x) along the last axis, in index order."""
    lead = values.shape[:-1]
    # a C-order reshape puts digit 0 (the fastest) on the last axis; the
    # transform pairs each x digit with the xi digit on the same axis
    arr = values.reshape(lead + (p,) * m)
    out = np.fft.fftn(arr, axes=tuple(range(len(lead), len(lead) + m)))
    return out.reshape(lead + (p**m,)) / p**m


def u2_fourth(values: np.ndarray, p: int, m: int) -> np.ndarray:
    a2 = np.abs(spectrum(values, p, m)) ** 2
    return np.sum(a2 * a2, axis=-1)


def gowers_raw(values: np.ndarray, p: int, m: int, s: int) -> float:
    """||f||_{U^s}^(2^s) through U^s(f)^(2^s) = E_h U^(s-1)(f conj f(.+h))^(2^(s-1))."""
    if s == 1:
        return float(abs(values.mean()) ** 2)
    plus = translations(p, m)
    batch = values[None, :]
    for _ in range(s - 2):
        # batch[..., h, x] = f(x) conj f(x + h) for every earlier row f
        batch = batch[:, None, :] * np.conj(batch[:, plus.T])
        batch = batch.reshape(-1, p**m)
    return float(np.mean(u2_fourth(batch, p, m)))


def pair_grid(values: np.ndarray, p: int, n: int) -> np.ndarray:
    size = p**n
    return values.reshape(size, size).T  # grid[x, y]


def box_raw(values: np.ndarray, p: int, n: int) -> float:
    grid = pair_grid(values, p, n)
    size = grid.shape[0]
    gram = np.conj(grid).T @ grid / size  # column Gram matrix
    return float(np.sum(np.abs(gram) ** 2) / size**2)


def slot_raw(values: np.ndarray, p: int, n: int, slot: int) -> float:
    grid = pair_grid(values, p, n)
    size = p**n
    if slot == 0:
        # E_{x,x'} ||y -> g(x,y) conj g(x',y)||_{U^2}^4
        acc = 0.0
        for x in range(size):
            acc += float(np.sum(u2_fourth(grid[x][None, :] * np.conj(grid), p, n)))
        return acc / size**2
    if slot == 1:
        # rows of constant x + y: a_s(x) = g(x, s - x)
        minus = translations(p, n, -1)
        a = grid[np.arange(size)[None, :], minus]  # a[s, x] = g(x, s - x)
        gram = np.conj(a).T @ a / size
        return float(np.sum(np.abs(gram) ** 2) / size**2)
    if slot == 2:
        minus2 = translations(p, n, -2)
        lines = grid[np.arange(size)[None, :], minus2]  # lines[z, x] = g(x, z - 2x)
        return float(np.mean(np.abs(lines.mean(axis=1)) ** 2))
    raise ValueError(f"slot must be 0, 1 or 2, got {slot}")


def selfcheck(oracles) -> None:
    """Raise AssertionError unless these functions agree with the oracles."""
    p, n = 3, 1
    vals = random_table(p, 2 * n, 5)
    close = lambda a, b: abs(a - b) <= 1e-9 * max(1.0, abs(b))  # noqa: E731
    pairs = [
        (box_raw(vals, p, n), oracles.box_raw_oracle(list(vals), p, n).real),
        (slot_raw(vals, p, n, 0), oracles.slot0_raw_oracle(list(vals), p, n).real),
        (slot_raw(vals, p, n, 1), oracles.slot1_raw_oracle(list(vals), p, n).real),
        (slot_raw(vals, p, n, 2), oracles.slot2_raw_oracle(list(vals), p, n)),
        (gowers_raw(vals, p, 2, 3), oracles.gowers_raw_oracle(list(vals), p, 2, 3).real),
    ]
    for i, (got, want) in enumerate(pairs):
        if not close(got, want):
            raise AssertionError(f"reference value {i} is {got}, oracle says {want}")
    mask = random_mask(p, 4, 7)
    for corner, oracle in ((False, oracles.lshape_count_oracle), (True, oracles.corner_count_oracle)):
        if pattern_counts(mask, p, 2, corner) != oracle([bool(v) for v in mask], p, 2):
            raise AssertionError("reference pattern count disagrees with the oracle")
    spec = spectrum(vals, p, 2)
    want = oracles.dft_oracle(list(vals), p, 2)
    if not np.allclose(spec, np.asarray(want), atol=1e-12):
        raise AssertionError("reference spectrum disagrees with the oracle")
