"""Counting four-point and three-point configurations on Z_p^n x Z_p^n.

The four-point configuration through (x, y) with step z is

    (x, y), (x, y+z), (x, y+2z), (x+z, y)

and the three-point corner drops the (x, y+2z) point.  The normalized
average of a quadruple of tables over all (x, y, z) triples is

    lam(g0,g1,g2,g3) = E_{x,y,z} g0(x,y) g1(x,y+z) g2(x,y+2z) g3(x+z,y)

so for indicator inputs lam * p^(3n) is the exact configuration count
(z = 0 included; the z = 0 term is tracked separately because a
configuration is only interesting when z is nonzero).

The normalization is the full triple average over (x, y, z) in
(Z_p^n)^3, i.e. division by p^(3n).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import ResourceLimitError, add_map, check_size, combine, digit_table, scale_map
from .tables import FunctionTable, IndicatorSet, balanced

__all__ = [
    "PatternCount",
    "lshape_average",
    "corner_average",
    "telescope_check",
    "ObstructionExample",
    "obstruction_example",
    "count_system",
]


@dataclass(frozen=True)
class PatternCount:
    """A normalized configuration average, with exact counts when known.

    ``average`` is complex in general (the inputs may be complex
    tables); for indicator inputs it is real and average * p^(3n)
    reconstructs ``exact_count`` exactly.  ``nontrivial_count`` drops
    the z = 0 degenerate triples.
    """

    average: complex
    exact_count: int | None = None
    nontrivial_count: int | None = None

    @property
    def abs_average(self) -> float:
        return abs(self.average)

    @property
    def real_average(self) -> float:
        if abs(self.average.imag) > 1e-9:
            raise ValueError(f"average has imaginary part {self.average.imag}")
        return float(self.average.real)


def _common_grids(tables: list[FunctionTable]) -> tuple[int, int, list[np.ndarray]]:
    p = tables[0].p
    m = tables[0].m
    if any((t.p, t.m) != (p, m) for t in tables):
        raise ValueError("configuration tables live on different spaces")
    if m % 2 != 0:
        raise ValueError("configuration tables must live on a pair space")
    return p, m // 2, [t.as_pair_grid() for t in tables]


#: Bits in one packed word of an indicator pair grid.
WORD_BITS = 64


def _pack_rows(mask: np.ndarray, low: int) -> np.ndarray:
    """Pack a bool pair grid mask[x, y] into uint64 words w[y, x_hi].

    Bit x_lo of w[y, x_hi] is mask[x_lo + low * x_hi, y]: the low digits
    of x pick the bit and the high digits pick the word.
    """
    size = mask.shape[0]
    bits = np.zeros((size, size // low, WORD_BITS), dtype=bool)
    bits[:, :, :low] = mask.T.reshape(size, size // low, low)
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")[..., 0]


def _indicator_counts(tables: list[FunctionTable], p: int, n: int, use_third_point: bool) -> tuple[int, int]:
    """(all, z = 0) configuration counts of indicator tables, in packed words.

    Every point of the configuration but the last shares x with (x, y),
    so each is a row gather y -> y + c z of one packed table.  The last
    point (x + z, y) moves x: digits add without carry, so the low digits
    of z shift bits inside a word and the high digits permute words.
    The last table is therefore packed once per low shift, and each z
    takes one word gather of the copy for its low digits.
    """
    size = p**n
    k = 0
    while k < n and p ** (k + 1) <= WORD_BITS:
        k += 1
    low = p**k
    distinct = {id(t): t for t in tables}
    masks = {key: t.as_pair_grid() for key, t in distinct.items()}
    words = {key: _pack_rows(masks[key], low) for key in {id(t) for t in tables[:-1]}}
    first = [words[id(t)] for t in tables[:-1]]
    last = masks[id(tables[-1])]
    shifted = [_pack_rows(last[add_map(p, n, z_lo)], low) for z_lo in range(low)]
    steps = (1, 2) if use_third_point else (1,)
    scales = [scale_map(p, n, c) for c in steps]
    total = trivial = 0
    for z in range(size):
        acc = shifted[z % low][:, add_map(p, n - k, z // low)]
        acc &= first[0]
        for w, scale in zip(first[1:], scales):
            acc &= w[add_map(p, n, int(scale[z]))]
        term = int(np.bitwise_count(acc).sum())
        total += term
        if z == 0:
            trivial = term
    return total, trivial


def _count_pattern(tables: list[FunctionTable], use_third_point: bool) -> PatternCount:
    """Shared kernel for the corner and the four-point configuration.

    Indicator inputs are counted exactly on bit-packed grids (see
    ``_indicator_counts``), which keeps p = 3, n = 7 within seconds;
    any other input is averaged in complex arithmetic, real tables too.
    """
    p, n, grids = _common_grids(tables)
    size = p**n
    denom = size**3
    if all(t.kind == "indicator" for t in tables):
        count, trivial = _indicator_counts(tables, p, n, use_third_point)
        return PatternCount(complex(count / denom), count, count - trivial)
    grids = [g.astype(np.complex128, copy=False) for g in grids]
    total = 0.0 + 0.0j
    for z in range(size):
        col1 = add_map(p, n, z)
        if use_third_point:
            z2 = int(scale_map(p, n, 2)[z])
            col2 = add_map(p, n, z2)
            term_grid = grids[0] * grids[1][:, col1] * grids[2][:, col2] * grids[3][col1, :]
        else:
            term_grid = grids[0] * grids[1][:, col1] * grids[2][col1, :]
        total = total + term_grid.sum()
    return PatternCount(complex(total / denom))


def lshape_average(g0: FunctionTable, g1: FunctionTable, g2: FunctionTable, g3: FunctionTable) -> PatternCount:
    """E_{x,y,z} g0(x,y) g1(x,y+z) g2(x,y+2z) g3(x+z,y)."""
    return _count_pattern([g0, g1, g2, g3], use_third_point=True)


def corner_average(g0: FunctionTable, g1: FunctionTable, g2: FunctionTable) -> PatternCount:
    """E_{x,y,z} g0(x,y) g1(x,y+z) g2(x+z,y)."""
    return _count_pattern([g0, g1, g2], use_third_point=False)


def ones_like(s: IndicatorSet | FunctionTable) -> FunctionTable:
    table = s.table if isinstance(s, IndicatorSet) else s
    return FunctionTable(table.p, table.m, np.ones(table.values.size, dtype=bool))


def telescope_check(s: IndicatorSet, slack: float = 1e-9) -> dict:
    """Multilinearity bound for the four-point average of a set.

    Writing the indicator as (balanced part) + density in one slot at a
    time gives

        lam(S,S,S,S) - sigma^4 = lam(g,S,S,S) + sigma lam(1,g,S,S)
                                 + sigma^2 lam(1,1,g,S) + sigma^3 E g

    and E g = 0, so |lam(S,S,S,S) - sigma^4| is at most the triangle
    bound over the first three terms.
    """
    sigma = s.density
    st = s.table
    one = ones_like(s)
    g = balanced(s)
    lam_all = lshape_average(st, st, st, st)
    t0 = abs(lshape_average(g, st, st, st).average)
    t1 = abs(lshape_average(one, g, st, st).average)
    t2 = abs(lshape_average(one, one, g, st).average)
    lhs = abs(lam_all.average - sigma**4)
    rhs = t0 + sigma * t1 + sigma**2 * t2
    return {
        "density": sigma,
        "configuration_average": lam_all.average.real,
        "lhs": lhs,
        "rhs": rhs,
        "terms": [t0, t1, t2],
        "holds": lhs <= rhs + slack,
    }


@dataclass(frozen=True)
class ObstructionExample:
    """A structured set with many more configurations than a random one."""

    kind: str
    p: int
    n: int
    seed: int | None
    set: IndicatorSet
    predicted_density: float
    predicted_count: int
    extras: dict = dc_field(default_factory=dict)


def obstruction_example(kind: str, p: int, n: int, seed: int | None = None) -> ObstructionExample:
    """Sets whose configuration count far exceeds the random baseline.

    kind "dot": {(x, y) : x . y = 0}.  Its density is exactly
    ((N-1) N/p + N) / N^2.  Its configurations are the pairwise
    orthogonal triples x . y = x . z = y . z = 0, which gives the closed
    form, with M = N/p and I the number of nonzero x with x . x = 0:

        [N + (N-1) N/p] + (N-1-I) [M + (M-1) M/p] + I [p M + (M-p) M/p]

    I = p^(n-1) - 1 at odd n, and p^(n-1) - 1 + eta (p-1) p^(n/2-1) at
    even n, where eta = +1 if (-1)^(n/2) is a square mod p, else -1.
    The brute-force count stays authoritative; the closed form is
    carried along for comparison.

    kind "random_phi": {(x, y) : phi(x) . (y - u) = 0} with phi and u
    drawn uniformly, resampling any phi(x) = 0 so every row is a
    genuine hyperplane.  Density exactly 1/p; count ~ N^3/p^3.

    kind "coordinate": {(x, y) : y_0 = u(x)} with u uniform; density
    exactly 1/p, count ~ N^3/p^3 in expectation.
    """
    check_size(p, 2 * n)
    size = p**n
    d = digit_table(p, n)
    if kind == "dot":
        if n < 3:
            raise ValueError("the dot-set construction needs n >= 3")
        mask = (d @ d.T) % p == 0  # mask[x, y]
        s = IndicatorSet.from_mask(p, 2 * n, mask.T.reshape(-1))  # pair index = x + N y
        npow = size // p
        predicted_density = ((size - 1) * npow + size) / size**2
        isotropic = npow - 1
        if n % 2 == 0:
            eta = 1 if pow((-1) ** (n // 2) % p, (p - 1) // 2, p) == 1 else -1
            isotropic += eta * (p - 1) * p ** (n // 2 - 1)
        closed = (
            size + (size - 1) * size // p
            + (size - 1 - isotropic) * (npow + (npow - 1) * npow // p)
            + isotropic * (p * npow + (npow - p) * npow // p)
        )
        return ObstructionExample("dot", p, n, None, s, predicted_density, closed,
                                  {"closed_form_count": closed})
    if kind == "random_phi":
        rng = np.random.default_rng(seed)
        phi = rng.integers(0, p, size=(size, n))
        resampled = 0
        for x in range(size):
            while not phi[x].any():
                phi[x] = rng.integers(0, p, size=n)
                resampled += 1
        u = rng.integers(0, p, size=n)
        mask = (phi @ ((d - u) % p).T) % p == 0  # mask[x, y]
        s = IndicatorSet.from_mask(p, 2 * n, mask.T.reshape(-1))
        return ObstructionExample("random_phi", p, n, seed, s, 1.0 / p, size**3 // p**3,
                                  {"resampled_rows": resampled})
    if kind == "coordinate":
        rng = np.random.default_rng(seed)
        u_vals = rng.integers(0, p, size=size)
        mask = d[:, 0][None, :] == u_vals[:, None]  # mask[x, y] on y digit 0
        s = IndicatorSet.from_mask(p, 2 * n, mask.T.reshape(-1))
        return ObstructionExample("coordinate", p, n, seed, s, 1.0 / p, size**3 // p**3, {})
    raise ValueError(f"unknown obstruction kind {kind!r}")


def count_system(tables, system, n: int, cap: int = 10**8) -> PatternCount:
    """Count tuples of (Z_p^n)^r whose form images all land in the sets.

    ``system`` is a LinearFormSystem; form i may stack k rows, mapping
    the variable tuple to Z_p^(k n), and tables[i] must live there.
    Indicator inputs give exact integer counts.
    """
    p = system.p
    size = p**n
    r = system.r
    if size**r > cap:
        raise ResourceLimitError(f"tuple space of size {size ** r} exceeds cap")
    if len(tables) != len(system.forms):
        raise ValueError(f"{len(system.forms)} forms but {len(tables)} tables")
    tabs = [t.table if isinstance(t, IndicatorSet) else t for t in tables]
    mesh = np.indices((size,) * r).reshape(r, -1)
    all_indicator = all(t.kind == "indicator" for t in tabs)
    prod = np.ones(mesh.shape[1], dtype=np.int64 if all_indicator else np.complex128)
    for form, tab in zip(system.forms, tabs):
        rows = form.rows
        if tab.m != len(rows) * n:
            raise ValueError(f"table on {tab.m} coordinates does not match a {len(rows)}-row form")
        idx = np.zeros(mesh.shape[1], dtype=np.int64)
        stride = 1
        for row in rows:
            idx = idx + stride * combine(p, n, row, mesh)
            stride *= size
        prod = prod * tab.values[idx]
    denom = size**r
    if all_indicator:
        count = int(prod.sum())
        return PatternCount(complex(count / denom), count, None)
    return PatternCount(complex(prod.sum() / denom))
