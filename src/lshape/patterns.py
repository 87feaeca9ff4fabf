"""Counting four-point and three-point configurations on Z_p^n x Z_p^n.

A pattern lists points (a, b), each the point (x + a z, y + b z) through
(x, y) with step z.  The four-point configuration ``LSHAPE`` is

    (x, y), (x, y+z), (x, y+2z), (x+z, y)

and the three-point ``CORNER`` drops (x, y+2z).  The packed kernel needs
their shape: (x, y) first, and only the last point moving x.  The
normalized average of a quadruple of tables over all (x, y, z) triples is

    lam(g0,g1,g2,g3) = E_{x,y,z} g0(x,y) g1(x,y+z) g2(x,y+2z) g3(x+z,y)

so for indicator inputs lam * p^(3n) is the exact configuration count
(z = 0 included; the z = 0 term is tracked separately because a
configuration is only interesting when z is nonzero).

Indicator inputs are counted on bit-packed grids.  Any other average, of
a configuration or of a linear form system, goes through one enumerator,
``_form_sum``, which sums over one value of the first variable at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .field import ResourceLimitError, check_size, combine, digit_table, scale_map, translations
from .tables import FunctionTable

__all__ = [
    "PatternCount",
    "lshape_average",
    "corner_average",
    "ones_like",
    "telescope_check",
    "ObstructionExample",
    "obstruction_example",
    "count_system",
]


@dataclass(frozen=True)
class PatternCount:
    """A normalized configuration average, with exact counts when known.

    ``average`` is complex in general (the inputs may be complex
    tables); for indicator inputs it is real and average times the
    number of tuples reconstructs ``exact_count`` exactly.
    ``nontrivial_count`` drops the z = 0 degenerate triples of a
    configuration; ``count_system`` leaves it None.
    """

    average: complex
    exact_count: int | None = None
    nontrivial_count: int | None = None

    @property
    def real_average(self) -> float:
        if abs(self.average.imag) > 1e-9:
            raise ValueError(f"average has imaginary part {self.average.imag}")
        return float(self.average.real)


#: Each pattern once, for the counters and the search table: (x, y) first,
#: the middle points on its x, and the last the only point that moves x.
LSHAPE = ((0, 0), (0, 1), (0, 2), (1, 0))
CORNER = ((0, 0), (0, 1), (1, 0))

#: Most variable tuples ``_form_sum`` enumerates.
MAX_TUPLES = 10**8


def _form_sum(tables: list[np.ndarray], forms, p: int, n: int) -> int | float | complex:
    """sum over v in (Z_p^n)^r of prod_i tables[i](form_i(v)), one v_0 at a time.

    Form i is k coefficient rows in (v_0, ..., v_{r-1}); tables[i] holds
    p^(kn) values, row j's image as digit block j.  The sum is exact in
    int64 when all tables are bool, float64 when all are real, complex128
    otherwise.  Table i is a C-ordered (p^n,)*k grid, row j on axis k-1-j,
    and v_l runs on axis r-1-l of the grid of v_1, ..., v_{r-1}: rows
    c_j v_0 + v_(l_j), l_j increasing, make the translated table a view
    of that grid, and any other form reads a precomputed gather.
    """
    size, r = p**n, len(forms[0][0])
    if size**r > MAX_TUPLES:
        raise ResourceLimitError(f"tuple space of size {size ** r} exceeds cap {MAX_TUPLES}")
    dtype = np.result_type(np.int64, *tables)
    variables = [np.arange(size).reshape((size,) + (1,) * l) for l in range(r - 1)]
    factors, scales = [], []
    for values, rows in zip(tables, forms):
        k = len(rows)
        grid = values.astype(dtype, copy=False).reshape((size,) * k)
        # translations and gathers own their buffers: fresh ones are paged in anew per v_0
        shifts = []
        for j, row in enumerate(rows):
            if row[0] % p:
                shifts.append((k - 1 - j, len(scales), np.empty_like(grid)))
                scales.append(scale_map(p, n, row[0] % p))
        rests = [[c % p for c in row[1:]] for row in rows]
        axes = [rest.index(1) for rest in rests if sum(rest) == 1]  # the rows c v_0 + v_l
        if len(axes) == k and axes == sorted(set(axes)):
            shape, idx, out = tuple(size if l in axes else 1 for l in range(r - 2, -1, -1)), None, None
        else:
            idx = sum(size**j * combine(p, n, row[1:], variables) for j, row in enumerate(rows))
            shape, out = None, np.empty(idx.shape, dtype)
        factors.append((grid, shifts, shape, idx, out))
    # column v_0 holds the indices of c v_0 for each shifted row's c
    multiples = np.array(scales, dtype=np.int64).reshape(len(scales), size)
    acc = np.empty((size,) * (r - 1), dtype=dtype)
    total = 0
    for v0 in range(size):
        moves = translations(p, n, multiples[:, v0])
        acc.fill(1)
        for grid, shifts, shape, idx, out in factors:
            for axis, row, buf in shifts:
                # the maps are permutations, so mode="clip" changes no index
                grid = np.take(grid, moves[row], axis=axis, out=buf, mode="clip")
            acc *= grid.reshape(shape) if idx is None else np.take(grid, idx, out=out, mode="clip")
        total += acc.sum().item()
    return total


#: Most bits one packed word of an indicator pair grid can hold.
WORD_BITS = 64


def _word_layout(p: int, n: int) -> tuple[int, int, np.dtype]:
    """(k, p^k, word dtype) of the packed layout on Z_p^n x Z_p^n.

    k is the largest k <= n with p^k <= 64, so the p^k points of one
    coset of the high digits fit in one word, and the word is the
    smallest unsigned little-endian integer with at least p^k bits:
    uint32 at p = 3 and 5, uint64 at p = 7, uint16 at p = 11 and 13, and
    uint8 once p > 64 leaves k = 0.
    """
    k = 0
    while k < n and p ** (k + 1) <= WORD_BITS:
        k += 1
    low = p**k
    nbytes = next(b for b in (1, 2, 4, 8) if 8 * b >= low)
    return k, low, np.dtype(f"<u{nbytes}")


def _pack_bits(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Pack the last axis of a bool array into one word each, bit j from bits[..., j]."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (dtype.itemsize,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(dtype)[..., 0]


def _pack_rows(mask: np.ndarray, low: int, dtype: np.dtype) -> np.ndarray:
    """Pack a bool pair grid mask[x, y] into words w[y, x_hi] of ``dtype``.

    Bit x_lo of w[y, x_hi] is mask[x_lo + low * x_hi, y]: the low digits
    of x pick the bit and the high digits pick the word.
    """
    size = mask.shape[0]
    return _pack_bits(mask.T.reshape(size, size // low, low), dtype)


def _shifted_copies(words: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """Copy z_lo of packed words, for every z_lo < p^k, made by bit shifts.

    Bit j of copy z_lo is bit j + z_lo of ``words``, digits added without
    carry over the k low digits.  Copy z_lo steps copy z_lo - p^i once
    along digit i, its lowest nonzero digit: a bit whose digit i is not
    p - 1 comes from p^i places up, and a bit whose digit i is p - 1
    wraps round from the bit with digit i equal to 0.
    """
    d = digit_table(p, k)
    keep = _pack_bits(d.T != p - 1, words.dtype)
    wrap = _pack_bits(d.T == 0, words.dtype)
    edge = np.empty_like(words)
    copies = [words]
    for z_lo in range(1, p**k):
        i = int(np.flatnonzero(d[z_lo])[0])
        step = p**i
        src = copies[z_lo - step]
        out = src >> step
        out &= keep[i]
        np.bitwise_and(src, wrap[i], out=edge)
        edge <<= (p - 1) * step
        out |= edge
        copies.append(out)
    return copies


def _indicator_counts(tables: list[FunctionTable], p: int, n: int, pattern: tuple) -> tuple[int, int]:
    """(all, z = 0) counts of ``pattern`` in indicator tables, in packed words.

    Table i sits on point i of ``pattern``, which has the shape of
    ``LSHAPE``: the first point is (x, y), and each middle point
    (x, y + b z) is a row gather y -> y + b z of one packed table.  The
    last point (x + z, y) moves x: digits add without carry, so the low
    digits z_lo of z shift bits inside a word and the high digits z_hi
    move whole words.  The sum over x of A(x) B(x + z) equals the sum of
    A(x - z_hi) B(x + z_lo), so once per high shift the words of every
    first table move by -z_hi, and each z then reads the last table's
    bit-shifted copy for z_lo as it is.  Each distinct table is packed
    once, and one ``translations`` call per high shift gives the rows
    y + b z of its p^k values of z.
    """
    size = p**n
    k, low, dtype = _word_layout(p, n)
    # a word holds at most low set bits, so a uint8 partial sum of its
    # counts takes 255 // low values of z, and its uint32 total, at most
    # low * p^n bits over all p^n values of z, holds them all
    if low * size >= 2**32:
        raise AssertionError(f"{low} * {size} set bits overflow the uint32 totals")
    distinct = {id(t): t for t in tables}
    words = {key: _pack_rows(t.as_pair_grid(), low, dtype) for key, t in distinct.items()}
    shifted = _shifted_copies(words[id(tables[-1])], p, k)
    first = [id(t) for t in tables[:-1]]
    moved = {key: np.empty_like(words[key]) for key in first}
    scales = np.stack([scale_map(p, n, b) for _, b in pattern[1:-1]])
    negated = scale_map(p, n - k, p - 1)
    acc = np.empty_like(shifted[0])
    gathered = np.empty_like(acc)
    counts = np.empty(acc.shape, dtype=np.uint8)
    partial, totals = np.zeros_like(counts), np.zeros(acc.shape, dtype=np.uint32)
    trivial = 0
    for z_hi in range(size // low):
        # the maps are permutations, so mode="clip" changes no index; it
        # only spares np.take the buffered copy that mode="raise" makes
        back = translations(p, n - k, negated[z_hi : z_hi + 1])[0]
        for key, out in moved.items():
            np.take(words[key], back, axis=1, out=out, mode="clip")
        block = scales[:, z_hi * low : (z_hi + 1) * low]
        rows = translations(p, n, block.ravel()).reshape(len(scales), low, size)
        for z_lo in range(low):
            np.bitwise_and(shifted[z_lo], moved[first[0]], out=acc)
            for key, row in zip(first[1:], rows[:, z_lo]):
                np.take(moved[key], row, axis=0, out=gathered, mode="clip")
                acc &= gathered
            np.bitwise_count(acc, out=counts)
            partial += counts
            if (z_hi * low + z_lo + 1) % (255 // low) == 0:
                totals += partial
                partial.fill(0)
            if z_hi == z_lo == 0:
                trivial = int(counts.sum())
    totals += partial
    return int(totals.sum(dtype=np.int64)), trivial


def _count_pattern(tables: list[FunctionTable], pattern: tuple) -> PatternCount:
    """Average of ``pattern`` over the tables, table i on point i.

    Indicator inputs are counted exactly on bit-packed grids (see
    ``_indicator_counts``), which keeps p = 3, n = 7 within seconds; any
    other input is summed by ``_form_sum``, which refuses over MAX_TUPLES.
    """
    p, m = tables[0].p, tables[0].m
    if any((t.p, t.m) != (p, m) for t in tables):
        raise ValueError("configuration tables live on different spaces")
    if m % 2 != 0:
        raise ValueError("configuration tables must live on a pair space")
    n, denom = m // 2, p ** (3 * m // 2)
    if all(t.kind == "indicator" for t in tables):
        count, trivial = _indicator_counts(tables, p, n, pattern)
        return PatternCount(complex(count / denom), count, count - trivial)
    # point (a, b) as a 2-row form in (z, x, y), an x row over a y row
    forms = [((a, 1, 0), (b, 0, 1)) for a, b in pattern]
    return PatternCount(complex(_form_sum([t.values for t in tables], forms, p, n) / denom))


def lshape_average(g0: FunctionTable, g1: FunctionTable, g2: FunctionTable, g3: FunctionTable) -> PatternCount:
    """E_{x,y,z} g0(x,y) g1(x,y+z) g2(x,y+2z) g3(x+z,y)."""
    return _count_pattern([g0, g1, g2, g3], LSHAPE)


def corner_average(g0: FunctionTable, g1: FunctionTable, g2: FunctionTable) -> PatternCount:
    """E_{x,y,z} g0(x,y) g1(x,y+z) g2(x+z,y)."""
    return _count_pattern([g0, g1, g2], CORNER)


def ones_like(f: FunctionTable) -> FunctionTable:
    return FunctionTable(f.p, f.m, np.ones(f.size, dtype=bool))


def telescope_check(s: FunctionTable) -> dict:
    """Multilinearity bound for the four-point average of a set.

    Writing the indicator as (balanced part) + density in one slot at a
    time gives, with g = S - sigma,

        lam(S,S,S,S) - sigma^4 = lam(g,S,S,S) + sigma lam(1,g,S,S)
                                 + sigma^2 lam(1,1,g,S) + sigma^3 E g

    and E g = 0, so |lam(S,S,S,S) - sigma^4| is at most the triangle
    bound over the first three terms.  Each term is linear in g, so
    lam(1^j, g, S^(3-j)) = lam(1^j, S^(4-j)) - sigma lam(1^(j+1), S^(3-j)):
    four exact indicator counts give every term as a fraction, and the
    floats reported are those fractions rounded once.
    """
    if s.kind != "indicator":
        raise ValueError(f"telescope_check needs an indicator table, got kind {s.kind!r}")
    sigma = Fraction(s.cardinality, s.size)
    cube = s.p ** (3 * (s.m // 2))
    one = ones_like(s)
    lam = [Fraction(lshape_average(*[one] * j, *[s] * (4 - j)).exact_count, cube) for j in range(4)]
    terms = [abs(lam[j] - sigma * lam[j + 1]) for j in range(3)]
    lhs = abs(lam[0] - sigma**4)
    rhs = terms[0] + sigma * terms[1] + sigma**2 * terms[2]
    return {
        "density": float(sigma),
        "configuration_average": float(lam[0]),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "terms": [float(t) for t in terms],
        "holds": lhs <= rhs,
    }


@dataclass(frozen=True)
class ObstructionExample:
    """A structured set with many more configurations than a random one."""

    kind: str
    p: int
    n: int
    seed: int | None
    set: FunctionTable
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
    size = check_size(p, n)  # refuses a negative n by the n given, not by 2n
    check_size(p, 2 * n)
    if n < 1 and kind in ("random_phi", "coordinate"):
        # no phi(x) != 0 and no digit y_0 exist on Z_p^0
        raise ValueError(f"the {kind} construction needs n >= 1")
    d = digit_table(p, n)
    if kind == "dot":
        if n < 3:
            raise ValueError("the dot-set construction needs n >= 3")
        # x . y mod p one digit at a time: the running residue stays below
        # p and each product at most (p-1)^2, so every sum fits in p(p-1)
        small = np.min_scalar_type(p * (p - 1))
        dot = np.zeros((size, size), dtype=small)
        term = np.empty_like(dot)
        for col in d.T.astype(small):
            np.multiply.outer(col, col, out=term)
            dot += term
            dot %= p
        mask = dot == 0  # mask[x, y]
        s = FunctionTable.from_pair_grid(p, n, mask)
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
        s = FunctionTable.from_pair_grid(p, n, mask)
        return ObstructionExample("random_phi", p, n, seed, s, 1.0 / p, size**3 // p**3,
                                  {"resampled_rows": resampled})
    if kind == "coordinate":
        rng = np.random.default_rng(seed)
        u_vals = rng.integers(0, p, size=size)
        mask = d[:, 0][None, :] == u_vals[:, None]  # mask[x, y] on y digit 0
        s = FunctionTable.from_pair_grid(p, n, mask)
        return ObstructionExample("coordinate", p, n, seed, s, 1.0 / p, size**3 // p**3, {})
    raise ValueError(f"unknown obstruction kind {kind!r}")


def count_system(tables, system, n: int) -> PatternCount:
    """Count tuples of (Z_p^n)^r whose form images all land in the sets.

    ``system`` is a LinearFormSystem; form i may stack k rows, mapping
    the variable tuple to Z_p^(k n), and tables[i] must live there.
    ``_form_sum`` does the sum: indicator inputs give exact integer
    counts, and tuple spaces above MAX_TUPLES are refused.
    """
    if len(tables) != len(system.forms):
        raise ValueError(f"{len(system.forms)} forms but {len(tables)} tables")
    for form, tab in zip(system.forms, tables):
        if tab.m != len(form.rows) * n:
            raise ValueError(f"table on {tab.m} coordinates does not match a {len(form.rows)}-row form")
    total = _form_sum([t.values for t in tables], [f.rows for f in system.forms], system.p, n)
    return PatternCount(complex(total / system.p ** (system.r * n)), total if isinstance(total, int) else None)
