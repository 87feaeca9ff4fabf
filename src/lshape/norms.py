"""Uniformity norms: U^s, the box norm and the slot norms.

The multiplicative difference of f in direction h is
Delta_h f(x) = f(x) conj(f(x + h)), and

    ||f||_{U^s}^(2^s) = E_{h} ||Delta_h f||_{U^(s-1)}^(2^(s-1)),
    ||f||_{U^1}^2     = |E f|^2.

The fast evaluation path bottoms out at s = 2 through the Fourier
identity sum |f_hat|^4; ``definition_only=True`` forces the literal
nested sum over all difference tuples instead, which is the audit path.
It loops in Python over the p^(m(s-1)) tuples (h_1, ..., h_(s-1)) and
gathers the last difference and x together as blocks of index arrays,
so it still touches all p^(m(s+1)) (x, h) points, against the fast
path's p^(m(s-2)) batched transforms.

Functions of a pair (x, y) in Z_p^n x Z_p^n additionally carry
direction-constrained norms.  A direction pattern is a residue pair
(a, b) standing for the line h -> (a h, b h); stacking patterns and
averaging the iterated differences gives the directional averages, and
three specific stacks give the slot norms:

    slot 0:  (0,h1), (0,h2), (h3,0)  - eighth-power average
    slot 1:  (0,h1), (-h2,h2)        - fourth-power average
    slot 2:  (-h,2h)                 - square average

Slot k is exactly the norm that controls the four-point configuration
average when the first k argument slots are the constant 1; see
patterns.lshape_average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import ResourceLimitError, combine
from .spectral import dft_batch, u2_fourth_batch
from .tables import FunctionTable, line_means

__all__ = [
    "NormValue",
    "gowers_norm",
    "box_norm",
    "slot_norm",
    "gcs_check",
]

#: Radicands of norm powers are averages of squared magnitudes; anything
#: below this is a bug, not roundoff.
RADICAND_FLOOR = -1e-12

#: Cap on the estimated operation count of a norm evaluation.
COST_CAP = 10**8


@dataclass(frozen=True)
class NormValue:
    """A norm together with the power at which its average was taken."""

    value: float
    power: int
    raw_average: complex

    def __float__(self) -> float:
        return self.value


def _root(raw: complex, power: int) -> NormValue:
    re = float(np.real(raw))
    im = float(np.imag(raw))
    if re < RADICAND_FLOOR:
        raise ValueError(f"norm radicand {re} is negative beyond tolerance; likely a bug")
    if abs(im) > 1e-9 * max(1.0, abs(re)):
        raise ValueError(f"norm radicand has non-real part {im}; likely a bug")
    return NormValue(max(re, 0.0) ** (1.0 / power), power, complex(raw))


def _u_fast_raw(values: np.ndarray, p: int, m: int, s: int) -> float:
    """E_{h_1..h_(s-2)} ||Delta...f||_{U^2}^4 via batched transforms."""
    size = p**m
    values = values.astype(np.complex128, copy=False)  # float64 sums round differently
    if s == 1:
        mu = np.sum(values) / size
        return float(abs(mu) ** 2)
    if s == 2:
        a2 = np.abs(dft_batch(values[None, :], p, m)[0]) ** 2
        return float(np.sum(a2 * a2))
    x = np.arange(size)
    shift = combine(p, m, (1, 1), (x[:, None], x[None, :]))  # shift[h, x] = x + h
    batch = values[None, :]
    for _ in range(s - 2):
        # row r * size + h of the next batch is Delta_h of row r
        moved = np.conj(batch)[:, shift]
        batch = np.multiply(batch[:, None, :], moved, out=moved).reshape(-1, size)
    fourths = u2_fourth_batch(batch, p, m)
    return float(np.sum(fourths) / len(fourths))


#: Entries per index block of the difference-cube kernel, which bounds its
#: index and product temporaries at a few tens of MB.
_CUBE_BLOCK = 1 << 20


def _cube_average(corners, steps, p: int, m: int) -> complex:
    """E over (h_1, ..., h_s) and x of prod_w C^|w| corners[w](x + w . h).

    ``corners`` holds 2^s flat value arrays on Z_p^m, one per w in
    {0,1}^s taken in itertools.product order, and C is complex
    conjugation.  ``steps[i]`` is the index array of the group elements
    that h_i runs over.

    Python loops over (h_1, ..., h_(s-1)) only.  The pairs (h_s, x) form
    one flat range, cut into blocks of at most _CUBE_BLOCK entries whose
    indices x + h_s come from ``combine``.  The corners with w_s = 0 do
    not depend on h_s, so their product is formed once per tuple and
    gathered as one factor.
    """
    s = len(steps)
    size = p**m
    cube = list(itertools.product((0, 1), repeat=s))
    corners = [c.astype(np.complex128, copy=False) for c in corners]
    factors = [np.conj(c) if sum(bits) % 2 else c for bits, c in zip(cube, corners)]
    # product order makes w_s the last bit: even positions have w_s = 0,
    # and positions 2j, 2j + 1 share the j-th w' = (w_1, ..., w_(s-1))
    low, high = factors[0::2], factors[1::2]
    outer_bits = np.array(cube[0::2], dtype=np.int64)[:, :-1]
    outer, last = steps[:-1], steps[-1]
    x = np.arange(size)
    pairs = len(last) * size
    total = 0.0 + 0.0j
    for start in range(0, pairs, _CUBE_BLOCK):
        flat = np.arange(start, min(start + _CUBE_BLOCK, pairs))
        xk = flat % size
        moved = combine(p, m, (1, 1), (xk, last[flat // size]))
        for hs in itertools.product(*outer):
            # offsets[j] is the index of w' . (h_1, ..., h_(s-1)); a 0/1
            # multiple of an index is the index of that multiple, and at
            # s = 1 combine returns a scalar zero
            offsets = np.broadcast_to(
                combine(p, m, (1,) * (s - 1), [outer_bits[:, i] * h for i, h in enumerate(hs)]),
                (len(low),),
            )
            cols = combine(p, m, (1, 1), (offsets[:, None], x[None, :]))
            base = low[0][cols[0]]
            for vals, col in zip(low[1:], cols[1:]):
                base *= vals[col]
            prod = base[xk]
            for vals, col in zip(high, cols):
                prod *= vals[col][moved]
            total += prod.sum()
    return complex(total / (pairs * math.prod(len(h) for h in outer)))


def _u_definition_raw(values: np.ndarray, p: int, m: int, s: int) -> complex:
    """The literal nested sum over all (h_1, ..., h_s) difference tuples."""
    return _cube_average([values] * 2**s, [np.arange(p**m)] * s, p, m)


def gowers_norm(f: FunctionTable, s: int, definition_only: bool = False) -> NormValue:
    """||f||_{U^s} on the whole group, refused past COST_CAP estimated operations."""
    if s < 1:
        raise ValueError("U^s needs s >= 1")
    size = f.p**f.m
    est = size ** (s + 1) if definition_only else size ** max(s - 2, 0) * size
    if est > COST_CAP:
        raise ResourceLimitError(
            f"U^{s} on {size} points needs ~{est} operations (cap {COST_CAP})"
        )
    if definition_only:
        raw = _u_definition_raw(f.values, f.p, f.m, s)
    else:
        raw = _u_fast_raw(f.values, f.p, f.m, s)
    return _root(raw, 2**s)


# -- pair-space norms ---------------------------------------------------


def _pair_split(g: FunctionTable) -> tuple[int, int, np.ndarray]:
    if g.m % 2 != 0:
        raise ValueError("pair-space norms need a table on Z_p^(2n)")
    n = g.m // 2
    # complex128 for every kind: float64 matmuls and means round differently,
    # and a bool matmul is a logical one
    return g.p, n, g.as_pair_grid().astype(np.complex128, copy=False)


def _box_raw(grid: np.ndarray) -> float:
    """E over (x, x', y, y') of the alternating rectangle product of a
    pair grid: the mean of |corr|^2 over the row correlations
    corr = grid grid^*, summed as one vdot with no |corr| temporary."""
    corr = grid @ np.conj(grid).T
    return float(np.vdot(corr, corr).real) / grid.shape[0] ** 4


def box_norm(g: FunctionTable) -> NormValue:
    """The rectangle norm: fourth root of E over (x, x', y, y') of the
    alternating product g(x,y) conj g(x,y') conj g(x',y) g(x',y')."""
    return _root(_box_raw(_pair_split(g)[2]), 4)


def slot_norm(g: FunctionTable, slot: int) -> NormValue:
    """Direction-constrained norms of a pair-space function, slot in {0,1,2}.

    slot 0: eighth root of E_{x,h3} ||y -> g(x,y) conj g(x+h3,y)||_{U^2}^4.
            The rows for -h3 are those for h3, conjugated and permuted,
            so their fourth powers agree: each pair {h3, -h3} is
            transformed once and counted twice.
    slot 1: the box norm after the shear (a, b) = (x, x+y); the two
            directions (0,h1), (-h2,h2) become the axis pair (0,h1), (-h2,0).
    slot 2: square root of E_z |E_x g(x, z-2x)|^2, averaging over the
            lines on which 2x + y is constant.
    """
    p, n, grid = _pair_split(g)
    size = p**n
    if slot == 0:
        x = np.arange(size)
        acc = 0.0
        # h3 = 0 and the smaller index of each pair {h3, -h3}
        for h3 in np.flatnonzero(x <= combine(p, n, (-1,), (x,))):
            rows = grid * np.conj(grid[combine(p, n, (1, 1), (x, h3)), :])
            term = float(np.mean(u2_fourth_batch(rows, p, n)))
            acc += term if h3 == 0 else 2 * term
        return _root(acc / size, 8)
    if slot == 1:
        x = np.arange(size)
        return _root(_box_raw(grid[x[:, None], combine(p, n, (1, -1), (x[None, :], x[:, None]))]), 4)
    if slot == 2:
        raw = float(np.mean(np.abs(line_means(grid, p, n, "2x+y")) ** 2))
        return _root(raw, 2)
    raise ValueError(f"slot must be 0, 1 or 2, got {slot}")


def gcs_check(family, s: int) -> dict:
    """Verify |E prod_w f_w(x + w . h)| <= prod_w ||f_w||_{U^s}.

    ``family`` lists 2^s tables indexed by the subsets of {1..s} in
    binary counting order (bit i of the position = coordinate i of w).
    The product average is the literal sum, refused past COST_CAP by the
    estimate of ``gowers_norm(definition_only=True)``.
    """
    if len(family) != 2**s:
        raise ValueError(f"need 2^{s} = {2 ** s} tables, got {len(family)}")
    p, m = family[0].p, family[0].m
    if any((t.p, t.m) != (p, m) for t in family):
        raise ValueError("family members live on different spaces")
    size = p**m
    est = size ** (s + 1)
    if est > COST_CAP:
        raise ResourceLimitError(
            f"the U^{s} cube product on {size} points needs ~{est} operations (cap {COST_CAP})"
        )
    if s >= 4 and m >= 2:
        raise ResourceLimitError("the product average is capped at s <= 3 for m >= 2")
    # family position w has bit i = coordinate i of the corner
    corners = [family[sum(bit << i for i, bit in enumerate(bits))].values
               for bits in itertools.product((0, 1), repeat=s)]
    lhs = abs(_cube_average(corners, [np.arange(size)] * s, p, m))
    norms = [gowers_norm(t, s).value for t in family]
    rhs = float(np.prod(norms))
    return {"product_average": lhs, "norm_product": rhs, "norms": norms, "holds": lhs <= rhs + 1e-9}
