"""Uniformity norms: U^s, the box norm, slot norms, directional averages.

The multiplicative difference of f in direction h is
Delta_h f(x) = f(x) conj(f(x + h)), and

    ||f||_{U^s}^(2^s) = E_{h} ||Delta_h f||_{U^(s-1)}^(2^(s-1)),
    ||f||_{U^1}^2     = |E f|^2.

The fast evaluation path bottoms out at s = 2 through the Fourier
identity sum |f_hat|^4; ``definition_only=True`` forces the literal
nested sum over all difference tuples instead, which is the audit path
(and the cost reference: p^(m s) tuples against the fast path's
p^(m(s-2)) batched transforms).

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

from .field import ResourceLimitError, add_map, combine, line_means
from .spectral import dft_batch, u2_fourth_batch
from .tables import FunctionTable

__all__ = [
    "NormValue",
    "delta",
    "gowers_norm",
    "box_norm",
    "slot_norm",
    "directional_average",
    "gcs_check",
]

#: Radicands of norm powers are averages of squared magnitudes; anything
#: below this is a bug, not roundoff.
RADICAND_FLOOR = -1e-12


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


def delta(f: FunctionTable, h) -> FunctionTable:
    """Delta_h f(x) = f(x) * conj(f(x + h))."""
    return f.times(f.translate(h).conj())


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
    batch = np.empty((size ** (s - 2), size), dtype=np.complex128)
    row = 0

    def fill(current: np.ndarray, depth: int) -> None:
        nonlocal row
        if depth == 0:
            batch[row] = current
            row += 1
            return
        cc = np.conj(current)
        for h in range(size):
            fill(current * cc[add_map(p, m, h)], depth - 1)

    fill(values, s - 2)
    fourths = u2_fourth_batch(batch, p, m)
    return float(np.sum(fourths) / len(fourths))


def _cube_average(corners, shifts) -> complex:
    """E over (h_1, ..., h_s) and x of prod_w C^|w| corners[w](x + w . h).

    ``corners`` holds 2^s flat value arrays, one per w in {0,1}^s taken in
    itertools.product order, and C is complex conjugation.  ``shifts[i]``
    lists the index permutations x -> x + h_i, one per value h_i takes.
    """
    s = len(shifts)
    size = corners[0].shape[0]
    cube = list(itertools.product((0, 1), repeat=s))
    corners = [c.astype(np.complex128, copy=False) for c in corners]
    factors = [np.conj(c) if sum(bits) % 2 else c for bits, c in zip(cube, corners)]
    total = 0.0 + 0.0j
    for maps in itertools.product(*shifts):
        prod = np.ones(size, dtype=np.complex128)
        for bits, vals in zip(cube, factors):
            idx = np.arange(size)
            for i, bit in enumerate(bits):
                if bit:
                    idx = maps[i][idx]
            prod = prod * vals[idx]
        total += np.sum(prod) / size
    return complex(total / math.prod(len(maps) for maps in shifts))


def _u_definition_raw(values: np.ndarray, p: int, m: int, s: int) -> complex:
    """The literal nested sum over all (h_1, ..., h_s) difference tuples."""
    maps = [add_map(p, m, h) for h in range(p**m)]
    return _cube_average([values] * 2**s, [maps] * s)


def gowers_norm(
    f: FunctionTable,
    s: int,
    domain=None,
    definition_only: bool = False,
    cost_cap: int = 10**8,
) -> NormValue:
    """||f||_{U^s}, globally or on an affine coset.

    On a coset the function is pulled back through the coset's linear
    parameterization first; difference cubes of the parameter space
    biject with difference cubes inside the coset, so this matches
    averaging x and all h over the coset directly.
    """
    if s < 1:
        raise ValueError("U^s needs s >= 1")
    if domain is not None:
        f = f.restrict(domain)
    size = p_m = f.p**f.m
    est = size**s if definition_only else size ** max(s - 2, 0) * size
    if est > cost_cap:
        raise ResourceLimitError(
            f"U^{s} on {p_m} points needs ~{est} operations (cap {cost_cap})"
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


def box_norm(g: FunctionTable) -> NormValue:
    """The rectangle norm: fourth root of E over (x, x', y, y') of the
    alternating product g(x,y) conj g(x,y') conj g(x',y) g(x',y')."""
    _, _, grid = _pair_split(g)
    size = grid.shape[0]
    corr = grid @ np.conj(grid).T / size
    raw = float(np.mean(np.abs(corr) ** 2))
    return _root(raw, 4)


def slot_norm(g: FunctionTable, slot: int) -> NormValue:
    """Direction-constrained norms of a pair-space function, slot in {0,1,2}.

    slot 0: eighth root of E_{x,h3} ||y -> g(x,y) conj g(x+h3,y)||_{U^2}^4.
    slot 1: the box norm after the shear (a, b) = (x, x+y); the two
            directions (0,h1), (-h2,h2) become the axis pair (0,h1), (-h2,0).
    slot 2: square root of E_z |E_x g(x, z-2x)|^2, averaging over the
            lines on which 2x + y is constant.
    """
    p, n, grid = _pair_split(g)
    size = p**n
    if slot == 0:
        acc = 0.0
        for h3 in range(size):
            rows = grid * np.conj(grid[add_map(p, n, h3), :])
            acc += float(np.mean(u2_fourth_batch(rows, p, n)))
        return _root(acc / size, 8)
    if slot == 1:
        x = np.arange(size)
        sheared = grid[x[:, None], combine(p, n, (1, -1), (x[None, :], x[:, None]))]
        return box_norm(FunctionTable.from_pair_grid(p, n, sheared))
    if slot == 2:
        raw = float(np.mean(np.abs(line_means(grid, p, n, 2)) ** 2))
        return _root(raw, 2)
    raise ValueError(f"slot must be 0, 1 or 2, got {slot}")


def directional_average(g: FunctionTable, directions) -> float:
    """E over (x, y) and one parameter per direction of the stacked
    differences Delta_{(a1 h1, b1 h1)} ... Delta_{(ak hk, bk hk)} g.

    ``directions`` is a list of residue pairs (a, b), at most three of
    them.  For real g the average is real; the imaginary part is checked
    against 1e-9 either way.
    """
    p, n, _ = _pair_split(g)
    dirs = [(int(a) % p, int(b) % p) for a, b in directions]
    if not dirs or len(dirs) > 3:
        raise ResourceLimitError("directional averages support 1 to 3 directions")
    if any(a == 0 and b == 0 for a, b in dirs):
        raise ValueError("direction patterns must be nonzero")
    size = p**n
    h = np.arange(size)
    shifts = []
    for a, b in dirs:
        # the pair index x + N y is the index of (x, y) in Z_p^(2n)
        steps = combine(p, n, (a,), (h,)) + size * combine(p, n, (b,), (h,))
        shifts.append([add_map(p, 2 * n, int(k)) for k in steps])
    total = _cube_average([g.values] * 2 ** len(dirs), shifts)
    if g.kind in ("real", "indicator") and abs(total.imag) > 1e-9:
        raise ValueError(f"directional average of a real table has imaginary part {total.imag}")
    return float(total.real)


def gcs_check(family, s: int, slack: float = 1e-9) -> dict:
    """Verify |E prod_w f_w(x + w . h)| <= prod_w ||f_w||_{U^s}.

    ``family`` lists 2^s tables indexed by the subsets of {1..s} in
    binary counting order (bit i of the position = coordinate i of w).
    """
    if len(family) != 2**s:
        raise ValueError(f"need 2^{s} = {2 ** s} tables, got {len(family)}")
    p, m = family[0].p, family[0].m
    if any((t.p, t.m) != (p, m) for t in family):
        raise ValueError("family members live on different spaces")
    size = p**m
    if s >= 4 and m >= 2:
        raise ResourceLimitError("the product average is capped at s <= 3 for m >= 2")
    maps = [add_map(p, m, h) for h in range(size)]
    # family position w has bit i = coordinate i of the corner
    corners = [family[sum(bit << i for i, bit in enumerate(bits))].values
               for bits in itertools.product((0, 1), repeat=s)]
    lhs = abs(_cube_average(corners, [maps] * s))
    norms = [gowers_norm(t, s).value for t in family]
    rhs = float(np.prod(norms))
    return {"product_average": lhs, "norm_product": rhs, "norms": norms, "holds": lhs <= rhs + slack}
