"""Uniformity norms: U^s, the box norm and the slot norms.

The multiplicative difference of f in direction h is
Delta_h f(x) = f(x) conj(f(x + h)), and

    ||f||_{U^s}^(2^s) = E_{h} ||Delta_h f||_{U^(s-1)}^(2^(s-1)),
    ||f||_{U^1}^2     = |E f|^2.

The fast evaluation path bottoms out at s = 2 through the Fourier
identity sum |f_hat|^4, transforming the p^(m(s-2)) rows
Delta_{h_1} ... Delta_{h_(s-2)} f a block at a time.
``definition_only=True`` evaluates the nested sum over difference tuples
instead, which is the audit path and uses no transform: it bottoms out
at s = 1, where the average over (x, h_s) of a product of corners at x
and at x + h_s is a product of two means.  It gathers p^(ms) points per
corner, against the p^(m(s+1)) (x, h) points of the sum as written.

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
from dataclasses import dataclass

import numpy as np

from .field import ResourceLimitError, combine, translations
from .spectral import u2_fourth_batch
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


#: Entries per block of rows (128 KiB of complex128): the difference-cube
#: rows of ``_delta_rows``, the corner gathers of ``_cube_average`` and
#: slot 0's pair rows.
#: From 2^14 up, the allocator handed the transform's per-block
#: temporaries back to the OS and faulted them in again on every block:
#: a U^3 evaluation at (p, m) = (3, 6) took 4,199 minor page faults and
#: ~24 ms at 2^16, against 7 and ~17 ms at 2^13.
_ROW_BLOCK = 1 << 13


def _delta_rows(batch: np.ndarray, p: int, m: int, r: int):
    """The rows Delta_{h_1} ... Delta_{h_r} of each row of ``batch``.

    Doubles one difference at a time, row (t, h) of the next batch being
    batch[t](x) conj(batch[t](x + h)), and yields the rows a block at a
    time, in the order (t, h_1, ..., h_r).  Each level takes as many h as
    keep the rows it leads to within _ROW_BLOCK entries, so no block is
    larger unless one row is.
    """
    if r == 0:
        yield batch
        return
    size = p**m
    conj = np.conj(batch)
    step = max(1, _ROW_BLOCK // (len(batch) * size**r))
    for start in range(0, size, step):
        moved = conj[:, translations(p, m, np.arange(start, min(start + step, size)))]
        yield from _delta_rows((batch[:, None, :] * moved).reshape(-1, size), p, m, r - 1)


def _u_fast_raw(values: np.ndarray, p: int, m: int, s: int) -> float:
    """E_{h_1..h_(s-2)} ||Delta...f||_{U^2}^4 via batched transforms, the
    rows Delta_{h_1} ... Delta_{h_(s-2)} f formed and transformed a block
    at a time."""
    values = values.astype(np.complex128, copy=False)  # float64 sums round differently
    if s == 1:
        return float(abs(np.sum(values) / p**m) ** 2)
    total = 0.0
    for rows in _delta_rows(values[None, :], p, m, s - 2):
        total += float(np.sum(u2_fourth_batch(rows, p, m)))
    return total / p ** (m * (s - 2))


def _cube_average(corners, p: int, m: int) -> complex:
    """E over x and (h_1, ..., h_s) of prod_w C^|w| corners[w](x + w . h).

    ``corners`` holds 2^s flat value arrays on Z_p^m, one per w in
    {0,1}^s taken in itertools.product order, and C is complex
    conjugation; every h_i runs over the whole group.

    For fixed h' = (h_1, ..., h_(s-1)) the corners split by w_s, and
    y = x + h_s turns the average over (x, h_s) into a product of two
    means, which is the U^1 base of the literal recursion:

        E_x prod_{w_s=0} C^|w| corners[w](x + w'.h')
            * E_y prod_{w_s=1} C^|w| corners[w](y + w'.h')

    Every corner value is gathered from ``corners`` itself, with no
    transform and no difference recursion, so this audit shares only
    ``field.translations`` with the fast path.  The tuples h' come a block at a
    time, each block gathering at most _ROW_BLOCK entries per half (or
    one tuple's, if they are more): 2^s p^(ms) gathers in all, against
    the p^(m(s+1)) (x, h) points.
    """
    s = len(corners).bit_length() - 1
    r, size = s - 1, p**m
    cube = list(itertools.product((0, 1), repeat=s))
    factors = np.stack([v.astype(np.complex128, copy=False) for v in corners])
    odd = np.array([sum(w) % 2 == 1 for w in cube])
    factors[odd] = np.conj(factors[odd])
    # product order makes w_s the last bit: even positions have w_s = 0,
    # and positions 2j, 2j + 1 share the j-th w' = (w_1, ..., w_(s-1))
    halves = [factors[0::2].ravel(), factors[1::2].ravel()]
    place = size * np.arange(2**r)[:, None]  # corner j's place in a half
    step = max(1, _ROW_BLOCK // (2**r * size))
    total = 0.0 + 0.0j
    for start in range(0, size**r, step):
        t = np.arange(start, min(start + step, size**r))
        # offsets[k, j] is the index of w'_j . h'_k, one bit of w' at a time
        offsets = np.zeros((len(t), 1), dtype=np.int64)
        for i in range(r):
            moved = np.take_along_axis(translations(p, m, t // size ** (r - 1 - i) % size), offsets, axis=1)
            offsets = np.stack([offsets, moved], axis=2).reshape(len(t), -1)
        cols = translations(p, m, offsets.ravel()).reshape(len(t), 2**r, size) + place
        means = []
        for half in halves:
            vals = half.take(cols)
            while vals.shape[1] > 1:  # halving keeps each product contiguous
                vals = vals[:, : vals.shape[1] // 2] * vals[:, vals.shape[1] // 2 :]
            means.append(vals[:, 0].mean(axis=1))
        total += np.sum(means[0] * means[1])
    return complex(total / p ** (m * r))


def _cube_cost(size: int, s: int) -> int:
    """Operations of the literal cube sum: p^(m(s+1)) products of x and the
    s differences, and 2^s corners for each of the p^(ms) difference tuples."""
    return max(size ** (s + 1), 2**s * size**s)


def gowers_norm(f: FunctionTable, s: int, definition_only: bool = False) -> NormValue:
    """||f||_{U^s} on the whole group, refused past COST_CAP estimated operations."""
    if s < 1:
        raise ValueError("U^s needs s >= 1")
    size = f.p**f.m
    est = _cube_cost(size, s) if definition_only else size ** max(s - 2, 0) * size
    if est > COST_CAP:
        raise ResourceLimitError(
            f"U^{s} on {size} points needs ~{est} operations (cap {COST_CAP})"
        )
    if definition_only:
        raw = _cube_average([f.values] * 2**s, f.p, f.m)  # the literal sum over all difference tuples
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


def _box_raw(rows: np.ndarray) -> float:
    """E over (x, x', y, y') of the alternating rectangle product of a
    pair grid, from an (N, N) complex array whose rows run along either
    axis of the grid: the sum is symmetric in x and y.

    It is the mean of |corr|^2 over the row correlations corr = H H^*
    of H = A + iB, split into real products.  With R the float64 view of
    H, each entry's real and imaginary part side by side, R R^T is
    A A^T + B B^T = Re corr as one syrk (a column permutation leaves
    R R^T alone), and Im corr = M - M^T with M = B A^T is one real gemm:
    half the multiply-adds of the complex product.  Each temporary is
    freed before the next is made.
    """
    h = np.ascontiguousarray(rows)
    split = h.view(np.float64)
    part = split @ split.T
    total = float(np.vdot(part, part))
    del part
    re, im = np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag)
    part = im @ re.T
    del re, im
    part = part - part.T
    total += float(np.vdot(part, part))
    return total / h.shape[0] ** 4


def box_norm(g: FunctionTable) -> NormValue:
    """The rectangle norm: fourth root of E over (x, x', y, y') of the
    alternating product g(x,y) conj g(x,y') conj g(x',y) g(x',y').
    The columns of the F-ordered pair grid view are C-ordered rows, which
    ``_box_raw`` reads with no copy."""
    return _root(_box_raw(_pair_split(g)[2].T), 4)


def _slot0_raw(rows: np.ndarray, p: int, n: int, reps: np.ndarray) -> float:
    """E_{x,h3} ||y -> g(x,y) conj g(x+h3,y)||_{U^2}^4 from the C-order
    pair grid ``rows`` (row x is y -> g(x, y)) and the indices ``reps``
    of h3 = 0 and of one member of each pair {h3, -h3}.

    Each h3 takes its x + h3 from one translation row, and its pair rows
    are formed and transformed _ROW_BLOCK entries (or one row) at a time,
    so no block spans more than one h3 and no index array spans all the
    pairs.  Rows with h3 = 0 count once and the others twice.
    """
    size = p**n
    step = max(1, _ROW_BLOCK // size)
    total = 0.0
    for h3 in reps.tolist():
        moved = translations(p, n, np.array([h3]))[0]
        part = 0.0
        for start in range(0, size, step):
            pair = np.conj(rows[moved[start : start + step]])
            pair *= rows[start : start + step]
            part += float(np.sum(u2_fourth_batch(pair, p, n)))
        total += part if h3 == 0 else 2 * part
    return total / size**2


def slot_norm(g: FunctionTable, slot: int) -> NormValue:
    """Direction-constrained norms of a pair-space function, slot in {0,1,2}.

    slot 0: eighth root of E_{x,h3} ||y -> g(x,y) conj g(x+h3,y)||_{U^2}^4.
            The rows for -h3 are those for h3, conjugated and permuted,
            so their fourth powers agree: each pair {h3, -h3} is
            transformed once and counted twice.  The rows are formed and
            transformed _ROW_BLOCK entries at a time (``_slot0_raw``).
    slot 1: the box norm after the shear (a, b) = (x, x+y); the two
            directions (0,h1), (-h2,h2) become the axis pair (0,h1), (-h2,0).
            Row a of the sheared grid, y -> g(a, y - a), is gathered
            through the translation row of -a, straight into the rows
            that ``_box_raw`` reads.
    slot 2: square root of E_z |E_x g(x, z-2x)|^2, averaging over the
            lines on which 2x + y is constant.
    """
    p, n, grid = _pair_split(g)
    x = np.arange(p**n)
    neg = combine(p, n, (-1,), (x,))
    if slot == 0:
        # h3 = 0 and the smaller index of each pair {h3, -h3}
        return _root(_slot0_raw(np.ascontiguousarray(grid), p, n, np.flatnonzero(x <= neg)), 8)
    if slot == 1:
        return _root(_box_raw(grid[x[:, None], translations(p, n, neg)]), 4)
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
    est = _cube_cost(size, s)
    if est > COST_CAP:
        raise ResourceLimitError(
            f"the U^{s} cube product on {size} points needs ~{est} operations (cap {COST_CAP})"
        )
    if s >= 4 and m >= 2:
        raise ResourceLimitError("the product average is capped at s <= 3 for m >= 2")
    # family position w has bit i = coordinate i of the corner
    corners = [family[sum(bit << i for i, bit in enumerate(bits))].values
               for bits in itertools.product((0, 1), repeat=s)]
    lhs = abs(_cube_average(corners, p, m))
    norms = [gowers_norm(t, s).value for t in family]
    rhs = float(np.prod(norms))
    return {"product_average": lhs, "norm_product": rhs, "norms": norms, "holds": lhs <= rhs + 1e-9}
