"""Reference implementations, fixtures and checks that only the tests use.

Nothing in the ``lshape`` package calls these, so they live beside the
tests rather than in ``src/``.  Unlike ``oracles.py``, which stays free
of numpy and of package imports, this module builds on the package,
private helpers included: it holds slow literal definitions (fiber
levels by explicit coset membership, directional averages through a
difference-cube sum over general steps), the linear-form systems the
complexity tests use, and the inequality checks that the acceptance
properties assert.
Methods of package classes appear here as functions taking the object
as their first argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from lshape.field import (
    AffineSubspace,
    ResourceLimitError,
    add_map,
    combine,
    digits_of,
    rank_mod,
    subspace_from_normals,
)
from lshape.increment import ProductCosetPartition, partition_energy
from lshape.linforms import ComplexityCertificate, LinearForm, LinearFormSystem, _span_contains, cs_complexity
from lshape.norms import _pair_split, gowers_norm
from lshape.patterns import count_system
from lshape.structured import FiberFamily, StructuredProductSet
from lshape.tables import FunctionTable


# ---------------------------------------------------------------------------
# tables


def balanced(s: FunctionTable) -> FunctionTable:
    """The mean-zero shift: indicator minus density."""
    return s.minus_const(s.density)


# ---------------------------------------------------------------------------
# norms


def delta(f: FunctionTable, h: int) -> FunctionTable:
    """Delta_h f(x) = f(x) * conj(f(x + h)), for the element h of that index."""
    return f.times(FunctionTable(f.p, f.m, f.values[add_map(f.p, f.m, h)]).conj())


#: Entries per (h_s, x) block of ``cube_average``.
CUBE_BLOCK = 1 << 20


def cube_average(corners, steps, p: int, m: int) -> complex:
    """E over (h_1, ..., h_s) and x of prod_w C^|w| corners[w](x + w . h).

    ``corners`` holds 2^s flat value arrays on Z_p^m, one per w in
    {0,1}^s taken in itertools.product order, and C is complex
    conjugation.  ``steps[i]`` is the index array of the group elements
    that h_i runs over, so h_i may run over a subgroup; the package's
    kernel, ``norms._cube_average``, takes every step over the whole group.

    Python loops over (h_1, ..., h_(s-1)) only.  The pairs (h_s, x) form
    one flat range, cut into blocks of at most CUBE_BLOCK entries whose
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
    for start in range(0, pairs, CUBE_BLOCK):
        flat = np.arange(start, min(start + CUBE_BLOCK, pairs))
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
    # the pair index x + N y is the index of (x, y) in Z_p^(2n)
    steps = [combine(p, n, (a,), (h,)) + size * combine(p, n, (b,), (h,)) for a, b in dirs]
    total = cube_average([g.values] * 2 ** len(dirs), steps, p, 2 * n)
    if g.kind in ("real", "indicator") and abs(total.imag) > 1e-9:
        raise ValueError(f"directional average of a real table has imaginary part {total.imag}")
    return float(total.real)


# ---------------------------------------------------------------------------
# cosets and fiber families


def full_set(p: int, m: int) -> FunctionTable:
    """The indicator of all of Z_p^m."""
    return FunctionTable(p, m, np.ones(p**m, dtype=bool))


def contains(sub: AffineSubspace, x) -> bool:
    """Membership of one point, an index or a digit vector, in a coset, by
    its normal equations."""
    if sub.is_empty:
        return False
    xd = digits_of(sub.p, sub.ambient_dim, x) if np.ndim(x) == 0 else np.asarray(x)
    if not sub.normals:
        return True
    lhs = (sub._normal_matrix() @ xd) % sub.p
    return bool(np.array_equal(lhs, np.array(sub.offsets, dtype=np.int64)))


def random_normals(p: int, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """(p^n, d, n) fiber normals, redrawn at each point until they have rank d."""
    normals = np.zeros((p**n, d, n), dtype=np.int64)
    for x in range(p**n):
        while rank_mod(normals[x], p) != d:
            normals[x] = rng.integers(0, p, size=(d, n))
    return normals


def offset(base: FunctionTable, offsets) -> np.ndarray:
    """The digits of the offset u shared by every base point's fiber, read
    off the offsets a family was built from: one u, or one u_x per point."""
    offsets = np.broadcast_to(np.asarray(offsets, dtype=np.int64) % base.p, (base.size, base.m))
    rows = np.unique(offsets[base.values], axis=0)
    if len(rows) > 1:
        raise ValueError("the fibers have per-point offsets, not one shared offset")
    return rows[0] if len(rows) else offsets[0]


def fiber_subspace(p: int, normals: np.ndarray, offsets, x: int) -> AffineSubspace:
    """The coset {y : normals[x] . (y - u_x) = 0} as an explicit affine
    subspace of Z_p^n, from the arrays a family was built from."""
    rows = np.asarray(normals, dtype=np.int64)[x] % p
    n = rows.shape[1]
    u = np.broadcast_to(np.asarray(offsets, dtype=np.int64), (len(normals), n))[x]
    return subspace_from_normals(p, n, rows.tolist(), (rows @ u % p).tolist())


def from_phi_map(base: FunctionTable, phi: np.ndarray, u) -> FiberFamily:
    """d = 1 fibers {y : phi(x) . (y - u) = 0}, for u given by its digits.

    phi(x) = 0 is rejected for x in the base: it would give a full
    fiber and break the common-codimension invariant.  Mixed
    codimensions are expressed with explicit normals plus levels.
    """
    p, n = base.p, base.m
    size = p**n
    phi = np.asarray(phi, dtype=np.int64) % p
    if phi.shape != (size, n):
        raise ValueError(f"phi must have shape ({size}, {n})")
    zero_rows = np.flatnonzero(base.values & np.all(phi == 0, axis=1))
    if zero_rows.size:
        raise ValueError(f"phi vanishes on base points {zero_rows.tolist()}; fibers there would be full")
    return FiberFamily.from_normals(base, u, 1, phi[:, None, :])


@dataclass(frozen=True)
class FiberLevel:
    """Level i of a family inside a product cell.

    ``cumulative`` collects the pairs whose fiber fills at least p^(-i)
    of the cell's second factor; ``exact`` is the i-th difference set.
    """

    i: int
    cumulative: FunctionTable
    exact: FunctionTable


def fiber_levels(
    fam: FiberFamily, normals: np.ndarray, offsets, x_coset: AffineSubspace, y_coset: AffineSubspace
) -> list[FiberLevel]:
    """Split Phi inside the cell (x_coset) x (y_coset) by fiber density.

    ``normals`` and ``offsets`` are the arrays the family was built from;
    each fiber is taken from them as an explicit coset, not from Phi.
    For x in the base and on x_coset, the fiber meets y_coset in a coset
    of V_x intersected with the cell direction V, of relative density
    p^(-l) with l between 0 and d; level i keeps the pairs with l <= i.
    The levels are nested and their differences partition Phi in the
    cell, which is asserted before returning.
    """
    p, n, d = fam.p, fam.n, fam.d
    size = p**n
    pair_count = size * size
    cell_rows = set(int(i) for i in x_coset.member_indices())
    base_mask = fam.base.values
    level_masks = [np.zeros(pair_count, dtype=bool) for _ in range(d + 1)]
    phi_in_cell = np.zeros(pair_count, dtype=bool)
    y_members = y_coset.member_indices()
    for x in range(size):
        if x not in cell_rows or not base_mask[x]:
            continue
        fiber = fiber_subspace(p, normals, offsets, x)
        meet = [int(y) for y in y_members if contains(fiber, int(y))]
        if not meet:
            continue
        # |fiber ∩ y_coset| = p^(dim V - l); recover l from the count
        count = len(meet)
        level = y_coset.dim - int(round(np.log(count) / np.log(p)))
        if not 0 <= level <= d:
            raise AssertionError(f"fiber level {level} outside [0, {d}] at x = {x}")
        for y in meet:
            idx = x + size * y
            phi_in_cell[idx] = True
            level_masks[level][idx] = True
    out = []
    cum = np.zeros(pair_count, dtype=bool)
    for i in range(d + 1):
        cum = cum | level_masks[i]
        out.append(
            FiberLevel(
                i,
                FunctionTable(p, 2 * n, cum.copy()),
                FunctionTable(p, 2 * n, level_masks[i]),
            )
        )
    # partition audit: levels are disjoint by construction; cover Phi ∩ cell
    if not np.array_equal(cum, phi_in_cell):
        raise AssertionError("fiber levels do not cover the family inside the cell")
    total = sum(lv.exact.cardinality for lv in out)
    if total != int(phi_in_cell.sum()):
        raise AssertionError("fiber levels double-count")
    # and the cell's Phi matches the global table restricted to the cell
    if not np.all(fam.table.values[phi_in_cell]):
        raise AssertionError("level point outside the family table")
    return out


def base_uniformity_transfer_check(fam: FiberFamily, s: int, slack: float = 1e-9) -> dict:
    """||A - alpha||_{U^s(Z_p^n)} <= rho^(-1) ||Phi - alpha rho||_{U^s(Z_p^2n)} + slack.

    Uniformity of the family forces uniformity of its base, because the
    y-marginal of Phi - alpha*rho is exactly rho * (A - alpha).
    """
    alpha = fam.base.density
    lhs = gowers_norm(fam.base.minus_const(alpha), s).value
    rhs = gowers_norm(fam.table.minus_const(alpha * fam.rho), s).value
    bound = rhs / fam.rho
    return {"base_norm": lhs, "family_norm": rhs, "rho": fam.rho, "bound": bound,
            "holds": lhs <= bound + slack}


# ---------------------------------------------------------------------------
# partitions and energy


@dataclass(frozen=True)
class CosetCell:
    """Cell ``id`` = ca + p^codim * cb of a product coset partition, as its
    x coset ca and its y coset cb, each built from the partition's parity
    checks by ``subspace_from_normals`` and not from its member table."""

    id: int
    x_coset: AffineSubspace
    y_coset: AffineSubspace


def cell_measure(cell: CosetCell) -> float:
    x, y = cell.x_coset, cell.y_coset
    return x.cardinality * y.cardinality / x.p ** (2 * x.ambient_dim)


def pair_member_mask(cell: CosetCell) -> np.ndarray:
    size = cell.x_coset.p**cell.x_coset.ambient_dim
    xm = np.zeros(size, dtype=bool)
    ym = np.zeros(size, dtype=bool)
    xm[cell.x_coset.member_indices()] = True
    ym[cell.y_coset.member_indices()] = True
    return (xm[:, None] & ym[None, :]).reshape(-1, order="F")


def cells(partition: ProductCosetPartition) -> list[CosetCell]:
    """Every cell of the partition, in id order."""
    p, n, k = partition.p, partition.n, partition.codim
    big = p**k
    cosets = [subspace_from_normals(p, n, partition.normals, digits_of(p, k, c)) for c in range(big)]
    return [CosetCell(c, cosets[c % big], cosets[c // big]) for c in range(big * big)]


def cover_check(partition: ProductCosetPartition) -> dict:
    """Audit: the cells tile the pair space exactly once."""
    size = partition.p**partition.n
    lab = partition.label_index()
    counts = np.bincount(lab, minlength=partition.p**partition.codim)
    ok = bool(np.all(counts == partition.p**partition.direction_dim))
    return {"cells": (partition.p**partition.codim) ** 2, "point_cover_ok": ok,
            "pair_count": size * size}


def energy_monotone_check(
    coarse: ProductCosetPartition,
    fine: ProductCosetPartition,
    t: StructuredProductSet,
    slack: float = 1e-9,
) -> dict:
    """Energy never drops under refinement; also verifies the refinement."""
    if (coarse.p, coarse.n) != (fine.p, fine.n):
        raise ValueError("partitions live in different spaces")
    if coarse.normals:
        stacked = np.array(list(fine.normals) + list(coarse.normals), dtype=np.int64)
        if rank_mod(stacked, coarse.p) != len(fine.normals):
            raise ValueError("fine partition does not refine the coarse one")
    e0 = partition_energy(coarse, t)["energy"]
    e1 = partition_energy(fine, t)["energy"]
    return {"coarse_energy": e0, "fine_energy": e1, "holds": e1 >= e0 - slack}


# ---------------------------------------------------------------------------
# increment candidates


def split_candidate(t: StructuredProductSet, slot: str, sub_factor: FunctionTable) -> StructuredProductSet:
    """T with the factor that lives in ``slot`` cut down to ``sub_factor``,
    built in full; slot "x" cuts the base of the fibers."""
    if slot == "x":
        return StructuredProductSet(t.y_set, t.sum_set, t.skew_set, t.fibers.restrict(sub_factor))
    factors = {"y": t.y_set, "x+y": t.sum_set, "2x+y": t.skew_set}
    factors[slot] = sub_factor
    return StructuredProductSet(factors["y"], factors["x+y"], factors["2x+y"], t.fibers)


def aligned_candidate(t: StructuredProductSet, u: int) -> StructuredProductSet:
    """T over the fibers through the point of index u, built in full."""
    return StructuredProductSet(t.y_set, t.sum_set, t.skew_set, t.fibers.restrict(t.fibers.aligned_base_at(u)))


def built_scores(s: FunctionTable, candidates) -> tuple[list[int], list[int]]:
    """(|S ∩ T'|, |T'|) of every built candidate T', counted on the sets
    themselves: the scoring of the increment moves before they scored
    their candidates from line counts."""
    inter, mass = [], []
    for t_new in candidates:
        inter.append(int(np.count_nonzero(s.values & t_new.table.values)))
        mass.append(t_new.table.cardinality)
    return inter, mass


def densest_loop(keys, inter, mass):
    """The densest-candidate rule as a loop over the scores: the first
    strictly greater ratio wins and an empty candidate is skipped."""
    best = None
    for key, s_count, t_count in zip(keys, inter, mass):
        if t_count and (best is None or s_count / t_count > best[0]):
            best = (s_count / t_count, key, s_count, t_count)
    return best


def exhaustive_l_free_plain(quads: np.ndarray, total: int) -> int:
    """Largest configuration-free set as a bitset, by depth-first
    branch-and-bound over the points in index order, include first,
    pruned only by "chosen + points left".

    When point idx is decided, only points below idx are chosen, so a
    configuration can be completed by idx only if idx is its largest
    point; each is tested there, as the mask of its other three points.
    """
    masks_at: list[list[int]] = [[] for _ in range(total)]
    for quad in quads.tolist():
        top = max(quad)
        masks_at[top].append(sum(1 << q for q in quad) ^ (1 << top))
    best, best_size = 0, 0

    def dfs(idx: int, chosen: int, size: int) -> None:
        nonlocal best, best_size
        if size + (total - idx) <= best_size:
            return
        if idx == total:
            # the bound above makes this a strict improvement
            best, best_size = chosen, size
            return
        for mask in masks_at[idx]:
            if chosen & mask == mask:
                break
        else:
            dfs(idx + 1, chosen | 1 << idx, size + 1)
        dfs(idx + 1, chosen, size)

    dfs(0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# linear form systems


def corner_slot_system(p: int) -> LinearFormSystem:
    """The three scalar slots y, x+y, x of the corner, in variables (x, y)."""
    return LinearFormSystem.from_rows(p, [[0, 1], [1, 1], [1, 0]])


def corner_point_system(p: int) -> LinearFormSystem:
    """The corner's three points as stacked pair-space forms of (x, y, z)."""
    mk = lambda rows: LinearForm(tuple(tuple(c % p for c in r) for r in rows))
    return LinearFormSystem(
        p,
        3,
        (
            mk([[1, 0, 0], [0, 1, 0]]),
            mk([[1, 0, 0], [0, 1, 1]]),
            mk([[1, 0, 1], [0, 1, 0]]),
        ),
    )


def lshape_point_system(p: int) -> LinearFormSystem:
    """The four configuration points as stacked pair-space forms of (x, y, z)."""
    mk = lambda rows: LinearForm(tuple(tuple(c % p for c in r) for r in rows))
    return LinearFormSystem(
        p,
        3,
        (
            mk([[1, 0, 0], [0, 1, 0]]),
            mk([[1, 0, 0], [0, 1, 1]]),
            mk([[1, 0, 0], [0, 1, 2]]),
            mk([[1, 0, 1], [0, 1, 0]]),
        ),
    )


def ap_system(p: int, k: int) -> LinearFormSystem:
    """x, x+y, ..., x+(k-1)y in variables (x, y)."""
    return LinearFormSystem.from_rows(p, [[1, j] for j in range(k)])


def form_sum_loop(tables, system: LinearFormSystem, n: int):
    """sum over v in (Z_p^n)^r of prod_i tables[i](form_i(v)), one tuple at a time.

    The literal counterpart of ``count_system``: each row image is formed
    digit by digit in Python integers, and form i reads tables[i] at
    sum_j p^(jn) * (index of row j's image).  Bool tables give an int.
    """
    p, size = system.p, system.p**n
    digits = [[v // p**i % p for i in range(n)] for v in range(size)]
    values = [t.values.tolist() for t in tables]
    total = 0
    for v in itertools.product(range(size), repeat=system.r):
        term = 1
        for form, vals in zip(system.forms, values):
            idx = 0
            for j, row in enumerate(form.rows):
                image = sum((sum(c * digits[x][i] for c, x in zip(row, v)) % p) * p**i for i in range(n))
                idx += size**j * image
            term *= vals[idx]
        total += term
    return total


def verify_certificate(system: LinearFormSystem, cert: ComplexityCertificate) -> bool:
    """Independent rank re-check of a finite certificate."""
    if cert.is_infinite:
        if cert.parallel_pair is None:
            return False
        i, j = cert.parallel_pair
        return _span_contains(system.scalar_matrix()[[i]], system.scalar_matrix()[j], system.p)
    vectors = system.scalar_matrix()
    for j, classes in enumerate(cert.partitions):
        if len(classes) > cert.s + 1:
            return False
        covered = sorted(i for cls in classes for i in cls)
        if covered != [i for i in range(len(system.forms)) if i != j]:
            return False
        for cls in classes:
            if _span_contains(vectors[list(cls)], vectors[j], system.p):
                return False
    return True


def uniformity_count_check(system: LinearFormSystem, tables, s: int, n: int, slack: float = 1e-9) -> dict:
    """|E prod f_j(psi_j) - prod alpha_j| <= d * max_j ||f_j - alpha_j||_{U^(s+1)}.

    The deviations are computed here, not taken on trust.
    """
    cert = cs_complexity(system)
    if cert.is_infinite or cert.s > s:
        raise ValueError(f"system complexity {cert.s} exceeds s = {s}")
    means = [complex(t.mean()) for t in tables]
    devs = [gowers_norm(t.minus_const(mu), s + 1).value for t, mu in zip(tables, means)]
    lhs = abs(count_system(tables, system, n).average - np.prod(means))
    rhs = len(tables) * max(devs)
    return {
        "complexity": cert.s,
        "means": means,
        "deviations": devs,
        "gap": lhs,
        "bound": rhs,
        "holds": lhs <= rhs + slack,
    }
