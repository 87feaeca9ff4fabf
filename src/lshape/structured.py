"""Structured subsets of the pair space built from affine fibers.

A fiber family places, over every point x of a base set A in Z_p^n, an
affine fiber u + V_x of common codimension d (u is one shared offset,
V_x varies with x).  Its indicator on the pair space is

    Phi(x, y) = A(x) * [y in u + V_x]

and has density exactly alpha * p^(-d) because fibers are cosets.

A structured product set combines three factor sets placed in linear
slots with such a family:

    T(x, y) = B(y) * C(x+y) * D(2x+y) * Phi(x, y).

These are the obstructions that make configuration counting hard: every
factor is invisible to a single coordinate but correlates the pair.

Mixed-offset families (per-x offsets u_x) appear when a common-offset
family is restricted to a sub-coset; the alignment step that recovers a
common offset lives in the increment module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (
    AffineSubspace,
    GroupVector,
    ResourceLimitError,
    combine,
    digit_table,
    line_means,
    modular_rref,
    rank_mod,
    subspace_from_normals,
)
from .norms import gowers_norm
from .tables import IndicatorSet, product_lift

__all__ = [
    "FiberFamily",
    "MixedFiberFamily",
    "StructuredProductSet",
    "FiberLevel",
    "fiber_levels",
    "fiber_stats",
    "base_uniformity_transfer_check",
    "approx_poly_proportion",
    "face_derivative_statistic",
    "intersection_codim_statistic",
    "random_family",
    "save_fibers",
    "load_fibers",
]


def _fiber_table(
    p: int, n: int, base: IndicatorSet, d: int, normals: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, IndicatorSet]:
    """Validate the fibers offsets[x] + V_x over a base set and build
    their pair-space indicator Phi(x, y) = A(x) [normals[x] . (y - offsets[x]) = 0].

    Returns the normals reduced mod p and Phi.  Every base point must
    carry d independent normals, and Phi is audited to hold exactly
    |A| p^(n - d) points.
    """
    size = p**n
    normals = np.asarray(normals, dtype=np.int64) % p
    if normals.shape != (size, d, n):
        raise ValueError(f"normals must have shape ({size}, {d}, {n})")
    if offsets.shape != (size, n):
        raise ValueError(f"offsets must have shape ({size}, {n})")
    yd = digit_table(p, n)
    mask = np.zeros((size, size), dtype=bool)  # mask[x, y]
    for x in np.flatnonzero(base.mask):
        if rank_mod(normals[x], p) != d:
            raise ValueError(f"normals at x = {x} are dependent; codimension would drop below {d}")
        rel = (yd - offsets[x][None, :]) % p
        mask[x, :] = np.all((normals[x] @ rel.T) % p == 0, axis=0)
    table = IndicatorSet.from_mask(p, 2 * n, mask.T.reshape(-1))
    expected = base.cardinality * p ** (n - d)
    if table.cardinality != expected:
        raise AssertionError(f"fiber family has {table.cardinality} points, expected {expected}")
    return normals, table


@dataclass
class FiberFamily:
    """Per-x affine fibers u + V_x of common codimension d over a base set."""

    p: int
    n: int
    base: IndicatorSet
    offset: GroupVector
    d: int
    normals: np.ndarray  # (p^n, d, n); rows are meaningful only on the base
    table: IndicatorSet = dc_field(init=False)

    def __post_init__(self) -> None:
        # a common offset: every row of the offsets repeats u
        offsets = np.broadcast_to(self.offset.as_array(), (self.p**self.n, self.offset.m))
        self.normals, self.table = _fiber_table(self.p, self.n, self.base, self.d, self.normals, offsets)

    @property
    def rho(self) -> float:
        return self.p ** (-self.d)

    @property
    def density(self) -> float:
        return self.table.density

    def fiber_subspace(self, x: int) -> AffineSubspace:
        """The coset u + V_x as an explicit affine subspace of Z_p^n."""
        if not self.base.contains_index(x):
            raise ValueError(f"x = {x} is not in the base set")
        rows = [tuple(int(v) for v in row) for row in self.normals[x]]
        offs = [int(v) for v in (self.normals[x] @ self.offset.as_array()) % self.p]
        return subspace_from_normals(self.p, self.n, rows, offs)

    @classmethod
    def full(cls, base: IndicatorSet) -> "FiberFamily":
        """d = 0: the fiber over every base point is all of Z_p^n."""
        size = base.p**base.m
        return cls(base.p, base.m, base, GroupVector.zero(base.p, base.m), 0,
                   np.zeros((size, 0, base.m), dtype=np.int64))

    @classmethod
    def from_phi_map(cls, base: IndicatorSet, phi: np.ndarray, u: GroupVector) -> "FiberFamily":
        """d = 1 fibers {y : phi(x) . (y - u) = 0}.

        phi(x) = 0 is rejected for x in the base: it would give a full
        fiber and break the common-codimension invariant.  Mixed
        codimensions are expressed with explicit normals plus levels.
        """
        p, n = base.p, base.m
        size = p**n
        phi = np.asarray(phi, dtype=np.int64) % p
        if phi.shape != (size, n):
            raise ValueError(f"phi must have shape ({size}, {n})")
        zero_rows = np.flatnonzero(base.mask & np.all(phi == 0, axis=1))
        if zero_rows.size:
            raise ValueError(f"phi vanishes on base points {zero_rows.tolist()}; fibers there would be full")
        return cls(p, n, base, u, 1, phi[:, None, :])


@dataclass
class MixedFiberFamily:
    """Fibers u_x + V_x with per-x offsets (the pre-alignment shape)."""

    p: int
    n: int
    base: IndicatorSet
    offsets: np.ndarray  # (p^n, n) digit rows
    d: int
    normals: np.ndarray  # (p^n, d, n)
    table: IndicatorSet = dc_field(init=False)

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64) % self.p
        self.normals, self.table = _fiber_table(self.p, self.n, self.base, self.d, self.normals, self.offsets)

    @property
    def rho(self) -> float:
        return self.p ** (-self.d)

    def aligned_base_at(self, u: GroupVector) -> IndicatorSet:
        """The set A_u = {x in A : u lies on x's fiber}."""
        ud = u.as_array()
        keep = []
        for x in self.base.member_indices():
            rel = (ud - self.offsets[x]) % self.p
            if self.d == 0 or not np.any((self.normals[x] @ rel) % self.p):
                keep.append(int(x))
        return IndicatorSet.from_indices(self.p, self.n, keep)

    def with_common_offset(self, u: GroupVector, new_base: IndicatorSet | None = None) -> FiberFamily:
        """Reinterpret the fibers through u on the sub-base where u fits."""
        base = new_base if new_base is not None else self.aligned_base_at(u)
        return FiberFamily(self.p, self.n, base, u, self.d, self.normals)


@dataclass
class StructuredProductSet:
    """T(x,y) = B(y) C(x+y) D(2x+y) Phi(x,y), with its build report."""

    y_set: IndicatorSet
    sum_set: IndicatorSet
    skew_set: IndicatorSet
    fibers: FiberFamily
    table: IndicatorSet = dc_field(init=False)

    def __post_init__(self) -> None:
        b, c, d_set = self.y_set, self.sum_set, self.skew_set
        fam = self.fibers
        p, n = fam.p, fam.n
        for s in (b, c, d_set):
            if (s.p, s.m) != (p, n):
                raise ValueError("factor sets live in the wrong space")
        lifted = (
            product_lift(b.table, "y")
            .times(product_lift(c.table, "x+y"))
            .times(product_lift(d_set.table, "2x+y"))
            .times(fam.table.table)
        )
        self.table = IndicatorSet.from_table(lifted)
        # independent pointwise audit through plain digit arithmetic: the
        # indices of x + y and 2x + y for the whole grid, one digit place
        # at a time
        size = p**n
        sums = np.zeros((size, size), dtype=np.int64)  # sums[x, y]
        skews = np.zeros((size, size), dtype=np.int64)
        for place, col in enumerate(digit_table(p, n).T):
            sums += (col[:, None] + col[None, :]) % p * p**place
            skews += (2 * col[:, None] + col[None, :]) % p * p**place
        phi = fam.table.mask.reshape((size, size), order="F")
        direct = b.mask[None, :] & c.mask[sums] & d_set.mask[skews] & phi
        got = self.table.mask.reshape((size, size), order="F")
        bad = np.flatnonzero(np.any(direct != got, axis=1))
        if bad.size:
            raise AssertionError(f"product set disagrees with direct evaluation on row x = {bad[0]}")

    @property
    def p(self) -> int:
        return self.fibers.p

    @property
    def n(self) -> int:
        return self.fibers.n

    def density_report(self) -> dict:
        prod = (
            self.fibers.base.density
            * self.y_set.density
            * self.sum_set.density
            * self.skew_set.density
            * self.fibers.rho
        )
        return {
            "density": self.table.density,
            "product_density": prod,
            "gap": self.table.density - prod,
        }


def fiber_stats(t: StructuredProductSet, eps_prime: float) -> dict:
    """Empirical fiber densities of T along the four natural pencils.

    Rows fix x, columns fix y, anti-diagonals fix x + y, skew lines fix
    2x + y.  Each pencil's target is the product of the other factor
    densities; the report carries the density arrays plus the
    proportion deviating by more than eps_prime.
    """
    p, n = t.p, t.n
    size = p**n
    grid = t.table.mask.reshape((size, size), order="F")
    alpha = t.fibers.base.density
    beta = t.y_set.density
    gamma = t.sum_set.density
    delta = t.skew_set.density
    rho = t.fibers.rho

    rows = grid.mean(axis=1)
    cols = grid.mean(axis=0)
    anti = line_means(grid, p, n, 1)
    skew = line_means(grid, p, n, 2)

    def pencil(densities: np.ndarray, target: float) -> dict:
        dev = np.abs(densities - target)
        return {
            "densities": densities,
            "target": target,
            "deviating_proportion": float(np.mean(dev > eps_prime)),
            "max_deviation": float(dev.max()),
        }

    return {
        "eps_prime": eps_prime,
        "rows": pencil(rows, beta * gamma * delta * rho),
        "columns": pencil(cols, alpha * gamma * delta * rho),
        "anti_diagonals": pencil(anti, alpha * beta * delta * rho),
        "skew_lines": pencil(skew, alpha * beta * gamma * rho),
    }


@dataclass(frozen=True)
class FiberLevel:
    """Level i of a family inside a product cell.

    ``cumulative`` collects the pairs whose fiber fills at least p^(-i)
    of the cell's second factor; ``exact`` is the i-th difference set.
    """

    i: int
    cumulative: IndicatorSet
    exact: IndicatorSet


def fiber_levels(fam: FiberFamily, x_coset: AffineSubspace, y_coset: AffineSubspace) -> list[FiberLevel]:
    """Split Phi inside the cell (x_coset) x (y_coset) by fiber density.

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
    base_mask = fam.base.mask
    level_masks = [np.zeros(pair_count, dtype=bool) for _ in range(d + 1)]
    phi_in_cell = np.zeros(pair_count, dtype=bool)
    y_members = y_coset.member_indices()
    for x in range(size):
        if x not in cell_rows or not base_mask[x]:
            continue
        fiber = fam.fiber_subspace(x)
        meet = [int(y) for y in y_members if fiber.contains(int(y))]
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
                IndicatorSet.from_mask(p, 2 * n, cum.copy()),
                IndicatorSet.from_mask(p, 2 * n, level_masks[i]),
            )
        )
    # partition audit: levels are disjoint by construction; cover Phi ∩ cell
    if not np.array_equal(cum, phi_in_cell):
        raise AssertionError("fiber levels do not cover the family inside the cell")
    total = sum(lv.exact.cardinality for lv in out)
    if total != int(phi_in_cell.sum()):
        raise AssertionError("fiber levels double-count")
    # and the cell's Phi matches the global table restricted to the cell
    if not np.all(fam.table.mask[phi_in_cell]):
        raise AssertionError("level point outside the family table")
    return out


def base_uniformity_transfer_check(fam: FiberFamily, s: int, slack: float = 1e-9) -> dict:
    """||A - alpha||_{U^s(Z_p^n)} <= rho^(-1) ||Phi - alpha rho||_{U^s(Z_p^2n)} + slack.

    Uniformity of the family forces uniformity of its base, because the
    y-marginal of Phi - alpha*rho is exactly rho * (A - alpha).
    """
    alpha = fam.base.density
    lhs = gowers_norm(fam.base.table.minus_const(alpha), s).value
    rhs = gowers_norm(fam.table.table.minus_const(alpha * fam.rho), s).value
    bound = rhs / fam.rho
    return {"base_norm": lhs, "family_norm": rhs, "rho": fam.rho, "bound": bound,
            "holds": lhs <= bound + slack}


def _difference_sign(s: int, bits: tuple[int, ...]) -> int:
    return -1 if (s - sum(bits)) % 2 else 1


def approx_poly_proportion(
    phi: np.ndarray,
    s: int,
    p: int,
    n: int,
    base: IndicatorSet | None = None,
    cap: int = 10**7,
    seed: int = 0,
    samples: int = 20000,
) -> dict:
    """Proportion of difference tuples on which the s-fold additive
    difference of phi vanishes.

    phi maps Z_p^n -> Z_p^n as an (p^n, n) digit array.  A tuple
    (x, h_1, ..., h_s) is admissible when all 2^s sums x + sum_{i in w} h_i
    land in the base; among admissible tuples we count those with

        sum_w (-1)^(s - |w|) phi(x + w . h) = 0.

    Exact enumeration when p^(n(s+1)) fits the cap, otherwise seeded
    Monte Carlo; the report says which.
    """
    size = p**n
    phi = np.asarray(phi, dtype=np.int64) % p
    base_mask = np.ones(size, dtype=bool) if base is None else base.mask
    subsets = list(itertools.product((0, 1), repeat=s))
    exact = size ** (s + 1) <= cap
    admissible = 0
    vanishing = 0
    if exact:
        xs = np.arange(size)
        for hs in itertools.product(range(size), repeat=s):
            total_diff = np.zeros((size, n), dtype=np.int64)
            ok = np.ones(size, dtype=bool)
            for bits in subsets:
                pos = combine(p, n, (1,) + bits, (xs,) + hs)
                ok &= base_mask[pos]
                total_diff = total_diff + _difference_sign(s, bits) * phi[pos]
            vanish = np.all(total_diff % p == 0, axis=1)
            admissible += int(ok.sum())
            vanishing += int((ok & vanish).sum())
    else:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = int(rng.integers(size))
            hs = tuple(int(rng.integers(size)) for _ in range(s))
            total = np.zeros(n, dtype=np.int64)
            ok = True
            for bits in subsets:
                pos = int(combine(p, n, (1,) + bits, (x,) + hs))
                if not base_mask[pos]:
                    ok = False
                    break
                total = total + _difference_sign(s, bits) * phi[pos]
            if ok:
                admissible += 1
                if not np.any(total % p):
                    vanishing += 1
    proportion = vanishing / admissible if admissible else 0.0
    return {
        "proportion": proportion,
        "admissible": admissible,
        "vanishing": vanishing,
        "exact": exact,
        "seed": None if exact else seed,
        "samples": None if exact else samples,
    }


def face_derivative_statistic(
    phi: np.ndarray,
    base: IndicatorSet | None,
    s: int,
    p: int,
    n: int,
    cap: int = 10**7,
    seed: int = 0,
    samples: int = 20000,
) -> dict:
    """Proportion of (2s+2)-dimensional difference boxes inside the base
    on which every face derivative of phi vanishes.

    The box through x with sides h_1 .. h_(2s+2) has corners
    x + w . h over w in {0,1}^(2s+2); the derivative on the face
    {w_i = e} is sum over that face of (-1)^|w| phi(corner).  s = 0 is
    exact; larger s falls back to seeded sampling above the cap.
    """
    k = 2 * s + 2
    size = p**n
    phi = np.asarray(phi, dtype=np.int64) % p
    base_mask = np.ones(size, dtype=bool) if base is None else base.mask
    subsets = list(itertools.product((0, 1), repeat=k))
    exact = size ** (k + 1) <= cap
    admissible = 0
    vanishing = 0

    def corners_ok_and_vanish(x_arr: np.ndarray, hs: tuple[int, ...]):
        positions = {}
        ok = np.ones(x_arr.shape, dtype=bool)
        for bits in subsets:
            pos = combine(p, n, (1,) + bits, (x_arr,) + hs)
            positions[bits] = pos
            ok = ok & base_mask[pos]
        vanish = np.ones(x_arr.shape, dtype=bool)
        for i in range(k):
            for e in (0, 1):
                acc = np.zeros(x_arr.shape + (n,), dtype=np.int64)
                for bits in subsets:
                    if bits[i] != e:
                        continue
                    sign = -1 if sum(bits) % 2 else 1
                    acc = acc + sign * phi[positions[bits]]
                vanish = vanish & np.all(acc % p == 0, axis=-1)
        return ok, vanish

    if exact:
        xs = np.arange(size)
        for hs in itertools.product(range(size), repeat=k):
            ok, vanish = corners_ok_and_vanish(xs, hs)
            admissible += int(ok.sum())
            vanishing += int((ok & vanish).sum())
    else:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            x = np.array([int(rng.integers(size))])
            hs = tuple(int(rng.integers(size)) for _ in range(k))
            ok, vanish = corners_ok_and_vanish(x, hs)
            if ok[0]:
                admissible += 1
                if vanish[0]:
                    vanishing += 1
    proportion = vanishing / admissible if admissible else 0.0
    return {
        "proportion": proportion,
        "admissible": admissible,
        "vanishing": vanishing,
        "exact": exact,
        "seed": None if exact else seed,
        "samples": None if exact else samples,
    }


def intersection_codim_statistic(fam: FiberFamily, system, shifts, cap: int = 10**7) -> dict:
    """How often stacked fiber constraints degenerate.

    For a scalar system psi_1..psi_k in r variables and shift vectors
    w_1..w_k, the set {y : all Phi(psi_i(xs), y + w_i) = 1} is cut out by
    the k*d stacked normal rows; its generic codimension is k*d.  The
    statistic is the proportion, among variable tuples whose form images
    all lie in the base, of degenerate intersections (codimension not
    equal to k*d, with the empty set counting as codimension n).
    """
    p, n, d = fam.p, fam.n, fam.d
    size = p**n
    r = system.r
    if r > 3:
        raise ResourceLimitError("tuple enumeration is capped at r <= 3")
    if size**r > cap:
        raise ResourceLimitError(f"tuple space {size ** r} exceeds cap")
    forms = system.scalar_matrix()
    if len(forms) != len(shifts):
        raise ValueError(f"{len(forms)} forms but {len(shifts)} shifts")
    base_mask = fam.base.mask
    ud = fam.offset.as_array()
    shift_digits = [w.as_array() if isinstance(w, GroupVector) else np.asarray(w, dtype=np.int64) % p for w in shifts]
    mesh = np.indices((size,) * r).reshape(r, -1)
    images = [combine(p, n, row, mesh) for row in forms]
    admissible = 0
    degenerate = 0
    expected = min(len(forms) * d, n)
    for t in range(mesh.shape[1]):
        pts = [int(img[t]) for img in images]
        if not all(base_mask[pt] for pt in pts):
            continue
        admissible += 1
        rows = []
        rhs = []
        for pt, w in zip(pts, shift_digits):
            nx = fam.normals[pt]
            rows.append(nx)
            rhs.append((nx @ ((ud - w) % p)) % p)
        if d == 0:
            codim = 0
        else:
            mat = np.vstack(rows)
            vec = np.concatenate(rhs)
            aug = np.hstack([mat, vec[:, None]])
            red, piv = modular_rref(aug, p)
            if n in piv:
                codim = n  # empty intersection
            else:
                codim = len(piv)
        if codim != len(forms) * d:
            degenerate += 1
    return {
        "admissible": admissible,
        "degenerate": degenerate,
        "proportion": degenerate / admissible if admissible else 0.0,
        "generic_codim": len(forms) * d,
        "note_expected_cap": expected,
    }


def random_family(p: int, n: int, d: int, seed: int, base_density: float = 1.0) -> FiberFamily:
    """A seeded random family: base by coin flips, independent random
    normals per base point, random common offset."""
    rng = np.random.default_rng(seed)
    size = p**n
    if base_density >= 1.0:
        base = IndicatorSet.full(p, n)
    else:
        mask = rng.random(size) < base_density
        if not mask.any():
            mask[int(rng.integers(size))] = True
        base = IndicatorSet.from_mask(p, n, mask)
    normals = np.zeros((size, d, n), dtype=np.int64)
    for x in range(size):
        if not base.contains_index(x):
            continue
        while True:
            cand = rng.integers(0, p, size=(d, n))
            if rank_mod(cand, p) == d:
                normals[x] = cand
                break
    u = GroupVector(p, tuple(int(v) for v in rng.integers(0, p, size=n)))
    return FiberFamily(p, n, base, u, d, normals)


def save_fibers(path: str, fam: FiberFamily) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        u_str = ",".join(str(v) for v in fam.offset.digits)
        fh.write(f"p={fam.p} n={fam.n} d={fam.d} u={u_str}\n")
        for x in fam.base.member_indices():
            rows = " ; ".join(",".join(str(int(v)) for v in row) for row in fam.normals[x])
            fh.write(f"{int(x)} : {rows}\n" if fam.d else f"{int(x)} :\n")


def load_fibers(path: str) -> FiberFamily:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    head = dict(tok.split("=", 1) for tok in lines[0].split())
    p, n, d = int(head["p"]), int(head["n"]), int(head["d"])
    u = GroupVector(p, tuple(int(v) for v in head["u"].split(","))) if n else GroupVector(p, ())
    size = p**n
    normals = np.zeros((size, d, n), dtype=np.int64)
    members = []
    for ln in lines[1:]:
        left, _, right = ln.partition(":")
        x = int(left.strip())
        members.append(x)
        if d:
            rows = [seg.strip() for seg in right.split(";")]
            if len(rows) != d:
                raise ValueError(f"expected {d} normals at x = {x}")
            for i, seg in enumerate(rows):
                normals[x, i] = [int(tok) for tok in seg.split(",")]
    base = IndicatorSet.from_indices(p, n, members)
    return FiberFamily(p, n, base, u, d, normals)
