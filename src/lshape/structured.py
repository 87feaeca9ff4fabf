"""Structured subsets of the pair space built from affine fibers.

A fiber family places, over every point x of a base set A in Z_p^n, an
affine fiber u_x + V_x of common codimension d (V_x varies with x; the
offset u_x is usually one shared u).  Its indicator on the pair space is

    Phi(x, y) = A(x) * [y in u_x + V_x]

and has density exactly alpha * p^(-d) because fibers are cosets.  The
table Phi is the family: the base is the set of its nonempty rows, and
restricting the family to a sub-base, to the fibers through one point or
to a product cell is a restriction of Phi.  Normals and offsets enter
only through ``FiberFamily.from_normals``.

A structured product set combines three factor sets placed in linear
slots with such a family:

    T(x, y) = B(y) * C(x+y) * D(2x+y) * Phi(x, y).

These are the obstructions that make configuration counting hard: every
factor is invisible to a single coordinate but correlates the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from .field import digit_table, rank_mod
from .tables import FunctionTable, product_lift

__all__ = [
    "FiberFamily",
    "StructuredProductSet",
    "random_family",
]


#: The slots of the factors B, C and D, in field order: slot k is k x + y.
FACTOR_SLOTS = ("y", "x+y", "2x+y")
_FIELD_OF = dict(zip(FACTOR_SLOTS, ("y_set", "sum_set", "skew_set")))

#: Entries of the (points, d, p^n) residue block that from_normals forms
#: at once while building Phi, which keeps the block to a few MB.
_PHI_BLOCK = 1 << 18


@dataclass
class FiberFamily:
    """Affine fibers of common codimension d over a base set, stored as
    their incidence table Phi on the pair space.

    Row x of Phi's pair grid is x's fiber; every nonempty row must hold
    p^(n - d) points, and the base is the set of nonempty rows.
    """

    p: int
    n: int
    d: int
    table: FunctionTable  # Phi, an indicator table on Z_p^(2n)
    base: FunctionTable = dc_field(init=False)  # the nonempty rows of Phi

    def __post_init__(self) -> None:
        p, n, d = self.p, self.n, self.d
        if self.table.kind != "indicator":
            raise ValueError(f"Phi must be an indicator table, got kind {self.table.kind!r}")
        if (self.table.p, self.table.m) != (p, 2 * n):
            raise ValueError("Phi lives in the wrong space")
        if not 0 <= d <= n:
            raise ValueError(f"codimension d = {d} outside [0, {n}]")
        sizes = np.count_nonzero(self.table.as_pair_grid(), axis=1)
        bad = np.flatnonzero((sizes != 0) & (sizes != p ** (n - d)))
        if bad.size:
            raise ValueError(f"the fiber at x = {bad[0]} has {sizes[bad[0]]} points, not p^(n - d) = {p ** (n - d)}")
        self.base = FunctionTable(p, n, sizes != 0)

    @classmethod
    def from_normals(cls, base: FunctionTable, offsets, d: int, normals) -> "FiberFamily":
        """The fibers {y : normals[x] . (y - u_x) = 0} over the base.

        ``offsets`` is either the digits of one u shared by every fiber or
        a (p^n, n) array with one offset u_x per point; ``normals`` is a
        (p^n, d, n) array.  Rows off the base are ignored.
        """
        if base.kind != "indicator":
            raise ValueError(f"base must be an indicator table, got kind {base.kind!r}")
        p, n = base.p, base.m
        size = p**n
        offsets = np.asarray(offsets, dtype=np.int64) % p
        offsets = np.broadcast_to(offsets, (size, offsets.shape[-1])) if offsets.ndim == 1 else offsets
        normals = np.asarray(normals, dtype=np.int64) % p
        if normals.shape != (size, d, n):
            raise ValueError(f"normals must have shape ({size}, {d}, {n})")
        if offsets.shape != (size, n):
            raise ValueError(f"offsets must have shape ({size}, {n})")
        # Phi(x, y) = A(x) [normals[x] . (y - offsets[x]) = 0], for blocks of
        # base points at once, as normals[x] . y - normals[x] . offsets[x]
        yd_t = digit_table(p, n).T
        mask = np.zeros((size, size), dtype=bool)  # mask[x, y]
        members = base.member_indices()
        step = max(1, _PHI_BLOCK // (max(d, 1) * size))
        for start in range(0, len(members), step):
            xs = members[start : start + step]
            shift = np.einsum("xdn,xn->xd", normals[xs], offsets[xs])
            mask[xs] = np.all((normals[xs] @ yd_t - shift[:, :, None]) % p == 0, axis=1)
        # a fiber has p^(n - d) points exactly when its d normals are independent
        dependent = np.flatnonzero(base.values & (mask.sum(axis=1) != p ** (n - d)))
        if dependent.size:
            raise ValueError(f"normals at x = {dependent[0]} are dependent; codimension would drop below {d}")
        return cls(p, n, d, FunctionTable.from_pair_grid(p, n, mask))

    @classmethod
    def full(cls, base: FunctionTable) -> "FiberFamily":
        """d = 0: the fiber over every base point is all of Z_p^n."""
        return cls.from_normals(base, np.zeros(base.m, dtype=np.int64), 0,
                                np.zeros((base.size, 0, base.m), dtype=np.int64))

    @property
    def rho(self) -> float:
        return self.p ** (-self.d)

    def aligned_base_at(self, u: int) -> FunctionTable:
        """The set A_u = {x in A : u lies on x's fiber}, for the point of
        index u: column u of Phi.

        For x in A_u, u + V_x is x's fiber itself, so the family restricted
        to A_u has u as an offset shared by every fiber.
        """
        return FunctionTable(self.p, self.n, self.table.as_pair_grid()[:, u])

    def restrict(self, sub_base: FunctionTable) -> "FiberFamily":
        """The same fibers over the base points in ``sub_base``: Phi with
        every other row cleared."""
        grid = self.table.as_pair_grid() & sub_base.values[:, None]
        return FiberFamily(self.p, self.n, self.d, FunctionTable.from_pair_grid(self.p, self.n, grid))


@lru_cache(maxsize=16)
def _audit_grids(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices of x + y and 2x + y over the whole grid, [x, y], read-only.

    Built by plain digit arithmetic, one digit place at a time, and not by
    ``combine`` or ``product_lift``, so that the product-set audit stays
    independent of the code it checks.
    """
    size = p**n
    grids = (np.zeros((size, size), dtype=np.int64), np.zeros((size, size), dtype=np.int64))
    for place, col in enumerate(digit_table(p, n).T):
        for grid, coeff in zip(grids, (1, 2)):
            term = np.add.outer(coeff * col, col)
            term %= p
            term *= p**place
            grid += term
    for grid in grids:
        grid.setflags(write=False)
    return grids


@dataclass
class StructuredProductSet:
    """T(x,y) = B(y) C(x+y) D(2x+y) Phi(x,y), with its build report.

    Every build is audited point by point against the x + y and 2x + y
    index grids of the space, which are built once per (p, n) by plain
    digit arithmetic and cached read-only, so the audit never goes
    through ``combine`` or ``product_lift``.
    """

    y_set: FunctionTable
    sum_set: FunctionTable
    skew_set: FunctionTable
    fibers: FiberFamily
    table: FunctionTable = dc_field(init=False)

    def __post_init__(self) -> None:
        b, c, d_set = self.y_set, self.sum_set, self.skew_set
        fam = self.fibers
        p, n = fam.p, fam.n
        for name, s in (("y_set", b), ("sum_set", c), ("skew_set", d_set)):
            if s.kind != "indicator":
                raise ValueError(f"{name} must be an indicator table, got kind {s.kind!r}")
            if (s.p, s.m) != (p, n):
                raise ValueError("factor sets live in the wrong space")
        self.table = (
            product_lift(b, "y")
            .times(product_lift(c, "x+y"))
            .times(product_lift(d_set, "2x+y"))
            .times(fam.table)
        )
        # independent pointwise audit on the x + y and 2x + y grids
        sums, skews = _audit_grids(p, n)
        direct = b.values[None, :] & c.values[sums] & d_set.values[skews] & fam.table.as_pair_grid()
        got = self.table.as_pair_grid()
        bad = np.flatnonzero(np.any(direct != got, axis=1))
        if bad.size:
            raise AssertionError(f"product set disagrees with direct evaluation on row x = {bad[0]}")

    @property
    def p(self) -> int:
        return self.fibers.p

    @property
    def n(self) -> int:
        return self.fibers.n

    def factor(self, slot: str) -> FunctionTable:
        """The factor set that lives in ``slot``: B, C or D, or for "x" the
        base of the fibers."""
        return self.fibers.base if slot == "x" else getattr(self, _FIELD_OF[slot])

    def with_factor(self, slot: str, sub: FunctionTable) -> "StructuredProductSet":
        """T with the factor in ``slot`` replaced by ``sub``, rebuilt and
        audited; for "x" the fibers are restricted to the base ``sub``."""
        if slot == "x":
            return replace(self, fibers=self.fibers.restrict(sub))
        return replace(self, **{_FIELD_OF[slot]: sub})

    def others_density(self, slot: str, scale: float = 1.0) -> float:
        """scale times the densities of every factor but the one in
        ``slot``, and rho, multiplied in the slot order x, y, x+y, 2x+y."""
        for other in ("x", *FACTOR_SLOTS):
            if other != slot:
                scale *= self.factor(other).density
        return scale * self.fibers.rho


def random_family(p: int, n: int, d: int, seed: int, base_density: float = 1.0) -> FiberFamily:
    """A seeded random family: base by coin flips, independent random
    normals per base point, random common offset."""
    # the normals are redrawn until they have rank d, which needs d <= n
    if not 0 <= d <= n:
        raise ValueError(f"codimension d = {d} outside [0, {n}]")
    rng = np.random.default_rng(seed)
    size = p**n
    if base_density >= 1.0:
        mask = np.ones(size, dtype=bool)
    else:
        mask = rng.random(size) < base_density
        if not mask.any():
            mask[int(rng.integers(size))] = True
    base = FunctionTable(p, n, mask)
    normals = np.zeros((size, d, n), dtype=np.int64)
    for x in base.member_indices().tolist():
        while True:
            cand = rng.integers(0, p, size=(d, n))
            if rank_mod(cand, p) == d:
                normals[x] = cand
                break
    return FiberFamily.from_normals(base, rng.integers(0, p, size=n), d, normals)
