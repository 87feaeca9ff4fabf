"""Dense tables for functions Z_p^m -> C, indicator sets, and file I/O.

A FunctionTable stores all p^m values in canonical index order as
complex doubles.  Indicator sets are the {0,1}-valued special case and
carry exact integer cardinalities next to their float densities.

Functions on the pair space Z_p^n x Z_p^n use m = 2n with the pair
(x, y) at index x_index + p^n * y_index; ``as_pair_grid`` exposes the
same data as an N x N array G[x_index, y_index].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .field import (
    AffineSubspace,
    GroupVector,
    add_map,
    check_modulus,
    check_size,
    combine,
    digit_table,
)

__all__ = [
    "FunctionTable",
    "IndicatorSet",
    "balanced",
    "product_lift",
    "pair_index",
    "unpair_index",
    "slot_index_array",
    "save_set",
    "load_set",
    "save_table",
    "load_table",
    "load_any",
]

KINDS = ("complex", "real", "indicator")

#: Named linear slots of the pair space.  Each sends (x, y) to a point of
#: Z_p^n; a factor set placed in a slot constrains that combination.
SLOTS = ("y", "x+y", "2x+y", "x")


def pair_index(x_idx: int | np.ndarray, y_idx: int | np.ndarray, n_points: int):
    return x_idx + n_points * y_idx


def unpair_index(pair: int | np.ndarray, n_points: int):
    return pair % n_points, pair // n_points


@dataclass
class FunctionTable:
    """A dense function on Z_p^m in canonical index order.

    ``kind`` is a storage tag: "indicator" promises values in {0, 1},
    "real" promises zero imaginary part, "complex" promises nothing.
    Values are immutable after construction; derived tables are new
    objects.
    """

    p: int
    m: int
    values: np.ndarray
    kind: str = "complex"

    def __post_init__(self) -> None:
        size = check_size(self.p, self.m)
        check_modulus(self.p)
        vals = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if vals.shape[0] != size:
            raise ValueError(f"expected {size} values, got {vals.shape[0]}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table values must be finite")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind in ("real", "indicator") and np.any(vals.imag != 0):
            raise ValueError(f"kind {self.kind!r} requires real values")
        if self.kind == "indicator":
            re = vals.real
            if not np.all((re == 0) | (re == 1)):
                raise ValueError("indicator tables must be exactly 0/1 valued")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- basic queries -------------------------------------------------

    @property
    def size(self) -> int:
        return self.p**self.m

    def mean(self) -> complex:
        # np.sum on a fixed-shape 1-d array uses the same pairwise tree
        # every run, which is the reproducibility contract we need.
        return complex(np.sum(self.values) / self.size)

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values))) if self.size else 0.0

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        return self.max_modulus() <= 1.0 + tol

    # -- pointwise algebra ----------------------------------------------

    def _wrap(self, values: np.ndarray, kind: str | None = None) -> "FunctionTable":
        return FunctionTable(self.p, self.m, values, kind or "complex")

    def conj(self) -> "FunctionTable":
        return self._wrap(np.conj(self.values), self.kind)

    def times(self, other: "FunctionTable") -> "FunctionTable":
        if (other.p, other.m) != (self.p, self.m):
            raise ValueError("pointwise product of tables on different spaces")
        kind = "indicator" if self.kind == other.kind == "indicator" else None
        return self._wrap(self.values * other.values, kind)

    def plus(self, other: "FunctionTable") -> "FunctionTable":
        if (other.p, other.m) != (self.p, self.m):
            raise ValueError("pointwise sum of tables on different spaces")
        return self._wrap(self.values + other.values)

    def scale(self, c: complex) -> "FunctionTable":
        return self._wrap(self.values * c)

    def minus_const(self, c: complex) -> "FunctionTable":
        kind = "real" if self.kind in ("real", "indicator") and complex(c).imag == 0 else None
        return self._wrap(self.values - c, kind)

    def translate(self, h: GroupVector | int) -> "FunctionTable":
        """The table of x -> f(x + h)."""
        h_idx = h.index if isinstance(h, GroupVector) else int(h)
        return self._wrap(self.values[add_map(self.p, self.m, h_idx)], self.kind)

    def restrict(self, coset: AffineSubspace) -> "FunctionTable":
        """Pull f back through the coset parameterization.

        The result lives on Z_p^dim; entry t is f(offset + B t) where B
        is the coset's deterministic basis.  Restricting to the full
        space is the identity re-indexing.
        """
        if coset.p != self.p or coset.ambient_dim != self.m:
            raise ValueError("coset lives in the wrong space")
        if coset.is_empty:
            raise ValueError("cannot restrict to the empty coset")
        members = coset.member_indices()
        return FunctionTable(self.p, coset.dim, self.values[members], self.kind)

    # -- pair-space views -----------------------------------------------

    def as_pair_grid(self) -> np.ndarray:
        """View a table on Z_p^(2n) as G[x_index, y_index]."""
        if self.m % 2 != 0:
            raise ValueError("pair grid needs an even number of coordinates")
        n_points = self.p ** (self.m // 2)
        return self.values.reshape((n_points, n_points), order="F")

    @classmethod
    def from_pair_grid(cls, p: int, n: int, grid: np.ndarray, kind: str = "complex") -> "FunctionTable":
        n_points = p**n
        if grid.shape != (n_points, n_points):
            raise ValueError(f"expected a {n_points} x {n_points} grid")
        return cls(p, 2 * n, np.asarray(grid).reshape(-1, order="F"), kind)


@dataclass
class IndicatorSet:
    """An indicator table plus its exact cardinality and density."""

    table: FunctionTable
    cardinality: int
    density: float

    @classmethod
    def from_table(cls, table: FunctionTable) -> "IndicatorSet":
        if table.kind != "indicator":
            raise ValueError("need an indicator-kind table")
        card = int(round(float(np.sum(table.values.real))))
        return cls(table, card, card / table.size)

    @classmethod
    def from_mask(cls, p: int, m: int, mask: np.ndarray) -> "IndicatorSet":
        vals = np.where(np.asarray(mask).reshape(-1), 1.0, 0.0)
        return cls.from_table(FunctionTable(p, m, vals, "indicator"))

    @classmethod
    def from_indices(cls, p: int, m: int, indices: Iterable[int]) -> "IndicatorSet":
        vals = np.zeros(p**m)
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= p**m):
            raise ValueError("set element index out of range")
        vals[idx] = 1.0
        return cls.from_table(FunctionTable(p, m, vals, "indicator"))

    @classmethod
    def from_predicate(cls, p: int, m: int, pred: Callable[[np.ndarray], np.ndarray]) -> "IndicatorSet":
        """Build from a vectorised predicate on digit rows."""
        mask = pred(digit_table(p, m))
        return cls.from_mask(p, m, mask)

    @classmethod
    def full(cls, p: int, m: int) -> "IndicatorSet":
        return cls.from_table(FunctionTable(p, m, np.ones(p**m), "indicator"))

    @classmethod
    def empty(cls, p: int, m: int) -> "IndicatorSet":
        return cls.from_table(FunctionTable(p, m, np.zeros(p**m), "indicator"))

    @property
    def p(self) -> int:
        return self.table.p

    @property
    def m(self) -> int:
        return self.table.m

    @cached_property
    def mask(self) -> np.ndarray:
        """Membership as a read-only bool array in canonical index order."""
        out = self.table.values.real == 1.0
        out.setflags(write=False)
        return out

    def member_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains_index(self, idx: int) -> bool:
        return bool(self.mask[idx])

    def complement(self) -> "IndicatorSet":
        return IndicatorSet.from_table(
            FunctionTable(self.p, self.m, 1.0 - self.table.values.real, "indicator")
        )

    def intersect(self, other: "IndicatorSet") -> "IndicatorSet":
        return IndicatorSet.from_table(self.table.times(other.table))


def balanced(s: IndicatorSet) -> FunctionTable:
    """The mean-zero shift: indicator minus density."""
    return s.table.minus_const(s.density)


def slot_index_array(p: int, n: int, slot: str) -> np.ndarray:
    """For each pair index of Z_p^n x Z_p^n, the index of the slot value."""
    if slot not in SLOTS:
        raise ValueError(f"slot must be one of {SLOTS}, got {slot!r}")
    n_points = p**n
    pair = np.arange(n_points * n_points, dtype=np.int64)
    x_idx, y_idx = unpair_index(pair, n_points)
    if slot == "x":
        return x_idx
    if slot == "y":
        return y_idx
    return combine(p, n, (1 if slot == "x+y" else 2, 1), (x_idx, y_idx))


def product_lift(a: FunctionTable, slot: str) -> FunctionTable:
    """Lift a function of one Z_p^n variable to the pair space via a slot.

    The result is (x, y) -> a(slot(x, y)).  Every slot map is onto with
    fibers of equal size, so densities are preserved.
    """
    idx = slot_index_array(a.p, a.m, slot)
    return FunctionTable(a.p, 2 * a.m, a.values[idx], a.kind)


# -- file formats -------------------------------------------------------
#
# Set file: header "p=<p> m=<m>", then one member per line, either a
# canonical index in decimal or comma-separated digits.  Blank lines and
# lines starting with # are ignored.  Table file: header gains
# "kind=<kind>", then p^m lines "<re> <im>" in index order, written with
# repr so the round trip is bit exact.


def save_set(path: str, s: IndicatorSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p={s.p} m={s.m}\n")
        for idx in s.member_indices():
            fh.write(f"{int(idx)}\n")


def _parse_header(line: str, want_kind: bool) -> tuple[int, int, str]:
    parts = dict(tok.split("=", 1) for tok in line.split())
    try:
        p = int(parts["p"])
        m = int(parts["m"])
    except KeyError as exc:
        raise ValueError(f"malformed header {line!r}: missing {exc}") from None
    kind = parts.get("kind", "indicator")
    if want_kind and "kind" not in parts:
        raise ValueError(f"table header {line!r} lacks kind=")
    return p, m, kind


def load_set(path: str) -> IndicatorSet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty set file")
    p, m, _ = _parse_header(lines[0], want_kind=False)
    indices: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            digits = [int(tok) for tok in line.split(",")]
            if len(digits) != m:
                raise ValueError(f"{path}:{lineno}: expected {m} digits")
            idx = int(sum(d % p * p**i for i, d in enumerate(digits)))
        else:
            idx = int(line)
        indices.append(idx)
    return IndicatorSet.from_indices(p, m, indices)


def save_table(path: str, f: FunctionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p={f.p} m={f.m} kind={f.kind}\n")
        for v in f.values:
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def load_table(path: str) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty table file")
    p, m, kind = _parse_header(lines[0], want_kind=True)
    vals = np.zeros(p**m, dtype=np.complex128)
    row = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<re> <im>'")
        vals[row] = complex(float(toks[0]), float(toks[1]))
        row += 1
    if row != p**m:
        raise ValueError(f"{path}: expected {p ** m} values, found {row}")
    return FunctionTable(p, m, vals, kind)


def load_any(path: str):
    """Load a set or a table file, keyed on the header's kind= marker."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    if "kind=" in header:
        return load_table(path)
    return load_set(path)
