"""Dense tables for functions Z_p^m -> C, indicator sets, and file I/O.

A FunctionTable stores all p^m values in canonical index order, in the
dtype of its kind: bool for an indicator, float64 for a real function,
complex128 otherwise.  Indicator sets are the {0,1}-valued special case
and carry exact integer cardinalities next to their float densities.

Functions on the pair space Z_p^n x Z_p^n use m = 2n with the pair
(x, y) at index x_index + p^n * y_index; ``as_pair_grid`` exposes the
same data as an N x N array G[x_index, y_index].
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: Storage dtype of each kind of table.
KINDS = {"complex": np.complex128, "real": np.float64, "indicator": np.bool_}

#: Named linear slots of the pair space.  Each sends (x, y) to a point of
#: Z_p^n; a factor set placed in a slot constrains that combination.
SLOTS = ("y", "x+y", "2x+y", "x")


def pair_index(x_idx: int | np.ndarray, y_idx: int | np.ndarray, n_points: int):
    return x_idx + n_points * y_idx


def unpair_index(pair: int | np.ndarray, n_points: int):
    return pair % n_points, pair // n_points


class FunctionTable:
    """A dense function on Z_p^m in canonical index order.

    The storage dtype is the kind: bool values make an "indicator"
    table, float64 a "real" one and complex128 a "complex" one.  Without
    ``kind`` the values keep their own kind (bool stays bool, complex
    stays complex, other numbers become float64); an explicit ``kind``
    checks values from outside against it and casts them.  Values are
    immutable after construction; derived tables are new objects.
    """

    def __init__(self, p: int, m: int, values, kind: str | None = None) -> None:
        size = check_size(p, m)
        check_modulus(p)
        vals = np.asarray(values).reshape(-1)
        if vals.shape[0] != size:
            raise ValueError(f"expected {size} values, got {vals.shape[0]}")
        if vals.dtype != np.bool_ and not np.all(np.isfinite(vals)):
            raise ValueError("table values must be finite")
        if kind is None:
            kind = "indicator" if vals.dtype == np.bool_ else "complex" if np.iscomplexobj(vals) else "real"
        elif kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        elif kind != "complex":
            if np.any(np.imag(vals) != 0):
                raise ValueError(f"kind {kind!r} requires real values")
            vals = np.real(vals)
            if kind == "indicator" and not np.all((vals == 0) | (vals == 1)):
                raise ValueError("indicator tables must be exactly 0/1 valued")
        self.p = p
        self.m = m
        self.values = vals.astype(KINDS[kind])
        self.values.setflags(write=False)

    @property
    def kind(self) -> str:
        return next(k for k, dtype in KINDS.items() if self.values.dtype == dtype)

    # -- basic queries -------------------------------------------------

    @property
    def size(self) -> int:
        return self.p**self.m

    def mean(self) -> complex:
        # np.sum on a fixed-shape 1-d array uses the same pairwise tree
        # every run, which is the reproducibility contract we need; it runs
        # in complex128 for every kind, as the float64 tree rounds differently.
        return complex(np.sum(self.values.astype(np.complex128, copy=False)) / self.size)

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values))) if self.size else 0.0

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        return self.max_modulus() <= 1.0 + tol

    # -- pointwise algebra ----------------------------------------------
    #
    # Each result takes its kind from numpy's result dtype.

    def _wrap(self, values: np.ndarray) -> "FunctionTable":
        return FunctionTable(self.p, self.m, values)

    def conj(self) -> "FunctionTable":
        # np.conj would turn bool into int8; real tables are their own conjugate
        return self._wrap(np.conj(self.values) if self.kind == "complex" else self.values)

    def times(self, other: "FunctionTable") -> "FunctionTable":
        if (other.p, other.m) != (self.p, self.m):
            raise ValueError("pointwise product of tables on different spaces")
        return self._wrap(self.values * other.values)

    def plus(self, other: "FunctionTable") -> "FunctionTable":
        if (other.p, other.m) != (self.p, self.m):
            raise ValueError("pointwise sum of tables on different spaces")
        # bool + bool is a logical or; a weak float operand promotes it to float64
        dtype = np.result_type(self.values, other.values, 0.0)
        return self._wrap(np.add(self.values, other.values, dtype=dtype))

    def scale(self, c: complex) -> "FunctionTable":
        return self._wrap(self.values * c)

    def minus_const(self, c: complex) -> "FunctionTable":
        return self._wrap(self.values - c)

    def translate(self, h: GroupVector | int) -> "FunctionTable":
        """The table of x -> f(x + h)."""
        h_idx = h.index if isinstance(h, GroupVector) else int(h)
        return self._wrap(self.values[add_map(self.p, self.m, h_idx)])

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
        return FunctionTable(self.p, coset.dim, self.values[coset.member_indices()])

    # -- pair-space views -----------------------------------------------

    def as_pair_grid(self) -> np.ndarray:
        """View a table on Z_p^(2n) as G[x_index, y_index]."""
        if self.m % 2 != 0:
            raise ValueError("pair grid needs an even number of coordinates")
        n_points = self.p ** (self.m // 2)
        return self.values.reshape((n_points, n_points), order="F")

    @classmethod
    def from_pair_grid(cls, p: int, n: int, grid: np.ndarray, kind: str | None = None) -> "FunctionTable":
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
        card = int(np.count_nonzero(table.values))
        return cls(table, card, card / table.size)

    @classmethod
    def from_mask(cls, p: int, m: int, mask: np.ndarray) -> "IndicatorSet":
        return cls.from_table(FunctionTable(p, m, np.asarray(mask, dtype=bool)))

    @classmethod
    def from_indices(cls, p: int, m: int, indices: Iterable[int]) -> "IndicatorSet":
        vals = np.zeros(p**m, dtype=bool)
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= p**m):
            raise ValueError("set element index out of range")
        vals[idx] = True
        return cls.from_table(FunctionTable(p, m, vals))

    @classmethod
    def from_predicate(cls, p: int, m: int, pred: Callable[[np.ndarray], np.ndarray]) -> "IndicatorSet":
        """Build from a vectorised predicate on digit rows."""
        mask = pred(digit_table(p, m))
        return cls.from_mask(p, m, mask)

    @classmethod
    def full(cls, p: int, m: int) -> "IndicatorSet":
        return cls.from_table(FunctionTable(p, m, np.ones(p**m, dtype=bool)))

    @classmethod
    def empty(cls, p: int, m: int) -> "IndicatorSet":
        return cls.from_table(FunctionTable(p, m, np.zeros(p**m, dtype=bool)))

    @property
    def p(self) -> int:
        return self.table.p

    @property
    def m(self) -> int:
        return self.table.m

    @property
    def mask(self) -> np.ndarray:
        """Membership as a read-only bool array in canonical index order."""
        return self.table.values

    def member_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains_index(self, idx: int) -> bool:
        return bool(self.mask[idx])

    def complement(self) -> "IndicatorSet":
        return IndicatorSet.from_table(FunctionTable(self.p, self.m, ~self.mask))

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
    return FunctionTable(a.p, 2 * a.m, a.values[idx])


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
