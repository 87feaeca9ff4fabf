"""Dense tables for functions Z_p^m -> C, sets, and file I/O.

A FunctionTable stores all p^m values in canonical index order, in the
dtype of its kind: bool for an indicator, float64 for a real function,
complex128 otherwise.  A set is an indicator table; its exact integer
cardinality and float density are read off the table.

Functions on the pair space Z_p^n x Z_p^n use m = 2n with the pair
(x, y) at index x_index + p^n * y_index; ``as_pair_grid`` exposes the
same data as an N x N array G[x_index, y_index], and
``FunctionTable.from_pair_grid`` turns such an array back into a table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .field import AffineSubspace, check_modulus, check_size, combine, index_of

__all__ = [
    "FunctionTable",
    "product_lift",
    "slot_index_array",
    "line_means",
    "line_counts",
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


class FunctionTable:
    """A dense function on Z_p^m in canonical index order.

    The storage dtype is the kind: bool values make an "indicator"
    table, float64 a "real" one and complex128 a "complex" one.  Without
    ``kind`` the values keep their own kind (bool stays bool, complex
    stays complex, other numbers become float64); an explicit ``kind``
    checks values from outside against it and casts them.  Values are
    immutable after construction, so the cardinality and density are
    computed once; derived tables are new objects.
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

    @classmethod
    def from_indices(cls, p: int, m: int, indices: Iterable[int]) -> "FunctionTable":
        """The indicator of the set with the given member indices.

        Repeated indices are allowed; one outside [0, p^m) is refused.
        """
        size = check_size(p, m)
        idx = [int(i) for i in indices]
        if any(not 0 <= i < size for i in idx):
            raise ValueError("set element index out of range")
        vals = np.zeros(size, dtype=bool)
        vals[idx] = True
        return cls(p, m, vals)

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

    @cached_property
    def cardinality(self) -> int:
        """The exact number of nonzero values: |S| for a set S."""
        return int(np.count_nonzero(self.values))

    @cached_property
    def density(self) -> float:
        return self.cardinality / self.size

    def member_indices(self) -> np.ndarray:
        """Canonical indices of the nonzero values, ascending."""
        return np.flatnonzero(self.values)

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values))) if self.size else 0.0

    def is_one_bounded(self) -> bool:
        return self.max_modulus() <= 1.0 + 1e-12

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

    def minus_const(self, c: complex) -> "FunctionTable":
        return self._wrap(self.values - c)

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
    def from_pair_grid(cls, p: int, n: int, grid: np.ndarray) -> "FunctionTable":
        """The table on Z_p^(2n) whose pair grid is G[x_index, y_index]: the
        inverse of ``as_pair_grid``."""
        return cls(p, 2 * n, np.asarray(grid).reshape(-1, order="F"))


@lru_cache(maxsize=16)
def slot_index_array(p: int, n: int, slot: str) -> np.ndarray:
    """For each pair index of Z_p^n x Z_p^n, the index of the slot value, read-only."""
    if slot not in SLOTS:
        raise ValueError(f"slot must be one of {SLOTS}, got {slot!r}")
    n_points = p**n
    points = np.arange(n_points, dtype=np.int64)
    if slot == "x":
        out = np.tile(points, n_points)
    elif slot == "y":
        out = np.repeat(points, n_points)
    else:
        # row y, column x holds pair x + n_points * y; combine forms the
        # digits of x and y once per point, not once per pair
        out = combine(p, n, (1 if slot == "x+y" else 2, 1), (points[None, :], points[:, None])).reshape(-1)
    out.setflags(write=False)
    return out


def product_lift(a: FunctionTable, slot: str) -> FunctionTable:
    """Lift a function of one Z_p^n variable to the pair space via a slot.

    The result is (x, y) -> a(slot(x, y)).  Every slot map is onto with
    fibers of equal size, so densities are preserved.
    """
    idx = slot_index_array(a.p, a.m, slot)
    return FunctionTable(a.p, 2 * a.m, a.values[idx])


def _lines(grid: np.ndarray, p: int, n: int, slot: str) -> np.ndarray:
    """lines[w, x] = grid[x, y] for the y with slot(x, y) = w, for the slot
    "y", "x+y" or "2x+y"."""
    size = p**n
    # the buffer is C-ordered whatever the grid's layout: mean() sums along
    # the memory order, so an F-ordered one (np.empty_like of a pair-grid
    # view) rounds differently
    lines = np.empty(grid.shape, grid.dtype)
    lines[slot_index_array(p, n, slot).reshape(size, size, order="F"), np.arange(size)[:, None]] = grid
    return lines


def line_means(grid: np.ndarray, p: int, n: int, slot: str) -> np.ndarray:
    """m[w] = the mean of an N x N pair grid over the (x, y) with
    slot(x, y) = w: its means along the lines on which the slot "x", "y",
    "x+y" or "2x+y" is constant, one per w in Z_p^n."""
    if slot in ("x", "y"):
        # summed in the F-ordered layout of a pair-grid view whatever the
        # grid's own: the rows one y after another, the columns along memory
        return np.asfortranarray(grid).mean(axis=1 if slot == "x" else 0)
    return _lines(grid, p, n, slot).mean(axis=1)


def line_counts(grid: np.ndarray, p: int, n: int, slot: str) -> np.ndarray:
    """c[w] = #{(x, y) : grid[x, y], slot(x, y) = w}, as int64: the member
    counts of a bool N x N pair grid along the lines on which the slot
    "x", "y", "x+y" or "2x+y" is constant, one per w in Z_p^n."""
    if slot in ("x", "y"):
        return np.count_nonzero(grid, axis=1 if slot == "x" else 0)
    return np.count_nonzero(_lines(grid, p, n, slot), axis=1)


# -- file formats -------------------------------------------------------
#
# Set file: header "p=<p> m=<m>", then one member per line, either a
# canonical index in decimal or comma-separated digits.  Blank lines and
# lines starting with # are ignored.  Table file: header gains
# "kind=<kind>", then p^m lines "<re> <im>" in index order, written with
# repr so the round trip is bit exact.


def save_set(path: str, s: FunctionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p={s.p} m={s.m}\n")
        for idx in s.member_indices():
            fh.write(f"{int(idx)}\n")


def _parse_header(path: str, line: str, want_kind: bool) -> tuple[int, int, str]:
    try:
        parts = dict(tok.split("=", 1) for tok in line.split())
    except ValueError:
        raise ValueError(f"{path}:1: header tokens must be key=value, got {line!r}") from None
    try:
        p = int(parts["p"])
        m = int(parts["m"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}:1: header {line!r} needs integer p= and m=") from None
    check_size(p, m)
    check_modulus(p)
    kind = parts.get("kind", "indicator")
    if want_kind and "kind" not in parts:
        raise ValueError(f"{path}:1: table header {line!r} lacks kind=")
    return p, m, kind


def load_set(path: str) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty set file")
    p, m, _ = _parse_header(path, lines[0], want_kind=False)
    indices: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nums = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected an index or comma-separated digits") from None
        if "," in line:
            if len(nums) != m:
                raise ValueError(f"{path}:{lineno}: expected {m} digits")
            # reduced here, so that no digit overflows index_of's int64
            indices.append(index_of(p, [d % p for d in nums]))
        else:
            indices.append(nums[0])
    return FunctionTable.from_indices(p, m, indices)


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
    p, m, kind = _parse_header(path, lines[0], want_kind=True)
    vals = np.zeros(p**m, dtype=np.complex128)
    row = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            re_part, im_part = map(float, line.split())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected '<re> <im>'") from None
        if row == p**m:
            raise ValueError(f"{path}:{lineno}: more than {p ** m} values")
        vals[row] = complex(re_part, im_part)
        row += 1
    if row != p**m:
        raise ValueError(f"{path}: expected {p ** m} values, found {row}")
    return FunctionTable(p, m, vals, kind)


def load_any(path: str) -> FunctionTable:
    """Load a set or a table file, keyed on the header's kind= marker."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    if "kind=" in header:
        return load_table(path)
    return load_set(path)
