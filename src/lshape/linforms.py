"""Linear form systems and their Cauchy-Schwarz complexity.

A system is a multiset of linear forms psi_1, ..., psi_d in r variables
with residue coefficients; each variable ranges over Z_p^n and a scalar
(1-row) form maps the variable tuple to Z_p^n.  Forms may also stack k
rows to land in Z_p^(kn), which is how a point of the pair space is a
single "form" of a counting system; only scalar forms participate in
complexity computations.

The complexity of the system is the least s such that, for every j,
the forms other than psi_j can be split into at most s + 1 classes with
psi_j outside the linear span of each class.  If some other form is
parallel to psi_j no such partition exists at any size; that case is
reported as infinite (s is None).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .field import modular_rref
from .norms import gowers_norm
from .patterns import count_system

__all__ = [
    "LinearForm",
    "LinearFormSystem",
    "ComplexityCertificate",
    "cs_complexity",
    "von_neumann_check",
    "lshape_slot_system",
]

MAX_FORMS = 12


@dataclass(frozen=True)
class LinearForm:
    """One form: a k x r residue coefficient matrix (k = 1 for scalars)."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def is_scalar(self) -> bool:
        return len(self.rows) == 1


@dataclass(frozen=True)
class LinearFormSystem:
    p: int
    r: int
    forms: tuple[LinearForm, ...]

    def __post_init__(self) -> None:
        for f in self.forms:
            if any(len(row) != self.r for row in f.rows):
                raise ValueError("form width does not match the variable count")
            if all(c % self.p == 0 for row in f.rows for c in row):
                raise ValueError("zero forms are not allowed")

    @classmethod
    def from_rows(cls, p: int, rows) -> "LinearFormSystem":
        """Scalar system from a list of coefficient rows."""
        rows = [tuple(int(c) % p for c in row) for row in rows]
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise ValueError("ragged coefficient rows")
        return cls(p, widths.pop(), tuple(LinearForm((row,)) for row in rows))

    @property
    def all_scalar(self) -> bool:
        return all(f.is_scalar for f in self.forms)

    def scalar_matrix(self) -> np.ndarray:
        if not self.all_scalar:
            raise ValueError("system contains stacked (non-scalar) forms")
        return np.array([f.rows[0] for f in self.forms], dtype=np.int64) % self.p


def lshape_slot_system(p: int) -> LinearFormSystem:
    """The scalar slots y, x+y, 2x+y of the four-point configuration."""
    return LinearFormSystem.from_rows(p, [[0, 1], [1, 1], [2, 1]])


@dataclass(frozen=True)
class ComplexityCertificate:
    """Witness for the complexity value.

    For finite s, ``partitions[j]`` lists the classes (tuples of form
    indices) covering the forms other than j, with psi_j outside every
    class span.  For the infinite case ``parallel_pair`` names two
    parallel forms and ``s`` is None.
    """

    s: int | None
    partitions: tuple[tuple[tuple[int, ...], ...], ...] = ()
    parallel_pair: tuple[int, int] | None = None

    @property
    def is_infinite(self) -> bool:
        return self.s is None


def _span_contains(vectors: np.ndarray, target: np.ndarray, p: int) -> bool:
    """Whether ``target`` lies in the span of the rows of ``vectors``, by
    one reduction: among the columns of [vectors; target]^T, the last is
    a pivot exactly when it is independent of the columns before it."""
    return len(vectors) not in modular_rref(np.vstack([vectors, target]).T, p)[1]


def _min_classes(vectors: np.ndarray, j: int, p: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Fewest classes splitting the forms other than j with psi_j out of
    every class span, by exhaustive assignment search downward from its
    first descent with a class per form: greedy first fit, which never
    backtracks once ``cs_complexity`` has ruled out forms parallel to psi_j."""
    others = [i for i in range(len(vectors)) if i != j]
    if not others:
        return 0, ()

    def feasible(count: int) -> tuple[tuple[int, ...], ...] | None:
        assign: list[list[int]] = [[] for _ in range(count)]

        def rec(pos: int) -> bool:
            if pos == len(others):
                return True
            i = others[pos]
            seen_empty = False
            for cls in assign:
                if not cls:
                    if seen_empty:
                        break  # empty classes are interchangeable
                    seen_empty = True
                if not _span_contains(vectors[cls + [i]], vectors[j], p):
                    cls.append(i)
                    if rec(pos + 1):
                        return True
                    cls.pop()
            return False

        if rec(0):
            return tuple(tuple(c) for c in assign if c)
        return None

    best = feasible(len(others))
    k = len(best)
    while k > 1:
        got = feasible(k - 1)
        if got is None:
            break
        best = got
        k -= 1
    return k, best


def cs_complexity(system: LinearFormSystem) -> ComplexityCertificate:
    """Complexity of a scalar system, with a verifiable certificate."""
    if not system.all_scalar:
        raise ValueError("complexity is defined for scalar forms only")
    d = len(system.forms)
    if d > MAX_FORMS:
        raise ValueError(f"partition search is exponential; capped at {MAX_FORMS} forms")
    vectors = system.scalar_matrix()
    p = system.p
    for i, jj in itertools.combinations(range(d), 2):
        if _span_contains(vectors[[i]], vectors[jj], p):
            return ComplexityCertificate(None, (), (i, jj))
    partitions = []
    worst = 0
    for j in range(d):
        k, classes = _min_classes(vectors, j, p)
        worst = max(worst, k)
        partitions.append(classes)
    return ComplexityCertificate(max(worst - 1, 0), tuple(partitions))


def von_neumann_check(system: LinearFormSystem, tables, s: int, n: int) -> dict:
    """|E prod f_j(psi_j)| <= min_j ||f_j||_{U^(s+1)} for 1-bounded f_j,
    provided the system has complexity at most s."""
    cert = cs_complexity(system)
    if cert.is_infinite or cert.s > s:
        raise ValueError(f"system complexity {cert.s} exceeds s = {s}")
    for t in tables:
        if not t.is_one_bounded():
            raise ValueError("product-average bounds need 1-bounded tables")
    lhs = abs(count_system(tables, system, n).average)
    norms = [gowers_norm(t, s + 1).value for t in tables]
    rhs = min(norms)
    return {
        "complexity": cert.s,
        "product_average": lhs,
        "norms": norms,
        "bound": rhs,
        "holds": lhs <= rhs + 1e-9,
    }
