"""Exact arithmetic and affine geometry over Z_p^m for odd primes p.

Every table, transform, and counting routine in this package keys group
elements by one fixed encoding: the element with digit vector
(x_0, ..., x_{m-1}) in [0, p)^m has canonical index sum_i x_i * p**i
(little-endian base p).  Index <-> digit conversion is a bijection below
p**m and all vectorised kernels rely on that single convention.

A group element is either its digit vector, an int64 array of length
m, or its canonical index; ``digits_of`` and ``index_of`` convert
between the two.  Apart from its independent audits, the rest of the
package combines elements through three helpers here: ``combine`` gives
the index of a linear combination of elements, ``translations`` the
rows x -> x + h of whole translations, and ``rank_mod`` is the rank of a
residue matrix.  ``check_modulus`` and ``check_size`` hold the input
rules shared by every table: p an odd prime, and at most MAX_ENUMERATION
elements.

Cosets w + V are stored in parity-check form: a reduced list of normal
vectors n_j together with target residues c_j, the coset being
{x : n_j . x = c_j for all j}.  Inconsistent constraint systems produce
an explicit empty-set value rather than raising, because
``subspace_from_normals`` takes whatever constraints its callers stack
up, contradictory ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ResourceLimitError",
    "check_modulus",
    "check_size",
    "AffineSubspace",
    "modular_rref",
    "rank_mod",
    "subspace_from_normals",
    "power_vector",
    "digit_table",
    "digits_of",
    "index_of",
    "add_map",
    "scale_map",
    "combine",
    "translations",
]

#: Hard cap on dense enumeration sizes (number of group elements): the
#: largest tables allowed are m=15 at p=3 and m=6 at p=11.  The guard
#: catches accidental huge requests before they allocate.
MAX_ENUMERATION = 1 << 24


class ResourceLimitError(RuntimeError):
    """Raised when a requested computation exceeds the configured caps."""


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is an odd prime.

    A p above MAX_ENUMERATION is refused with ResourceLimitError before
    the trial division, which would take about sqrt(p) steps: no table
    with m >= 1 can use it.
    """
    if p > MAX_ENUMERATION:
        raise ResourceLimitError(f"p = {p} exceeds the enumeration cap {MAX_ENUMERATION}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p == 2:
        raise ValueError("p must be odd: the maps y + 2z and 2x + y need 2 invertible")


def check_size(p: int, m: int) -> int:
    """p^m, or ResourceLimitError when that exceeds MAX_ENUMERATION.

    Call it before allocating anything of that size.
    """
    if m < 0:
        raise ValueError(f"the number of digits must be nonnegative, got {m}")
    # for |p| >= 2, p^m >= 2^m passes the cap once m reaches the cap's bit
    # length, so such an m is refused before p^m is formed
    if (abs(p) >= 2 and m >= MAX_ENUMERATION.bit_length()) or p**m > MAX_ENUMERATION:
        raise ResourceLimitError(f"refusing to enumerate {p}^{m} elements (cap {MAX_ENUMERATION})")
    return p**m


@lru_cache(maxsize=512)
def power_vector(p: int, m: int) -> np.ndarray:
    """[1, p, p^2, ..., p^(m-1)] as int64, read-only."""
    out = p ** np.arange(m, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=512)
def digit_table(p: int, m: int) -> np.ndarray:
    """All p^m digit vectors in index order: row i is the digits of index i."""
    idx = np.arange(check_size(p, m), dtype=np.int64)
    out = (idx[:, None] // power_vector(p, m)[None, :]) % p
    out.setflags(write=False)
    return out


def digits_of(p: int, m: int, indices: np.ndarray | int) -> np.ndarray:
    """Digit vectors of the given canonical indices, shape (..., m)."""
    arr = np.asarray(indices, dtype=np.int64)
    return (arr[..., None] // power_vector(p, m)) % p


def index_of(p: int, digits: np.ndarray | Sequence[int]) -> np.ndarray | int:
    """Canonical indices of the given digit vectors (last axis is the digits)."""
    arr = np.asarray(digits, dtype=np.int64) % p
    out = arr @ power_vector(p, arr.shape[-1])
    if out.ndim == 0:
        return int(out)
    return out


@lru_cache(maxsize=8192)
def add_map(p: int, m: int, h_index: int) -> np.ndarray:
    """Permutation a with a[i] = index of (element i) + (element h), read-only.

    One row of ``translations``, cached; the package's kernels take
    their rows from ``translations`` a block at a time instead.
    """
    out = translations(p, m, np.array([h_index]))[0]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1024)
def scale_map(p: int, m: int, c: int) -> np.ndarray:
    """Permutation (for c invertible) s with s[i] = index of c * (element i)."""
    d = digit_table(p, m)
    out = index_of(p, (c * d) % p)
    out.setflags(write=False)
    return out


def combine(p: int, m: int, coeffs: Sequence[int], indices: Sequence[np.ndarray | int]) -> np.ndarray:
    """Index of sum_j coeffs[j] * (element indices[j]) in Z_p^m.

    The index arrays broadcast against each other like numpy operands.
    The sum is formed one digit at a time, so no (..., m) digit tensor of
    the broadcast shape is ever built.
    """
    idx = [np.asarray(i, dtype=np.int64) for i in indices]
    out = np.zeros(np.broadcast_shapes(*(i.shape for i in idx)), dtype=np.int64)
    for place in power_vector(p, m).tolist():
        acc = sum(int(c) * (i // place % p) for c, i in zip(coeffs, idx))
        out += acc % p * place
    return out


@lru_cache(maxsize=16)
def _half_sums(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition tables of the low m // 2 digits and of the high digits.

    With L = p^(m // 2), index(x + h) = low[h % L, x % L] +
    high[h // L, x // L]; ``high`` holds its sums times L.  The tables
    have p^(2 (m // 2)) and p^(2 (m - m // 2)) entries, not p^(2m).
    """
    lo, hi = p ** (m // 2), p ** (m - m // 2)
    low = combine(p, m // 2, (1, 1), (np.arange(lo)[:, None], np.arange(lo)))
    high = combine(p, m - m // 2, (1, 1), (np.arange(hi)[:, None], np.arange(hi))) * lo
    for table in (low, high):
        table.flags.writeable = False
    return low, high


def translations(p: int, m: int, h: np.ndarray) -> np.ndarray:
    """The (len(h), p^m) indices of x + h, for each index h and every x.

    Two half-digit table rows and one broadcast add make a row.  At m = 0
    both tables are the single entry 0, so every row is [0].
    """
    if m == 1:
        # one digit: a table would hold p^2 entries for p additions a row
        return (h[:, None] + np.arange(p)) % p
    low, high = _half_sums(p, m)
    lo = len(low)
    return (high[h // lo][:, :, None] + low[h % lo][:, None, :]).reshape(len(h), p**m)


def modular_rref(matrix: np.ndarray | Sequence[Sequence[int]], p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p.

    Returns (rows, pivots): the nonzero reduced rows and their pivot
    column indices.  Zero rows are dropped, so len(rows) is the rank.
    """
    a = np.array(matrix, dtype=np.int64) % p
    if a.ndim != 2:
        a = a.reshape(0 if a.size == 0 else 1, -1)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if a[i, c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(rows):
            if i != r and a[i, c] % p != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r].copy(), tuple(pivots)


def rank_mod(matrix: np.ndarray | Sequence[Sequence[int]], p: int) -> int:
    """Rank of a residue matrix mod p; 0 for an empty one."""
    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    return len(modular_rref(a, p)[1])


@dataclass(frozen=True)
class AffineSubspace:
    """A coset {x : n_j . x = c_j} in parity-check form, possibly empty.

    ``normals`` is always a reduced (RREF) independent list, so the
    codimension equals len(normals).  The empty set keeps no constraints
    and is marked explicitly, because ``subspace_from_normals`` accepts
    contradictory constraints from its callers; by convention it reports
    the maximal codimension (the ambient dimension).
    """

    p: int
    ambient_dim: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    is_empty: bool = False

    @property
    def codimension(self) -> int:
        if self.is_empty:
            return self.ambient_dim
        return len(self.normals)

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.codimension

    @property
    def cardinality(self) -> int:
        if self.is_empty:
            return 0
        return self.p ** (self.ambient_dim - len(self.normals))

    def _normal_matrix(self) -> np.ndarray:
        return np.array(self.normals, dtype=np.int64).reshape(len(self.normals), self.ambient_dim)

    def _pivots_free(self) -> tuple[list[int], list[int]]:
        piv = []
        mat = self._normal_matrix()
        for row in mat:
            nz = np.flatnonzero(row)
            piv.append(int(nz[0]))
        free = [c for c in range(self.ambient_dim) if c not in piv]
        return piv, free

    def offset_point(self) -> np.ndarray:
        """The digits of the canonical member: all free coordinates zero."""
        if self.is_empty:
            raise ValueError("the empty set has no members")
        x = np.zeros(self.ambient_dim, dtype=np.int64)
        x[self._pivots_free()[0]] = self.offsets
        return x

    def basis(self) -> np.ndarray:
        """Directions spanning V as the rows of a (dim, ambient_dim) digit
        array, one per free coordinate, in column order."""
        out = np.zeros((self.dim, self.ambient_dim), dtype=np.int64)
        if self.is_empty:
            return out
        piv, free = self._pivots_free()
        out[np.arange(len(free)), free] = 1
        out[:, piv] = -self._normal_matrix()[:, free].T % self.p
        return out

    def member_indices(self) -> np.ndarray:
        """Canonical indices of all members, ordered by parameter index.

        Parameter j runs over the free coordinates in ascending column
        order; the member at parameter vector t is offset_point +
        sum_j t_j * basis_j.  The stream is deterministic and exactly
        p^dim long.
        """
        if self.is_empty:
            return np.zeros(0, dtype=np.int64)
        points = self.offset_point() + digit_table(self.p, self.dim) @ self.basis()
        return np.asarray(index_of(self.p, points), dtype=np.int64)


def subspace_from_normals(
    p: int,
    ambient_dim: int,
    normals: Iterable[Sequence[int]] = (),
    offsets: Iterable[int] = (),
) -> AffineSubspace:
    """Reduce an arbitrary constraint list to a canonical AffineSubspace.

    Dependent constraints are merged; contradictory ones yield the
    explicit empty-set value.
    """
    rows = [[int(v) % p for v in nrm] for nrm in normals]
    if any(len(row) != ambient_dim for row in rows):
        raise ValueError("normal vector lives in the wrong space")
    offs = [int(c) % p for c in offsets]
    if len(offs) != len(rows):
        raise ValueError(f"{len(rows)} normals but {len(offs)} offsets")
    if not rows:
        return AffineSubspace(p, ambient_dim, (), ())
    aug = np.hstack([np.array(rows, dtype=np.int64), np.array(offs, dtype=np.int64).reshape(-1, 1)])
    rref, pivots = modular_rref(aug, p)
    if ambient_dim in pivots:
        return AffineSubspace(p, ambient_dim, (), (), is_empty=True)
    nrm = tuple(tuple(int(v) for v in row[:-1]) for row in rref)
    off = tuple(int(row[-1]) for row in rref)
    return AffineSubspace(p, ambient_dim, nrm, off)
