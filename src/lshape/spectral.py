"""Character transform over Z_p^m and the constructive U^2 inverse.

Conventions, used verbatim everywhere downstream:

    forward    f_hat(xi) = (1/p^m) sum_x f(x) e_p(-xi . x)
    inverse    f(x)      = sum_xi f_hat(xi) e_p(xi . x)
    Parseval   (1/p^m) sum_x |f|^2 = sum_xi |f_hat|^2
    U^2 link   ||f||_{U^2}^4 = sum_xi |f_hat(xi)|^4

with e_p(k) = exp(2 pi i k / p).  The transform factors over the digits.
The digits are taken in groups of k, low digits first, and each group is
one matrix product against the k-th Kronecker power of the p-point
kernel, a p^k x p^k matrix; the last group holds what is left.  The
forward kernels carry the 1/p^k of their group, so no pass divides by p^m.

TODO: a Rader or Bluestein pass would beat the dense p x p kernel only
for large p.  Moduli p >= 17 run today (``lshape norm --p 17 --m 2``),
but field.MAX_ENUMERATION keeps their tables to a few digits, where one
dense p^2 product per digit is cheap.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .field import AffineSubspace, digit_table, digits_of
from .tables import FunctionTable

logger = logging.getLogger("lshape")

__all__ = [
    "dft",
    "idft",
    "dft_reference",
    "dft_values",
    "idft_values",
    "u2_fourth",
    "u2_fourth_batch",
    "top_index",
    "inverse_u2",
    "parseval_report",
    "subspace_average_bound_check",
]


@lru_cache(maxsize=64)
def _butterfly(p: int) -> np.ndarray:
    """W[j, k] = e_p(-j k), the forward p-point kernel."""
    j = np.arange(p)
    w = np.exp(-2j * np.pi * np.outer(j, j) / p)
    w.setflags(write=False)
    return w


#: Size cap of a digit group's kernel: a group has the most digits k with
#: p^k <= _GROUP_CAP, so k = 3 at p = 3, k = 2 at p = 5 and k = 1 from
#: p = 7 on.  Caps of 9, 81 and 243 were slower at p = 3.
_GROUP_CAP = 27


def _group_digits(p: int) -> int:
    k = 1
    while p ** (k + 1) <= _GROUP_CAP:
        k += 1
    return k


@lru_cache(maxsize=64)
def _group_kernel(p: int, k: int, inverse: bool) -> np.ndarray:
    """The k-th Kronecker power of the p-point kernel, entry (j, l) =
    e_p(-j . l) for the k-digit groups j, l; conjugated for the inverse,
    divided by p^k for the forward transform.  It is symmetric."""
    w = _butterfly(p)
    kern = np.ones((1, 1), dtype=np.complex128)
    for _ in range(k):
        kern = np.kron(kern, w)
    kern = np.conj(kern) if inverse else kern / p**k
    kern.setflags(write=False)
    return kern


def _transform(values: np.ndarray, p: int, m: int, inverse: bool) -> np.ndarray:
    """Transform along the last axis of ``values``, p^m entries in the
    canonical order; any leading axes are a batch that rides along.

    The order is little-endian, so in a C-order reshape of a row to
    (rest, p^k, p^lo) the middle axis holds the group of k digits above
    the lo lowest ones.  The lowest group is a plain ``rows @ K`` (K is
    symmetric), each higher group a broadcast ``K @ block``.
    """
    v = np.asarray(values, dtype=np.complex128)
    if m == 0:
        return v.copy()
    step = _group_digits(p)
    k = min(step, m)
    out = v.reshape(-1, p**k) @ _group_kernel(p, k, inverse)
    lo = k
    while lo < m:
        k = min(step, m - lo)
        out = _group_kernel(p, k, inverse) @ out.reshape(-1, p**k, p**lo)
        lo += k
    return out.reshape(v.shape)


def dft_values(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """Forward transform (with the 1/p^m average) of a flat value array,
    or of each row of a (batch, p^m) array."""
    return _transform(values, p, m, inverse=False)


def idft_values(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """Inverse transform (plain sum, no normalization)."""
    return _transform(values, p, m, inverse=True)


def dft(f: FunctionTable) -> FunctionTable:
    return FunctionTable(f.p, f.m, dft_values(f.values, f.p, f.m))


def idft(spectrum: FunctionTable) -> FunctionTable:
    return FunctionTable(spectrum.p, spectrum.m, idft_values(spectrum.values, spectrum.p, spectrum.m))


def dft_reference(f: FunctionTable) -> FunctionTable:
    """Audit-path transform: the explicit p^m x p^m phase matrix.

    Quadratic cost, no tensor tricks; kept deliberately independent of
    dft() so the two can cross-check each other.
    """
    d = digit_table(f.p, f.m)
    # p roots of unity, indexed by the exponent table, not p^2m exp calls
    phases = np.exp(-2j * np.pi * np.arange(f.p) / f.p)[(d @ d.T) % f.p]
    out = phases @ f.values / f.size
    return FunctionTable(f.p, f.m, out)


def u2_fourth(f: FunctionTable) -> float:
    """sum_xi |f_hat(xi)|^4, which is the fourth power of the U^2 norm."""
    return float(u2_fourth_batch(f.values[None, :], f.p, f.m)[0])


def u2_fourth_batch(values: np.ndarray, p: int, m: int) -> np.ndarray:
    spec = dft_values(values, p, m)
    a2 = spec.real**2 + spec.imag**2
    return np.sum(a2 * a2, axis=1)


#: Magnitudes closer than this to the largest one tie with it.  Rounding in
#: the transform is far smaller, but it depends on the shape of the batch
#: (through BLAS blocking), and a real table has |f_hat(xi)| = |f_hat(-xi)|,
#: so without a tolerance rounding would pick between xi and -xi.
TIE_TOL = 1e-12


def top_index(mags: np.ndarray) -> np.ndarray:
    """Index of the largest entry along the last axis of ``mags``; entries
    within TIE_TOL of it tie, and ties go to the smallest index."""
    top = mags.max(axis=-1, keepdims=True)
    return np.argmax(mags >= top - TIE_TOL, axis=-1)


def inverse_u2(f: FunctionTable) -> tuple[np.ndarray, float]:
    """The digits of the frequency of the largest Fourier coefficient, and
    the coefficient's modulus.

    For 1-bounded f this certifies corr >= ||f||_{U^2}^2, because
    sum |f_hat|^4 <= max|f_hat|^2 * sum|f_hat|^2 <= max|f_hat|^2.
    Ties, up to TIE_TOL, go to the smallest canonical index.
    """
    if not f.is_one_bounded():
        logger.warning(
            "inverse_u2 called on a table with max modulus %.6g > 1; "
            "the correlation guarantee lapses",
            f.max_modulus(),
        )
    spec = dft_values(f.values, f.p, f.m)
    mags = np.abs(spec)
    best = int(top_index(mags))
    return digits_of(f.p, f.m, best), float(mags[best])


def parseval_report(f: FunctionTable) -> dict:
    lhs = float(np.sum(np.abs(f.values) ** 2) / f.size)
    rhs = float(np.sum(np.abs(dft_values(f.values, f.p, f.m)) ** 2))
    scale = max(lhs, rhs, 1e-30)
    return {"time_side": lhs, "frequency_side": rhs, "relative_gap": abs(lhs - rhs) / scale}


def subspace_average_bound_check(f: FunctionTable, coset: AffineSubspace) -> dict:
    """Check |E_{x in w+V} f| <= p^codim * ||f||_{U^2} + 1e-9.

    The bound holds because the coset average is a sum of at most
    p^codim Fourier coefficients, each of modulus at most the U^2 norm.
    """
    if coset.is_empty:
        raise ValueError("the empty coset has no average")
    avg = abs(f.restrict(coset).mean())
    u2 = u2_fourth(f) ** 0.25
    bound = f.p**coset.codimension * u2
    return {
        "coset_average": avg,
        "u2_norm": u2,
        "codimension": coset.codimension,
        "bound": bound,
        "holds": avg <= bound + 1e-9,
    }
