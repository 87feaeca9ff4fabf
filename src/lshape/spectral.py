"""Character transform over Z_p^m and the constructive U^2 inverse.

Conventions, used verbatim everywhere downstream:

    forward    f_hat(xi) = (1/p^m) sum_x f(x) e_p(-xi . x)
    inverse    f(x)      = sum_xi f_hat(xi) e_p(xi . x)
    Parseval   (1/p^m) sum_x |f|^2 = sum_xi |f_hat|^2
    U^2 link   ||f||_{U^2}^4 = sum_xi |f_hat(xi)|^4

with e_p(k) = exp(2 pi i k / p).  The transform factors into m passes
of the p-point transform, one per digit axis; below p = 17 the naive
p^2 butterfly beats anything clever, so that is all there is.

TODO: add a Rader pass for p >= 17 if large moduli become common.  They
run today (``lshape norm --p 17 --m 2``), but field.MAX_ENUMERATION
keeps their tables to a few digits, where the p^2 butterfly is cheap.
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
    "dft_batch",
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


def _tensor_passes(values: np.ndarray, p: int, m: int, kernel: np.ndarray) -> np.ndarray:
    """Apply the p-point kernel along every digit axis of a table.

    Axis 0 of ``values`` is the flat canonical order; any further axes
    are a batch that rides along.  The order is little-endian, so a
    Fortran-order reshape puts digit i on axis i.
    """
    arr = values.reshape((p,) * m + values.shape[1:], order="F")
    for axis in range(m):
        arr = np.moveaxis(np.tensordot(kernel, arr, axes=(1, axis)), 0, axis)
    return arr.reshape(values.shape, order="F")


def dft_values(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """Forward transform of a flat value array (with the 1/p^m average)."""
    if m == 0:
        return values.astype(np.complex128)
    return _tensor_passes(np.asarray(values, dtype=np.complex128), p, m, _butterfly(p)) / p**m


def idft_values(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """Inverse transform (plain sum, no normalization)."""
    if m == 0:
        return values.astype(np.complex128)
    return _tensor_passes(np.asarray(values, dtype=np.complex128), p, m, np.conj(_butterfly(p)))


def dft_batch(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """Forward transform of each row of a (batch, p^m) array."""
    v = np.asarray(values, dtype=np.complex128)
    return _tensor_passes(v.T, p, m, _butterfly(p)).T / p**m


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
    phases = np.exp(-2j * np.pi * ((d @ d.T) % f.p) / f.p)
    out = phases @ f.values / f.size
    return FunctionTable(f.p, f.m, out)


def u2_fourth(f: FunctionTable) -> float:
    """sum_xi |f_hat(xi)|^4, which is the fourth power of the U^2 norm."""
    a2 = np.abs(dft_values(f.values, f.p, f.m)) ** 2
    return float(np.sum(a2 * a2))


def u2_fourth_batch(values: np.ndarray, p: int, m: int) -> np.ndarray:
    a2 = np.abs(dft_batch(values, p, m)) ** 2
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
