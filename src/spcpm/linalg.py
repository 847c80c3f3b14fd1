"""Dense complex linear-algebra kernel.

Hermitian eigendecomposition, positivity predicates (including the
Schur-complement test for 2x2 block matrices) and the inverse square root.

All functions accept anything convertible to a 2-D complex array and return
fresh ``complex128`` arrays.  Matrices here are small (dimension tens, not
thousands), so everything is done by direct eigendecomposition; determinism
for identical input bits matters more than speed.

One cutoff rule decides ranks: an eigenvalue counts as zero when its
magnitude is at most ``rtol * max(1, max|eigenvalue|)`` (:func:`rank_cutoff`),
and a PSD matrix may have eigenvalues down to minus that cutoff.  A positivity
verdict and the factors read from it come from the same decomposition
(:func:`psd_eig`), so no matrix is decomposed twice.

Every ``tol``/``rtol`` argument of the library must be finite and > 0;
:func:`check_tolerance` enforces that at each public entry point, either
directly or in the first callee the value is handed to.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import SingularMatrixError, SpcpmError

#: Default tolerance for positivity and residual checks.
DEFAULT_TOL = 1e-9
#: Default relative cutoff for rank decisions (Kraus rank, minimal Kraus lists).
DEFAULT_RTOL = 1e-10


def check_tolerance(value: float, name: str = "tol") -> float:
    """Return ``value`` if it is a finite number > 0, else raise SpcpmError.

    An infinite tolerance would accept every residual and a NaN, zero or
    negative one would reject every residual, so neither decides anything.
    """
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:
        ok = False
    if not ok:
        raise SpcpmError(f"{name} must be finite and > 0, got {value!r}")
    return value


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a fresh 2-D complex128 array with finite entries."""
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise SpcpmError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise SpcpmError("matrix entries must be finite")
    return arr


def frozen_matrix(m) -> np.ndarray:
    """Like :func:`as_matrix`, but the result is marked read-only."""
    arr = as_matrix(m)
    arr.setflags(write=False)
    return arr


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise SpcpmError(f"expected a square matrix, got shape {m.shape}")


def _asymmetry(m: np.ndarray) -> float:
    return frobenius(m - m.conj().T)


class HermitianEig(NamedTuple):
    """Eigendecomposition M = V diag(w) V† of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; the columns of ``eigenvectors``
    are the corresponding orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (M + M†)/2 before decomposition, which
    removes roundoff asymmetry without changing an input that is Hermitian
    in exact arithmetic.  Asymmetry beyond ``tol * max(1, ||M||_F)`` raises
    :class:`SpcpmError`.
    """
    check_tolerance(tol)
    arr = as_matrix(m)
    _require_square(arr)
    asym = _asymmetry(arr)
    if asym > tol * max(1.0, frobenius(arr)):
        raise SpcpmError(
            f"matrix is not Hermitian within tol={tol:g} (asymmetry {asym:.3e})"
        )
    sym = (arr + arr.conj().T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    return HermitianEig(eigenvalues, eigenvectors)


def rank_cutoff(w: np.ndarray, rtol: float) -> float:
    """Magnitude at or below which an eigenvalue of ``w`` counts as zero:
    ``rtol * max(1, max|w|)``."""
    return rtol * max(1.0, float(np.max(np.abs(w))))


def psd_eig(m, tol: float = DEFAULT_TOL) -> Optional[HermitianEig]:
    """Eigendecomposition of ``m`` if it is Hermitian and positive
    semi-definite within ``tol``, else ``None``.

    Hermiticity requires ``||M - M†||_F <= tol * max(1, ||M||_F)``; the
    eigenvalue floor is ``-rank_cutoff(w, tol)``.  The eigenpairs are those
    of (M + M†)/2, as in :func:`hermitian_eig`.
    """
    check_tolerance(tol)
    arr = as_matrix(m)
    _require_square(arr)
    if _asymmetry(arr) > tol * max(1.0, frobenius(arr)):
        return None
    w, v = np.linalg.eigh((arr + arr.conj().T) / 2.0)
    if w[0] < -rank_cutoff(w, tol):
        return None
    return HermitianEig(w, v)


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``m`` is Hermitian and positive semi-definite within ``tol``
    (the conditions of :func:`psd_eig`)."""
    return psd_eig(m, tol) is not None


def block_psd_failure(a, b, c, tol: float = DEFAULT_TOL) -> Optional[str]:
    """Name of the first failed positivity condition for [[A, C], [C†, B]].

    Returns ``None`` when the assembled block matrix is positive
    semi-definite.  The conditions checked are: A >= 0, B >= 0, C supported
    inside the ranges of A and B, and the Schur complement A - C B^+ C†
    positive semi-definite.  The diagonal-block checks make the verdict
    match assembled-matrix positivity even for indefinite A or B.

    A and B are decomposed once each: the kernel of each is spanned by its
    eigenvectors at or below the rank cutoff, and B^+ inverts the others.
    """
    check_tolerance(tol)
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise SpcpmError("diagonal blocks must be square")
    if c.shape != (a.shape[0], b.shape[0]):
        raise SpcpmError(
            f"coupling block has shape {c.shape}, expected {(a.shape[0], b.shape[0])}"
        )
    eig_a = psd_eig(a, tol)
    if eig_a is None:
        return "upper-left block is not positive semi-definite"
    eig_b = psd_eig(b, tol)
    if eig_b is None:
        return "lower-right block is not positive semi-definite"
    (wa, va), (wb, vb) = eig_a, eig_b
    range_a = wa > rank_cutoff(wa, tol)
    range_b = wb > rank_cutoff(wb, tol)
    # ||P0 C||_F = ||K† C||_F for the kernel projector P0 = K K† of
    # orthonormal kernel eigenvectors K
    scale = max(1.0, frobenius(c))
    if frobenius(va[:, ~range_a].conj().T @ c) > tol * scale:
        return "coupling block has support on the kernel of the upper-left block"
    if frobenius(c @ vb[:, ~range_b]) > tol * scale:
        return "coupling block has support on the kernel of the lower-right block"
    cv = c @ vb[:, range_b]
    schur = a - (cv / wb[range_b]) @ cv.conj().T
    if not is_psd(schur, tol):
        return "Schur complement is not positive semi-definite"
    return None


def block_psd_check(a, b, c, tol: float = DEFAULT_TOL) -> bool:
    """Positivity of the assembled block matrix [[A, C], [C†, B]].

    Decided through kernel-support and Schur-complement conditions rather
    than by assembling the full matrix, so the two routes can cross-check
    each other.
    """
    return block_psd_failure(a, b, c, tol) is None


def inv_sqrt_psd(m, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Inverse square root M^(-1/2) of a Hermitian positive definite matrix.

    Raises :class:`SingularMatrixError` unless the smallest eigenvalue
    exceeds ``rtol`` times the largest.
    """
    w, v = hermitian_eig(m, tol=rtol)
    wmax = float(w[-1])
    if wmax <= 0.0 or float(w[0]) <= rtol * wmax:
        raise SingularMatrixError("matrix is not positive definite at the given cutoff")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    # symmetrize so the result is Hermitian to the last bit
    return (inv_sqrt + inv_sqrt.conj().T) / 2.0
