"""Dense complex linear-algebra kernel.

Positivity of a Hermitian matrix and of a 2x2 block matrix, and the inverse
square root.

The public functions accept anything convertible to a 2-D complex array and
return fresh ``complex128`` arrays, except :func:`psd_spectrum`, which
validates nothing: ``cpm`` imports it for the live block of a coefficient
matrix, already a square, finite ``complex128`` array.
Matrices here are small (dimension tens, not thousands), so everything is
done by direct eigendecomposition; determinism for identical input bits
matters more than speed.

One constant, ``DEFAULT_RTOL``, is every Hermiticity bound, PSD floor and
rank cutoff: ``||M - M†||_F`` may reach ``DEFAULT_RTOL * max(1, ||M||_F)``,
and an eigenvalue counts as zero when its magnitude is at most
``rank_cutoff(w) = DEFAULT_RTOL * max(1, max|w|)``, down to which a PSD
matrix may go negative.  No function takes it as an argument.

A block triple is positive semi-definite when its assembled matrix is: one
``eigvalsh`` of that matrix decides (:func:`block_psd_failure`), at the floor
``cpm.choi_to_kraus`` applies to the same units.  Eigenvectors are computed
only where they are read (the coefficient matrix, the inverse square root).

Every ``tol`` argument of the library must be finite and > 0;
:func:`check_tolerance` enforces that at each public entry point, either
directly or in the first callee the value is handed to.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import SingularMatrixError, SpcpmError

#: Default tolerance for residual checks.
DEFAULT_TOL = 1e-9
#: The one Hermiticity bound, PSD floor and relative rank cutoff; a constant,
#: taken by no function as an argument.
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


def check_matrix(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` itself, uncopied, if it is a nonempty 2-D array with
    finite entries; else raise SpcpmError."""
    if arr.ndim != 2:
        raise SpcpmError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise SpcpmError(f"matrix must not be empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SpcpmError("matrix entries must be finite")
    return arr


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a fresh, nonempty 2-D complex128 array with finite
    entries."""
    return check_matrix(np.array(m, dtype=np.complex128))


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of a ``complex128`` array of any shape: a view of a
    copy held in immutable ``bytes``, so neither it nor its base can be made
    writeable again."""
    return np.frombuffer(arr.tobytes(), dtype=np.complex128).reshape(arr.shape)


def frozen_matrix(m) -> np.ndarray:
    """Like :func:`as_matrix`, but read-only for good (:func:`frozen_copy`)."""
    return frozen_copy(check_matrix(np.asarray(m, dtype=np.complex128)))


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def _asymmetry(m: np.ndarray) -> float:
    return frobenius(m - m.conj().T)


def _spectrum(arr: np.ndarray, vectors: bool):
    """``(w, v)`` of (M + M†)/2 for a validated square ``arr``: eigenvalues
    ascending, and eigenvectors if ``vectors``, else ``v`` is ``None``.
    ``None`` when ``||M - M†||_F > DEFAULT_RTOL * max(1, ||M||_F)``.

    Without ``vectors`` it calls ``eigvalsh``, which computes none.
    """
    if _asymmetry(arr) > DEFAULT_RTOL * max(1.0, frobenius(arr)):
        return None
    sym = (arr + arr.conj().T) / 2.0
    if vectors:
        return np.linalg.eigh(sym)
    return np.linalg.eigvalsh(sym), None


def psd_spectrum(arr: np.ndarray, vectors: bool):
    """:func:`_spectrum` of ``arr`` if it is also positive semi-definite
    (eigenvalue floor ``-rank_cutoff(w)``), else ``None``.  Validates
    nothing."""
    spec = _spectrum(arr, vectors)
    if spec is None or spec[0][0] < -rank_cutoff(spec[0]):
        return None
    return spec


def rank_cutoff(w: np.ndarray) -> float:
    """Magnitude at or below which an eigenvalue of ``w`` counts as zero:
    ``DEFAULT_RTOL * max(1, max|w|)``."""
    return DEFAULT_RTOL * max(1.0, float(np.max(np.abs(w))))


def block_psd_failure(a, b, c) -> Optional[str]:
    """Why the assembled block matrix F = [[A, C], [C†, B]] is not positive
    semi-definite, or ``None`` when it is.

    One ``eigvalsh`` of F decides at the bounds of :func:`psd_spectrum`: F is
    refused as not Hermitian beyond ``DEFAULT_RTOL * max(1, ||F||_F)``, and as
    not positive semi-definite below the floor ``-rank_cutoff(w)``; each
    message gives the measured value and its bound.  The tests cross-check
    every verdict against an independent Schur-complement route (positivity
    of A and B, the support of C and A - C B^+ C†, from pseudo-inverses).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise SpcpmError("diagonal blocks must be square")
    if c.shape != (a.shape[0], b.shape[0]):
        raise SpcpmError(
            f"coupling block has shape {c.shape}, expected {(a.shape[0], b.shape[0])}"
        )
    f = np.block([[a, c], [c.conj().T, b]])
    spec = _spectrum(f, vectors=False)
    if spec is None:
        return (
            f"assembled block matrix is not Hermitian within tol={DEFAULT_RTOL:g} "
            f"(asymmetry {_asymmetry(f):.3e})"
        )
    w = spec[0]
    floor = -rank_cutoff(w)
    if w[0] < floor:
        return (
            "assembled block matrix is not positive semi-definite: smallest "
            f"eigenvalue {w[0]:.3e} < floor {floor:.3e}"
        )
    return None


def block_psd_check(a, b, c) -> bool:
    """Positivity of the assembled block matrix [[A, C], [C†, B]]: whether
    :func:`block_psd_failure` finds nothing."""
    return block_psd_failure(a, b, c) is None


def inv_sqrt_psd(m) -> np.ndarray:
    """Inverse square root M^(-1/2) of a Hermitian positive definite matrix.

    Raises :class:`SpcpmError` unless ``m`` is square and Hermitian within
    ``DEFAULT_RTOL`` (the bound of :func:`_spectrum`), and
    :class:`SingularMatrixError` unless the smallest eigenvalue exceeds
    ``DEFAULT_RTOL`` times the largest.
    """
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise SpcpmError(f"expected a square matrix, got shape {arr.shape}")
    spec = _spectrum(arr, vectors=True)
    if spec is None:
        raise SpcpmError(
            f"matrix is not Hermitian within tol={DEFAULT_RTOL:g} "
            f"(asymmetry {_asymmetry(arr):.3e})"
        )
    w, v = spec
    wmax = float(w[-1])
    if wmax <= 0.0 or float(w[0]) <= DEFAULT_RTOL * wmax:
        raise SingularMatrixError("matrix is not positive definite at the given cutoff")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    # symmetrize so the result is Hermitian to the last bit
    return (inv_sqrt + inv_sqrt.conj().T) / 2.0
