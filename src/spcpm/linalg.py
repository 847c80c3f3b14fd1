"""Dense complex linear-algebra kernel.

Hermitian eigendecomposition, positivity predicates (including the
Schur-complement test for 2x2 block matrices) and the inverse square root.

All functions accept anything convertible to a 2-D complex array and return
fresh ``complex128`` arrays.  Matrices here are small (dimension tens, not
thousands), so everything is done by direct eigendecomposition; determinism
for identical input bits matters more than speed.

One cutoff rule decides ranks: an eigenvalue counts as zero when its
magnitude is at most ``rtol * max(1, max|eigenvalue|)`` (:func:`rank_cutoff`),
and a PSD matrix may have eigenvalues down to minus that cutoff.  The Kraus
rank, the minimal and orthonormal Kraus lists and the inverse square root
all decide at the one constant ``rtol = DEFAULT_RTOL``; no public function
takes it as an argument.

Eigenvectors are computed only where they are read.  A verdict read alone
comes from ``eigvalsh`` (:func:`is_psd`, and in :func:`block_psd_failure`
the upper-left block and the Schur complement); a verdict whose factors are
read comes from the same ``eigh`` as those factors (:func:`psd_eig`, the
lower-right block).  Only an upper-left block whose eigenvalues show a
kernel is decomposed again, by ``eigh``, for its kernel vectors; such a
triple makes four solver calls instead of three ``eigh``, and timed at
2+2 to 8+8 it costs about what those three did.  ``eigvalsh`` and ``eigh``
may return eigenvalues that differ in the last bits, so a verdict on an
eigenvalue at the cutoff can differ from an ``eigh``-based one.

Every ``tol`` argument of the library must be finite and > 0;
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
#: The one relative rank cutoff (Kraus rank, minimal and orthonormal Kraus
#: lists, inverse square root); a constant, taken by no function as an argument.
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


class HermitianEig(NamedTuple):
    """Eigendecomposition M = V diag(w) V† of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; the columns of ``eigenvectors``
    are the corresponding orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _spectrum(arr: np.ndarray, tol: float, vectors: bool):
    """``(w, v)`` of (M + M†)/2 for a validated square ``arr``: eigenvalues
    ascending, and eigenvectors if ``vectors``, else ``v`` is ``None``.
    ``None`` when ``||M - M†||_F > tol * max(1, ||M||_F)``.

    Without ``vectors`` it calls ``eigvalsh``, which computes none.
    """
    if _asymmetry(arr) > tol * max(1.0, frobenius(arr)):
        return None
    sym = (arr + arr.conj().T) / 2.0
    if vectors:
        return np.linalg.eigh(sym)
    return np.linalg.eigvalsh(sym), None


def _psd_spectrum(arr: np.ndarray, tol: float, vectors: bool):
    """:func:`_spectrum` of ``arr`` if it is also positive semi-definite
    within ``tol`` (eigenvalue floor ``-rank_cutoff(w, tol)``), else ``None``."""
    spec = _spectrum(arr, tol, vectors)
    if spec is None or spec[0][0] < -rank_cutoff(spec[0], tol):
        return None
    return spec


def _square_matrix(m, tol: float) -> np.ndarray:
    """Check ``tol``, then coerce ``m`` with :func:`as_matrix` and require it
    square."""
    check_tolerance(tol)
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise SpcpmError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (M + M†)/2 before decomposition, which
    removes roundoff asymmetry without changing an input that is Hermitian
    in exact arithmetic.  Asymmetry beyond ``tol * max(1, ||M||_F)`` raises
    :class:`SpcpmError`.
    """
    arr = _square_matrix(m, tol)
    spec = _spectrum(arr, tol, vectors=True)
    if spec is None:
        raise SpcpmError(
            f"matrix is not Hermitian within tol={tol:g} "
            f"(asymmetry {_asymmetry(arr):.3e})"
        )
    return HermitianEig(*spec)


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
    spec = _psd_spectrum(_square_matrix(m, tol), tol, vectors=True)
    return None if spec is None else HermitianEig(*spec)


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``m`` is Hermitian and positive semi-definite within ``tol``
    (the conditions of :func:`psd_eig`), decided from eigenvalues alone."""
    return _psd_spectrum(_square_matrix(m, tol), tol, vectors=False) is not None


def block_psd_failure(a, b, c, tol: float = DEFAULT_TOL) -> Optional[str]:
    """Name of the first failed positivity condition for [[A, C], [C†, B]].

    Returns ``None`` when the assembled block matrix is positive
    semi-definite.  The conditions checked are: A >= 0, B >= 0, C supported
    inside the ranges of A and B, and the Schur complement A - C B^+ C†
    positive semi-definite.  The diagonal-block checks make the verdict
    match assembled-matrix positivity even for indefinite A or B.

    The verdicts on A and on the Schur complement come from ``eigvalsh``.
    Only when A's eigenvalues show a kernel is A decomposed with ``eigh``,
    whose eigenvectors at or below the rank cutoff span that kernel.  B is
    decomposed once with ``eigh``: its kernel eigenvectors give the kernel
    test and the others B^+.
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
    spec_a = _psd_spectrum(a, tol, vectors=False)
    if spec_a is None:
        return "upper-left block is not positive semi-definite"
    spec_b = _psd_spectrum(b, tol, vectors=True)
    if spec_b is None:
        return "lower-right block is not positive semi-definite"
    wa = spec_a[0]
    wb, vb = spec_b
    range_b = wb > rank_cutoff(wb, tol)
    # ||P0 C||_F = ||K† C||_F for the kernel projector P0 = K K† of
    # orthonormal kernel eigenvectors K
    scale = max(1.0, frobenius(c))
    if wa[0] <= rank_cutoff(wa, tol):
        # A already passed its asymmetry bound; repeating it through
        # _spectrum made this path measurably slower at 2+2
        wa, va = np.linalg.eigh((a + a.conj().T) / 2.0)
        range_a = wa > rank_cutoff(wa, tol)
        if frobenius(va[:, ~range_a].conj().T @ c) > tol * scale:
            return "coupling block has support on the kernel of the upper-left block"
    if frobenius(c @ vb[:, ~range_b]) > tol * scale:
        return "coupling block has support on the kernel of the lower-right block"
    cv = c @ vb[:, range_b]
    schur = check_matrix(a - (cv / wb[range_b]) @ cv.conj().T)
    if _psd_spectrum(schur, tol, vectors=False) is None:
        return "Schur complement is not positive semi-definite"
    return None


def block_psd_check(a, b, c, tol: float = DEFAULT_TOL) -> bool:
    """Positivity of the assembled block matrix [[A, C], [C†, B]].

    Decided through kernel-support and Schur-complement conditions rather
    than by assembling the full matrix, so the two routes can cross-check
    each other.
    """
    return block_psd_failure(a, b, c, tol) is None


def inv_sqrt_psd(m) -> np.ndarray:
    """Inverse square root M^(-1/2) of a Hermitian positive definite matrix.

    Raises :class:`SingularMatrixError` unless the smallest eigenvalue
    exceeds ``DEFAULT_RTOL`` times the largest.
    """
    w, v = hermitian_eig(m, tol=DEFAULT_RTOL)
    wmax = float(w[-1])
    if wmax <= 0.0 or float(w[0]) <= DEFAULT_RTOL * wmax:
        raise SingularMatrixError("matrix is not positive definite at the given cutoff")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    # symmetrize so the result is Hermitian to the last bit
    return (inv_sqrt + inv_sqrt.conj().T) / 2.0
