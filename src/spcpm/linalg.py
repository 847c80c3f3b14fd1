"""Dense complex linear-algebra kernel.

Positivity of a Hermitian matrix and of a 2x2 block matrix, and the inverse
square root, returning fresh ``complex128`` arrays.  Matrices here are small
(dimension tens, not thousands), so everything is done by direct
eigendecomposition; determinism for identical input bits matters more than
speed.

:func:`checked_array` is the one array gate: every matrix and Kraus stack
that enters the package passes it, as an array of numbers of a given shape,
with no empty axis and finite entries.  Every input takes the same path;
a ``complex128`` ndarray comes back as itself, any other as a converted
copy.  It is the only place that reads ``isfinite`` on an array or words a
refusal of one.

:func:`psd_spectrum` is the one spectral gate: the only caller of ``eigh``
and ``eigvalsh`` in the package, and the only place that words a size,
Hermiticity or positivity refusal, the last two with the value and its bound.
Its input is a square matrix built from arrays that passed the array gate.
Eigenvectors are computed only where they are read.

One constant, ``DEFAULT_RTOL``, is every Hermiticity bound, PSD floor and
rank cutoff: ``||M - M†||_F`` may reach ``DEFAULT_RTOL * max(1, ||M||_F)``,
and an eigenvalue of a spectrum ``w`` (sorted ascending, as every caller
has it from ``eigh``) counts as zero when its magnitude is at most
``rank_cutoff(w) = DEFAULT_RTOL * max(1, max|w|)``, down to which a PSD
matrix may go negative.  No function takes it as an argument.

:class:`BitEquality` gives the frozen value types that hold such arrays
their ``==`` and ``hash``: by type and bits, never by channel.

Every ``tol`` argument of the library must be finite and > 0;
:func:`check_tolerance` enforces that at each public entry point, either
directly or in the first callee the value is handed to.
"""

from __future__ import annotations

import math
from dataclasses import fields
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
    negative one would reject every residual, so neither decides anything;
    nor does a ``bool``, which would pass as 1.  A number past the float
    range is infinite as a bound; it is worded without its digits, which
    may be too many for ``repr``.
    """
    shown = None
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:
        ok = False
    except OverflowError:
        ok, shown = False, "a number past the float range"
    if not ok or isinstance(value, (bool, np.bool_)):
        raise SpcpmError(f"{name} must be finite and > 0, got {shown or repr(value)}")
    return value


def checked_array(x, shape: tuple, what: str) -> np.ndarray:
    """``x`` as a ``complex128`` array, uncopied if it already is one:
    ``asarray`` and the cast return a native ``complex128`` ndarray itself.

    ``shape`` gives the size of each axis, ``None`` for any size.  Raises
    :class:`SpcpmError`, naming ``what``, unless ``x`` is an array of
    numbers (bool, integer, float or complex) with no empty axis, of
    ``len(shape)`` axes of the given sizes and with finite entries.
    """
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # a ragged nesting
        raise SpcpmError(f"{what} is not an array of numbers: {exc}") from exc
    if arr.dtype.kind not in "biufc":  # strings, None and other objects
        raise SpcpmError(f"{what} is not an array of numbers: its dtype is {arr.dtype}")
    arr = arr.astype(np.complex128, copy=False)
    if 0 in arr.shape:
        raise SpcpmError(f"{what} must not be empty, got shape {arr.shape}")
    sizes_ok = all([want in (None, got) for got, want in zip(arr.shape, shape)])
    if arr.ndim != len(shape) or not sizes_ok:
        want = str(shape).replace("None", "*")
        raise SpcpmError(f"{what} has shape {arr.shape}, expected {want}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):  # .all() without its wrapper
        raise SpcpmError(f"{what} must have finite entries")
    return arr


def _checked_square(x, what: str) -> np.ndarray:
    """:func:`checked_array` of a square matrix of any size."""
    arr = checked_array(x, (None, None), what)
    if arr.shape[0] != arr.shape[1]:
        raise SpcpmError(f"{what} has shape {arr.shape}, expected {(len(arr),) * 2}")
    return arr


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of an array of any shape and dtype: a view of a copy
    held in immutable ``bytes``, so neither it nor its base can be made
    writeable again."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


class BitEquality:
    """``==`` and ``hash`` by bits, for the frozen dataclasses whose array
    fields are :func:`frozen_copy` copies.

    Two objects are equal when they are of the same type and every field is
    equal, an array field by dtype, shape and bytes (so ``-0.0`` and ``0.0``
    differ, as in the file format's round trip); ``hash`` reads the same.
    Memos (cached properties) are not fields and take no part.  The
    dataclasses are declared with ``eq=False``, which keeps these methods.
    Channel equality is ``cpm.channels_equal``, not this.
    """

    def _bits(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(
            (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in values
        )

    def __eq__(self, other) -> bool:
        # False, not NotImplemented: an array on the right would broadcast
        return type(other) is type(self) and self._bits() == other._bits()

    def __hash__(self) -> int:
        return hash((type(self), self._bits()))


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of a float or complex array of any shape: the square
    root of the sum ``np.linalg.norm`` takes, over the entries in memory
    order, so it carries the same bits (a real array's ``im·im`` is 0).
    A sum of squares past the float range reads ``inf``, without a warning."""
    flat = m.ravel(order="K")
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):
        return math.sqrt(re.dot(re) + im.dot(im))


def psd_spectrum(arr: np.ndarray, vectors: bool, subject: str):
    """``(w, v)`` of (M + M†)/2 for a Hermitian PSD ``arr``: eigenvalues
    ascending, and eigenvectors if ``vectors``, else ``v`` is ``None``
    (``eigvalsh`` computes none).

    Raises :class:`SpcpmError`, naming ``subject``, when ``||M||_F²``
    passes the float range, when
    ``||M - M†||_F > DEFAULT_RTOL * max(1, ||M||_F)`` (with the asymmetry)
    or when the smallest eigenvalue lies below the floor ``-rank_cutoff(w)``
    (with the eigenvalue and the floor).  Below that range every entry is
    under 1.4e154, so no sum, difference or eigenvalue of ``M`` overflows.
    """
    norm = frobenius(arr)
    if norm == math.inf:
        raise SpcpmError(f"{subject} is too large: its squared Frobenius norm overflows")
    adjoint = arr.conj().T
    asymmetry = frobenius(arr - adjoint)
    if asymmetry > DEFAULT_RTOL * max(1.0, norm):
        raise SpcpmError(
            f"{subject} is not Hermitian within tol={DEFAULT_RTOL:g} "
            f"(asymmetry {asymmetry:.3e})"
        )
    sym = (arr + adjoint) / 2.0
    if vectors:
        w, v = np.linalg.eigh(sym)
    else:
        w, v = np.linalg.eigvalsh(sym), None
    floor = -rank_cutoff(w)
    if w[0] < floor:
        raise SpcpmError(
            f"{subject} is not positive semi-definite: smallest "
            f"eigenvalue {w[0]:.3e} < floor {floor:.3e}"
        )
    return w, v


def rank_cutoff(w: np.ndarray) -> float:
    """Magnitude at or below which an eigenvalue of the ascending spectrum
    ``w`` counts as zero: ``DEFAULT_RTOL * max(1, max|w|)``.

    ``w`` must be sorted ascending, as ``eigh`` and ``eigvalsh`` return it:
    ``max|w|`` is read from its two ends as ``max(-w[0], w[-1])``.
    """
    return DEFAULT_RTOL * max(1.0, float(max(-w[0], w[-1])))


def _block_matrix(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The assembled block matrix [[A, C], [C†, B]] of three ``complex128``
    blocks of matching shapes, from four slice writes into one array."""
    n = len(a)
    f = np.empty((n + len(b),) * 2, dtype=np.complex128)
    f[:n, :n] = a
    f[:n, n:] = c
    f[n:, :n] = c.conj().T
    f[n:, n:] = b
    return f


def block_psd_failure(a, b, c) -> Optional[str]:
    """Why the assembled block matrix F = [[A, C], [C†, B]] is not positive
    semi-definite, or ``None`` when it is.

    One call of :func:`psd_spectrum` on F decides, and its refusal is the
    message: F is not Hermitian beyond ``DEFAULT_RTOL * max(1, ||F||_F)``
    (with the asymmetry), or not positive semi-definite below the floor
    ``-rank_cutoff(w)`` (with the smallest eigenvalue and the floor).  The
    tests cross-check every verdict against an independent Schur-complement
    route (positivity of A and B, the support of C and A - C B^+ C†, from
    pseudo-inverses).
    """
    a = _checked_square(a, "first diagonal block")
    b = _checked_square(b, "second diagonal block")
    c = checked_array(c, (len(a), len(b)), "coupling block")
    f = _block_matrix(a, b, c)
    try:
        psd_spectrum(f, False, "assembled block matrix")
    except SpcpmError as exc:
        return str(exc)
    return None


def block_psd_check(a, b, c) -> bool:
    """Positivity of the assembled block matrix [[A, C], [C†, B]]: whether
    :func:`block_psd_failure` finds nothing."""
    return block_psd_failure(a, b, c) is None


def inv_sqrt_psd(m) -> np.ndarray:
    """Inverse square root M^(-1/2) of a Hermitian positive definite matrix.

    Raises :class:`SpcpmError` unless ``m`` is square and passes
    :func:`psd_spectrum`, and :class:`SingularMatrixError` unless the
    smallest eigenvalue exceeds the bound ``DEFAULT_RTOL`` times the largest.
    """
    w, v = psd_spectrum(_checked_square(m, "matrix"), True, "matrix")
    bound = DEFAULT_RTOL * float(w[-1])
    if w[0] <= bound:
        raise SingularMatrixError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e} "
            f"<= bound {bound:.3e}"
        )
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    # symmetrize so the result is Hermitian to the last bit
    return (inv_sqrt + inv_sqrt.conj().T) / 2.0
