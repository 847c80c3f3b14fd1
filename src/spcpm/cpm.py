"""Completely positive maps between decomposed spaces.

Two interchangeable representations are provided:

* :class:`KrausRep` -- a finite operator list, phi(Q) = sum_k V_k Q V_k†.
* :class:`ChoiRep` -- a positive semi-definite coefficient matrix over the
  row-major matrix-unit basis of maps source -> target (the Choi-type matrix
  of the channel).

The conversions are mutually inverse; the rank of the coefficient matrix is
the minimal number of Kraus operators and is invariant under everything that
leaves the channel itself unchanged (unitary mixing, padding with zero
operators, change of operator basis).

A :class:`KrausRep` builds its coefficient matrix once, on first use, and
:func:`kraus_to_choi` returns that same read-only :class:`ChoiRep` to every
reader: the SP verifiers, the rank, the orthonormal form, the block
extraction, channel equality and the dilation.  The memo is derived data,
not a field: it takes no part in equality or ``repr`` and is never
serialized.  Every spectrum is read through ``linalg.psd_spectrum``: the
Kraus rank from eigenvalues alone (``eigvalsh``), and only the
factorizations that return operators compute eigenvectors.

A :class:`ChoiRep` likewise decomposes itself once, on first use: the kept
eigenvalues and gauged operators (:func:`_kept_eigenpairs`) are a read-only
memo that :func:`choi_to_kraus` and :func:`orthonormal_kraus` (and so the
dilation) read, one ``eigh`` per matrix.  ``sp.sp_from_blocks`` reads it as
its positivity gate, so generation and conversion share one ``eigh`` and one
verdict.  That memo too is not a field and lives as long as its
:class:`ChoiRep`, which alone writes it.

:func:`compose` works on the coefficient matrices as well: the composite's
is one contraction of the two memoized ones, dt²·dm²·ds² multiply-adds
whatever the operator counts, and its Kraus list is :func:`choi_to_kraus` of
it: minimal, at most ds·dt operators, with the rank cutoff applied, so a
chain of compositions does not grow.  It costs that contraction and one
``eigh`` even when both lists hold one operator.

``==`` and ``hash`` compare bits (``linalg.BitEquality``): the same type,
spaces, array shapes and array bytes.  Two lists of the same channel are
generally not ``==``; :func:`channels_equal` compares channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpcpmError
from .linalg import (
    DEFAULT_TOL,
    BitEquality,
    check_tolerance,
    checked_array,
    frobenius,
    frozen_copy,
    psd_spectrum,
    rank_cutoff,
)
from .spaces import DecomposedSpace

@dataclass(frozen=True, eq=False)
class KrausRep(BitEquality):
    """A CPM as a finite list of operators from source to target space.

    ``ops`` is one read-only ``complex128`` array of shape (K, dt, ds),
    copied from the given sequence of equal-shape matrices or (K, dt, ds)
    array; ``ops[k]`` is the k-th Kraus operator.  It is a view of a copy
    held in immutable ``bytes``, so neither it nor its base can be made
    writeable again and the memoized coefficient matrix
    (:func:`kraus_to_choi`) cannot go stale.
    """

    source: DecomposedSpace
    target: DecomposedSpace
    ops: np.ndarray

    def __post_init__(self) -> None:
        shape = (None, self.target.dim, self.source.dim)
        ops = checked_array(self.ops, shape, "Kraus operators")
        object.__setattr__(self, "ops", frozen_copy(ops))

    @cached_property
    def _choi(self) -> ChoiRep:
        """The coefficient matrix, built on first use (see :func:`kraus_to_choi`).
        A product past the float range is left to the gate to refuse."""
        stacked = self.ops.reshape(len(self.ops), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = stacked.T @ stacked.conj()
        return ChoiRep(self.source, self.target, matrix)


@dataclass(frozen=True, eq=False)
class ChoiRep(BitEquality):
    """A CPM as a coefficient matrix over the row-major matrix-unit basis of
    maps source -> target, whose element m = i * d_S + j is |t_i><s_j|.

    The map is phi(Q) = sum_{m,m'} matrix[m, m'] E_m Q E_m'† over the basis
    {E_m}; it is completely positive exactly when the matrix is positive
    semi-definite.
    """

    source: DecomposedSpace
    target: DecomposedSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.source.dim * self.target.dim
        mat = checked_array(self.matrix, (m, m), "coefficient matrix")
        object.__setattr__(self, "matrix", frozen_copy(mat))

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept eigenvalues and gauged operators of the matrix
        (:func:`_kept_eigenpairs`), read-only, decomposed on first use."""
        return _kept_eigenpairs(self, True)


def apply(rep: KrausRep, q) -> np.ndarray:
    """Apply the channel: sum_k V_k Q V_k†."""
    qa = checked_array(q, (rep.source.dim,) * 2, "input")
    return np.add.reduce(rep.ops @ qa @ rep.ops.conj().transpose(0, 2, 1), axis=0)


def kraus_to_choi(rep: KrausRep) -> ChoiRep:
    """Coefficient matrix sum_k c_k c_k†, with c_k the row-major coefficient
    vector of the k-th Kraus operator in the matrix-unit basis.

    Built once per ``rep``: every call returns the same read-only object.
    """
    return rep._choi


def _kept_eigenpairs(rep: ChoiRep, vectors: bool):
    """Eigenvalues above the rank cutoff at ``DEFAULT_RTOL``, ascending, and,
    if ``vectors``, their eigenvectors as (dt, ds) operators (else ``None``),
    all from one :func:`psd_spectrum` of the coefficient matrix restricted
    to its live units, whose refusals name the ``coefficient matrix``.  With
    ``vectors`` both arrays are read-only copies (:func:`linalg.frozen_copy`).

    The live units are those whose row or column holds a nonzero entry.
    Every nonzero entry of the matrix and of its adjoint lies in the
    live-by-live block, so a non-Hermitian matrix stays non-Hermitian there,
    and the other units contribute only zero eigenvalues: the PSD verdict,
    the cutoff and the kept set are those of the whole matrix, and the kept
    eigenvectors are zero on those units.  An all-zero matrix is decomposed
    not at all.  Each eigenvector's global phase is fixed so that its first
    entry above 1e-12 of its largest magnitude is real positive (a
    reproducible gauge).
    """
    shape = (rep.target.dim, rep.source.dim)
    m = rep.matrix
    live = m.any(axis=0) | m.any(axis=1)
    if not live.any():
        empty = np.zeros((0, *shape), dtype=np.complex128)
        return frozen_copy(np.zeros(0)), frozen_copy(empty)
    # gathered in C order: the gate's Frobenius sums follow memory order, and
    # a column-major block would round them differently
    block = m.compress(live, axis=0).compress(live, axis=1)
    w, v = psd_spectrum(block, vectors, "coefficient matrix")
    # w ascends, so the eigenvalues above the cutoff are its tail from here
    start = w.searchsorted(rank_cutoff(w), side="right")
    if not vectors:
        return w[start:], None
    vecs = v[:, start:]
    mags = np.abs(vecs)
    first = (mags > 1e-12 * np.maximum.reduce(mags, axis=0)).argmax(axis=0)
    cols = np.arange(vecs.shape[1])
    gauged = np.zeros((len(cols), shape[0] * shape[1]), dtype=np.complex128)
    gauged[:, live] = (vecs * np.conj(vecs[first, cols] / mags[first, cols])).T
    return frozen_copy(w[start:]), frozen_copy(gauged.reshape(-1, *shape))


def choi_to_kraus(rep: ChoiRep) -> KrausRep:
    """Extract a linearly independent Kraus list from a PSD coefficient matrix.

    One operator sqrt(w_n) * mat(v_n) is kept per eigenvalue above the
    relative cutoff ``DEFAULT_RTOL``, in ascending eigenvalue order and with
    a fixed phase gauge, so the output is reproducible.  An all-zero matrix
    yields the zero channel as a single all-zero operator.  The
    eigenpairs are ``rep``'s memo, so they are computed once per ``rep``.
    """
    w, mats = rep._spectrum
    ops = np.sqrt(w)[:, None, None] * mats
    if not len(ops):
        ops = np.zeros((1, rep.target.dim, rep.source.dim))
    return KrausRep(rep.source, rep.target, ops)


def kraus_rank(rep: KrausRep) -> int:
    """Minimal number of Kraus operators needed to represent the channel.

    Equals the rank of the coefficient matrix at the relative eigenvalue
    cutoff ``DEFAULT_RTOL``, read from the eigenvalues alone of its live
    units (see :func:`_kept_eigenpairs`); never exceeds
    source.dim * target.dim.
    """
    return len(_kept_eigenpairs(kraus_to_choi(rep), False)[0])


def orthonormal_kraus(rep: KrausRep) -> list[tuple[float, np.ndarray]]:
    """Rewrite the channel over Hilbert-Schmidt-orthonormal operators.

    Returns pairs (r_n, Y_n) with Tr(Y_n† Y_n') = delta_nn', every r_n > 0,
    and the channel equal to Q -> sum_n r_n Y_n Q Y_n†.  The number of pairs
    equals the Kraus rank; for the zero channel the list is empty.  Each
    Y_n is a read-only view of the memo that :func:`choi_to_kraus` reads.
    """
    w, mats = kraus_to_choi(rep)._spectrum
    return [(float(r), y) for r, y in zip(w, mats)]


def compose(b: KrausRep, a: KrausRep) -> KrausRep:
    """Channel composition b after a, as a minimal Kraus list.

    The composite's coefficient matrix is one contraction of the two
    memoized ones, C[(i,a),(j,b)] = sum_{c,e} C_b[(i,c),(j,e)] C_a[(c,a),(e,b)]:
    after transposes a single (dt², dm²) @ (dm², ds²) product, whatever the
    operator counts.  The result is :func:`choi_to_kraus` of that matrix, so
    it holds at most ds·dt operators (the Kraus rank), with the rank cutoff
    and phase gauge of every minimal list.
    """
    if a.target.dim != b.source.dim:
        raise SpcpmError(
            f"cannot compose: inner dimensions {a.target.dim} and {b.source.dim} differ"
        )
    dt, dm, ds = b.target.dim, b.source.dim, a.source.dim
    outer = kraus_to_choi(b).matrix.reshape(dt, dm, dt, dm).transpose(0, 2, 1, 3)
    inner = kraus_to_choi(a).matrix.reshape(dm, ds, dm, ds).transpose(0, 2, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # the gate refuses an overflow
        product = outer.reshape(dt * dt, dm * dm) @ inner.reshape(dm * dm, ds * ds)
    matrix = product.reshape(dt, dt, ds, ds).transpose(0, 2, 1, 3).reshape(dt * ds, -1)
    return choi_to_kraus(ChoiRep(a.source, b.target, matrix))


def _gram_defect(stack: np.ndarray) -> np.ndarray:
    """sum_k V_k† V_k - I for a (K, m, n) stack, as a fresh n x n array with
    the bits of subtracting ``np.eye(n)``, which is not built.  A product past
    the float range holds ``inf`` or ``nan``, without a warning, so no norm of
    it passes a tolerance."""
    n = stack.shape[-1]
    flat = stack.reshape(-1, n)  # the (K m, n) stack
    with np.errstate(over="ignore", invalid="ignore"):
        gram = flat.conj().T @ flat
    gram.ravel()[:: n + 1] -= 1.0  # the product is fresh and C-ordered: a view
    return gram


def is_trace_preserving(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Whether sum_k V_k† V_k = I within ``tol`` (Frobenius)."""
    check_tolerance(tol)
    return bool(frobenius(_gram_defect(rep.ops)) <= tol)


def channels_equal(a: KrausRep, b: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Representation-independent channel equality.

    Compares coefficient matrices in the fixed matrix-unit basis; Kraus lists
    of the same channel can look arbitrarily different, the coefficient
    matrix cannot.
    """
    check_tolerance(tol)
    if a.source.dim != b.source.dim or a.target.dim != b.target.dim:
        raise SpcpmError("channels act between different dimensions")
    diff = kraus_to_choi(a).matrix - kraus_to_choi(b).matrix
    return bool(frobenius(diff) <= tol)
