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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpcpmError
from .linalg import (
    DEFAULT_RTOL,
    DEFAULT_TOL,
    as_matrix,
    check_tolerance,
    frobenius,
    frozen_matrix,
    gram_matrix,
    hermitian_eig,
    is_psd,
)
from .spaces import DecomposedSpace

#: Basis tag for the row-major matrix-unit basis: element m = i * d_S + j is
#: the unit |t_i><s_j|.
MATRIX_UNIT_BASIS = "matrix-units"


@dataclass(frozen=True)
class KrausRep:
    """A CPM as a finite list of operators from source to target space."""

    source: DecomposedSpace
    target: DecomposedSpace
    ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(frozen_matrix(op) for op in self.ops)
        if not mats:
            raise SpcpmError("a Kraus representation needs at least one operator")
        shape = (self.target.dim, self.source.dim)
        for op in mats:
            if op.shape != shape:
                raise SpcpmError(
                    f"Kraus operator has shape {op.shape}, expected {shape}"
                )
        object.__setattr__(self, "ops", mats)


@dataclass(frozen=True)
class ChoiRep:
    """A CPM as a coefficient matrix over an operator basis of maps
    source -> target.

    The map is phi(Q) = sum_{m,m'} matrix[m, m'] E_m Q E_m'† over the basis
    {E_m}; it is completely positive exactly when the matrix is positive
    semi-definite.  Only the ``matrix-units`` basis tag is implemented.
    """

    source: DecomposedSpace
    target: DecomposedSpace
    matrix: np.ndarray
    basis_tag: str = MATRIX_UNIT_BASIS

    def __post_init__(self) -> None:
        mat = frozen_matrix(self.matrix)
        m = self.source.dim * self.target.dim
        if mat.shape != (m, m):
            raise SpcpmError(
                f"coefficient matrix has shape {mat.shape}, expected {(m, m)}"
            )
        object.__setattr__(self, "matrix", mat)


def _require_basis(rep: ChoiRep) -> None:
    if rep.basis_tag != MATRIX_UNIT_BASIS:
        raise SpcpmError(f"unsupported basis tag: {rep.basis_tag!r}")


def apply(rep: KrausRep, q) -> np.ndarray:
    """Apply the channel: sum_k V_k Q V_k†."""
    qa = as_matrix(q)
    d = rep.source.dim
    if qa.shape != (d, d):
        raise SpcpmError(f"input has shape {qa.shape}, expected {(d, d)}")
    out = np.zeros((rep.target.dim, rep.target.dim), dtype=np.complex128)
    for op in rep.ops:
        out += op @ qa @ op.conj().T
    return out


def kraus_to_choi(rep: KrausRep) -> ChoiRep:
    """Coefficient matrix sum_k c_k c_k†, with c_k the row-major coefficient
    vector of the k-th Kraus operator in the matrix-unit basis."""
    stacked = np.stack([op.ravel() for op in rep.ops])
    return ChoiRep(rep.source, rep.target, stacked.T @ stacked.conj())


def apply_choi(rep: ChoiRep, q) -> np.ndarray:
    """Evaluate phi(Q) = sum_{m,m'} matrix[m, m'] E_m Q E_m'† over the
    matrix-unit basis."""
    _require_basis(rep)
    qa = as_matrix(q)
    ds, dt = rep.source.dim, rep.target.dim
    if qa.shape != (ds, ds):
        raise SpcpmError(f"input has shape {qa.shape}, expected {(ds, ds)}")
    coeff = rep.matrix.reshape(dt, ds, dt, ds)
    return np.einsum("ijkl,jl->ik", coeff, qa)


def _phase_normalized(vec: np.ndarray) -> np.ndarray:
    """Fix the global phase so the first significant entry is real positive
    (reproducible eigenvector gauge across runs)."""
    mags = np.abs(vec)
    top = float(mags.max())
    if top == 0.0:
        return vec
    idx = int(np.argmax(mags > 1e-12 * top))
    phase = vec[idx] / mags[idx]
    return vec * np.conj(phase)


def choi_to_kraus(rep: ChoiRep, rtol: float = DEFAULT_RTOL) -> KrausRep:
    """Extract a linearly independent Kraus list from a PSD coefficient matrix.

    One operator sqrt(w_n) * mat(v_n) is kept per eigenvalue above the
    relative cutoff, in ascending eigenvalue order and with a fixed phase
    gauge, so the output is reproducible.  An all-zero matrix yields the zero
    channel as a single all-zero operator.
    """
    _require_basis(rep)
    if not is_psd(rep.matrix, tol=rtol):
        raise SpcpmError("coefficient matrix is not positive semi-definite")
    w, v = hermitian_eig(rep.matrix, tol=rtol)
    cutoff = rtol * max(1.0, float(np.max(np.abs(w))))
    ds, dt = rep.source.dim, rep.target.dim
    ops = []
    for n in range(len(w)):
        if w[n] > cutoff:
            vec = _phase_normalized(v[:, n])
            ops.append(np.sqrt(w[n]) * vec.reshape(dt, ds))
    if not ops:
        ops = [np.zeros((dt, ds), dtype=np.complex128)]
    return KrausRep(rep.source, rep.target, tuple(ops))


def kraus_rank(rep: KrausRep, rtol: float = DEFAULT_RTOL) -> int:
    """Minimal number of Kraus operators needed to represent the channel.

    Equals the rank of the coefficient matrix at the relative eigenvalue
    cutoff; never exceeds source.dim * target.dim.
    """
    check_tolerance(rtol, "rtol")
    w = hermitian_eig(kraus_to_choi(rep).matrix, tol=DEFAULT_TOL).eigenvalues
    cutoff = rtol * max(1.0, float(np.max(np.abs(w))))
    return int(np.count_nonzero(w > cutoff))


def unitary_mix(rep: KrausRep, u) -> KrausRep:
    """Mix the Kraus list by a unitary matrix: V'_k = sum_k' U[k, k'] V_k'.

    Mixing never changes the represented channel, and it maps linearly
    independent lists to linearly independent lists.
    """
    ua = as_matrix(u)
    k = len(rep.ops)
    if ua.shape != (k, k):
        raise SpcpmError(
            f"mixing matrix has shape {ua.shape}, expected {(k, k)}"
        )
    if frobenius(ua.conj().T @ ua - np.eye(k)) > 1e-10:
        raise SpcpmError("mixing matrix is not unitary within 1e-10")
    stacked = np.stack(rep.ops)
    mixed = np.tensordot(ua, stacked, axes=(1, 0))
    return KrausRep(rep.source, rep.target, tuple(mixed))


def orthonormal_kraus(
    rep: KrausRep, rtol: float = DEFAULT_RTOL
) -> list[tuple[float, np.ndarray]]:
    """Rewrite the channel over Hilbert-Schmidt-orthonormal operators.

    Returns pairs (r_n, Y_n) with Tr(Y_n† Y_n') = delta_nn', every r_n > 0,
    and the channel equal to Q -> sum_n r_n Y_n Q Y_n†.  The number of pairs
    equals the Kraus rank; for the zero channel the list is empty.
    """
    lin = choi_to_kraus(kraus_to_choi(rep), rtol)
    w, u = hermitian_eig(gram_matrix(lin.ops))
    cutoff = rtol * max(1.0, float(np.max(np.abs(w))))
    stacked = np.stack(lin.ops)
    pairs: list[tuple[float, np.ndarray]] = []
    for n in range(len(w)):
        if w[n] <= cutoff:
            continue
        mixed = np.tensordot(u[:, n], stacked, axes=(0, 0))
        pairs.append((float(w[n]), mixed / np.sqrt(w[n])))
    return pairs


def compose(b: KrausRep, a: KrausRep) -> KrausRep:
    """Channel composition b after a: all pairwise products W_l V_k."""
    if a.target.dim != b.source.dim:
        raise SpcpmError(
            f"cannot compose: inner dimensions {a.target.dim} and {b.source.dim} differ"
        )
    ops = tuple(w @ v for w in b.ops for v in a.ops)
    return KrausRep(a.source, b.target, ops)


def is_trace_preserving(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Whether sum_k V_k† V_k = I within ``tol`` (Frobenius)."""
    check_tolerance(tol)
    total = np.zeros((rep.source.dim, rep.source.dim), dtype=np.complex128)
    for op in rep.ops:
        total += op.conj().T @ op
    return bool(frobenius(total - np.eye(rep.source.dim)) <= tol)


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
