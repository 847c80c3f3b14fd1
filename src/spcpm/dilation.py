"""Unitary realization of trace-preserving SP channels on a single space.

For a trace-preserving channel that is subspace preserving with identical
source and target decompositions, the channel is exact system-ancilla
unitary evolution from a fixed reference ancilla state:

    phi(Q) = Tr_anc(U (Q x |0><0|) U†),

where the unitary splits as U = V1 + V2 into two partial isometries, each
supported on one block:

    V_i V_i† = V_i† V_i = P_i x I_anc.

With a minimized Kraus list {V_k} of length K split into block pieces
V_{i,k}, each partial isometry is built on an ancilla of dimension K + 1 as

    V_i = P_i x I - P_i x |0><0| - sum_{k,k'} V_{i,k} V_{i,k'}† x |k><k'|
          + sum_k V_{i,k} x |k><0| + sum_k V_{i,k}† x |0><k|.

Trace preservation of the split list gives sum_k V_{1,k}† V_{1,k} = P_1 and
sum_k V_{2,k}† V_{2,k} = P_2, which is what makes the construction unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpm import KrausRep, apply, choi_to_kraus, is_trace_preserving, kraus_to_choi
from .errors import (
    NotSPError,
    NotTracePreservingError,
    SourceTargetMismatchError,
    SpcpmError,
)
from .linalg import (
    DEFAULT_RTOL,
    DEFAULT_TOL,
    check_tolerance,
    frobenius,
    frozen_matrix,
)
from .sp import is_sp_definition, is_sp_kraus_blocks, split_kraus_blocks
from .spaces import DecomposedSpace


@dataclass(frozen=True)
class UnitaryDilation:
    """A unitary on system x ancilla, block diagonal over the system blocks.

    The reference ancilla state is coordinate 0; ancilla coordinate k pairs
    with the k-th Kraus operator, so ``ancilla_dim`` is one more than the
    Kraus rank of the realized channel.  Only ``u`` is stored: the partial
    isometries ``v1`` and ``v2`` are its two diagonal blocks, sliced out.
    """

    space: DecomposedSpace
    ancilla_dim: int
    u: np.ndarray

    def __post_init__(self) -> None:
        if self.ancilla_dim < 1:
            raise SpcpmError("ancilla must be at least one-dimensional")
        n = self.space.dim * self.ancilla_dim
        arr = frozen_matrix(self.u)
        if arr.shape != (n, n):
            raise SpcpmError(f"u has shape {arr.shape}, expected {(n, n)}")
        object.__setattr__(self, "u", arr)

    @property
    def u4(self) -> np.ndarray:
        """``u`` as a (d, anc, d, anc) view: system index slow, ancilla fast."""
        d, anc = self.space.dim, self.ancilla_dim
        return self.u.reshape(d, anc, d, anc)

    def _block(self, block: int) -> np.ndarray:
        """V_i = (P_i x I) U (P_i x I); exact, as P_i is a 0/1 diagonal."""
        sb = self.space.block_slice(block)
        v = np.zeros_like(self.u4)
        v[sb, :, sb, :] = self.u4[sb, :, sb, :]
        v = v.reshape(self.u.shape)
        v.setflags(write=False)
        return v

    @property
    def v1(self) -> np.ndarray:
        """The partial isometry supported on block 1 (read-only copy)."""
        return self._block(1)

    @property
    def v2(self) -> np.ndarray:
        """The partial isometry supported on block 2 (read-only copy)."""
        return self._block(2)


def build_dilation(
    rep: KrausRep, tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL
) -> UnitaryDilation:
    """Construct the unitary dilation of a trace-preserving SP channel.

    The Kraus list is first reduced to a linearly independent one, so the
    ancilla dimension is the minimal K + 1 for this construction.  Each
    ancilla block of the (d, anc, d, anc) view of U is written directly;
    with P_k = V_{1,k} + V_{2,k} the block-diagonal part of V_k:

        U[:, k, :, k'] = delta_kk' I - P_k P_k'†   (k, k' >= 1)
        U[:, k, :, 0]  = P_k,   U[:, 0, :, k] = P_k†,   U[:, 0, :, 0] = 0.
    """
    check_tolerance(rtol, "rtol")
    if rep.source != rep.target:
        raise SourceTargetMismatchError(
            "dilation requires identical source and target decompositions"
        )
    if not is_trace_preserving(rep, tol):
        raise NotTracePreservingError("dilation requires a trace-preserving channel")
    if not is_sp_kraus_blocks(rep, tol):
        raise NotSPError("dilation requires a subspace-preserving channel")
    minimal = choi_to_kraus(kraus_to_choi(rep), rtol)
    split1, split2 = split_kraus_blocks(minimal, tol)
    pieces = split1 + split2
    space = rep.source
    d, anc = space.dim, len(minimal.ops) + 1
    u4 = np.zeros((d, anc, d, anc), dtype=np.complex128)
    u4[:, 1:, :, 1:] = -np.einsum(
        "rij,clj->irlc", pieces, pieces.conj(), optimize=True
    )
    np.einsum("iaia->ia", u4)[:, 1:] += 1.0  # a writable view of the diagonal
    u4[:, 1:, :, 0] = pieces.transpose(1, 0, 2)
    u4[:, 0, :, 1:] = pieces.conj().transpose(2, 1, 0)
    return UnitaryDilation(space, anc, u4.reshape(d * anc, d * anc))


def apply_dilation(dil: UnitaryDilation, q) -> np.ndarray:
    """Evolve Q x |0><0| by the unitary and trace out the ancilla.

    Only the reference column of U acts: the result is the induced channel
    of :func:`kraus_from_dilation` applied to Q, so no system x ancilla
    state is formed.
    """
    return apply(kraus_from_dilation(dil), q)


def kraus_from_dilation(dil: UnitaryDilation) -> KrausRep:
    """Kraus operators of the induced channel, one per ancilla coordinate:
    the ancilla blocks A_k = U[:, k, :, 0] against the reference column."""
    return KrausRep(dil.space, dil.space, dil.u4[:, :, :, 0].transpose(1, 0, 2))


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    """(||M†M - I||_F, ||MM† - I||_F)."""
    eye = np.eye(m.shape[0])
    return np.array(
        [frobenius(m.conj().T @ m - eye), frobenius(m @ m.conj().T - eye)]
    )


def verify_dilation(
    dil: UnitaryDilation, rep: KrausRep, tol: float = DEFAULT_TOL
) -> bool:
    """Full audit of a dilation against the channel it claims to realize.

    Every condition is checked on slices of the (d, anc, d, anc) view of U:

    * the off-block part of U (system block 1 <-> block 2) vanishes, normed
      directly on its slices, so U = V1 + V2;
    * each diagonal block V_i is unitary on its support (the
      partial-isometry conditions V_i V_i† = V_i† V_i = P_i x I), and so
      is U;
    * the induced channel agrees with ``rep`` on every source matrix unit:
      the worst Frobenius norm over units (a, b) of the difference of the
      images, read from the reshaped coefficient matrices;
    * the induced channel passes the weight-leakage SP test (any operator
      pair satisfying the conditions realizes an SP channel, so a valid
      dilation must too).
    """
    check_tolerance(tol)
    if rep.source != dil.space or rep.target != dil.space:
        return False
    space, u4 = dil.space, dil.u4
    d, anc = space.dim, dil.ancilla_dim
    s1, s2 = space.block_slice(1), space.block_slice(2)
    off = np.hypot(frobenius(u4[s1, :, s2, :]), frobenius(u4[s2, :, s1, :]))
    if off > tol:
        return False
    for sb, db in ((s1, space.d1), (s2, space.d2)):
        block = u4[sb, :, sb, :].reshape(db * anc, db * anc)
        if _unitarity_defects(block).max() > tol:
            return False
    if _unitarity_defects(dil.u).max() > tol:
        return False
    induced = kraus_from_dilation(dil)
    diff = kraus_to_choi(induced).matrix - kraus_to_choi(rep).matrix
    per_unit = np.linalg.norm(diff.reshape(d, d, d, d), axis=(0, 2))
    if per_unit.max() > tol:
        return False
    return bool(is_sp_definition(induced, tol))
