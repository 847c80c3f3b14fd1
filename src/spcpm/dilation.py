"""Unitary realization of trace-preserving SP channels on a single space.

For a trace-preserving channel that is subspace preserving with identical
source and target decompositions, the channel is exact system-ancilla
unitary evolution from a fixed reference ancilla state:

    phi(Q) = Tr_anc(U (Q x |0><0|) U†),

where the unitary splits as U = V1 + V2 into two partial isometries, each
supported on one block, and is stored and audited as those two blocks alone:

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
from .linalg import DEFAULT_RTOL, DEFAULT_TOL, check_tolerance, frobenius, frozen_matrix
from .sp import is_sp_definition, is_sp_kraus_blocks
from .spaces import DecomposedSpace, is_integer


@dataclass(frozen=True)
class UnitaryDilation:
    """A unitary U = V1 + V2 on system x ancilla, stored as its two blocks.

    With the system index slow and the ancilla index fast, U = diag(u1, u2):
    ``u_i`` is V_i restricted to its support P_i x I_anc, a (d_i·anc)-square
    unitary.  ``u``, ``v1`` and ``v2`` are derived.  The reference ancilla
    state is coordinate 0; ancilla coordinate k pairs with the k-th Kraus
    operator, so ``ancilla_dim`` is one more than the Kraus rank of the
    realized channel.
    """

    space: DecomposedSpace
    ancilla_dim: int
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self) -> None:
        anc = self.ancilla_dim
        if not is_integer(anc) or anc < 1:
            raise SpcpmError(
                f"ancilla must be a positive integer dimension, got {anc!r}"
            )
        object.__setattr__(self, "ancilla_dim", int(anc))
        for name, db in (("u1", self.space.d1), ("u2", self.space.d2)):
            arr, n = frozen_matrix(getattr(self, name)), db * self.ancilla_dim
            if arr.shape != (n, n):
                raise SpcpmError(f"{name} has shape {arr.shape}, expected {(n, n)}")
            object.__setattr__(self, name, arr)

    @property
    def u(self) -> np.ndarray:
        """The full unitary diag(u1, u2) (read-only copy)."""
        return _block_diag(self.u1, self.u2)

    @property
    def v1(self) -> np.ndarray:
        """The partial isometry diag(u1, 0) on block 1 (read-only copy)."""
        return _block_diag(self.u1, np.zeros_like(self.u2))

    @property
    def v2(self) -> np.ndarray:
        """The partial isometry diag(0, u2) on block 2 (read-only copy)."""
        return _block_diag(np.zeros_like(self.u1), self.u2)


def _block_diag(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    zero = np.zeros((first.shape[0], second.shape[0]), dtype=np.complex128)
    out = np.block([[first, zero], [zero.T, second]])
    out.setflags(write=False)
    return out


def build_dilation(
    rep: KrausRep, tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL
) -> UnitaryDilation:
    """Construct the unitary dilation of a trace-preserving SP channel.

    The Kraus list is first reduced to a linearly independent one, so the
    ancilla dimension is the minimal K + 1 for this construction.  Each
    ancilla block of the (d_i, anc, d_i, anc) view of u_i is written from
    the in-block pieces P_k = V_{i,k} of the minimal list:

        u_i[:, k, :, k'] = delta_kk' I - P_k P_k'†   (k, k' >= 1)
        u_i[:, k, :, 0]  = P_k,   u_i[:, 0, :, k] = P_k†,   u_i[:, 0, :, 0] = 0.
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
    if not is_sp_kraus_blocks(minimal, tol):
        raise NotSPError("channel has cross-block Kraus components above tolerance")
    space, anc = rep.source, len(minimal.ops) + 1
    blocks = []
    for block in (1, 2):
        sb, db = space.block_slice(block), space.block_dim(block)
        pieces = minimal.ops[:, sb, sb]
        u4 = np.zeros((db, anc, db, anc), dtype=np.complex128)
        u4[:, 1:, :, 1:] = -np.einsum(
            "rij,clj->irlc", pieces, pieces.conj(), optimize=True
        )
        np.einsum("iaia->ia", u4)[:, 1:] += 1.0  # a writable view of the diagonal
        u4[:, 1:, :, 0] = pieces.transpose(1, 0, 2)
        u4[:, 0, :, 1:] = pieces.conj().transpose(2, 1, 0)
        blocks.append(u4.reshape(db * anc, db * anc))
    return UnitaryDilation(space, anc, *blocks)


def apply_dilation(dil: UnitaryDilation, q) -> np.ndarray:
    """Evolve Q x |0><0| by the unitary and trace out the ancilla.

    Only the reference column of U acts: the result is the induced channel
    of :func:`kraus_from_dilation` applied to Q, so no system x ancilla
    state is formed.
    """
    return apply(kraus_from_dilation(dil), q)


def kraus_from_dilation(dil: UnitaryDilation) -> KrausRep:
    """Kraus operators of the induced channel, one per ancilla coordinate:
    the ancilla blocks A_k = U[:, k, :, 0] against the reference column,
    block diagonal with A_k[s_i, s_i] = u_i[:, k, :, 0]."""
    space, anc = dil.space, dil.ancilla_dim
    ops = np.zeros((anc, space.dim, space.dim), dtype=np.complex128)
    for block, u_i in ((1, dil.u1), (2, dil.u2)):
        sb, db = space.block_slice(block), space.block_dim(block)
        ops[:, sb, sb] = u_i.reshape(db, anc, db, anc)[:, :, :, 0].transpose(1, 0, 2)
    return KrausRep(space, space, ops)


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

    U = u1 ⊕ u2 by representation, so no off-block part is left to check:

    * U is unitary: its defects ||U†U - I||_F and ||UU† - I||_F are exactly
      the ``hypot`` of the blocks' defects, and each block being unitary is
      the partial-isometry condition V_i V_i† = V_i† V_i = P_i x I;
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
    defects = np.hypot(_unitarity_defects(dil.u1), _unitarity_defects(dil.u2))
    if defects.max() > tol:
        return False
    d = dil.space.dim
    induced = kraus_from_dilation(dil)
    diff = kraus_to_choi(induced).matrix - kraus_to_choi(rep).matrix
    per_unit = np.linalg.norm(diff.reshape(d, d, d, d), axis=(0, 2))
    if per_unit.max() > tol:
        return False
    return bool(is_sp_definition(induced, tol))
