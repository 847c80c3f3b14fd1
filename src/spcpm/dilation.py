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

So V_i is fixed by the stack A_i = [V_{i,1}; ...; V_{i,K}] (K·d_i x d_i)
alone, and that stack is all a :class:`UnitaryDilation` stores.  Up to the
permutation that makes the ancilla index slow and puts the reference
coordinate first, V_i on its support P_i x I_anc is

    u_i = [[0, A_i†], [A_i, I - A_i A_i†]],

a Hermitian matrix, so U†U = UU† = U².  With G_i = A_i† A_i and
E_i = G_i - I (both d_i x d_i), the blocks of u_i² - I are E_i, -E_i A_i†,
-A_i E_i and A_i E_i A_i†, whence

    ||u_i² - I||_F² = tr(E²) + 2 tr(E G E) + tr(E G E G) = ||E (E + 2I)||_F².

U is unitary exactly when each A_i is an isometry, which is the trace
preservation of the split list: sum_k V_{i,k}† V_{i,k} = P_i.

The induced Kraus list of a dilation is derived once and kept with it, so
the audit and :func:`apply_dilation` read one list and one coefficient
matrix.  The audit's agreement residual is one pass over the squared moduli
of the difference of the coefficient matrices: the sum
``np.linalg.norm(..., axis=(0, 2))`` takes, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cpm import (
    KrausRep,
    _gram_defect,
    apply,
    choi_to_kraus,
    is_trace_preserving,
    kraus_to_choi,
)
from .errors import (
    NotSPError,
    NotTracePreservingError,
    SourceTargetMismatchError,
    SpcpmError,
)
from .linalg import (
    DEFAULT_TOL,
    BitEquality,
    _block_matrix,
    check_tolerance,
    checked_array,
    frobenius,
    frozen_copy,
)
from .sp import _kraus_bound, is_sp_kraus_blocks, split_kraus_blocks
from .spaces import DecomposedSpace


@dataclass(frozen=True, eq=False)
class UnitaryDilation(BitEquality):
    """A unitary U = V1 + V2 on system x ancilla, stored as its two stacks
    of in-block Kraus pieces.

    ``a1`` is a read-only (K, d1, d1) stack and ``a2`` a (K, d2, d2) one:
    ``a_i[k - 1]`` is the piece V_{i,k} that ancilla coordinate k pairs with,
    and coordinate 0 is the reference state, so ``ancilla_dim`` is K + 1.
    K is at most d1² + d2², the largest rank of a block-diagonal Kraus list
    (a minimal list from :func:`build_dilation` never exceeds it), which
    bounds the derived (d_i·(K+1))-square blocks.  Everything else is
    derived: with the system index slow and the ancilla index fast,
    U = diag(u1, u2), ``u_i`` being V_i restricted to its support
    P_i x I_anc, a (d_i·anc)-square unitary; ``u``, ``v1`` and ``v2`` are
    built from the two blocks.  Each derived array is a fresh read-only copy.

    The induced Kraus list (:func:`kraus_from_dilation`) is derived once, on
    first use, and kept as long as the dilation, like ``KrausRep``'s
    coefficient matrix: it is not a field, takes no part in equality or
    ``repr`` and is never serialized.
    """

    space: DecomposedSpace
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self) -> None:
        for name, db in (("a1", self.space.d1), ("a2", self.space.d2)):
            arr = checked_array(getattr(self, name), (None, db, db), name)
            object.__setattr__(self, name, frozen_copy(arr))
        if len(self.a1) != len(self.a2):
            raise SpcpmError(
                f"a1 and a2 hold {len(self.a1)} and {len(self.a2)} pieces, "
                "expected the same number"
            )
        most = _kraus_bound(self.space, self.space)
        if len(self.a1) > most:
            raise SpcpmError(
                f"a dilation holds {len(self.a1)} pieces per block, more than "
                f"d1² + d2² = {most}, the largest minimal Kraus rank"
            )

    @cached_property
    def _induced(self) -> KrausRep:
        """The induced Kraus list, built on first use (see
        :func:`kraus_from_dilation`)."""
        space = self.space
        ops = np.zeros((self.ancilla_dim, space.dim, space.dim), dtype=np.complex128)
        for block, pieces in ((1, self.a1), (2, self.a2)):
            sb = space.block_slice(block)
            ops[1:, sb, sb] = pieces
        return KrausRep(space, space, ops)

    @property
    def ancilla_dim(self) -> int:
        """K + 1: the reference coordinate and one per Kraus piece."""
        return len(self.a1) + 1

    @property
    def u1(self) -> np.ndarray:
        """V1 on its support P1 x I_anc (read-only copy)."""
        return _unitary_block(self.a1)

    @property
    def u2(self) -> np.ndarray:
        """V2 on its support P2 x I_anc (read-only copy)."""
        return _unitary_block(self.a2)

    @property
    def u(self) -> np.ndarray:
        """The full unitary diag(u1, u2) (read-only copy)."""
        return _block_diag(self.u1, self.u2)

    @property
    def v1(self) -> np.ndarray:
        """The partial isometry diag(u1, 0) on block 1 (read-only copy)."""
        return _block_diag(self.u1, np.zeros((self.space.d2 * self.ancilla_dim,) * 2))

    @property
    def v2(self) -> np.ndarray:
        """The partial isometry diag(0, u2) on block 2 (read-only copy)."""
        return _block_diag(np.zeros((self.space.d1 * self.ancilla_dim,) * 2), self.u2)


def _unitary_block(pieces: np.ndarray) -> np.ndarray:
    """u_i from its (K, d_i, d_i) piece stack, written ancilla block by
    ancilla block into the (d_i, K+1, d_i, K+1) view:

        u_i[:, k, :, k'] = delta_kk' I - P_k P_k'†   (k, k' >= 1)
        u_i[:, k, :, 0]  = P_k,   u_i[:, 0, :, k] = P_k†,   u_i[:, 0, :, 0] = 0.
    """
    k, db = pieces.shape[:2]
    anc = k + 1
    u4 = np.zeros((db, anc, db, anc), dtype=np.complex128)
    u4[:, 1:, :, 1:] = -np.einsum("rij,clj->irlc", pieces, pieces.conj(), optimize=True)
    np.einsum("iaia->ia", u4)[:, 1:] += 1.0  # a writable view of the diagonal
    u4[:, 1:, :, 0] = pieces.transpose(1, 0, 2)
    u4[:, 0, :, 1:] = pieces.conj().transpose(2, 1, 0)
    return frozen_copy(u4.reshape(db * anc, db * anc))


def _block_diag(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    zero = np.zeros((len(first), len(second)))  # real, so no -0.0 imaginary part
    return frozen_copy(_block_matrix(first, second, zero))


def build_dilation(rep: KrausRep, tol: float = DEFAULT_TOL) -> UnitaryDilation:
    """Construct the unitary dilation of a trace-preserving SP channel.

    The Kraus list is first reduced to a linearly independent one, so the
    ancilla dimension is the minimal K + 1 for this construction; the
    dilation is its two stacks of in-block pieces (:func:`sp.split_kraus_blocks`).
    """
    if rep.source != rep.target:
        raise SourceTargetMismatchError(
            "dilation requires identical source and target decompositions"
        )
    if not is_trace_preserving(rep, tol):
        raise NotTracePreservingError("dilation requires a trace-preserving channel")
    if not is_sp_kraus_blocks(rep, tol):
        raise NotSPError("dilation requires a subspace-preserving channel")
    first, second = split_kraus_blocks(choi_to_kraus(kraus_to_choi(rep)), tol)
    s1, s2 = rep.source.block_slice(1), rep.source.block_slice(2)
    return UnitaryDilation(rep.source, first[:, s1, s1], second[:, s2, s2])


def apply_dilation(dil: UnitaryDilation, q) -> np.ndarray:
    """Evolve Q x |0><0| by the unitary and trace out the ancilla.

    Only the reference column of U acts: the result is the induced channel
    of :func:`kraus_from_dilation` applied to Q, so no system x ancilla
    state is formed.
    """
    return apply(kraus_from_dilation(dil), q)


def kraus_from_dilation(dil: UnitaryDilation) -> KrausRep:
    """Kraus operators of the induced channel, one per ancilla coordinate:
    the ancilla blocks U[:, k, :, 0] against the reference column, zero for
    k = 0 and block diagonal with the stored pieces a_i[k - 1] for k >= 1.

    Built once per ``dil``: every call returns the same :class:`KrausRep`,
    so the audit and :func:`apply_dilation` share it and its coefficient
    matrix."""
    return dil._induced


def _isometry_defect(pieces: np.ndarray) -> float:
    """||u_i² - I||_F = ||E (E + 2I)||_F with E = A_i† A_i - I, from
    d_i x d_i matrices only (see the module docstring)."""
    e = _gram_defect(pieces)
    return frobenius(e @ e + 2 * e)


def _dilation_failure(
    dil: UnitaryDilation, rep: KrausRep, tol: float
) -> Optional[tuple[str, float]]:
    """The first audit condition that fails, as ``(condition, residual)``,
    or ``None`` when both hold (see :func:`verify_dilation`).

    ``condition`` is ``"isometry"`` or ``"agreement"`` (``inf`` when the
    channel lives on other spaces).
    """
    check_tolerance(tol)
    if rep.source != dil.space or rep.target != dil.space:
        return "agreement", math.inf
    defect = math.hypot(_isometry_defect(dil.a1), _isometry_defect(dil.a2))
    if defect > tol:
        return "isometry", defect
    d = dil.space.dim
    diff = kraus_to_choi(kraus_from_dilation(dil)).matrix - kraus_to_choi(rep).matrix
    per_unit = diff.reshape(d, d, d, d)
    # the sum np.linalg.norm(per_unit, axis=(0, 2)) takes, without its wrapper
    mass = np.add.reduce((per_unit.conj() * per_unit).real, axis=(0, 2))
    worst = float(np.sqrt(mass).max())
    if worst > tol:
        return "agreement", worst
    return None


def verify_dilation(
    dil: UnitaryDilation, rep: KrausRep, tol: float = DEFAULT_TOL
) -> bool:
    """Full audit of a dilation against the channel it claims to realize.

    U = u1 ⊕ u2 by representation, so no off-block part is left to check:

    * U is unitary: its defect ||U†U - I||_F = ||UU† - I||_F is the ``hypot``
      of the blocks' defects ||u_i² - I||_F, each read from the d_i x d_i
      Gram matrix of its stack; each block being unitary is the
      partial-isometry condition V_i V_i† = V_i† V_i = P_i x I;
    * the induced channel agrees with ``rep`` on every source matrix unit:
      the worst Frobenius norm over units (a, b) of the difference of the
      images, read from the reshaped coefficient matrices.

    The induced channel is SP by representation: :func:`kraus_from_dilation`
    writes only the in-block pieces, so no SP condition is left to check.
    """
    return _dilation_failure(dil, rep, tol) is None
