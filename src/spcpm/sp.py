"""Subspace-preserving (SP) maps on two-block decompositions.

A CPM is subspace preserving when it moves no weight between the two blocks
of the source and target decompositions.  Four independent characterizations
are implemented as verifiers and must always agree:

* ``definition`` -- cross-block traces vanish on block-supported inputs.
* ``blocks``     -- every Kraus operator has vanishing cross-blocks.
* ``commutation``-- P_ti phi(Q) P_tj = phi(P_si Q P_sj) for all block pairs.
* ``trace``      -- block weights are conserved (trace-preserving maps only).

The definition, commutation and trace verifiers reduce one tensor holding the
images of all source matrix units (the reshaped coefficient matrix); the
blocks verifier reads the Kraus operators and shares no code with them.

SP maps are generated exhaustively by triples (block1, block2, cross) of
coefficient blocks whose assembled matrix is positive semi-definite; the
triple occupies the only nonzero part of the channel's coefficient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpm import (
    ChoiRep,
    KrausRep,
    _kept_eigenpairs,
    is_trace_preserving,
    kraus_rank,
    kraus_to_choi,
)
from .errors import NotSPError, NotTracePreservingError, SingularMatrixError, SpcpmError
from .linalg import (
    DEFAULT_TOL,
    _block_matrix,
    check_tolerance,
    checked_array,
    frobenius,
    frozen_copy,
    inv_sqrt_psd,
)
from .spaces import DecomposedSpace, is_integer


@dataclass(frozen=True)
class SPBlockRep:
    """An SP map as coefficient blocks over the two intra-block operator bases.

    ``block1`` is the coefficient matrix over the matrix units of maps
    block 1 -> block 1 (size K = d_s1 * d_t1), ``block2`` the analogue for
    block 2 (size L = d_s2 * d_t2), and ``cross`` (K x L) couples the two.
    Valid triples are exactly those for which the assembled matrix
    [[block1, cross], [cross†, block2]] is positive semi-definite.
    """

    source: DecomposedSpace
    target: DecomposedSpace
    block1: np.ndarray
    block2: np.ndarray
    cross: np.ndarray

    def __post_init__(self) -> None:
        k = self.source.d1 * self.target.d1
        l = self.source.d2 * self.target.d2
        for name, shape in (("block1", (k, k)), ("block2", (l, l)), ("cross", (k, l))):
            arr = checked_array(getattr(self, name), shape, name)
            object.__setattr__(self, name, frozen_copy(arr))


def _same_block(source: DecomposedSpace, target: DecomposedSpace) -> np.ndarray:
    """same[i, a]: target index i lies in the block of source index a.

    This is the one SP coefficient pattern: read row-major it marks the
    intra-block matrix units |t_i><s_a|, and an SP map's coefficient matrix
    is zero outside the rows and columns it marks.
    """
    same = np.zeros((target.dim, source.dim), dtype=bool)
    for block in (1, 2):
        same[target.block_slice(block), source.block_slice(block)] = True
    return same


def _off_pattern(source: DecomposedSpace, target: DecomposedSpace) -> np.ndarray:
    """Entries T[i, a, j, b] of the coefficient tensor an SP map leaves zero."""
    same = _same_block(source, target)
    return ~np.logical_and.outer(same, same)


def _block_indices(
    source: DecomposedSpace, target: DecomposedSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the two intra-block matrix-unit bases inside the full
    row-major matrix-unit basis of maps source -> target."""
    units = np.flatnonzero(_same_block(source, target))
    return units[: source.d1 * target.d1], units[source.d1 * target.d1 :]


def _image_tensor(rep: KrausRep) -> np.ndarray:
    """Images of all source matrix units at once: T[i, a, j, b] = phi(E_ab)[i, j].

    This is the coefficient matrix read as a four-index tensor, so one
    O(K d^4) product replaces d^2 channel applications.
    """
    return kraus_to_choi(rep).matrix.reshape(
        rep.target.dim, rep.source.dim, rep.target.dim, rep.source.dim
    )


def _block_weights(image: np.ndarray, target: DecomposedSpace, block: int) -> np.ndarray:
    """W[a, b] = Tr(P_t phi(E_ab)) for the named target block."""
    tb = target.block_slice(block)
    return np.trace(image[tb, :, tb, :], axis1=0, axis2=2)


def definition_violation(rep: KrausRep) -> tuple[float, str]:
    """Worst cross-block trace leakage over a spanning set of block inputs.

    By linearity, checking all matrix units of each block subspace is
    equivalent to checking every operator supported on that block.
    """
    image = _image_tensor(rep)
    worst, label = 0.0, "no cross-block leakage"
    for src_block, tgt_block in ((2, 1), (1, 2)):
        sb = rep.source.block_slice(src_block)
        leak = np.abs(_block_weights(image, rep.target, tgt_block)[sb, sb])
        i, j = np.unravel_index(np.argmax(leak), leak.shape)
        if leak[i, j] > worst:
            worst = float(leak[i, j])
            label = f"Tr(P_t{tgt_block} phi(E[{i},{j}] on source block {src_block}))"
    return worst, label


def is_sp_definition(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Weight-leakage test straight from the defining conditions."""
    check_tolerance(tol)
    return bool(definition_violation(rep)[0] <= tol)


def kraus_blocks_violation(rep: KrausRep) -> tuple[float, str]:
    """Worst relative cross-block component over the Kraus operators.

    Reads the (K, dt, ds) operator stack itself: the two
    cross-block slices of every operator are normed at once, each relative
    to max(1, ||V_k||_F).
    """
    source, target, ops = rep.source, rep.target, rep.ops
    pairs = ((2, 1), (1, 2))
    cross = np.stack(
        [
            np.linalg.norm(
                ops[:, target.block_slice(ti), source.block_slice(sj)], axis=(1, 2)
            )
            for ti, sj in pairs
        ],
        axis=1,
    )
    relative = cross / np.maximum(1.0, np.linalg.norm(ops, axis=(1, 2)))[:, None]
    k, pair = np.unravel_index(np.argmax(relative), relative.shape)
    if relative[k, pair] == 0.0:
        return 0.0, "no cross-block component"
    ti, sj = pairs[pair]
    return (
        float(relative[k, pair]),
        f"||P_t{ti} V[{k}] P_s{sj}||_F / max(1, ||V[{k}]||_F)",
    )


def is_sp_kraus_blocks(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Kraus-operator test: every operator splits into two block-supported
    pieces, V_k = P_t1 V_k P_s1 + P_t2 V_k P_s2."""
    check_tolerance(tol)
    return bool(kraus_blocks_violation(rep)[0] <= tol)


def split_kraus_blocks(
    rep: KrausRep, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Split each Kraus operator into its two block-supported pieces.

    Returns two (K, dt, ds) stacks: P_t1 V_k P_s1 and P_t2 V_k P_s2.  These
    are the terms of the paper's Kraus characterization of SP maps,
    V_k = P_t1 V_k P_s1 + P_t2 V_k P_s2, and on a single space the pieces
    V_{i,k} from which the dilation's partial isometries V_i are built.
    """
    if not is_sp_kraus_blocks(rep, tol):
        raise NotSPError("channel has cross-block Kraus components above tolerance")
    first, second = np.zeros((2, *rep.ops.shape), dtype=np.complex128)
    for block, piece in ((1, first), (2, second)):
        tb, sb = rep.target.block_slice(block), rep.source.block_slice(block)
        piece[:, tb, sb] = rep.ops[:, tb, sb]
    return first, second


def commutation_violation(rep: KrausRep) -> tuple[float, str]:
    """Worst residual of P_ti phi(Q) P_tj = phi(P_si Q P_sj) over all block
    pairs and all matrix units Q of the source space.

    For a matrix unit Q = E[a, b], the sandwiched input P_si Q P_sj is
    exactly Q or exactly zero, so the worst identity for that unit is the one
    at its own block pair (block(a), block(b)): its residual is the Frobenius
    mass of phi(E[a, b]) outside that target block, which bounds the mass of
    every other block.  The mass is summed over the off-pattern entries
    directly, so an exactly-SP channel gives exactly zero.
    """
    source, target = rep.source, rep.target
    image = _image_tensor(rep)
    off = _off_pattern(source, target)
    mass = np.sum(np.abs(image) ** 2, axis=(0, 2), where=off)
    a, b = np.unravel_index(np.argmax(mass), mass.shape)
    if mass[a, b] == 0.0:
        return 0.0, "all block identities hold"
    i = 1 if a < source.d1 else 2
    j = 1 if b < source.d1 else 2
    return (
        float(np.sqrt(mass[a, b])),
        f"P_t{i} phi(E[{a},{b}]) P_t{j} vs phi(P_s{i} E[{a},{b}] P_s{j})",
    )


def is_sp_commutation(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Block-commutation test over a spanning set of inputs."""
    check_tolerance(tol)
    return bool(commutation_violation(rep)[0] <= tol)


def trace_violation(rep: KrausRep) -> tuple[float, str]:
    """Worst residual of the block-1 weight conservation identity
    Tr(P_t1 phi(E[a, b])) = Tr(P_s1 E[a, b]) over the source matrix units.

    Returns (residual, label of the worst identity).  The block-2 identity
    is not checked: on a trace-preserving channel, the only kind that
    :func:`is_sp_trace` and ``spcpm verify`` judge by this route, its
    residual equals block 1's up to the trace-preservation defect.
    """
    source = rep.source
    diff = _block_weights(_image_tensor(rep), rep.target, 1)
    inside = np.arange(source.dim)[source.block_slice(1)]
    diff[inside, inside] -= 1.0
    residuals = np.abs(diff)
    a, b = np.unravel_index(np.argmax(residuals), residuals.shape)
    label = "block weights conserved"
    if residuals[a, b] > 0.0:
        label = f"Tr(P_t1 phi(E[{a},{b}])) vs Tr(P_s1 E[{a},{b}])"
    return float(residuals[a, b]), label


def is_sp_trace(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Block-weight conservation test; only defined for trace-preserving maps."""
    if not is_trace_preserving(rep, tol):
        raise NotTracePreservingError(
            "trace verifier requires a trace-preserving channel"
        )
    return bool(trace_violation(rep)[0] <= tol)


def sp_from_blocks(blocks: SPBlockRep) -> ChoiRep:
    """Assemble the coefficient matrix of the SP map defined by a block triple.

    The triple is placed on the two intra-block basis slots; all other
    entries are zero.  Every SP map arises from exactly one valid triple.
    The assembled matrix [[block1, cross], [cross†, block2]] of the triple
    passes :func:`linalg.psd_spectrum` or raises its :class:`SpcpmError`
    (the message of :func:`linalg.block_psd_failure`).  That gate is the
    ``eigh`` :func:`choi_to_kraus` would make, on the same live units: the
    returned matrix keeps its decomposition, so converting it solves nothing
    again and refuses nothing that generation accepted.
    """
    f = _block_matrix(blocks.block1, blocks.block2, blocks.cross)
    m = blocks.source.dim * blocks.target.dim
    full = np.zeros((m, m), dtype=np.complex128)
    # block 1's units precede block 2's, so these are the rows of f in order
    units = np.flatnonzero(_same_block(blocks.source, blocks.target))
    full[np.ix_(units, units)] = f
    choi = ChoiRep(blocks.source, blocks.target, full)
    object.__setattr__(choi, "_spectrum", _kept_eigenpairs(choi, True, "assembled block matrix"))
    return choi


def blocks_from_sp(rep: KrausRep, tol: float = DEFAULT_TOL) -> SPBlockRep:
    """Extract the block triple of an SP channel from its coefficient matrix.

    Raises :class:`NotSPError` if the Kraus operators have cross-block
    components or the matrix carries weight outside the two intra-block
    bases beyond tolerance.
    """
    if not is_sp_kraus_blocks(rep, tol):
        raise NotSPError("channel has cross-block Kraus components above tolerance")
    source, target = rep.source, rep.target
    full = kraus_to_choi(rep).matrix
    off = _off_pattern(source, target).reshape(full.shape)
    off_mass = float(np.sqrt(np.sum(np.abs(full) ** 2, where=off)))
    if off_mass > tol * max(1.0, frobenius(full)):
        raise NotSPError(
            f"off-block coefficient mass {off_mass:.3e} exceeds tolerance"
        )
    idx1, idx2 = _block_indices(source, target)
    return SPBlockRep(
        source,
        target,
        full[np.ix_(idx1, idx1)],
        full[np.ix_(idx2, idx2)],
        full[np.ix_(idx1, idx2)],
    )


def _check_tp_shape(source: DecomposedSpace, target: DecomposedSpace, k: int) -> None:
    """Refuse a trace-preserving draw of k operators if k·d_ti < d_si for a
    block i: block i of S = sum_k V_k† V_k is A_i† A_i, A_i the (k·d_ti) x d_si
    stack of the operators' block-i pieces, so S is singular on every draw."""
    for block in (1, 2):
        dt, ds = target.block_dim(block), source.block_dim(block)
        if k * dt < ds:
            raise SingularMatrixError(
                f"no trace-preserving channel has k={k} Kraus operators here: "
                f"block {block} needs k·d_t{block} >= d_s{block}, "
                f"but {k}·{dt} = {k * dt} < {ds}"
            )


def random_sp_channel(
    source: DecomposedSpace,
    target: DecomposedSpace,
    k: int,
    tp: bool,
    seed: int,
) -> KrausRep:
    """Draw a random SP channel with k Kraus operators; deterministic per seed.

    Each operator is a sum of two block-embedded matrices with independent
    complex-Gaussian entries, all read from one standard-normal draw of
    shape (k, 2 (n1 + n2)), n_i = d_ti d_si: row k holds the real then the
    imaginary parts of operator k's block 1, then those of its block 2, in
    row-major order.  With ``tp`` the list is right-normalized by
    S^(-1/2) where S = sum_k V_k† V_k; S is block diagonal, so normalization
    stays inside the SP set and makes the channel trace preserving.  A shape
    whose S is singular on every draw (:func:`_check_tp_shape`) raises
    :class:`SingularMatrixError` before drawing.  ``seed`` must be a
    non-negative integer, so that every channel drawn can be drawn again.
    """
    if not is_integer(k):
        raise SpcpmError(f"number of Kraus operators must be an integer, got {k!r}")
    if k < 1:
        raise SpcpmError("need at least one Kraus operator")
    if not (is_integer(seed) and seed >= 0):
        raise SpcpmError(f"seed must be a non-negative integer, got {seed!r}")
    if tp:
        _check_tp_shape(source, target, k)
    rng = np.random.default_rng(seed)
    t1, t2 = target.block_slice(1), target.block_slice(2)
    s1, s2 = source.block_slice(1), source.block_slice(2)
    n1, n2 = target.d1 * source.d1, target.d2 * source.d2
    draw = rng.standard_normal((k, 2 * (n1 + n2)))
    re1, im1, re2, im2 = np.split(draw, [n1, 2 * n1, 2 * n1 + n2], axis=1)
    ops = np.zeros((k, target.dim, source.dim), dtype=np.complex128)
    ops[:, t1, s1] = (re1 + 1j * im1).reshape(k, target.d1, source.d1)
    ops[:, t2, s2] = (re2 + 1j * im2).reshape(k, target.d2, source.d2)
    if not tp:
        return KrausRep(source, target, ops)
    s = (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)
    return KrausRep(source, target, ops @ inv_sqrt_psd(s))


def _kraus_bound(source: DecomposedSpace, target: DecomposedSpace) -> int:
    """d_s1*d_t1 + d_s2*d_t2, the size of the assembled block triple: the
    only nonzero part of an SP coefficient matrix, so its largest rank."""
    return source.d1 * target.d1 + source.d2 * target.d2


def sp_kraus_bound_holds(rep: KrausRep, tol: float = DEFAULT_TOL) -> bool:
    """Whether the Kraus rank respects the SP bound (:func:`_kraus_bound`)."""
    if not is_sp_kraus_blocks(rep, tol):
        raise NotSPError("bound applies to subspace-preserving channels only")
    return kraus_rank(rep) <= _kraus_bound(rep.source, rep.target)
