"""Builders and channel operations the tests need and the library does not
export.

The channel operations are each the plain form of a statement the tests
check the library against: mixing a Kraus list by a unitary (the unitary
freedom of Kraus representations), evaluating a map from its coefficient
matrix, and composing two channels by all pairwise products of their
operators.  The builders make the random and fixed inputs several test
modules share; each random one draws from the generator its caller passes.
Callers pass well-formed arguments; nothing here validates them.
"""

import numpy as np

from spcpm.cpm import KrausRep
from spcpm.sp import random_sp_channel
from spcpm.spaces import DecomposedSpace


def crandn(rng, *shape):
    """Complex Gaussian entries: real and imaginary parts standard normal."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, n):
    """A Haar-random n x n unitary: QR of a Gaussian matrix, phases fixed."""
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def unit(d, i, j):
    """The d x d matrix unit |i><j|."""
    e = np.zeros((d, d), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def random_psd(rng, n, rank):
    """An n x n PSD matrix of the given rank, G G† for a Gaussian G."""
    g = crandn(rng, n, rank)
    return g @ g.conj().T


def dephasing_channel(p):
    """Mixture of the identity and the block-parity unitary on C^2."""
    space = DecomposedSpace(1, 1)
    ops = (np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * np.diag([1.0, -1.0]))
    return KrausRep(space, space, ops)


def full_rank_tp_channel(d1, d2, seed):
    """A TP SP channel on d1+d2 with d1² + d2² operators, the full rank."""
    space = DecomposedSpace(d1, d2)
    return random_sp_channel(space, space, d1 * d1 + d2 * d2, True, seed)


def perturb_cross_block(rep, rng, scale=1e-2):
    """Add cross-block noise to every Kraus operator."""
    src, tgt = rep.source, rep.target
    ops = []
    for op in rep.ops:
        noise = np.zeros((tgt.dim, src.dim), dtype=np.complex128)
        noise[tgt.block_slice(1), src.block_slice(2)] = crandn(rng, tgt.d1, src.d2)
        noise[tgt.block_slice(2), src.block_slice(1)] = crandn(rng, tgt.d2, src.d1)
        ops.append(op + scale * noise)
    return KrausRep(src, tgt, tuple(ops))


def tp_renormalized(rep):
    """The Kraus list V_k S^{-1/2}, S = sum_k V_k†V_k: trace preserving."""
    s = sum(op.conj().T @ op for op in rep.ops)
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return KrausRep(rep.source, rep.target, tuple(op @ inv_sqrt for op in rep.ops))


def block_units(source, target):
    """The two intra-block unit lists of maps source -> target, by the
    row-major rule m = i·d_S + a for target index i and source index a:
    block 1's units (i < d_t1, a < d_s1), then block 2's."""
    ds = source.dim
    first = [i * ds + a for i in range(target.d1) for a in range(source.d1)]
    second = [i * ds + a for i in range(target.d1, target.dim) for a in range(source.d1, ds)]
    return np.array(first, dtype=int), np.array(second, dtype=int)


def unitary_mix(rep, u):
    """The Kraus list V'_k = sum_k' u[k, k'] V_k', the same channel for a
    unitary ``u``."""
    return KrausRep(rep.source, rep.target, np.tensordot(u, rep.ops, axes=(1, 0)))


def apply_choi(rep, q):
    """phi(Q) = sum_{m,m'} matrix[m, m'] E_m Q E_m'† over the matrix-unit
    basis."""
    ds, dt = rep.source.dim, rep.target.dim
    return np.einsum("ijkl,jl->ik", rep.matrix.reshape(dt, ds, dt, ds), q)


def pairwise_compose(b, a):
    """b after a as the list of all products W_l V_k, with l the slow index:
    the composite's Kraus list by definition, of K_a·K_b operators."""
    ops = b.ops[:, None] @ a.ops[None]
    return KrausRep(a.source, b.target, ops.reshape(-1, b.target.dim, a.source.dim))
