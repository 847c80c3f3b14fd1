"""Channel operations the tests need and the library does not export.

Each is the plain form of a statement the tests check the library against:
mixing a Kraus list by a unitary (the unitary freedom of Kraus
representations), evaluating a map from its coefficient matrix, and
composing two channels by all pairwise products of their operators.
Callers pass well-formed arguments; neither validates them.
"""

import numpy as np

from spcpm.cpm import KrausRep


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
