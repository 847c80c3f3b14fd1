"""Decompositions on the live matrix units agree with the whole matrix.

The library decomposes a coefficient matrix only on the units whose row or
column holds a nonzero entry.  The references below take ``eigh`` of the
whole matrix, in plain numpy, and share no code with the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcpm.cpm import (
    ChoiRep,
    KrausRep,
    channels_equal,
    choi_to_kraus,
    kraus_rank,
    kraus_to_choi,
    orthonormal_kraus,
)
from spcpm.errors import SpcpmError
from spcpm.sp import random_sp_channel
from spcpm.spaces import DecomposedSpace
from channel_helpers import crandn, pairwise_compose
from test_sp import ORACLE_CASES

RTOL = 1e-10


def whole_matrix_kept_eigenvalues(mat):
    """Eigenvalues of the whole matrix above the rank cutoff, ascending, and
    the largest eigenvalue magnitude."""
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    scale = float(np.max(np.abs(w)))
    return w[w > RTOL * max(1.0, scale)], scale


def assert_agrees_with_whole_matrix(choi, rep):
    """``choi`` is the coefficient matrix of the channel ``rep``."""
    kept, scale = whole_matrix_kept_eigenvalues(choi.matrix)
    bound = 1e-12 * scale
    assert kraus_rank(rep) == len(kept)
    minimal = choi_to_kraus(choi)
    assert channels_equal(minimal, rep)
    pairs = orthonormal_kraus(rep)
    assert len(pairs) == len(kept)
    assert np.all(np.abs(np.array([r for r, _ in pairs]) - kept) <= bound)
    if len(kept):
        # ||sqrt(w) mat(v)||_F^2 = w for a unit eigenvector v
        weights = np.sum(np.abs(minimal.ops) ** 2, axis=(1, 2))
        assert len(weights) == len(kept)
        assert np.all(np.abs(weights - kept) <= bound)


def live_count(mat):
    nonzero = mat != 0
    return int(np.count_nonzero(nonzero.any(axis=0) | nonzero.any(axis=1)))


@pytest.mark.parametrize("name,rep", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_oracle_channels_agree_with_whole_matrix(name, rep):
    choi = kraus_to_choi(rep)
    n = len(choi.matrix)
    if name.startswith("sp"):
        # only the intra-block units are live
        s, t = rep.source, rep.target
        assert live_count(choi.matrix) == s.d1 * t.d1 + s.d2 * t.d2 < n
    else:
        # cross-block noise on every operator: no zero row to drop
        assert live_count(choi.matrix) == n
    assert_agrees_with_whole_matrix(choi, rep)


COMPOSED = [c for c in ORACLE_CASES if c[0] in ("sp 2+2->2+2", "leaky 2+2->2+2")]


@pytest.mark.parametrize("name,rep", COMPOSED, ids=[c[0] for c in COMPOSED])
def test_composites_with_more_operators_than_units_agree(name, rep):
    twice = pairwise_compose(rep, rep)
    assert len(twice.ops) > rep.source.dim * rep.target.dim
    assert_agrees_with_whole_matrix(kraus_to_choi(twice), twice)


def test_rank_one_choi_rep_agrees():
    rng = np.random.default_rng(1001)
    space = DecomposedSpace(2, 1)
    op = crandn(rng, 3, 3)
    vec = op.ravel()
    choi = ChoiRep(space, space, np.outer(vec, vec.conj()))
    assert_agrees_with_whole_matrix(choi, KrausRep(space, space, (op,)))
    assert len(choi_to_kraus(choi).ops) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_zero_rows_scattered_by_a_permutation_agree(s1, s2, t1, t2, k, seed):
    source, target = DecomposedSpace(s1, s2), DecomposedSpace(t1, t2)
    n = source.dim * target.dim
    rng = np.random.default_rng(seed)
    live = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    coeffs = np.zeros((k, n), dtype=np.complex128)
    coeffs[:, live] = crandn(rng, k, len(live))
    rep = KrausRep(source, target, coeffs.reshape(k, target.dim, source.dim))
    choi = ChoiRep(source, target, coeffs.T @ coeffs.conj())
    assert live_count(choi.matrix) == len(live)
    assert_agrees_with_whole_matrix(choi, rep)


def test_zero_channel_has_no_live_unit():
    space = DecomposedSpace(1, 2)
    zero = np.zeros((9, 9))
    minimal = choi_to_kraus(ChoiRep(space, space, zero))
    assert minimal.ops.shape == (1, 3, 3) and not minimal.ops.any()
    rep = KrausRep(space, space, (np.zeros((3, 3)),))
    assert kraus_rank(rep) == 0
    assert orthonormal_kraus(rep) == []


def test_zero_row_with_a_nonzero_column_is_refused():
    # row i of the matrix is zero but column i is not: the matrix is not
    # Hermitian, and a mask over rows alone would drop the offending entry
    space = DecomposedSpace(2, 2)
    rep = random_sp_channel(space, space, 8, True, 1002)
    mat = kraus_to_choi(rep).matrix.copy()
    dead = int(np.flatnonzero(~mat.any(axis=1))[0])
    alive = int(np.flatnonzero(mat.any(axis=1))[0])
    mat[alive, dead] = 1.0
    assert not mat[dead].any() and mat[:, dead].any()
    with pytest.raises(SpcpmError, match="coefficient matrix is not Hermitian"):
        choi_to_kraus(ChoiRep(space, space, mat))
