"""Tests for two-block decompositions and block operator embedding."""

import numpy as np
import pytest

from spcpm.errors import SpcpmError
from spcpm.spaces import DecomposedSpace, embed_block_operator


def test_rejects_empty_blocks():
    with pytest.raises(ValueError):
        DecomposedSpace(0, 1)
    with pytest.raises(ValueError):
        DecomposedSpace(2, 0)


def test_projector_minimal_space():
    space = DecomposedSpace(1, 1)
    np.testing.assert_array_equal(space.projector(1), np.diag([1.0 + 0j, 0.0]))


def test_projector_second_block():
    space = DecomposedSpace(2, 3)
    np.testing.assert_array_equal(
        space.projector(2), np.diag([0.0, 0.0, 1.0, 1.0, 1.0]).astype(complex)
    )


@pytest.mark.parametrize("d1,d2", [(1, 1), (2, 3), (3, 1)])
def test_projectors_complete_and_orthogonal(d1, d2):
    space = DecomposedSpace(d1, d2)
    p1, p2 = space.projector(1), space.projector(2)
    np.testing.assert_array_equal(p1 + p2, np.eye(space.dim))
    np.testing.assert_array_equal(p1 @ p2, np.zeros((space.dim, space.dim)))
    np.testing.assert_array_equal(p1 @ p1, p1)
    np.testing.assert_array_equal(p1.conj().T, p1)


def test_invalid_block_label():
    with pytest.raises(SpcpmError, match="block must be 1 or 2"):
        DecomposedSpace(1, 1).projector(3)


def test_embed_scalar_block():
    space = DecomposedSpace(1, 1)
    out = embed_block_operator(np.array([[1.0]]), space, space, 1, 1)
    np.testing.assert_array_equal(out, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_embed_identity_into_lower_right():
    space = DecomposedSpace(2, 2)
    out = embed_block_operator(np.eye(2), space, space, 2, 2)
    np.testing.assert_array_equal(out, np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))


def test_embed_respects_block_projectors():
    rng = np.random.default_rng(31)
    src, tgt = DecomposedSpace(2, 3), DecomposedSpace(3, 2)
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    out = embed_block_operator(x, src, tgt, src_block=2, tgt_block=2)
    np.testing.assert_array_equal(tgt.projector(2) @ out @ src.projector(2), out)
    # every other block sandwich vanishes
    assert np.all(tgt.projector(1) @ out == 0)
    assert np.all(out @ src.projector(1) == 0)


def test_embed_extract_round_trip():
    rng = np.random.default_rng(32)
    src, tgt = DecomposedSpace(2, 2), DecomposedSpace(1, 3)
    for sb in (1, 2):
        for tb in (1, 2):
            x = rng.standard_normal((tgt.block_dim(tb), src.block_dim(sb)))
            y = embed_block_operator(x, src, tgt, sb, tb)
            np.testing.assert_array_equal(y[tgt.block_slice(tb), src.block_slice(sb)], x)


def test_embed_rejects_wrong_shape():
    space = DecomposedSpace(1, 2)
    with pytest.raises(SpcpmError, match="block operator has shape"):
        embed_block_operator(np.eye(2), space, space, 1, 1)
