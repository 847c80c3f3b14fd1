"""Tests for two-block decompositions: block labels, slices and projectors."""

import numpy as np
import pytest

from spcpm.errors import SpcpmError
from spcpm.spaces import DecomposedSpace


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


@pytest.mark.parametrize("block", [3, 0, True, 1.0], ids=repr)
def test_invalid_block_label(block):
    # a bool or a float equal to 1 or 2 is no label, as it is no dimension
    space = DecomposedSpace(1, 1)
    for method in (space.block_dim, space.block_slice, space.projector):
        with pytest.raises(SpcpmError, match="block must be 1 or 2"):
            method(block)
