"""Two-block orthogonal decompositions of finite-dimensional Hilbert spaces.

A decomposition is a dimension split d = d1 + d2 with block 1 spanned by the
first d1 standard basis vectors and block 2 by the rest.  Arbitrary
orthogonal decompositions are handled by conjugating operators into this
coordinate convention before entering the library.

A block is named by the integer 1 or 2; a ``bool`` or a float is refused,
as it is for the block dimensions.  A space gives each block's dimension,
coordinate slice and projector; an operator's block is read or written
through :meth:`DecomposedSpace.block_slice`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpcpmError


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a ``bool`` is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DecomposedSpace:
    """A Hilbert space dimension split d = d1 + d2, both blocks nonempty."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if not (is_integer(self.d1) and is_integer(self.d2)):
            raise SpcpmError(
                f"block dimensions must be integers, got {self.d1!r}, {self.d2!r}"
            )
        if self.d1 < 1 or self.d2 < 1:
            raise SpcpmError("both blocks must be at least one-dimensional")
        object.__setattr__(self, "d1", int(self.d1))
        object.__setattr__(self, "d2", int(self.d2))

    @property
    def dim(self) -> int:
        """Total dimension d1 + d2."""
        return self.d1 + self.d2

    def _check_block(self, block: int) -> None:
        if not (is_integer(block) and block in (1, 2)):
            raise SpcpmError(f"block must be 1 or 2, got {block!r}")

    def block_dim(self, block: int) -> int:
        self._check_block(block)
        return self.d1 if block == 1 else self.d2

    def block_slice(self, block: int) -> slice:
        """Coordinate range of the block in the standard basis."""
        self._check_block(block)
        return slice(0, self.d1) if block == 1 else slice(self.d1, self.dim)

    def projector(self, block: int) -> np.ndarray:
        """Diagonal 0/1 projector onto the given block; P1 + P2 = I exactly."""
        diag = np.zeros(self.dim)
        diag[self.block_slice(block)] = 1.0
        return np.diag(diag).astype(np.complex128)
