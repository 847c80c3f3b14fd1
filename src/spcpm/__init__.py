"""Subspace-preserving completely positive maps on two-block decompositions.

The package models CPMs between finite-dimensional Hilbert spaces that each
carry a fixed orthogonal split into two blocks, and the subclass of maps
that move no weight between the blocks: verification through four
independent characterizations, exhaustive generation from block coefficient
triples, representation conversions, and unitary dilation of the
trace-preserving case.
"""

from .cpm import (
    ChoiRep,
    KrausRep,
    apply,
    channels_equal,
    choi_to_kraus,
    compose,
    is_trace_preserving,
    kraus_rank,
    kraus_to_choi,
    orthonormal_kraus,
)
from .dilation import (
    UnitaryDilation,
    apply_dilation,
    build_dilation,
    kraus_from_dilation,
    verify_dilation,
)
from .errors import SpcpmError
from .linalg import DEFAULT_RTOL, DEFAULT_TOL, block_psd_check
from .sp import (
    SPBlockRep,
    blocks_from_sp,
    is_sp_commutation,
    is_sp_definition,
    is_sp_kraus_blocks,
    is_sp_trace,
    random_sp_channel,
    sp_from_blocks,
    sp_kraus_bound_holds,
    split_kraus_blocks,
)
from .spaces import DecomposedSpace

__all__ = [
    "ChoiRep",
    "DecomposedSpace",
    "DEFAULT_RTOL",
    "DEFAULT_TOL",
    "KrausRep",
    "SPBlockRep",
    "SpcpmError",
    "UnitaryDilation",
    "apply",
    "apply_dilation",
    "block_psd_check",
    "blocks_from_sp",
    "build_dilation",
    "channels_equal",
    "choi_to_kraus",
    "compose",
    "is_sp_commutation",
    "is_sp_definition",
    "is_sp_kraus_blocks",
    "is_sp_trace",
    "is_trace_preserving",
    "kraus_from_dilation",
    "kraus_rank",
    "kraus_to_choi",
    "orthonormal_kraus",
    "random_sp_channel",
    "sp_from_blocks",
    "sp_kraus_bound_holds",
    "split_kraus_blocks",
    "verify_dilation",
]

__version__ = "0.1.0"
