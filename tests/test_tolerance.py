"""Every public tolerance of the library must be finite and > 0.

An infinite tolerance accepts every residual (the block-swap channel would
be "SP"), and a NaN, zero or negative one rejects every residual, so the
library refuses them with SpcpmError before doing any work.
"""

import math

import numpy as np
import pytest

from spcpm import cpm, dilation, linalg, sp
from spcpm.cpm import KrausRep
from spcpm.errors import SpcpmError
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)
IDENTITY = KrausRep(C2, C2, (np.eye(2),))
SWAP = KrausRep(C2, C2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
EYE = np.eye(2)


def unit_triple():
    return sp.SPBlockRep(C2, C2, np.eye(1), np.eye(1), np.eye(1))


# one call per public tolerance parameter, each otherwise valid
ENTRY_POINTS = {
    "linalg.hermitian_eig": lambda t: linalg.hermitian_eig(EYE, tol=t),
    "linalg.is_psd": lambda t: linalg.is_psd(EYE, tol=t),
    "linalg.block_psd_failure": lambda t: linalg.block_psd_failure(EYE, EYE, EYE, tol=t),
    "linalg.block_psd_check": lambda t: linalg.block_psd_check(EYE, EYE, EYE, tol=t),
    "linalg.inv_sqrt_psd": lambda t: linalg.inv_sqrt_psd(EYE, rtol=t),
    "cpm.choi_to_kraus": lambda t: cpm.choi_to_kraus(cpm.kraus_to_choi(IDENTITY), rtol=t),
    "cpm.kraus_rank": lambda t: cpm.kraus_rank(IDENTITY, rtol=t),
    "cpm.orthonormal_kraus": lambda t: cpm.orthonormal_kraus(IDENTITY, rtol=t),
    "cpm.is_trace_preserving": lambda t: cpm.is_trace_preserving(IDENTITY, tol=t),
    "cpm.channels_equal": lambda t: cpm.channels_equal(IDENTITY, IDENTITY, tol=t),
    "sp.is_sp_definition": lambda t: sp.is_sp_definition(SWAP, tol=t),
    "sp.is_sp_kraus_blocks": lambda t: sp.is_sp_kraus_blocks(SWAP, tol=t),
    "sp.split_kraus_blocks": lambda t: sp.split_kraus_blocks(IDENTITY, tol=t),
    "sp.is_sp_commutation": lambda t: sp.is_sp_commutation(SWAP, tol=t),
    "sp.is_sp_trace": lambda t: sp.is_sp_trace(IDENTITY, tol=t),
    "sp.sp_from_blocks": lambda t: sp.sp_from_blocks(unit_triple(), tol=t),
    "sp.blocks_from_sp": lambda t: sp.blocks_from_sp(IDENTITY, tol=t),
    "sp.random_sp_channel": lambda t: sp.random_sp_channel(C2, C2, 1, True, 0, rtol=t),
    "sp.sp_kraus_bound_holds.tol": lambda t: sp.sp_kraus_bound_holds(IDENTITY, tol=t),
    "sp.sp_kraus_bound_holds.rtol": lambda t: sp.sp_kraus_bound_holds(IDENTITY, rtol=t),
    "dilation.build_dilation.tol": lambda t: dilation.build_dilation(IDENTITY, tol=t),
    "dilation.build_dilation.rtol": lambda t: dilation.build_dilation(IDENTITY, rtol=t),
    "dilation.verify_dilation": lambda t: dilation.verify_dilation(
        dilation.build_dilation(IDENTITY), IDENTITY, tol=t
    ),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0], ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_meaningless_tolerance_is_refused(entry, value):
    with pytest.raises(SpcpmError, match="must be finite and > 0"):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_positive_tolerance_is_accepted(entry):
    ENTRY_POINTS[entry](1e-9)


@pytest.mark.parametrize("value", [1e-300, 1.0, 1e300, np.float64(1e-9)])
def test_check_tolerance_returns_valid_values(value):
    assert linalg.check_tolerance(value) == value


@pytest.mark.parametrize("value", [None, "1e-9", 1j])
def test_check_tolerance_refuses_non_numbers(value):
    with pytest.raises(SpcpmError, match="rtol must be"):
        linalg.check_tolerance(value, "rtol")
