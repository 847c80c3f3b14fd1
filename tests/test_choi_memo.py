"""One coefficient matrix per Kraus representation.

``kraus_to_choi`` returns a memo that a ``KrausRep`` builds on first use, so
the SP verifiers, the rank, the block extraction and channel equality all
read the same read-only matrix.  Frozen arrays are views of copies held in
immutable ``bytes``, so no caller can switch their writes back on, through
the array or through its base, and make the memo stale.
"""

from dataclasses import fields

import numpy as np
import pytest

from spcpm import serialize
from spcpm.cpm import ChoiRep, KrausRep, channels_equal, kraus_rank, kraus_to_choi
from spcpm.dilation import build_dilation
from spcpm.sp import (
    blocks_from_sp,
    commutation_violation,
    definition_violation,
    random_sp_channel,
    trace_violation,
)
from spcpm.spaces import DecomposedSpace
from test_sp import perturb_cross_block, tp_renormalized


def sp_channel(d1=2, d2=3, seed=1100):
    space = DecomposedSpace(d1, d2)
    return random_sp_channel(space, space, d1 * d1 + d2 * d2, True, seed)


def test_memo_is_shared_exact_and_read_only():
    rep = sp_channel()
    choi = kraus_to_choi(rep)
    assert kraus_to_choi(rep) is choi
    stacked = rep.ops.reshape(len(rep.ops), -1)
    assert choi.matrix.tobytes() == (stacked.T @ stacked.conj()).tobytes()
    assert not choi.matrix.flags.writeable


def test_memo_is_not_a_field_and_never_reaches_a_file():
    rep = sp_channel()
    before = (repr(rep), serialize.channel_to_obj(rep))
    kraus_to_choi(rep)
    assert "_choi" not in {f.name for f in fields(KrausRep)}
    assert (repr(rep), serialize.channel_to_obj(rep)) == before


def test_frozen_arrays_cannot_be_made_writeable():
    rep = sp_channel()
    choi = kraus_to_choi(rep)
    blocks = blocks_from_sp(rep)
    dil = build_dilation(rep)
    frozen = {
        "KrausRep.ops": rep.ops,
        "ChoiRep.matrix": choi.matrix,
        "SPBlockRep.block1": blocks.block1,
        "SPBlockRep.block2": blocks.block2,
        "SPBlockRep.cross": blocks.cross,
        "UnitaryDilation.a1": dil.a1,
        "UnitaryDilation.a2": dil.a2,
        # derived: fresh copies, held in bytes all the same
        "UnitaryDilation.u1": dil.u1,
        "UnitaryDilation.u2": dil.u2,
        "UnitaryDilation.u": dil.u,
        "UnitaryDilation.v1": dil.v1,
        "UnitaryDilation.v2": dil.v2,
    }
    for name, arr in frozen.items():
        chain = []
        while isinstance(arr, np.ndarray):  # the array, then each array it views
            chain.append(arr)
            arr = arr.base
        assert isinstance(arr, bytes), name
        for link in chain:
            assert not link.flags.writeable, name
            with pytest.raises(ValueError):
                link.setflags(write=True)
    stacked = rep.ops.reshape(len(rep.ops), -1)
    assert choi.matrix.tobytes() == (stacked.T @ stacked.conj()).tobytes()


def test_one_build_per_channel_across_the_readers(monkeypatch):
    rep = sp_channel()
    twin = tp_renormalized(perturb_cross_block(rep, np.random.default_rng(1101), 0.05))
    builds = []
    post_init = ChoiRep.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(ChoiRep, "__post_init__", counted)
    for route in (definition_violation, commutation_violation, trace_violation):
        route(rep)
        route(twin)
    assert kraus_rank(rep) == len(rep.ops)
    blocks_from_sp(rep)
    assert not channels_equal(rep, twin)
    assert len(builds) == 2
    assert builds[0] is kraus_to_choi(rep) and builds[1] is kraus_to_choi(twin)
