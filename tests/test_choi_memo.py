"""One coefficient matrix per Kraus representation, one decomposition per
coefficient matrix.

``kraus_to_choi`` returns a memo that a ``KrausRep`` builds on first use, so
the SP verifiers, the rank, the block extraction and channel equality all
read the same read-only matrix.  A ``ChoiRep`` in turn keeps its kept
eigenvalues and gauged operators, which ``choi_to_kraus`` and
``orthonormal_kraus`` read and ``sp_from_blocks`` reads as its gate.
Frozen arrays are views of copies held in immutable ``bytes``, so no caller
can switch their writes back on, through the array or through its base, and
make a memo stale.
"""

from dataclasses import fields

import numpy as np
import pytest

from spcpm import serialize
from spcpm.cpm import (
    ChoiRep,
    KrausRep,
    channels_equal,
    choi_to_kraus,
    kraus_rank,
    kraus_to_choi,
    orthonormal_kraus,
)
from spcpm.dilation import build_dilation
from spcpm.sp import (
    blocks_from_sp,
    commutation_violation,
    definition_violation,
    random_sp_channel,
    sp_from_blocks,
    trace_violation,
)
from spcpm.spaces import DecomposedSpace
from channel_helpers import perturb_cross_block, tp_renormalized


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


def assert_frozen(arr, name):
    chain = []
    while isinstance(arr, np.ndarray):  # the array, then each array it views
        chain.append(arr)
        arr = arr.base
    assert isinstance(arr, bytes), name
    for link in chain:
        assert not link.flags.writeable, name
        with pytest.raises(ValueError):
            link.setflags(write=True)


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
        assert_frozen(arr, name)
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


def test_choi_memo_is_not_a_field_and_never_reaches_a_file():
    rep = sp_channel()
    choi = ChoiRep(rep.source, rep.target, kraus_to_choi(rep).matrix)
    before = (repr(choi), serialize.choi_to_obj(choi))
    choi_to_kraus(choi)
    assert "_spectrum" in vars(choi)  # the memo is set ...
    assert "_spectrum" not in {f.name for f in fields(ChoiRep)}  # ... but no field
    assert (repr(choi), serialize.choi_to_obj(choi)) == before
    # generation's gate leaves the memo made, invisibly in the same way
    generated = sp_from_blocks(blocks_from_sp(rep))
    assert "_spectrum" in vars(generated)
    fresh = ChoiRep(rep.source, rep.target, generated.matrix)
    assert repr(generated) == repr(fresh)
    assert serialize.choi_to_obj(generated) == serialize.choi_to_obj(fresh)


def test_choi_memo_holds_only_the_kept_pairs_read_only():
    rep = sp_channel()  # 2+3, full rank 13 on 13 of the 25 units
    choi = kraus_to_choi(rep)
    for owner in (choi, sp_from_blocks(blocks_from_sp(rep))):
        choi_to_kraus(owner)
        w, mats = vars(owner)["_spectrum"]
        assert w.shape == (13,) and mats.shape == (13, 5, 5)
        assert_frozen(w, "memo eigenvalues")
        assert_frozen(mats, "memo operators")
    pairs = orthonormal_kraus(rep)
    w, mats = vars(choi)["_spectrum"]
    assert [r for r, _ in pairs] == list(w)
    for n, (_, y) in enumerate(pairs):
        assert np.shares_memory(y, mats)  # views of the memo, not copies
        assert_frozen(y, f"Y_{n}")
    zero = ChoiRep(rep.source, rep.target, np.zeros((25, 25)))
    assert orthonormal_kraus(choi_to_kraus(zero)) == []
    for arr in vars(zero)["_spectrum"]:
        assert_frozen(arr, "zero-channel memo")
