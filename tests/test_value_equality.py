"""``==`` and ``hash`` of the four representation types compare bits.

Two objects are equal when their type, spaces, array shapes and array bytes
are; ``hash`` agrees with ``==``, and neither raises.  The memos (the
coefficient matrix of a ``KrausRep``, the spectrum of a ``ChoiRep``, the
induced Kraus list of a dilation) take no part.  Channel equality is
``channels_equal``, which these tests contrast with ``==``.
"""

import numpy as np
import pytest

from spcpm import serialize
from spcpm.cpm import (
    ChoiRep,
    KrausRep,
    channels_equal,
    choi_to_kraus,
    kraus_to_choi,
    orthonormal_kraus,
)
from spcpm.dilation import UnitaryDilation, build_dilation, kraus_from_dilation
from spcpm.sp import SPBlockRep, blocks_from_sp, random_sp_channel
from spcpm.spaces import DecomposedSpace
from channel_helpers import unitary_mix

PAIRS = [((1, 1), (1, 1)), ((2, 3), (2, 3)), ((1, 2), (2, 1))]
IDS = ["1+1", "2+3", "1+2->2+1"]


def changed(arr, index=-1):
    """A copy of ``arr`` with one entry moved by one unit in the last place."""
    out = np.array(arr)
    flat = out.reshape(-1)
    flat[index] = np.nextafter(flat[index].real, np.inf) + 1j * flat[index].imag
    return out


def representations(src, tgt):
    """One object of each type, each with a rebuild from fresh copies of the
    same arrays, and unequal objects differing in one field each."""
    source, target = DecomposedSpace(*src), DecomposedSpace(*tgt)
    swapped = DecomposedSpace(src[1], src[0])
    rep = random_sp_channel(source, target, 3, True, 17)
    choi = kraus_to_choi(rep)
    blocks = blocks_from_sp(rep)
    cases = [
        (
            rep,
            KrausRep(source, target, np.array(rep.ops)),
            [
                KrausRep(source, target, changed(rep.ops)),
                KrausRep(source, target, rep.ops[:-1]),
            ],
        ),
        (
            choi,
            ChoiRep(source, target, np.array(choi.matrix)),
            [ChoiRep(source, target, changed(choi.matrix))],
        ),
        (
            blocks,
            SPBlockRep(
                source, target, *map(np.array, (blocks.block1, blocks.block2, blocks.cross))
            ),
            [
                SPBlockRep(source, target, blocks.block1, blocks.block2, changed(blocks.cross)),
                SPBlockRep(source, target, changed(blocks.block1), blocks.block2, blocks.cross),
            ],
        ),
    ]
    if src != tuple(reversed(src)):
        # the same arrays between spaces of the same dimension, split otherwise
        cases[0][2].append(KrausRep(swapped, target, rep.ops))
        cases[1][2].append(ChoiRep(swapped, target, choi.matrix))
    if src == tgt:
        dil = build_dilation(rep)
        cases.append(
            (
                dil,
                UnitaryDilation(source, np.array(dil.a1), np.array(dil.a2)),
                [
                    UnitaryDilation(source, dil.a1, changed(dil.a2)),
                    UnitaryDilation(source, changed(dil.a1, 0), dil.a2),
                ],
            )
        )
    return cases


@pytest.mark.parametrize("src,tgt", PAIRS, ids=IDS)
def test_equal_objects_compare_and_hash_equal(src, tgt):
    for obj, rebuilt, _ in representations(src, tgt):
        assert obj is not rebuilt
        assert obj == rebuilt and not obj != rebuilt
        assert hash(obj) == hash(rebuilt)
        assert len({obj, rebuilt}) == 1


@pytest.mark.parametrize("src,tgt", PAIRS, ids=IDS)
def test_objects_differing_in_one_field_compare_unequal(src, tgt):
    for obj, _, others in representations(src, tgt):
        for other in others:
            assert obj != other and not obj == other
            assert other != obj
            assert len({obj, other}) == 2


def test_types_and_signed_zeros_are_told_apart():
    space = DecomposedSpace(1, 1)
    ident = KrausRep(space, space, (np.eye(2),))
    assert ident != ChoiRep(space, space, kraus_to_choi(ident).matrix)
    assert ident != np.eye(2) and not ident == np.eye(2)
    assert ident != space
    negated_zero = KrausRep(space, space, (np.eye(2) * np.array([[1.0, -0.0], [0.0, 1.0]]),))
    assert negated_zero != ident
    assert channels_equal(negated_zero, ident)


def test_memos_take_no_part():
    space = DecomposedSpace(2, 2)
    rep = random_sp_channel(space, space, 4, True, 23)
    fresh = KrausRep(space, space, rep.ops)
    before = hash(rep)
    choi = kraus_to_choi(rep)
    orthonormal_kraus(rep)
    assert rep == fresh and hash(rep) == before == hash(fresh)
    assert choi == ChoiRep(space, space, choi.matrix)
    dil = build_dilation(rep)
    kraus_from_dilation(dil)
    assert dil == UnitaryDilation(space, dil.a1, dil.a2)


def test_the_same_channel_in_another_list_is_channel_equal_only():
    space = DecomposedSpace(2, 3)
    rep = random_sp_channel(space, space, 3, True, 29)
    u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
    mixed = unitary_mix(rep, u)
    assert mixed != rep
    assert channels_equal(mixed, rep)
    assert choi_to_kraus(kraus_to_choi(rep)) != rep


@pytest.mark.parametrize("src,tgt", PAIRS, ids=IDS)
def test_file_round_trip_is_equal_for_every_kind(src, tgt, tmp_path):
    codecs = {
        KrausRep: (serialize.channel_to_obj, serialize.channel_from_obj),
        ChoiRep: (serialize.choi_to_obj, serialize.choi_from_obj),
        SPBlockRep: (serialize.blocks_to_obj, serialize.blocks_from_obj),
        UnitaryDilation: (serialize.dilation_to_obj, serialize.dilation_from_obj),
    }
    path = tmp_path / "obj.json"
    seen = set()
    for obj, _, _ in representations(src, tgt):
        to_obj, from_obj = codecs[type(obj)]
        serialize.write_file(path, to_obj(obj))
        back = from_obj(serialize.read_file(path))
        assert back == obj and hash(back) == hash(obj)
        seen.add(type(obj))
    assert len(seen) == (4 if src == tgt else 3)
