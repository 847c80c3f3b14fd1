"""Tests for the unitary dilation of trace-preserving SP channels."""

import numpy as np
import pytest

from spcpm import serialize
from spcpm.cpm import (
    KrausRep,
    apply,
    channels_equal,
    choi_to_kraus,
    kraus_rank,
    kraus_to_choi,
)
from spcpm.dilation import (
    UnitaryDilation,
    _unitarity_defects,
    apply_dilation,
    build_dilation,
    kraus_from_dilation,
    verify_dilation,
)
from spcpm.errors import (
    NotSPError,
    NotTracePreservingError,
    SourceTargetMismatchError,
    SpcpmError,
)
from spcpm.sp import is_sp_definition, random_sp_channel, split_kraus_blocks
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dephasing_channel(p):
    ops = (np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * np.diag([1.0, -1.0]))
    return KrausRep(C2, C2, ops)


def unit(d, i, j):
    e = np.zeros((d, d), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def full_rank_tp_channel(d1, d2, seed):
    space = DecomposedSpace(d1, d2)
    return random_sp_channel(space, space, d1 * d1 + d2 * d2, True, seed)


def legacy_obj(dil, u):
    """A dilation object in the legacy layout: the full ``u`` instead of the
    two blocks ``u1`` and ``u2``."""
    obj = serialize.dilation_to_obj(dil)
    del obj["u1"], obj["u2"]
    obj["u"] = serialize.encode_matrix(u)
    return obj


def with_off_block_entry(dil, value, lower=False):
    """``dil.u`` with one entry of its off-block part set to ``value``."""
    u, n1 = dil.u.copy(), dil.u1.shape[0]
    u[(n1, 0) if lower else (0, n1)] = value
    return u


OFF_BLOCK = "nonzero entries off its two diagonal blocks"


def reference_dilation(rep):
    """The Kronecker-sum construction, term by term:

        V_i = P_i x I - P_i x |0><0| - sum_{k,k'} V_{i,k} V_{i,k'}† x |k><k'|
              + sum_k V_{i,k} x |k><0| + sum_k V_{i,k}† x |0><k|,

    as K^2 + 2K full n x n Kronecker products.  Returns (u, v1, v2)."""
    minimal = choi_to_kraus(kraus_to_choi(rep))
    split1, split2 = split_kraus_blocks(minimal)
    anc = len(minimal.ops) + 1
    space = rep.source
    parts = []
    for block, pieces in ((1, split1), (2, split2)):
        proj = space.projector(block)
        v = np.kron(proj, np.eye(anc)) - np.kron(proj, unit(anc, 0, 0))
        for row, piece_r in enumerate(pieces, start=1):
            for col, piece_c in enumerate(pieces, start=1):
                v -= np.kron(piece_r @ piece_c.conj().T, unit(anc, row, col))
        for k, piece in enumerate(pieces, start=1):
            v += np.kron(piece, unit(anc, k, 0))
            v += np.kron(piece.conj().T, unit(anc, 0, k))
        parts.append(v)
    v1, v2 = parts
    return v1 + v2, v1, v2


class TestBuildDilation:
    def test_identity_channel(self):
        dil = build_dilation(KrausRep(C2, C2, (np.eye(2),)))
        assert dil.ancilla_dim == 2
        n = 4
        assert np.linalg.norm(dil.u.conj().T @ dil.u - np.eye(n)) <= 1e-12
        rng = np.random.default_rng(200)
        q = crandn(rng, 2, 2)
        np.testing.assert_allclose(apply_dilation(dil, q), q, atol=1e-12)

    def test_dephasing_channel(self):
        p = 0.75
        rep = dephasing_channel(p)
        dil = build_dilation(rep)
        assert kraus_rank(rep) == 2
        assert dil.ancilla_dim == 3
        n = 6
        assert np.linalg.norm(dil.u - (dil.v1 + dil.v2)) <= 1e-12
        assert np.linalg.norm(dil.u.conj().T @ dil.u - np.eye(n)) <= 1e-9
        for block, v in ((1, dil.v1), (2, dil.v2)):
            support = np.kron(C2.projector(block), np.eye(3))
            assert np.linalg.norm(v @ v.conj().T - support) <= 1e-9
            assert np.linalg.norm(v.conj().T @ v - support) <= 1e-9

    def test_dephasing_action_on_coherence(self):
        p = 0.75
        dil = build_dilation(dephasing_channel(p))
        out = apply_dilation(dil, unit(2, 0, 1))
        np.testing.assert_allclose(out, (2 * p - 1) * unit(2, 0, 1), atol=1e-12)

    def test_random_tp_sp_channels(self):
        space = DecomposedSpace(2, 2)
        for seed in range(5):
            rep = random_sp_channel(space, space, 2, True, 900 + seed)
            dil = build_dilation(rep)
            assert dil.ancilla_dim == kraus_rank(rep) + 1
            for i in range(space.dim):
                for j in range(space.dim):
                    q = unit(space.dim, i, j)
                    assert (
                        np.linalg.norm(apply_dilation(dil, q) - apply(rep, q)) <= 1e-9
                    )

    def test_ancilla_is_minimized_for_redundant_lists(self):
        # duplicated operators collapse to a single one before dilation
        rep = KrausRep(C2, C2, (np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)))
        dil = build_dilation(rep)
        assert dil.ancilla_dim == 2

    def test_rejects_non_tp(self):
        with pytest.raises(NotTracePreservingError):
            build_dilation(KrausRep(C2, C2, (np.eye(2) / 2,)))

    def test_rejects_non_sp(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotSPError):
            build_dilation(KrausRep(C2, C2, (swap,)))

    def test_rejects_mismatched_decompositions(self):
        src, tgt = DecomposedSpace(1, 2), DecomposedSpace(2, 1)
        rep = random_sp_channel(src, tgt, 3, True, 901)
        with pytest.raises(SourceTargetMismatchError):
            build_dilation(rep)


class TestApplyDilation:
    def test_trace_preserved(self):
        rng = np.random.default_rng(202)
        rep = random_sp_channel(DecomposedSpace(1, 2), DecomposedSpace(1, 2), 2, True, 902)
        dil = build_dilation(rep)
        q = crandn(rng, 3, 3)
        assert abs(np.trace(apply_dilation(dil, q)) - np.trace(q)) <= 1e-12

    def test_support_condition(self):
        rep = random_sp_channel(DecomposedSpace(2, 2), DecomposedSpace(2, 2), 3, True, 903)
        dil = build_dilation(rep)
        for block, v in ((1, dil.v1), (2, dil.v2)):
            support = np.kron(dil.space.projector(block), np.eye(dil.ancilla_dim))
            assert np.linalg.norm(support @ v @ support - v) <= 1e-9


class TestVerifyDilation:
    def test_accepts_construction(self):
        rep = random_sp_channel(DecomposedSpace(2, 1), DecomposedSpace(2, 1), 2, True, 904)
        dil = build_dilation(rep)
        assert verify_dilation(dil, rep)

    def test_rejects_block_mixing_unitary(self):
        # a unitary that moves weight between blocks has no two-block form:
        # only a legacy full-u file can hold one, and its reader refuses it
        dil = build_dilation(KrausRep(C2, C2, (np.eye(2),)))
        swap_sys = np.array([[0.0, 1.0], [1.0, 0.0]])
        for u in (np.kron(swap_sys, np.eye(2)), with_off_block_entry(dil, 1.0)):
            with pytest.raises(SpcpmError, match=OFF_BLOCK):
                serialize.dilation_from_obj(legacy_obj(dil, u))

    def test_rejects_perturbed_unitary(self):
        rng = np.random.default_rng(203)
        rep = dephasing_channel(0.5)
        dil = build_dilation(rep)
        noisy = [u_i + 1e-3 * crandn(rng, *u_i.shape) for u_i in (dil.u1, dil.u2)]
        tampered = UnitaryDilation(dil.space, dil.ancilla_dim, *noisy)
        assert not verify_dilation(tampered, rep, 1e-9)
        # noise off the blocks can only come from a legacy full-u file
        with pytest.raises(SpcpmError, match=OFF_BLOCK):
            serialize.dilation_from_obj(legacy_obj(dil, with_off_block_entry(dil, 1e-3j)))

    def test_rejects_wrong_channel(self):
        rep = KrausRep(C2, C2, (np.eye(2),))
        dil = build_dilation(rep)
        other = dephasing_channel(0.25)
        assert not verify_dilation(dil, other)

    def test_induced_channel_matches_and_is_sp(self):
        rep = random_sp_channel(DecomposedSpace(2, 2), DecomposedSpace(2, 2), 2, True, 905)
        dil = build_dilation(rep)
        induced = kraus_from_dilation(dil)
        assert channels_equal(induced, rep, 1e-9)
        assert is_sp_definition(induced)


@pytest.mark.parametrize("d1,d2", [(1, 3), (3, 1), (2, 2), (3, 3), (4, 4)])
def test_slice_writes_match_kronecker_sum(d1, d2):
    rep = full_rank_tp_channel(d1, d2, 950 + 10 * d1 + d2)
    dil = build_dilation(rep)
    u, v1, v2 = reference_dilation(rep)
    assert dil.u.shape == u.shape
    assert np.max(np.abs(dil.u - u)) <= 1e-14
    assert np.max(np.abs(dil.v1 - v1)) <= 1e-14
    assert np.max(np.abs(dil.v2 - v2)) <= 1e-14


def test_blocks_are_exact_slices_of_u():
    dil = build_dilation(full_rank_tp_channel(2, 3, 960))
    # no off-block entry at all, so the two blocks add up to u bit-exactly
    assert np.array_equal(dil.v1 + dil.v2, dil.u)
    n1 = dil.u1.shape[0]
    assert dil.u[:n1, :n1].tobytes() == dil.u1.tobytes()
    assert dil.u[n1:, n1:].tobytes() == dil.u2.tobytes()
    for m in (dil.u, dil.v1, dil.v2, dil.u1, dil.u2):
        assert not m.flags.writeable


@pytest.mark.parametrize("d1,d2", [(1, 3), (3, 1), (2, 2)])
def test_block_defects_give_the_full_size_defects(d1, d2):
    # U = u1 (+) u2, so the defects of the full-size U†U and UU† are the
    # hypot of the blocks' defects; the full-size products are the reference
    rep = full_rank_tp_channel(d1, d2, 970 + 10 * d1 + d2)
    dil = build_dilation(rep)
    rng = np.random.default_rng(971)
    tampered = [
        UnitaryDilation(dil.space, dil.ancilla_dim, u1, u2)
        for u1, u2 in (
            (dil.u1 + 1e-3 * crandn(rng, *dil.u1.shape), dil.u2),
            (dil.u1, (1 + 1e-6) * dil.u2),
            (dil.u1 @ dil.u1, 0.5 * dil.u2),
        )
    ]
    for case in (dil, *tampered):
        full = _unitarity_defects(case.u)
        blocks = np.hypot(_unitarity_defects(case.u1), _unitarity_defects(case.u2))
        assert np.max(np.abs(full - blocks)) <= 1e-12
    assert all(_unitarity_defects(t.u).max() > 1e-6 for t in tampered)
    assert verify_dilation(dil, rep)
    assert not any(verify_dilation(t, rep) for t in tampered)


def test_new_files_hold_the_two_blocks_bit_exactly(tmp_path):
    dil = build_dilation(full_rank_tp_channel(2, 3, 972))
    path = tmp_path / "dil.json"
    serialize.write_file(path, serialize.dilation_to_obj(dil))
    obj = serialize.read_file(path)
    assert obj["format"] == "spcpm/3"
    assert set(obj) == {"format", "kind", "dims", "ancilla_dim", "u1", "u2"}
    anc = dil.ancilla_dim
    assert [obj["u1"]["rows"], obj["u2"]["rows"]] == [2 * anc, 3 * anc]
    back = serialize.dilation_from_obj(obj)
    assert back.u1.tobytes() == dil.u1.tobytes()
    assert back.u2.tobytes() == dil.u2.tobytes()


class TestLegacyReader:
    def test_reads_the_blocks_of_a_full_u(self):
        dil = build_dilation(full_rank_tp_channel(1, 2, 973))
        # signed zeros off the blocks count as zero
        u = with_off_block_entry(dil, complex(-0.0, -0.0), lower=True)
        back = serialize.dilation_from_obj(legacy_obj(dil, u))
        assert back.u1.tobytes() == dil.u1.tobytes()
        assert back.u2.tobytes() == dil.u2.tobytes()

    @pytest.mark.parametrize(
        "keys", [("u", "u1", "u2"), ("u", "u1"), ("u", "u2"), ()], ids=repr
    )
    def test_refuses_both_layouts_or_neither(self, keys):
        dil = build_dilation(dephasing_channel(0.5))
        full = legacy_obj(dil, dil.u)
        obj = {**full, **serialize.dilation_to_obj(dil)}
        for key in {"u", "u1", "u2"} - set(keys):
            del obj[key]
        with pytest.raises(SpcpmError, match="either u1 and u2 or a legacy u"):
            serialize.dilation_from_obj(obj)

    def test_refuses_a_full_u_of_the_wrong_size(self):
        dil = build_dilation(dephasing_channel(0.5))
        with pytest.raises(SpcpmError, match=r"u has shape \(4, 4\), expected \(6, 6\)"):
            serialize.dilation_from_obj(legacy_obj(dil, np.eye(4)))


def test_six_plus_six_full_rank(tmp_path):
    rep = full_rank_tp_channel(6, 6, 961)
    dil = build_dilation(rep)
    assert dil.ancilla_dim == 73
    assert verify_dilation(dil, rep)
    path = tmp_path / "dil66.json"
    serialize.write_file(path, serialize.dilation_to_obj(dil))
    back = serialize.dilation_from_obj(serialize.read_file(path))
    assert back.space == dil.space and back.ancilla_dim == dil.ancilla_dim
    assert back.u.tobytes() == dil.u.tobytes()


class TestAuditBySlices:
    def test_rejects_off_block_noise(self):
        # the off-block part is zero by representation; a legacy full-u file
        # with any nonzero entry there, however small, is refused on reading
        dil = build_dilation(full_rank_tp_channel(2, 2, 962))
        for value in (1e-7, 1e-7j, 5e-324):
            for lower in (False, True):
                u = with_off_block_entry(dil, value, lower)
                with pytest.raises(SpcpmError, match=OFF_BLOCK):
                    serialize.dilation_from_obj(legacy_obj(dil, u))

    def test_rejects_non_unitary_block(self):
        rep = dephasing_channel(0.5)
        dil = build_dilation(rep)
        # scale block 2 only
        tampered = UnitaryDilation(dil.space, dil.ancilla_dim, dil.u1, (1 + 1e-6) * dil.u2)
        assert verify_dilation(dil, rep)
        assert not verify_dilation(tampered, rep)

    @pytest.mark.parametrize("block", [1, 2])
    def test_rejects_a_non_unitary_block_that_induces_the_same_channel(self, block):
        # only the reference column of U reaches the channel: scaling the
        # ancilla blocks k, k' >= 1 of one u_i leaves the induced channel
        # unchanged, so only the unitarity check can see it
        rep = full_rank_tp_channel(2, 1, 966)
        dil = build_dilation(rep)
        anc = dil.ancilla_dim
        blocks = [dil.u1.copy(), dil.u2.copy()]
        db = blocks[block - 1].shape[0] // anc
        blocks[block - 1].reshape(db, anc, db, anc)[:, 1:, :, 1:] *= 1 + 1e-6
        tampered = UnitaryDilation(dil.space, anc, *blocks)
        assert channels_equal(kraus_from_dilation(tampered), rep, 1e-12)
        assert verify_dilation(dil, rep)
        assert not verify_dilation(tampered, rep)

    def test_agreement_matches_unit_by_unit_loop(self):
        # the Choi-difference residual is the worst per-unit image difference
        rep = full_rank_tp_channel(2, 1, 964)
        other = full_rank_tp_channel(2, 1, 965)
        dil = build_dilation(rep)
        d = dil.space.dim
        loop = max(
            np.linalg.norm(apply_dilation(dil, unit(d, a, b)) - apply(other, unit(d, a, b)))
            for a in range(d)
            for b in range(d)
        )
        assert loop > 1e-3
        assert verify_dilation(dil, other, 0.999 * loop) is False
        assert verify_dilation(dil, other, 1.001 * loop) is True

    def test_apply_rejects_non_finite_input(self):
        dil = build_dilation(dephasing_channel(0.5))
        with pytest.raises(ValueError, match="finite"):
            apply_dilation(dil, np.array([[1.0, np.nan], [0.0, 1.0]]))
