"""Tests for the unitary dilation of trace-preserving SP channels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcpm import serialize
from spcpm.cli import main
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
    _dilation_failure,
    _isometry_defect,
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
from channel_helpers import crandn, dephasing_channel, full_rank_tp_channel, unit

C2 = DecomposedSpace(1, 1)


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    """(||M†M - I||_F, ||MM† - I||_F), from the full-size products."""
    eye = np.eye(m.shape[0])
    return np.array(
        [np.linalg.norm(m.conj().T @ m - eye), np.linalg.norm(m @ m.conj().T - eye)]
    )


def full_size_defect(dil):
    """U's unitarity defect from the full-size products of the derived blocks."""
    return np.hypot(_unitarity_defects(dil.u1), _unitarity_defects(dil.u2)).max()


def stack_defect(dil):
    return np.hypot(_isometry_defect(dil.a1), _isometry_defect(dil.a2))


def tampered(dil, a1=None, a2=None):
    """``dil`` with one or both piece stacks replaced."""
    return UnitaryDilation(
        dil.space, dil.a1 if a1 is None else a1, dil.a2 if a2 is None else a2
    )


def parent_blocks(rep):
    """u1 and u2 as the builder wrote them when it stored the blocks
    themselves: the same slice writes, from views of the minimal list."""
    minimal = choi_to_kraus(kraus_to_choi(rep))
    space, anc = rep.source, len(minimal.ops) + 1
    blocks = []
    for block in (1, 2):
        sb, db = space.block_slice(block), space.block_dim(block)
        pieces = minimal.ops[:, sb, sb]
        u4 = np.zeros((db, anc, db, anc), dtype=np.complex128)
        u4[:, 1:, :, 1:] = -np.einsum(
            "rij,clj->irlc", pieces, pieces.conj(), optimize=True
        )
        np.einsum("iaia->ia", u4)[:, 1:] += 1.0
        u4[:, 1:, :, 0] = pieces.transpose(1, 0, 2)
        u4[:, 0, :, 1:] = pieces.conj().transpose(2, 1, 0)
        blocks.append(u4.reshape(db * anc, db * anc))
    return blocks


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

    def test_rejects_perturbed_unitary(self):
        rng = np.random.default_rng(203)
        rep = dephasing_channel(0.5)
        dil = build_dilation(rep)
        noisy = [a + 1e-3 * crandn(rng, *a.shape) for a in (dil.a1, dil.a2)]
        assert verify_dilation(dil, rep, 1e-9)
        assert not verify_dilation(tampered(dil, *noisy), rep, 1e-9)

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
    # the defect read from the d_i x d_i Gram matrices is the one of the
    # full-size U†U and UU†; the full-size products are the reference
    rep = full_rank_tp_channel(d1, d2, 970 + 10 * d1 + d2)
    dil = build_dilation(rep)
    rng = np.random.default_rng(971)
    bad = [
        tampered(dil, a1=dil.a1 + 1e-3 * crandn(rng, *dil.a1.shape)),
        tampered(dil, a2=(1 + 1e-6) * dil.a2),
        tampered(dil, a1=2 * dil.a1, a2=0.5 * dil.a2),
    ]
    for case in (dil, *bad):
        full = _unitarity_defects(case.u)
        assert np.max(np.abs(full - stack_defect(case))) <= 1e-12 * max(1, full.max())
    assert all(stack_defect(t) > 1e-6 for t in bad)
    assert verify_dilation(dil, rep)
    assert not any(verify_dilation(t, rep) for t in bad)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    split=st.sampled_from([(1, 7), (7, 1), (3, 3)]),
    seed=st.integers(0, 2**16),
    scale=st.floats(-6, 0.5),
    noise=st.floats(-9, -1),
)
def test_stack_defect_equals_the_full_size_defect(split, seed, scale, noise):
    # a scaled and perturbed stack, from far below to far above the
    # tolerance: the d_i-size identity against the full-size products
    d1, d2 = split
    space = DecomposedSpace(d1, d2)
    dil = build_dilation(random_sp_channel(space, space, 3, True, seed))
    rng = np.random.default_rng(seed)
    a1 = (1 + 10.0**scale) * dil.a1
    a2 = dil.a2 + 10.0**noise * crandn(rng, *dil.a2.shape)
    for case in (dil, tampered(dil, a1=a1), tampered(dil, a2=a2), tampered(dil, a1, a2)):
        full = full_size_defect(case)
        assert abs(stack_defect(case) - full) <= 1e-12 * max(1, full)


@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 3), (1, 3), (6, 6)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derived_blocks_are_bit_identical_to_stored_blocks(d1, d2, seed):
    # the blocks rebuilt from the stacks carry the bits the builder wrote
    # when it stored them, and the rest of the unitary follows from them
    rep = full_rank_tp_channel(d1, d2, seed)
    dil = build_dilation(rep)
    u1, u2 = parent_blocks(rep)
    assert dil.u1.tobytes() == u1.tobytes()
    assert dil.u2.tobytes() == u2.tobytes()
    zero = np.zeros((u1.shape[0], u2.shape[0]))
    assert dil.u.tobytes() == np.block([[u1, zero], [zero.T, u2]]).tobytes()


def test_new_files_hold_the_two_stacks_bit_exactly(tmp_path):
    dil = build_dilation(full_rank_tp_channel(2, 3, 972))
    path = tmp_path / "dil.json"
    serialize.write_file(path, serialize.dilation_to_obj(dil))
    obj = serialize.read_file(path)
    assert obj["format"] == "spcpm/4"
    assert set(obj) == {"format", "kind", "dims", "a1", "a2"}
    k = dil.ancilla_dim - 1
    assert [(obj[a]["rows"], obj[a]["cols"]) for a in ("a1", "a2")] == [(2 * k, 2), (3 * k, 3)]
    back = serialize.dilation_from_obj(obj)
    assert back.a1.tobytes() == dil.a1.tobytes()
    assert back.a2.tobytes() == dil.a2.tobytes()
    assert back.u.tobytes() == dil.u.tobytes()


def test_induced_operators_are_the_stacks_after_a_zero_reference_operator():
    dil = build_dilation(full_rank_tp_channel(2, 3, 974))
    ops = kraus_from_dilation(dil).ops
    assert len(ops) == dil.ancilla_dim and not np.any(ops[0])
    assert ops[1:, :2, :2].tobytes() == dil.a1.tobytes()
    assert ops[1:, 2:, 2:].tobytes() == dil.a2.tobytes()
    assert not np.any(ops[:, :2, 2:]) and not np.any(ops[:, 2:, :2])


def test_induced_kraus_list_is_derived_once():
    dil = build_dilation(full_rank_tp_channel(2, 3, 975))
    assert kraus_from_dilation(dil) is kraus_from_dilation(dil)


def test_apply_after_the_audit_builds_no_kraus_list(monkeypatch):
    # the audit derives the induced list; applying the dilation reads it
    rep = full_rank_tp_channel(2, 2, 976)
    dil = build_dilation(rep)
    assert verify_dilation(dil, rep)
    built = []
    post_init = KrausRep.__post_init__
    monkeypatch.setattr(
        KrausRep, "__post_init__", lambda self: (built.append(self), post_init(self))
    )
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
    out = apply_dilation(dil, rho)
    assert built == []
    assert out.tobytes() == apply(kraus_from_dilation(dil), rho).tobytes()
    assert np.allclose(out, apply(rep, rho), atol=1e-12)


@pytest.mark.parametrize(
    "rep",
    [
        KrausRep(C2, C2, (np.eye(2),)),
        full_rank_tp_channel(2, 3, 977),
    ],
    ids=["1+1", "2+3"],
)
def test_the_induced_list_is_no_part_of_the_dilation(tmp_path, rep):
    # the memo is not a field: equality, repr and the file ignore it
    dil = build_dilation(rep)
    obj, text = serialize.dilation_to_obj(dil), repr(dil)
    kraus_from_dilation(dil)
    assert [f.name for f in dataclasses.fields(dil)] == ["space", "a1", "a2"]
    assert repr(dil) == text
    assert serialize.dilation_to_obj(dil) == obj
    path = tmp_path / "dil.json"
    serialize.write_file(path, serialize.dilation_to_obj(dil))
    read = serialize.read_file(path)
    assert list(read) == list(obj) == ["format", "kind", "dims", "a1", "a2"]
    back = serialize.dilation_from_obj(read)
    assert back.space == dil.space
    assert back.a1.tobytes() == dil.a1.tobytes()
    assert back.a2.tobytes() == dil.a2.tobytes()
    if dil.ancilla_dim == 2:
        # one piece of one entry per block, so the generated == can compare
        # the stacks; it raises on larger ones
        assert back == dil and dil == back


def norm_formula_agreement(dil, rep):
    """The audit's agreement residual as ``np.linalg.norm(axis=(0, 2))``."""
    d = dil.space.dim
    diff = kraus_to_choi(kraus_from_dilation(dil)).matrix - kraus_to_choi(rep).matrix
    return float(np.linalg.norm(diff.reshape(d, d, d, d), axis=(0, 2)).max())


def block_rotation(rng, db, angle):
    """A unitary exp(i angle H) on a block, H a random Hermitian matrix."""
    h = crandn(rng, db, db)
    w, v = np.linalg.eigh(h + h.conj().T)
    return (v * np.exp(1j * angle * w)) @ v.conj().T


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([(1, 1), (2, 2), (3, 3), (1, 3), (2, 1)]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["dilation", "channel"]),
    st.floats(-8.0, 0.0),
)
def test_agreement_residual_keeps_the_bits_of_the_norm_formula(split, seed, perturbed, size):
    # a dilation whose stacks are turned by a block unitary stays a unitary
    # but induces another channel; a noisy channel is not the one dilated
    rng = np.random.default_rng(seed)
    rep = full_rank_tp_channel(*split, seed)
    dil = build_dilation(rep)
    if perturbed == "dilation":
        dil = tampered(dil, a1=dil.a1 @ block_rotation(rng, split[0], 10.0**size))
    else:
        rep = KrausRep(rep.source, rep.target, rep.ops + 10.0**size * crandn(rng, *rep.ops.shape))
    condition, residual = _dilation_failure(dil, rep, 1e-12)
    assert condition == "agreement"
    assert np.float64(residual).tobytes() == np.float64(norm_formula_agreement(dil, rep)).tobytes()


class TestStackReader:
    @pytest.mark.parametrize(
        "a1,a2,match",
        [
            (np.zeros((3, 2)), np.zeros((2, 1)), r"a1 has shape \(3, 2\), expected \(K·2, 2\)"),
            (np.zeros((4, 1)), np.zeros((2, 1)), r"a1 has shape \(4, 1\), expected \(K·2, 2\)"),
            (np.zeros((4, 2)), np.zeros((2, 2)), r"a2 has shape \(2, 2\), expected \(K·1, 1\)"),
            (np.zeros((4, 2)), np.zeros((3, 1)), "a1 and a2 hold 2 and 3 pieces"),
            # more pieces than any minimal list: refused before a
            # (d_i·(K+1))-square block can be derived
            (np.zeros((12, 2)), np.zeros((6, 1)), r"holds 6 pieces per block, more than d1² \+ d2² = 5"),
        ],
        ids=["rows", "cols-a1", "cols-a2", "lengths", "too-many"],
    )
    def test_refuses_stacks_of_the_wrong_shape(self, a1, a2, match):
        obj = serialize.dilation_to_obj(build_dilation(full_rank_tp_channel(2, 1, 973)))
        obj["a1"], obj["a2"] = serialize.encode_matrix(a1), serialize.encode_matrix(a2)
        with pytest.raises(SpcpmError, match=match):
            serialize.dilation_from_obj(obj)

    @pytest.mark.parametrize(
        "drop, old_keys",
        [(("a1",), ()), (("a2",), ()), (("a1", "a2"), ("u",)), (("a1", "a2"), ("u1", "u2"))],
        ids=["a1", "a2", "full-u", "u1-u2"],
    )
    def test_refuses_a_missing_stack(self, drop, old_keys):
        # an object in an older layout (a full u, or the blocks u1 and u2)
        # lacks the stacks and is refused by the name of the first one
        dil = build_dilation(dephasing_channel(0.5))
        obj = serialize.dilation_to_obj(dil)
        for key in drop:
            del obj[key]
        obj.update({key: serialize.encode_matrix(dil.u) for key in old_keys})
        with pytest.raises(SpcpmError, match=f"dilation needs {drop[0]}, a "):
            serialize.dilation_from_obj(obj)


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
    def test_rejects_non_unitary_block(self):
        rep = dephasing_channel(0.5)
        dil = build_dilation(rep)
        # scale block 2 only
        bad = tampered(dil, a2=(1 + 1e-6) * dil.a2)
        assert verify_dilation(dil, rep)
        assert not verify_dilation(bad, rep)

    @pytest.mark.parametrize("block", [1, 2])
    def test_rejects_a_non_isometric_stack_that_induces_the_channel(self, block):
        # the stacks of a channel that is not trace preserving on one block
        # induce that channel exactly, so only the isometry check can see
        # that they make no unitary
        rep = full_rank_tp_channel(2, 1, 966)
        dil = build_dilation(rep)
        scale = np.ones(rep.source.dim)
        scale[rep.source.block_slice(block)] = 1 + 1e-6
        stacks = {1: dil.a1, 2: dil.a2}
        stacks[block] = (1 + 1e-6) * stacks[block]
        bad = tampered(dil, stacks[1], stacks[2])
        scaled_rep = KrausRep(rep.source, rep.target, rep.ops * scale)
        assert channels_equal(kraus_from_dilation(bad), scaled_rep, 1e-12)
        assert verify_dilation(dil, rep)
        assert not verify_dilation(bad, scaled_rep)
        assert _dilation_failure(bad, scaled_rep, 1e-9)[0] == "isometry"

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


class TestFailedCondition:
    """``_dilation_failure`` names the first audit condition that fails."""

    def test_none_for_a_valid_dilation(self):
        rep = full_rank_tp_channel(2, 1, 980)
        assert _dilation_failure(build_dilation(rep), rep, 1e-9) is None

    def test_isometry(self):
        rep = full_rank_tp_channel(2, 1, 981)
        dil = build_dilation(rep)
        bad = tampered(dil, a1=(1 + 1e-3) * dil.a1, a2=(1 + 2e-3) * dil.a2)
        condition, residual = _dilation_failure(bad, rep, 1e-9)
        assert condition == "isometry"
        assert residual == stack_defect(bad)
        assert abs(residual - full_size_defect(bad)) <= 1e-12

    def test_agreement(self):
        rep = full_rank_tp_channel(2, 1, 982)
        other = full_rank_tp_channel(2, 1, 983)
        condition, residual = _dilation_failure(build_dilation(rep), other, 1e-9)
        assert condition == "agreement" and residual > 1e-3
        # a channel on other spaces cannot agree at all
        elsewhere = full_rank_tp_channel(1, 2, 984)
        failure = _dilation_failure(build_dilation(rep), elsewhere, 1e-9)
        assert failure == ("agreement", np.inf)

    @pytest.mark.parametrize(
        "make_bad, condition",
        [
            (lambda dil: tampered(dil, a2=2 * dil.a2), "isometry"),
            (lambda dil: tampered(dil, a1=-dil.a1[:, ::-1]), "agreement"),
        ],
        ids=["isometry", "agreement"],
    )
    def test_cli_names_the_condition(self, tmp_path, capsys, monkeypatch, make_bad, condition):
        path = tmp_path / "chan.json"
        rep = full_rank_tp_channel(2, 2, 985)
        serialize.write_file(path, serialize.channel_to_obj(rep))
        built = build_dilation(rep)
        monkeypatch.setattr("spcpm.cli.build_dilation", lambda *_: make_bad(built))
        out = tmp_path / "never.json"
        assert main(["dilate", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"failed verification: {condition} residual" in err
        assert "exceeds tol 1.0e-09" in err
        assert not out.exists()


class TestConstructor:
    @pytest.mark.parametrize(
        "a1, a2, match",
        [
            (np.eye(2), np.ones((1, 1, 1)), r"a1 has shape \(2, 2\), expected \(\*, 2, 2\)"),
            (np.ones((1, 2, 2)), np.ones((1, 1, 1, 1)), r"a2 has shape \(1, 1, 1, 1\), expected \(\*, 1, 1\)"),
            (np.ones((1, 3, 3)), np.ones((1, 1, 1)), r"a1 has shape \(1, 3, 3\), expected \(\*, 2, 2\)"),
            (np.ones((1, 2, 2)), np.ones((1, 1, 2)), r"a2 has shape \(1, 1, 2\), expected \(\*, 1, 1\)"),
            (np.ones((2, 2, 2)), np.ones((3, 1, 1)), "a1 and a2 hold 2 and 3 pieces"),
            (np.ones((0, 2, 2)), np.ones((0, 1, 1)), r"a1 must not be empty, got shape \(0, 2, 2\)"),
            (np.ones((6, 2, 2)), np.ones((6, 1, 1)), r"holds 6 pieces per block, more than d1² \+ d2² = 5"),
            (np.full((1, 2, 2), np.nan), np.ones((1, 1, 1)), "finite"),
            (np.ones((1, 2, 2)), np.full((1, 1, 1), complex(0, np.inf)), "finite"),
        ],
        ids=["a1-2d", "a2-4d", "a1-pieces", "a2-pieces", "lengths", "empty", "too-many", "nan", "inf"],
    )
    def test_refuses(self, a1, a2, match):
        with pytest.raises(SpcpmError, match=match):
            UnitaryDilation(DecomposedSpace(2, 1), a1, a2)

    def test_copies_its_input_and_derives_the_ancilla(self):
        a1, a2 = np.ones((2, 2, 2)), [[[1.0]], [[0.0]]]
        dil = UnitaryDilation(DecomposedSpace(2, 1), a1, a2)
        a1[0, 0, 0] = 5.0
        assert dil.a1[0, 0, 0] == 1.0 and dil.a1.dtype == np.complex128
        assert dil.ancilla_dim == 3 and type(dil.ancilla_dim) is int
        assert dil.u1.shape == (6, 6) and dil.u2.shape == (3, 3)
