"""Tests for the subspace-preserving verifiers, the block representation and
the random sampler."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spcpm.cpm import (
    ChoiRep,
    KrausRep,
    apply,
    channels_equal,
    choi_to_kraus,
    compose,
    is_trace_preserving,
    kraus_rank,
    kraus_to_choi,
)
from spcpm.errors import (
    NotSPError,
    NotTracePreservingError,
    SingularMatrixError,
    SpcpmError,
)
from spcpm.sp import (
    SPBlockRep,
    blocks_from_sp,
    commutation_violation,
    definition_violation,
    is_sp_commutation,
    is_sp_definition,
    is_sp_kraus_blocks,
    is_sp_trace,
    kraus_blocks_violation,
    random_sp_channel,
    sp_from_blocks,
    sp_kraus_bound_holds,
    split_kraus_blocks,
    trace_violation,
)
from spcpm.spaces import DecomposedSpace
from channel_helpers import (
    block_units,
    crandn,
    dephasing_channel,
    haar_unitary,
    perturb_cross_block,
    tp_renormalized,
    unitary_mix,
)

C2 = DecomposedSpace(1, 1)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def identity_channel(space):
    return KrausRep(space, space, (np.eye(space.dim),))


class TestDefinitionVerifier:
    def test_identity_is_sp(self):
        assert is_sp_definition(identity_channel(C2))

    def test_swap_is_not_sp(self):
        assert not is_sp_definition(KrausRep(C2, C2, (SWAP,)))

    def test_sampler_output_is_sp(self):
        rep = random_sp_channel(DecomposedSpace(2, 1), DecomposedSpace(1, 2), 2, False, 100)
        assert is_sp_definition(rep)


class TestKrausBlocksVerifier:
    def test_identity_is_sp(self):
        assert is_sp_kraus_blocks(identity_channel(DecomposedSpace(2, 2)))

    def test_block_coupling_operator_is_not_sp(self):
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_sp_kraus_blocks(KrausRep(C2, C2, (e01,)))

    def test_agrees_with_definition_on_random_reps(self):
        rng = np.random.default_rng(101)
        dims = [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((2, 2), (2, 2))]
        for trial in range(60):
            (s1, s2), (t1, t2) = dims[trial % len(dims)]
            rep = random_sp_channel(
                DecomposedSpace(s1, s2), DecomposedSpace(t1, t2),
                1 + trial % 3, False, 1000 + trial,
            )
            if trial % 2:
                rep = perturb_cross_block(rep, rng)
            assert is_sp_kraus_blocks(rep) == is_sp_definition(rep)

    def test_block_structure_survives_any_representation(self):
        # padding with zeros and unitary mixing reach other Kraus lists of
        # the same channel; if the channel leaks no weight, none of its
        # representations can carry cross-block components
        rng = np.random.default_rng(120)
        for seed in range(10):
            rep = random_sp_channel(
                DecomposedSpace(2, 1), DecomposedSpace(1, 2), 2, False, 1500 + seed
            )
            padded = KrausRep(
                rep.source,
                rep.target,
                (*rep.ops, np.zeros((rep.target.dim, rep.source.dim))),
            )
            assert len(padded.ops) == len(rep.ops) + 1
            mixed = unitary_mix(padded, haar_unitary(rng, len(padded.ops)))
            assert channels_equal(rep, mixed, 1e-10)
            assert is_sp_kraus_blocks(mixed)


class TestSplitKrausBlocks:
    def test_identity_split(self):
        first, second = split_kraus_blocks(identity_channel(C2))
        np.testing.assert_array_equal(first[0], np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_array_equal(second[0], np.diag([0.0, 1.0]).astype(complex))

    def test_reassembly(self):
        rep = random_sp_channel(DecomposedSpace(2, 2), DecomposedSpace(2, 2), 3, False, 102)
        first, second = split_kraus_blocks(rep)
        for op, f, s in zip(rep.ops, first, second):
            np.testing.assert_allclose(f + s, op, atol=1e-12)
            np.testing.assert_allclose(
                rep.target.projector(1) @ f @ rep.source.projector(1), f, atol=1e-14
            )

    def test_dephasing_split(self):
        p = 0.75
        rep = dephasing_channel(p)
        first, second = split_kraus_blocks(rep)
        np.testing.assert_allclose(first[0], np.sqrt(p) * np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(
            second[1], -np.sqrt(1 - p) * np.diag([0.0, 1.0]), atol=1e-14
        )

    def test_rejects_non_sp(self):
        with pytest.raises(NotSPError):
            split_kraus_blocks(KrausRep(C2, C2, (SWAP,)))


class TestCommutationVerifier:
    def test_identity_is_sp(self):
        assert is_sp_commutation(identity_channel(DecomposedSpace(1, 2)))

    def test_coupling_kraus_operator_fails(self):
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = KrausRep(C2, C2, (e01,))
        assert not is_sp_commutation(rep)
        # the violated identity is visible directly: phi(E11) lands in block 1
        image = apply(rep, np.diag([0.0, 1.0]))
        lhs = rep.target.projector(1) @ image @ rep.target.projector(1)
        assert np.linalg.norm(lhs) > 0.5

    def test_agrees_with_definition_on_random_reps(self):
        rng = np.random.default_rng(103)
        for trial in range(60):
            rep = random_sp_channel(
                DecomposedSpace(1 + trial % 2, 2), DecomposedSpace(2, 1 + trial % 3),
                1 + trial % 3, False, 2000 + trial,
            )
            if trial % 2:
                rep = perturb_cross_block(rep, rng)
            assert is_sp_commutation(rep) == is_sp_definition(rep)


class TestTraceVerifier:
    def test_identity_is_sp(self):
        assert is_sp_trace(identity_channel(C2))

    def test_block_rotation_fails(self):
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rep = KrausRep(C2, C2, (rot,))
        assert is_trace_preserving(rep)
        assert not is_sp_trace(rep)

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            is_sp_trace(KrausRep(C2, C2, (np.eye(2) / 2,)))

    def test_agrees_with_definition_on_tp_reps(self):
        rng = np.random.default_rng(104)
        for trial in range(40):
            rep = random_sp_channel(
                DecomposedSpace(2, 2), DecomposedSpace(2, 2), 2 + trial % 3, True, 3000 + trial
            )
            if trial % 2:
                # renormalize after perturbing so the channel stays TP but not SP
                noisy = perturb_cross_block(rep, rng)
                s = sum(op.conj().T @ op for op in noisy.ops)
                w, v = np.linalg.eigh(s)
                inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
                rep = KrausRep(
                    noisy.source, noisy.target, tuple(op @ inv_sqrt for op in noisy.ops)
                )
                assert is_trace_preserving(rep)
            assert is_sp_trace(rep) == is_sp_definition(rep)


class TestSpFromBlocks:
    def test_identity_channel_from_unit_triple(self):
        blocks = SPBlockRep(C2, C2, np.eye(1), np.eye(1), np.eye(1))
        rep = choi_to_kraus(sp_from_blocks(blocks))
        assert channels_equal(rep, identity_channel(C2), 1e-10)

    def test_zero_cross_kills_off_diagonal_blocks(self):
        rng = np.random.default_rng(105)
        src = DecomposedSpace(1, 2)
        g1 = crandn(rng, 1, 2)  # block1 is 1x1 (d_s1 * d_t1)
        g2 = crandn(rng, 4, 3)  # block2 is 4x4 (d_s2 * d_t2)
        blocks = SPBlockRep(
            src, src, g1 @ g1.conj().T, g2 @ g2.conj().T, np.zeros((1, 4))
        )
        rep = choi_to_kraus(sp_from_blocks(blocks))
        # inputs supported on the off-diagonal blocks of the source map to zero
        q = np.zeros((3, 3), dtype=complex)
        q[0, 1] = 1.0
        assert np.linalg.norm(apply(rep, q)) <= 1e-12

    def test_random_valid_triples_give_sp_channels(self):
        rng = np.random.default_rng(106)
        src, tgt = DecomposedSpace(2, 1), DecomposedSpace(1, 2)
        k = src.d1 * tgt.d1
        l = src.d2 * tgt.d2
        for trial in range(20):
            g = crandn(rng, k + l, 1 + trial % (k + l))
            f = g @ g.conj().T
            blocks = SPBlockRep(src, tgt, f[:k, :k], f[k:, k:], f[:k, k:])
            rep = choi_to_kraus(sp_from_blocks(blocks))
            assert is_sp_definition(rep)
            assert is_sp_kraus_blocks(rep)
            assert is_sp_commutation(rep)

    def test_rejects_invalid_triple(self):
        with pytest.raises(SpcpmError, match="^coefficient matrix is not positive semi-definite"):
            sp_from_blocks(SPBlockRep(C2, C2, np.eye(1), np.eye(1), 2 * np.eye(1)))

    def test_rejects_kernel_leak(self):
        # block1 = 0 forces cross = 0
        with pytest.raises(SpcpmError, match="^coefficient matrix is not positive semi-definite"):
            sp_from_blocks(SPBlockRep(C2, C2, np.zeros((1, 1)), np.eye(1), np.eye(1)))

    def test_triple_past_the_float_range_is_refused(self):
        # finite and PSD, but its squared norm overflows; conversion of the
        # matrix would refuse it, so generation does
        blocks = SPBlockRep(C2, C2, [[1.5e308]], [[1.0]], [[0.0]])
        with pytest.raises(SpcpmError, match="^coefficient matrix is too large"):
            sp_from_blocks(blocks)


class TestBlocksFromSp:
    def test_identity_channel(self):
        blocks = blocks_from_sp(identity_channel(C2))
        np.testing.assert_allclose(blocks.block1, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(blocks.block2, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(blocks.cross, np.eye(1), atol=1e-12)

    def test_dephasing_cross_coefficient(self):
        p = 0.75
        blocks = blocks_from_sp(dephasing_channel(p))
        # independent expansion: coefficient vectors of the two Kraus
        # operators over the embedded block units are (sqrt(p), sqrt(p)) and
        # (sqrt(1-p), -sqrt(1-p)), so the cross slot is p - (1 - p) = 2p - 1
        np.testing.assert_allclose(blocks.block1, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.block2, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.cross, [[2 * p - 1]], atol=1e-12)

    def test_round_trip_through_blocks(self):
        for seed in range(5):
            rep = random_sp_channel(
                DecomposedSpace(2, 2), DecomposedSpace(1, 2), 3, False, 500 + seed
            )
            rebuilt = choi_to_kraus(sp_from_blocks(blocks_from_sp(rep)))
            assert channels_equal(rep, rebuilt, 1e-9)

    def test_rejects_non_sp(self):
        with pytest.raises(NotSPError):
            blocks_from_sp(KrausRep(C2, C2, (SWAP,)))

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (3, 2, 2, 3), (1, 3, 4, 1)])
    def test_exactly_sp_has_exactly_zero_off_block_mass(self, dims):
        # at the smallest positive tolerance the extraction succeeds only if
        # the cross-block Kraus components and the off-block coefficient mass
        # are both exactly zero, as they are for block-embedded operators
        source, target = DecomposedSpace(*dims[:2]), DecomposedSpace(*dims[2:])
        for seed in range(10):
            rep = random_sp_channel(source, target, 3, False, 108 + seed)
            blocks = blocks_from_sp(rep, tol=np.nextafter(0.0, 1.0))
            assert channels_equal(rep, choi_to_kraus(sp_from_blocks(blocks)), 1e-9)

    def test_off_block_entries_vanish_for_sp(self):
        rep = random_sp_channel(DecomposedSpace(3, 2), DecomposedSpace(2, 3), 4, False, 107)
        full = kraus_to_choi(rep).matrix
        idx1, idx2 = block_units(rep.source, rep.target)
        leak = np.array(full)
        leak[np.ix_(idx1, idx1)] = 0
        leak[np.ix_(idx1, idx2)] = 0
        leak[np.ix_(idx2, idx1)] = 0
        leak[np.ix_(idx2, idx2)] = 0
        assert np.linalg.norm(leak) <= 1e-12 * max(1.0, np.linalg.norm(full))


class TestRandomSpChannel:
    def test_minimal_tp_channel_has_unit_modulus_blocks(self):
        rep = random_sp_channel(C2, C2, 1, True, 108)
        op = rep.ops[0]
        assert abs(abs(op[0, 0]) - 1.0) <= 1e-12
        assert abs(abs(op[1, 1]) - 1.0) <= 1e-12
        assert abs(op[0, 1]) == 0.0 and abs(op[1, 0]) == 0.0

    def test_deterministic_per_seed(self):
        a = random_sp_channel(DecomposedSpace(2, 1), DecomposedSpace(2, 1), 2, True, 109)
        b = random_sp_channel(DecomposedSpace(2, 1), DecomposedSpace(2, 1), 2, True, 109)
        for x, y in zip(a.ops, b.ops):
            np.testing.assert_array_equal(x, y)

    def test_samples_pass_all_verifiers(self):
        space = DecomposedSpace(2, 2)
        for seed in range(200):
            rep = random_sp_channel(space, space, 3, True, 110 + seed)
            assert is_trace_preserving(rep, 1e-9)
            assert is_sp_definition(rep, 1e-9)
            assert is_sp_kraus_blocks(rep, 1e-9)
            assert is_sp_commutation(rep, 1e-9)
            assert is_sp_trace(rep, 1e-9)

    def test_structurally_singular_normalizer_raises(self):
        # one operator from a 2-dim block into a 1-dim block can never give a
        # full-rank normalizer: 1·1 < 2 is refused by the shape rule
        with pytest.raises(SingularMatrixError, match="block 1 needs k·d_t1 >= d_s1, but 1·1 = 1 < 2$"):
            random_sp_channel(DecomposedSpace(2, 1), DecomposedSpace(1, 1), 1, True, 111)

    @pytest.mark.parametrize("k", [2**62, np.int64(2**62)], ids=["int", "int64"])
    def test_stack_past_the_index_range_is_refused(self, k):
        # numpy refuses this size before it allocates; a numpy k must not wrap
        with pytest.raises(SpcpmError, match=f"^{2**62} Kraus operators of shape "
                           r"\(2, 2\) need \d+ bytes, more than an array can hold$"):
            random_sp_channel(C2, C2, k, False, 0)


class TestKrausBound:
    def test_identity_channel_on_minimal_split(self):
        rep = identity_channel(C2)
        assert kraus_rank(rep) == 1  # bound here is 1*1 + 1*1 = 2
        assert sp_kraus_bound_holds(rep)

    def test_random_samples_respect_bound(self):
        space = DecomposedSpace(2, 2)
        bound = 2 * 2 + 2 * 2
        for seed in range(10):
            rep = random_sp_channel(space, space, 6, False, 600 + seed)
            assert kraus_rank(rep) <= bound < space.dim * space.dim
            assert sp_kraus_bound_holds(rep)

    def test_maximal_rank_triple_meets_bound(self):
        src, tgt = DecomposedSpace(2, 1), DecomposedSpace(1, 2)
        k = src.d1 * tgt.d1
        l = src.d2 * tgt.d2
        blocks = SPBlockRep(src, tgt, np.eye(k), np.eye(l), np.zeros((k, l)))
        rep = choi_to_kraus(sp_from_blocks(blocks))
        assert kraus_rank(rep) == k + l
        assert sp_kraus_bound_holds(rep)

    def test_rejects_non_sp(self):
        with pytest.raises(NotSPError):
            sp_kraus_bound_holds(KrausRep(C2, C2, (SWAP,)))


class TestCompositionClosure:
    def test_composition_of_sp_is_sp(self):
        mid = DecomposedSpace(2, 1)
        for seed in range(10):
            a = random_sp_channel(DecomposedSpace(1, 2), mid, 2, True, 700 + seed)
            b = random_sp_channel(mid, DecomposedSpace(2, 2), 2, True, 800 + seed)
            comp = compose(b, a)
            assert is_sp_definition(comp)
            assert is_sp_kraus_blocks(comp)
            assert is_sp_commutation(comp)
            assert is_sp_trace(comp)


# Apply-per-matrix-unit references: the loop form of the definition,
# commutation and trace routes.  The library reads all images at once from
# the reshaped coefficient matrix; these apply the channel d^2 times and
# multiply by dense projectors, so they share no code path with it.


def matrix_units(d):
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[a, b] = 1.0
            yield a, b, unit


def block_of(space, index):
    return 1 if index < space.d1 else 2


def reference_definition(rep):
    worst = 0.0
    for src_block, tgt_block in ((2, 1), (1, 2)):
        for _, _, unit in matrix_units(rep.source.block_dim(src_block)):
            q = np.zeros((rep.source.dim,) * 2, dtype=np.complex128)
            block = rep.source.block_slice(src_block)
            q[block, block] = unit
            image = apply(rep, q)
            worst = max(worst, abs(np.trace(rep.target.projector(tgt_block) @ image)))
    return worst


def reference_commutation_by_unit(rep):
    """Per source unit (a, b): the residuals of the four block identities,
    keyed by the target block pair (i, j)."""
    pt = {1: rep.target.projector(1), 2: rep.target.projector(2)}
    out = {}
    for a, b, unit in matrix_units(rep.source.dim):
        image = apply(rep, unit)
        own = (block_of(rep.source, a), block_of(rep.source, b))
        out[a, b] = {
            (i, j): np.linalg.norm(
                pt[i] @ image @ pt[j] - (image if (i, j) == own else 0.0)
            )
            for i in (1, 2)
            for j in (1, 2)
        }
    return out


def reference_commutation(rep):
    return max(max(r.values()) for r in reference_commutation_by_unit(rep).values())


def reference_reconstruction(rep):
    """Worst residual of phi(Q) = sum_ij P_ti phi(P_si Q P_sj) P_tj."""
    pt = {1: rep.target.projector(1), 2: rep.target.projector(2)}
    worst = 0.0
    for a, b, unit in matrix_units(rep.source.dim):
        image = apply(rep, unit)
        recon = pt[block_of(rep.source, a)] @ image @ pt[block_of(rep.source, b)]
        worst = max(worst, np.linalg.norm(image - recon))
    return worst


def reference_trace(rep, block=1):
    """Worst |Tr(P_t phi(E_ab)) - Tr(P_s E_ab)| over the units, for one block."""
    pt = rep.target.projector(block)
    worst = 0.0
    for a, b, unit in matrix_units(rep.source.dim):
        inside = 1.0 if (a == b and block_of(rep.source, a) == block) else 0.0
        worst = max(worst, abs(np.trace(pt @ apply(rep, unit)) - inside))
    return worst


def reference_kraus_blocks(rep):
    """The blocks route operator by operator: (worst residual, label)."""
    pt = {1: rep.target.projector(1), 2: rep.target.projector(2)}
    ps = {1: rep.source.projector(1), 2: rep.source.projector(2)}
    worst, label = 0.0, "no cross-block component"
    for k, op in enumerate(rep.ops):
        scale = max(1.0, np.linalg.norm(op))
        for ti, sj in ((2, 1), (1, 2)):
            residual = np.linalg.norm(pt[ti] @ op @ ps[sj]) / scale
            if residual > worst:
                worst = residual
                label = f"||P_t{ti} V[{k}] P_s{sj}||_F / max(1, ||V[{k}]||_F)"
    return worst, label


def tp_defect(rep):
    s = sum(op.conj().T @ op for op in rep.ops)
    return np.linalg.norm(s - np.eye(rep.source.dim))


ORACLE_SPLITS = [
    ((2, 2), (2, 2)),
    ((6, 6), (6, 6)),
    ((1, 3), (2, 2)),
    ((3, 1), (1, 4)),
    ((2, 3), (3, 1)),
]


def oracle_channels():
    """SP (TP), leaky (TP, not SP) and non-TP channels on every split."""
    rng = np.random.default_rng(130)
    cases = []
    for n, ((s1, s2), (t1, t2)) in enumerate(ORACLE_SPLITS):
        src, tgt = DecomposedSpace(s1, s2), DecomposedSpace(t1, t2)
        k = s1 * t1 + s2 * t2
        sp = random_sp_channel(src, tgt, k, True, 4000 + n)
        leaky = tp_renormalized(perturb_cross_block(sp, rng, 1e-3))
        raw = random_sp_channel(src, tgt, k, False, 4100 + n)
        non_tp = perturb_cross_block(raw, rng)
        tag = f"{s1}+{s2}->{t1}+{t2}"
        cases += [(f"sp {tag}", sp), (f"leaky {tag}", leaky), (f"non-tp {tag}", non_tp)]
    return cases


ORACLE_CASES = oracle_channels()


@pytest.mark.parametrize("name,rep", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
class TestTensorRoutesMatchLoopReferences:
    def tol(self, rep):
        return 1e-12 * max(1.0, np.linalg.norm(kraus_to_choi(rep).matrix))

    def test_definition(self, name, rep):
        assert abs(definition_violation(rep)[0] - reference_definition(rep)) <= self.tol(rep)

    def test_commutation(self, name, rep):
        residual = commutation_violation(rep)[0]
        assert abs(residual - reference_commutation(rep)) <= self.tol(rep)

    def test_trace(self, name, rep):
        assert abs(trace_violation(rep)[0] - reference_trace(rep)) <= self.tol(rep)

    def test_kraus_blocks(self, name, rep):
        residual, label = kraus_blocks_violation(rep)
        ref_residual, ref_label = reference_kraus_blocks(rep)
        assert abs(residual - ref_residual) <= self.tol(rep)
        assert label == ref_label

    def test_reconstruction_is_commutation_at_own_block_pair(self, name, rep):
        # the reconstruction identity of a unit is its commutation identity at
        # (block(a), block(b)); that one is also the worst of the four
        by_unit = reference_commutation_by_unit(rep)
        own = max(
            r[block_of(rep.source, a), block_of(rep.source, b)]
            for (a, b), r in by_unit.items()
        )
        recon = reference_reconstruction(rep)
        assert abs(recon - own) <= self.tol(rep)
        assert abs(recon - commutation_violation(rep)[0]) <= self.tol(rep)


TP_ORACLE_CASES = [c for c in ORACLE_CASES if not c[0].startswith("non-tp")]


@pytest.mark.parametrize("name,rep", TP_ORACLE_CASES, ids=[c[0] for c in TP_ORACLE_CASES])
def test_block_residuals_agree_up_to_tp_defect(name, rep):
    # the route reads block 1 only; block 2 follows on a TP channel, since
    # Tr(P_t1 phi(E_ab)) + Tr(P_t2 phi(E_ab)) = (sum_k V_k† V_k)[b, a]
    r1 = trace_violation(rep)[0]
    r2 = reference_trace(rep, block=2)
    assert abs(r2 - r1) <= tp_defect(rep) + 1e-12


class TestTensorRouteLabels:
    def test_labels_name_worst_unit_and_block(self):
        # a single coupling operator |t_0><s_1| on C^2: only phi(E[1,1]) is
        # nonzero, and it lands in target block 1 instead of block 2
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = KrausRep(C2, C2, (e01,))
        residual, label = definition_violation(rep)
        assert residual == 1.0
        assert label == "Tr(P_t1 phi(E[0,0] on source block 2))"
        residual, label = commutation_violation(rep)
        assert residual == 1.0
        assert label == "P_t2 phi(E[1,1]) P_t2 vs phi(P_s2 E[1,1] P_s2)"
        residual, label = trace_violation(rep)
        assert residual == 1.0
        assert label == "Tr(P_t1 phi(E[0,0])) vs Tr(P_s1 E[0,0])"
        residual, label = kraus_blocks_violation(rep)
        assert residual == 1.0
        assert label == "||P_t1 V[0] P_s2||_F / max(1, ||V[0]||_F)"

    def test_sp_labels(self):
        rep = identity_channel(C2)
        assert definition_violation(rep) == (0.0, "no cross-block leakage")
        assert commutation_violation(rep) == (0.0, "all block identities hold")
        assert trace_violation(rep) == (0.0, "block weights conserved")
        assert kraus_blocks_violation(rep) == (0.0, "no cross-block component")


@pytest.mark.parametrize(
    "src,tgt", [((3, 1), (1, 4)), ((6, 6), (6, 6))], ids=["3+1->1+4", "6+6->6+6"]
)
def test_exactly_sp_non_tp_channel_has_exactly_zero_residuals(src, tgt):
    # off-pattern mass is summed directly, never as total minus in-block mass,
    # which would leave rounding residue far above any tolerance
    # (with the subtraction, about half of these seeds give ~5e-7 at 3+1->1+4)
    s, t = DecomposedSpace(*src), DecomposedSpace(*tgt)
    for seed in range(131, 141):
        rep = random_sp_channel(s, t, s.d1 * t.d1 + s.d2 * t.d2, False, seed)
        assert not is_trace_preserving(rep)
        assert commutation_violation(rep)[0] == 0.0
        assert definition_violation(rep)[0] == 0.0
        assert is_sp_commutation(rep, 1e-15)


# Property tests.  A block unitary U1 (+) U2 commutes with both block
# projectors, so applying it on either side of every Kraus operator cannot
# create or remove cross-block weight: the verdict of every route and the
# Kraus rank are unchanged.  On the target side it only rotates each image,
# phi(Q) -> U phi(Q) U†, which leaves every block trace and block norm, hence
# the definition, commutation and trace residuals, unchanged as well.

PROPERTY_SPLITS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2), (1, 7), (7, 1)]

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def block_unitary(rng, space):
    u = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for block in (1, 2):
        sl = space.block_slice(block)
        u[sl, sl] = haar_unitary(rng, space.block_dim(block))
    return u


@st.composite
def tp_channels(draw):
    """A trace-preserving channel between two drawn splits, SP or leaky."""
    s1, s2 = draw(st.sampled_from(PROPERTY_SPLITS))
    t1, t2 = draw(st.sampled_from(PROPERTY_SPLITS))
    src, tgt = DecomposedSpace(s1, s2), DecomposedSpace(t1, t2)
    # enough operators for a full-rank normalizer on both blocks
    k = max(-(-s1 // t1), -(-s2 // t2)) + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rep = random_sp_channel(src, tgt, k, True, seed)
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        rep = tp_renormalized(perturb_cross_block(rep, rng, 0.05))
    return rep, rng


def sp_verdicts(rep):
    return (
        is_sp_definition(rep),
        is_sp_kraus_blocks(rep),
        is_sp_commutation(rep),
        is_sp_trace(rep),
    )


def block_rotated(rep, rng, side):
    if side == "target":
        u = block_unitary(rng, rep.target)
        ops = tuple(u @ op for op in rep.ops)
    else:
        u = block_unitary(rng, rep.source)
        ops = tuple(op @ u for op in rep.ops)
    return KrausRep(rep.source, rep.target, ops)


@PROPERTY_SETTINGS
@given(tp_channels(), st.sampled_from(["source", "target"]))
def test_verdicts_and_rank_invariant_under_block_unitaries(channel, side):
    rep, rng = channel
    turned = block_rotated(rep, rng, side)
    assert sp_verdicts(turned) == sp_verdicts(rep)
    assert len(set(sp_verdicts(rep))) == 1  # the four routes agree
    assert kraus_rank(turned) == kraus_rank(rep)


@PROPERTY_SETTINGS
@given(tp_channels())
def test_residuals_invariant_under_target_block_unitary(channel):
    rep, rng = channel
    turned = block_rotated(rep, rng, "target")
    assert abs(definition_violation(turned)[0] - definition_violation(rep)[0]) <= 1e-12
    assert abs(commutation_violation(turned)[0] - commutation_violation(rep)[0]) <= 1e-12
    assert abs(trace_violation(turned)[0] - trace_violation(rep)[0]) <= 1e-12


# The construction theorem as a property: every valid triple generates an SP
# map, and the map gives the triple back.  The triple is F = Q diag(lam) Q†
# for orthonormal columns Q, so its rank is known; its largest eigenvalue is
# the scale and the others lie within a factor 1e-3 of it, so no rank sits at
# the cutoff DEFAULT_RTOL * max(1, scale).
def spectral_triple(src, tgt, seed, singular_a, zero_cross, scale):
    k, l = src.d1 * tgt.d1, src.d2 * tgt.d2
    rng = np.random.default_rng(seed)
    if zero_cross:  # independent columns on each block
        r1 = int(rng.integers(0, k)) if singular_a else int(rng.integers(1, k + 1))
        r2 = int(rng.integers(0 if r1 else 1, l + 1))
        q = np.zeros((k + l, r1 + r2), dtype=np.complex128)
        q[:k, :r1] = np.linalg.qr(crandn(rng, k, r1))[0]
        q[k:, r1:] = np.linalg.qr(crandn(rng, l, r2))[0]
    else:
        r = int(rng.integers(1, k + l if singular_a else k + l + 1))
        g = crandn(rng, k + l, r)
        if singular_a:  # A's rows of Q span at most k - 1 dims
            p = np.linalg.qr(crandn(rng, k, k))[0][:, : k - 1]
            g[:k] = p @ (p.conj().T @ g[:k])
        q = np.linalg.qr(g)[0]
    lam = scale * 10.0 ** (-3.0 * rng.random(q.shape[1]))
    lam[0] = scale
    f = (q * lam) @ q.conj().T
    f = (f + f.conj().T) / 2.0
    return SPBlockRep(src, tgt, f[:k, :k], f[k:, k:], f[:k, k:]), q.shape[1]


def assembled(blocks):
    return np.block([[blocks.block1, blocks.cross], [blocks.cross.conj().T, blocks.block2]])


@PROPERTY_SETTINGS
@given(
    st.sampled_from(PROPERTY_SPLITS),
    st.sampled_from(PROPERTY_SPLITS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
)
@example((1, 7), (1, 7), 5, True, False, 1e-6)
@example((7, 1), (7, 1), 6, True, True, 1e6)
@example((1, 7), (7, 1), 7, False, True, 1.0)
@example((7, 1), (2, 1), 8, True, False, 1e3)
@example((1, 1), (1, 3), 3, True, True, 1.0)  # dead units: the whole
@example((2, 2), (3, 2), 3, False, True, 1.0)  # matrix solves to other bits
def test_every_valid_triple_is_an_sp_map_that_returns_it(
    source, target, seed, singular_a, zero_cross, scale
):
    src, tgt = DecomposedSpace(*source), DecomposedSpace(*target)
    blocks, rank = spectral_triple(src, tgt, seed, singular_a, zero_cross, scale)
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        generated = sp_from_blocks(blocks)
        rep = choi_to_kraus(generated)
    # generation's gate is the one eigh that conversion reads: the operators
    # are a fresh conversion's of the same matrix, to the last bit
    assert (eigh.call_count, eigvalsh.call_count) == (1, 0)
    fresh = choi_to_kraus(ChoiRep(src, tgt, generated.matrix)).ops
    assert rep.ops.shape == fresh.shape and rep.ops.tobytes() == fresh.tobytes()
    assert is_sp_definition(rep)
    assert is_sp_kraus_blocks(rep)
    assert is_sp_commutation(rep)
    f = assembled(blocks)
    # the round trip rebuilds F from its eigenpairs: rounding only
    assert np.linalg.norm(assembled(blocks_from_sp(rep)) - f) <= 1e-12 * np.linalg.norm(f)
    assert kraus_rank(rep) == len(rep.ops) == rank
    assert sp_kraus_bound_holds(rep)
    # made indefinite by t v v†, t = v†Fv + 1e-2 scale for a unit vector v, so
    # v†F'v = -1e-2 scale, far below the floor: generation and conversion
    # both refuse it, in the same words
    v = crandn(np.random.default_rng(seed), len(f))
    v /= np.linalg.norm(v)
    f = f - ((v.conj() @ f @ v).real + 1e-2 * scale) * np.outer(v, v.conj())
    k = src.d1 * tgt.d1
    indefinite = SPBlockRep(src, tgt, f[:k, :k], f[k:, k:], f[:k, k:])
    with pytest.raises(SpcpmError, match="^coefficient matrix is not positive semi-definite") as made:
        sp_from_blocks(indefinite)
    with pytest.raises(SpcpmError, match="^coefficient matrix is not positive semi-definite") as met:
        choi_to_kraus(ChoiRep(src, tgt, placed(src, tgt, f)))
    assert str(made.value) == str(met.value)


def placed(src, tgt, f):
    """F written on the intra-block units of the full coefficient matrix."""
    units = np.concatenate(block_units(src, tgt))
    full = np.zeros((src.dim * tgt.dim,) * 2, dtype=np.complex128)
    full[np.ix_(units, units)] = f
    return full



def norm_formula_kraus_blocks(rep):
    """The blocks route as three ``np.linalg.norm(axis=(1, 2))`` calls and an
    ``np.stack``: (worst residual, label) with the bits the one-pass route
    must keep."""
    source, target, ops = rep.source, rep.target, rep.ops
    pairs = ((2, 1), (1, 2))
    cross = np.stack(
        [
            np.linalg.norm(ops[:, target.block_slice(ti), source.block_slice(sj)], axis=(1, 2))
            for ti, sj in pairs
        ],
        axis=1,
    )
    relative = cross / np.maximum(1.0, np.linalg.norm(ops, axis=(1, 2)))[:, None]
    k, pair = np.unravel_index(np.argmax(relative), relative.shape)
    if relative[k, pair] == 0.0:
        return 0.0, "no cross-block component"
    ti, sj = pairs[pair]
    return float(relative[k, pair]), f"||P_t{ti} V[{k}] P_s{sj}||_F / max(1, ||V[{k}]||_F)"


BLOCK_ROUTE_SPLITS = [
    ((1, 1), (1, 1)),
    ((2, 2), (2, 2)),
    ((3, 3), (3, 3)),
    ((1, 3), (2, 2)),
    ((3, 1), (1, 4)),
    ((2, 3), (3, 1)),
    ((4, 4), (4, 4)),
]


def leaky_twin(ops, tgt, angle=1e-3):
    """Each operator left-multiplied by a rotation between the last basis
    vector of target block 1 and the first of block 2."""
    r = np.eye(tgt.dim, dtype=np.complex128)
    i, j = tgt.d1 - 1, tgt.d1
    r[i, i] = r[j, j] = np.cos(angle)
    r[i, j], r[j, i] = -np.sin(angle), np.sin(angle)
    return r @ ops


@st.composite
def kraus_stacks(draw):
    """SP stacks, leaky twins, leakage from source block 2 into target
    block 1 only, and dense noise, scaled so that ||V_k|| falls on either
    side of 1."""
    (s1, s2), (t1, t2) = draw(st.sampled_from(BLOCK_ROUTE_SPLITS))
    src, tgt = DecomposedSpace(s1, s2), DecomposedSpace(t1, t2)
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["sp", "leaky", "upper-right", "dense"]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(seed)
    ops = np.array(random_sp_channel(src, tgt, k, False, seed).ops)
    if kind == "leaky":
        ops = leaky_twin(ops, tgt)
    elif kind == "upper-right":
        ops[:, :t1, s1:] += 1e-4 * crandn(rng, k, t1, s2)
    elif kind == "dense":
        ops = crandn(rng, k, tgt.dim, src.dim)
    return KrausRep(src, tgt, scale * ops)


@pytest.mark.parametrize("scale", [1e154, 1e160, 1e200, 1e308, 1e308 + 1e308j])
def test_blocks_route_is_finite_where_the_sums_overflow(scale):
    # every sum of squares of scale·ones passes the float range; the
    # relative residual ||P_t2 V P_s1||_F / ||V||_F is still 1/2
    rep = KrausRep(C2, C2, (scale * np.ones((2, 2)),))
    assert kraus_blocks_violation(rep) == (0.5, "||P_t2 V[0] P_s1||_F / max(1, ||V[0]||_F)")


def test_a_leak_is_seen_where_only_the_total_overflows():
    # the cross-block sum 1e300 is finite and the total 2e310 is not, so a
    # ratio of the raw sums reads 1e150 / inf = 0 and calls the channel SP
    rep = KrausRep(C2, C2, (np.array([[1e155, 0.0], [1e150, 1e155]]),))
    assert kraus_blocks_violation(rep)[0] == pytest.approx(1e-5 / np.sqrt(2), rel=1e-12)
    assert not is_sp_kraus_blocks(rep)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kraus_stacks(), st.floats(0.0, 300.0))
def test_blocks_route_is_scale_free_above_unit_norm(rep, exponent):
    # once every ||V_k||_F >= 1, the residual of c·V is that of V for c >= 1,
    # whether or not the sums of squares of c·V pass the float range
    ops = rep.ops / np.minimum(1.0, np.linalg.norm(rep.ops, axis=(1, 2)))[:, None, None]
    residual = kraus_blocks_violation(KrausRep(rep.source, rep.target, ops))[0]
    scaled = KrausRep(rep.source, rep.target, 10.0**exponent * ops)
    assert abs(kraus_blocks_violation(scaled)[0] - residual) <= 1e-12 * residual


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kraus_stacks())
def test_blocks_route_keeps_the_bits_of_the_norm_formula(rep):
    residual, label = kraus_blocks_violation(rep)
    ref_residual, ref_label = norm_formula_kraus_blocks(rep)
    assert type(residual) is float
    assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()
    assert label == ref_label
