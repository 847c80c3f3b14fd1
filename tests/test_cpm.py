"""Tests for the channel representations and their conversions."""

import re

import numpy as np
import pytest

from spcpm.cpm import (
    ChoiRep,
    KrausRep,
    apply,
    apply_choi,
    channels_equal,
    choi_to_kraus,
    compose,
    is_trace_preserving,
    kraus_rank,
    kraus_to_choi,
    orthonormal_kraus,
    unitary_mix,
)
from spcpm.errors import SpcpmError
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_rep(rng, source, target, k):
    scale = 1.0 / np.sqrt(source.dim * target.dim)
    return KrausRep(
        source, target, tuple(scale * crandn(rng, target.dim, source.dim) for _ in range(k))
    )


def random_psd(rng, n, rank):
    g = crandn(rng, n, rank)
    return g @ g.conj().T


def unit(d, i, j):
    e = np.zeros((d, d), dtype=np.complex128)
    e[i, j] = 1.0
    return e


class TestKrausRep:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausRep(C2, C2, ())

    def test_rejects_wrong_shape(self):
        with pytest.raises(SpcpmError, match="Kraus operator has shape"):
            KrausRep(C2, C2, (np.eye(3),))

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            KrausRep(C2, C2, (bad,))

    def test_ops_are_read_only(self):
        rep = KrausRep(C2, C2, (np.eye(2),))
        assert not rep.ops.flags.writeable
        with pytest.raises(ValueError):
            rep.ops[0][0, 0] = 2.0
        with pytest.raises(ValueError):
            rep.ops[0] = np.zeros((2, 2))

    def test_ops_are_one_complex_stack(self):
        rep = KrausRep(C2, DecomposedSpace(2, 1), [np.ones((3, 2)), np.zeros((3, 2))])
        assert isinstance(rep.ops, np.ndarray)
        assert rep.ops.dtype == np.complex128
        assert rep.ops.shape == (2, 3, 2)

    def test_accepts_a_stack(self):
        rng = np.random.default_rng(30)
        stack = crandn(rng, 3, 2, 2)
        from_stack = KrausRep(C2, C2, stack)
        from_tuple = KrausRep(C2, C2, tuple(stack))
        assert np.array_equal(from_stack.ops, stack)
        assert np.array_equal(from_tuple.ops, stack)

    def test_rejects_a_stack_of_wrong_shape(self):
        with pytest.raises(SpcpmError, match="Kraus operator has shape"):
            KrausRep(C2, C2, np.zeros((2, 3, 2)))

    def test_rejects_a_ragged_sequence_by_naming_the_operator(self):
        # not numpy's inhomogeneous-shape ValueError from the whole sequence
        with pytest.raises(
            SpcpmError, match=re.escape("Kraus operator has shape (3, 3), expected (2, 2)")
        ):
            KrausRep(C2, C2, (np.eye(2), np.eye(3)))

    def test_rejects_a_single_matrix_given_as_the_stack(self):
        # a 2-D array is read as a stack of its rows
        with pytest.raises(SpcpmError, match=r"Kraus operator has shape \(2,\)"):
            KrausRep(C2, C2, np.eye(2))

    def test_caller_writes_do_not_reach_the_rep(self):
        stack = np.ones((2, 2, 2), dtype=np.complex128)
        op = np.eye(2, dtype=np.complex128)
        from_stack = KrausRep(C2, C2, stack)
        from_tuple = KrausRep(C2, C2, (op,))
        stack[:] = 5.0
        op[:] = 7.0
        assert np.array_equal(from_stack.ops, np.ones((2, 2, 2)))
        assert np.array_equal(from_tuple.ops, np.eye(2)[None])


class TestApply:
    def test_identity_channel(self):
        rng = np.random.default_rng(40)
        rep = KrausRep(C2, C2, (np.eye(2),))
        q = crandn(rng, 2, 2)
        np.testing.assert_allclose(apply(rep, q), q, atol=1e-14)

    def test_bit_flip_bookkeeping(self):
        rep = KrausRep(C2, C2, (unit(2, 0, 1), unit(2, 1, 0)))
        p = 0.3
        out = apply(rep, np.diag([p, 1 - p]))
        np.testing.assert_allclose(out, np.diag([1 - p, p]), atol=1e-14)

    def test_preserves_psd(self):
        rng = np.random.default_rng(41)
        rep = random_rep(rng, DecomposedSpace(1, 2), DecomposedSpace(2, 1), 3)
        q = random_psd(rng, 3, 2)
        w = np.linalg.eigvalsh(apply(rep, q))
        assert w[0] >= -1e-12 * max(1.0, w[-1])

    def test_rejects_wrong_input_shape(self):
        rep = KrausRep(C2, C2, (np.eye(2),))
        with pytest.raises(SpcpmError, match="input has shape"):
            apply(rep, np.eye(3))


class TestKrausToChoi:
    def test_identity_channel_rank_one(self):
        rep = KrausRep(C2, C2, (np.eye(2),))
        choi = kraus_to_choi(rep).matrix
        vec = np.eye(2).ravel()
        np.testing.assert_allclose(choi, np.outer(vec, vec.conj()), atol=1e-14)
        assert np.linalg.matrix_rank(choi, tol=1e-10) == 1

    def test_dephasing_diagonal(self):
        rep = KrausRep(C2, C2, (unit(2, 0, 0), unit(2, 1, 1)))
        choi = kraus_to_choi(rep).matrix
        np.testing.assert_allclose(choi, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-14)

    def test_round_trip_channel_equality(self):
        rng = np.random.default_rng(42)
        rep = random_rep(rng, DecomposedSpace(2, 1), DecomposedSpace(1, 2), 3)
        back = choi_to_kraus(kraus_to_choi(rep))
        assert channels_equal(rep, back, 1e-10)


class TestApplyChoi:
    def test_sum_over_all_units_gives_trace_times_identity(self):
        # the full matrix-unit coefficient identity maps Q to Tr(Q) I
        rng = np.random.default_rng(43)
        rep = ChoiRep(C2, C2, np.eye(4))
        q = crandn(rng, 2, 2)
        np.testing.assert_allclose(apply_choi(rep, q), np.trace(q) * np.eye(2), atol=1e-12)

    def test_matches_kraus_application(self):
        rng = np.random.default_rng(44)
        rep = random_rep(rng, DecomposedSpace(1, 2), DecomposedSpace(1, 2), 2)
        choi = kraus_to_choi(rep)
        for _ in range(5):
            q = crandn(rng, 3, 3)
            np.testing.assert_allclose(apply_choi(choi, q), apply(rep, q), atol=1e-12)

    def test_rank_one_coefficients_are_a_single_operator(self):
        rng = np.random.default_rng(45)
        v = crandn(rng, 4)
        rep = ChoiRep(C2, C2, np.outer(v, v.conj()))
        w = v.reshape(2, 2)
        q = crandn(rng, 2, 2)
        np.testing.assert_allclose(apply_choi(rep, q), w @ q @ w.conj().T, atol=1e-12)


class TestChoiToKraus:
    def test_rank_one_recovers_identity(self):
        vec = np.eye(2).ravel()
        rep = choi_to_kraus(ChoiRep(C2, C2, np.outer(vec, vec.conj())))
        assert len(rep.ops) == 1
        # equal to the identity up to a global phase
        op = rep.ops[0]
        phase = op[0, 0] / abs(op[0, 0])
        np.testing.assert_allclose(op / phase, np.eye(2), atol=1e-12)

    def test_zero_matrix_gives_zero_channel(self):
        rep = choi_to_kraus(ChoiRep(C2, C2, np.zeros((4, 4))))
        assert len(rep.ops) == 1
        np.testing.assert_array_equal(rep.ops[0], np.zeros((2, 2)))

    def test_round_trip_on_fixed_rank(self):
        rng = np.random.default_rng(46)
        mat = random_psd(rng, 4, 3) / 4.0
        rep = choi_to_kraus(ChoiRep(C2, C2, mat))
        assert len(rep.ops) == 3
        back = kraus_to_choi(rep).matrix
        assert np.linalg.norm(back - mat) <= 1e-9

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(SpcpmError, match="not positive semi-definite"):
            choi_to_kraus(ChoiRep(C2, C2, np.diag([1.0, -1.0, 0.0, 0.0])))

    def test_deterministic_gauge(self):
        rng = np.random.default_rng(47)
        mat = random_psd(rng, 4, 2)
        first = choi_to_kraus(ChoiRep(C2, C2, mat))
        second = choi_to_kraus(ChoiRep(C2, C2, mat.copy()))
        for a, b in zip(first.ops, second.ops):
            np.testing.assert_array_equal(a, b)


class TestKrausRank:
    def test_identity_channel(self):
        assert kraus_rank(KrausRep(C2, C2, (np.eye(2),))) == 1

    def test_completely_depolarizing(self):
        d = 2
        space = DecomposedSpace(1, 1)
        ops = tuple(unit(d, i, j) / np.sqrt(d) for i in range(d) for j in range(d))
        rep = KrausRep(space, space, ops)
        assert is_trace_preserving(rep)
        assert kraus_rank(rep) == d * d

    def test_duplicate_operators_do_not_double_count(self):
        rng = np.random.default_rng(48)
        v = crandn(rng, 2, 2)
        duplicated = KrausRep(C2, C2, (v, v))
        merged = KrausRep(C2, C2, (np.sqrt(2) * v,))
        assert kraus_rank(duplicated) == kraus_rank(merged) == 1
        assert channels_equal(duplicated, merged, 1e-10)

    def test_never_exceeds_dimension_product(self):
        rng = np.random.default_rng(49)
        src, tgt = DecomposedSpace(1, 2), DecomposedSpace(2, 2)
        rep = random_rep(rng, src, tgt, 20)
        assert kraus_rank(rep) <= src.dim * tgt.dim

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_cutoff_is_1e_10_of_the_largest_eigenvalue(self, scale):
        # the coefficient matrix has eigenvalues scale² and scale²·weight;
        # the rank cutoff is DEFAULT_RTOL = 1e-10 times max(1, scale²)
        for weight, rank in ((2e-10, 2), (5e-11, 1)):
            ops = (scale * unit(2, 0, 0), scale * np.sqrt(weight) * unit(2, 1, 1))
            rep = KrausRep(C2, C2, ops)
            assert kraus_rank(rep) == rank
            assert len(orthonormal_kraus(rep)) == rank
            assert len(choi_to_kraus(kraus_to_choi(rep)).ops) == rank


class TestUnitaryMix:
    def test_identity_mix(self):
        rng = np.random.default_rng(50)
        rep = random_rep(rng, C2, C2, 2)
        mixed = unitary_mix(rep, np.eye(2))
        for a, b in zip(rep.ops, mixed.ops):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_swap(self):
        rng = np.random.default_rng(51)
        rep = random_rep(rng, C2, C2, 2)
        swapped = unitary_mix(rep, np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(swapped.ops[0], rep.ops[1], atol=1e-14)
        np.testing.assert_allclose(swapped.ops[1], rep.ops[0], atol=1e-14)
        assert channels_equal(rep, swapped, 1e-10)

    def test_random_mix_preserves_channel(self):
        rng = np.random.default_rng(52)
        rep = random_rep(rng, DecomposedSpace(2, 1), DecomposedSpace(1, 2), 3)
        mixed = unitary_mix(rep, haar_unitary(rng, 3))
        assert channels_equal(rep, mixed, 1e-10)

    def test_rejects_non_unitary_and_wrong_size(self):
        rng = np.random.default_rng(53)
        rep = random_rep(rng, C2, C2, 2)
        with pytest.raises(SpcpmError, match="not unitary"):
            unitary_mix(rep, 2.0 * np.eye(2))
        with pytest.raises(SpcpmError, match="mixing matrix has shape"):
            unitary_mix(rep, np.eye(3))


class TestOrthonormalKraus:
    def test_identity_channel(self):
        pairs = orthonormal_kraus(KrausRep(C2, C2, (np.eye(2),)))
        assert len(pairs) == 1
        r, y = pairs[0]
        assert abs(r - 2.0) <= 1e-12
        phase = y[0, 0] / abs(y[0, 0])
        np.testing.assert_allclose(y / phase, np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_already_orthonormal_units(self):
        rep = KrausRep(C2, C2, (unit(2, 0, 0), unit(2, 1, 1)))
        pairs = orthonormal_kraus(rep)
        assert len(pairs) == 2
        for r, _ in pairs:
            assert abs(r - 1.0) <= 1e-12

    def test_random_rep_orthonormality_and_channel(self):
        rng = np.random.default_rng(54)
        rep = random_rep(rng, DecomposedSpace(1, 2), DecomposedSpace(2, 1), 4)
        pairs = orthonormal_kraus(rep)
        assert len(pairs) == kraus_rank(rep)
        stacked = np.stack([y.ravel() for _, y in pairs])
        g = stacked.conj() @ stacked.T
        assert np.linalg.norm(g - np.eye(len(pairs))) <= 1e-9
        rebuilt = KrausRep(
            rep.source, rep.target, tuple(np.sqrt(r) * y for r, y in pairs)
        )
        assert channels_equal(rep, rebuilt, 1e-10)


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(55)
        rep = random_rep(rng, C2, C2, 2)
        ident = KrausRep(C2, C2, (np.eye(2),))
        assert channels_equal(compose(ident, rep), rep, 1e-12)

    def test_two_unitaries(self):
        rng = np.random.default_rng(56)
        u1, u2 = haar_unitary(rng, 2), haar_unitary(rng, 2)
        composed = compose(KrausRep(C2, C2, (u2,)), KrausRep(C2, C2, (u1,)))
        assert len(composed.ops) == 1
        np.testing.assert_allclose(composed.ops[0], u2 @ u1, atol=1e-13)

    def test_pointwise_agreement(self):
        rng = np.random.default_rng(57)
        a = random_rep(rng, DecomposedSpace(1, 1), DecomposedSpace(2, 1), 2)
        b = random_rep(rng, DecomposedSpace(1, 2), DecomposedSpace(1, 1), 3)
        comp = compose(b, a)
        for i in range(2):
            for j in range(2):
                q = unit(2, i, j)
                np.testing.assert_allclose(
                    apply(comp, q), apply(b, apply(a, q)), atol=1e-12
                )

    def test_rejects_mismatched_dims(self):
        rng = np.random.default_rng(58)
        a = random_rep(rng, C2, DecomposedSpace(2, 1), 1)
        b = random_rep(rng, C2, C2, 1)
        with pytest.raises(SpcpmError, match="cannot compose"):
            compose(b, a)


class TestIsTracePreserving:
    def test_identity(self):
        assert is_trace_preserving(KrausRep(C2, C2, (np.eye(2),)))

    def test_subnormalized(self):
        assert not is_trace_preserving(KrausRep(C2, C2, (np.eye(2) / 2,)))

    def test_tp_rep_preserves_trace_on_inputs(self):
        rng = np.random.default_rng(59)
        u = haar_unitary(rng, 2)
        rep = KrausRep(C2, C2, (u,))
        q = crandn(rng, 2, 2)
        assert abs(np.trace(apply(rep, q)) - np.trace(q)) <= 1e-12


class TestChannelsEqual:
    def test_mix_is_equal(self):
        rng = np.random.default_rng(60)
        rep = random_rep(rng, C2, C2, 3)
        assert channels_equal(rep, unitary_mix(rep, haar_unitary(rng, 3)), 1e-10)

    def test_identity_vs_dephasing(self):
        ident = KrausRep(C2, C2, (np.eye(2),))
        dephase = KrausRep(C2, C2, (unit(2, 0, 0), unit(2, 1, 1)))
        assert not channels_equal(ident, dephase, 1e-10)
        # they differ exactly on off-diagonal inputs
        off = unit(2, 0, 1)
        assert np.linalg.norm(apply(ident, off) - apply(dephase, off)) > 0.5

    def test_appending_zero_operator(self):
        rng = np.random.default_rng(61)
        rep = random_rep(rng, C2, C2, 2)
        padded = KrausRep(C2, C2, (*rep.ops, np.zeros((2, 2))))
        assert len(padded.ops) == len(rep.ops) + 1
        assert channels_equal(rep, padded, 1e-12)

    def test_rejects_mismatched_dims(self):
        rng = np.random.default_rng(62)
        a = random_rep(rng, C2, C2, 1)
        b = random_rep(rng, C2, DecomposedSpace(2, 1), 1)
        with pytest.raises(SpcpmError, match="different dimensions"):
            channels_equal(a, b, 1e-10)


class TestRankInvariance:
    def test_invariant_under_mixing_padding_congruence(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            src = DecomposedSpace(1, int(rng.integers(1, 3)))
            tgt = DecomposedSpace(int(rng.integers(1, 3)), 1)
            rep = random_rep(rng, src, tgt, int(rng.integers(1, 4)))
            rank = kraus_rank(rep)

            mixed = unitary_mix(rep, haar_unitary(rng, len(rep.ops)))
            assert kraus_rank(mixed) == rank

            zeros = tuple(
                np.zeros((tgt.dim, src.dim)) for _ in range(int(rng.integers(1, 4)))
            )
            padded = KrausRep(src, tgt, (*rep.ops, *zeros))
            assert len(padded.ops) == len(rep.ops) + len(zeros)
            assert kraus_rank(padded) == rank

            # change of operator basis acts on the coefficient matrix by
            # congruence, which preserves the number of nonzero eigenvalues
            m = src.dim * tgt.dim
            a = crandn(rng, m, m)
            cong = a @ kraus_to_choi(rep).matrix @ a.conj().T
            w = np.linalg.eigvalsh((cong + cong.conj().T) / 2)
            found = int(np.count_nonzero(w > 1e-10 * max(1.0, np.abs(w).max())))
            assert found == rank

    def test_minimal_rep_is_linearly_independent(self):
        rng = np.random.default_rng(64)
        rep = random_rep(rng, DecomposedSpace(2, 1), DecomposedSpace(1, 2), 4)
        minimal = choi_to_kraus(kraus_to_choi(rep))
        assert len(minimal.ops) == kraus_rank(rep)
        stacked = np.stack([op.ravel() for op in minimal.ops])
        w = np.linalg.eigvalsh(stacked.conj() @ stacked.T)
        assert w[0] > 1e-10 * w[-1]
