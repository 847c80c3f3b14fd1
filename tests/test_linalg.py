"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from spcpm import linalg
from spcpm.errors import SingularMatrixError, SpcpmError
from channel_helpers import crandn, random_psd


def random_hermitian(rng, n):
    g = crandn(rng, n, n)
    return (g + g.conj().T) / 2


def assemble(a, b, c):
    """Direct block assembly [[A, C], [C†, B]] used as the oracle."""
    n, m = a.shape[0], b.shape[0]
    f = np.zeros((n + m, n + m), dtype=np.complex128)
    f[:n, :n] = a
    f[:n, n:] = c
    f[n:, :n] = c.conj().T
    f[n:, n:] = b
    return f


def psd_by_eigvals(m, tol=1e-10):
    """Independent positivity oracle: eigenvalues of the symmetrized matrix."""
    if np.linalg.norm(m - m.conj().T) > tol * max(1.0, np.linalg.norm(m)):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return w[0] >= -tol * max(1.0, np.abs(w).max())


def spectrum(m, vectors):
    """``psd_spectrum`` under the subject ``inv_sqrt_psd`` gives it."""
    return linalg.psd_spectrum(m, vectors, "matrix")


class TestSpectrum:
    """The eigendecomposition ``psd_spectrum`` returns, the one eigensolver
    entry behind ``inv_sqrt_psd``, ``block_psd_failure`` and ``cpm``.  The
    random Hermitian draws are squared, since the gate refuses an indefinite
    matrix."""

    def test_identity(self):
        w, v = spectrum(np.eye(3), vectors=True)
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-14)

    def test_already_diagonal(self):
        with pytest.raises(SpcpmError) as info:
            spectrum(np.diag([2.0, -1.0]), vectors=True)
        assert str(info.value) == (
            "matrix is not positive semi-definite: smallest eigenvalue "
            "-1.000e+00 < floor -2.000e-10"
        )
        w, v = spectrum(np.diag([2.0, 1.0]), vectors=True)
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-14)
        # eigenvector matrix is a permutation (ascending order swaps the columns)
        np.testing.assert_allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        h = h @ h
        w, v = spectrum(h, vectors=True)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(h - v @ np.diag(w) @ v.conj().T) <= 1e-10 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 6)
        for vectors in (True, False):
            w, _ = spectrum(h @ h, vectors=vectors)
            assert np.all(np.diff(w) >= 0)

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 5)
        # degenerate cluster: eigenvalue 1 with multiplicity 3
        q, _ = np.linalg.qr(crandn(rng, 4, 4))
        degenerate = q @ np.diag([1.0, 1.0, 1.0, 2.0]) @ q.conj().T
        for mat in (h @ h, degenerate):
            first = spectrum(mat, vectors=True)
            second = spectrum(mat.copy(), vectors=True)
            np.testing.assert_array_equal(first[0], second[0])
            np.testing.assert_array_equal(first[1], second[1])

    def test_eigenvalues_alone_carry_no_vectors(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 5)
        h = h @ h
        w, v = spectrum(h, vectors=False)
        assert v is None
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12)

    def test_non_hermitian_has_no_spectrum(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
        for vectors in (True, False):
            with pytest.raises(SpcpmError) as info:
                spectrum(m, vectors=vectors)
            assert str(info.value) == (
                "matrix is not Hermitian within tol=1e-10 (asymmetry 1.414e+00)"
            )


class TestPsdSpectrum:
    """The verdicts of ``psd_spectrum`` and the refusals it words."""

    def test_identity(self):
        w, _ = linalg.psd_spectrum(np.eye(2), False, "matrix")
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-14)

    def test_small_negative_eigenvalue(self):
        m = np.diag([1.0, -1e-3]).astype(np.complex128)
        with pytest.raises(SpcpmError) as info:
            linalg.psd_spectrum(m, False, "coefficient matrix")
        assert str(info.value) == (
            "coefficient matrix is not positive semi-definite: smallest "
            "eigenvalue -1.000e-03 < floor -1.000e-10"
        )

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            stacked = crandn(rng, 4, 6)  # four 3x2 operators, flattened
            g = stacked.conj() @ stacked.T
            for vectors in (True, False):
                w, _ = linalg.psd_spectrum(g, vectors, "coefficient matrix")
                assert len(w) == 4
            # oracle: eigenvalues directly
            assert psd_by_eigvals(g)

    def test_non_hermitian_is_not_psd(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
        with pytest.raises(SpcpmError) as info:
            linalg.psd_spectrum(m, True, "assembled block matrix")
        assert str(info.value) == (
            "assembled block matrix is not Hermitian within tol=1e-10 "
            "(asymmetry 1.414e+00)"
        )

    def test_floor_is_minus_the_rank_cutoff(self):
        # cutoff DEFAULT_RTOL * max(1, 4) = 4e-10: -3e-10 is a zero, -5e-10 negative
        w, _ = spectrum(np.diag([4.0, -3e-10]), vectors=True)
        assert w[0] == -3e-10
        with pytest.raises(SpcpmError) as info:
            spectrum(np.diag([4.0, -5e-10]), vectors=True)
        assert str(info.value) == (
            "matrix is not positive semi-definite: smallest eigenvalue "
            "-5.000e-10 < floor -4.000e-10"
        )


class TestNormPastTheFloatRange:
    """Finite entries whose squared Frobenius norm passes the float range:
    their Hermitian part and spectrum would overflow, so the gate refuses
    them by name before it solves."""

    def test_refusal_names_the_subject(self):
        for vectors in (True, False):
            with pytest.raises(SpcpmError) as info:
                linalg.psd_spectrum(np.diag([1.5e308, 1.0]), vectors, "coefficient matrix")
            assert str(info.value) == (
                "coefficient matrix is too large: its squared Frobenius norm overflows"
            )

    def test_a_norm_below_the_range_is_decided(self):
        w, _ = linalg.psd_spectrum(np.diag([1e154, 1.0]).astype(complex), False, "matrix")
        assert w.tolist() == [1.0, 1e154]

    def test_block_psd_check_answers_false(self):
        # [[1, 1.7e308], [1.7e308, 1]] has the eigenvalue 1 - 1.7e308
        assert linalg.block_psd_check(np.eye(1), np.eye(1), [[1.7e308]]) is False
        assert linalg.block_psd_failure(np.eye(1), np.eye(1), [[1.7e308]]) == (
            "assembled block matrix is too large: its squared Frobenius norm overflows"
        )

    def test_inv_sqrt_psd_refuses(self):
        with pytest.raises(SpcpmError, match="^matrix is too large"):
            linalg.inv_sqrt_psd(np.diag([1.5e308, 1.0]))


class TestBlockPsdCheck:
    def test_borderline_true(self):
        # assembled [[1, 1], [1, 1]] has eigenvalues 0 and 2
        assert linalg.block_psd_check(np.eye(1), np.eye(1), np.eye(1))

    def test_too_large_coupling(self):
        # assembled [[1, 2], [2, 1]] has negative determinant
        assert not linalg.block_psd_check(np.eye(1), np.eye(1), 2.0 * np.eye(1))

    def test_agrees_with_assembled_eigendecomposition(self):
        rng = np.random.default_rng(15)
        n, m = 3, 2
        for trial in range(200):
            rank = int(rng.integers(1, n + m + 1))
            f = random_psd(rng, n + m, rank)
            if trial % 2:
                vec = crandn(rng, n + m)
                vec /= np.linalg.norm(vec)
                top = np.linalg.eigvalsh(f).max()
                f = f - 1.5 * top * np.outer(vec, vec.conj())
            a, b, c = f[:n, :n], f[n:, n:], f[:n, n:]
            assert linalg.block_psd_check(a, b, c) == psd_by_eigvals(f)

    def test_schur_side_interchangeable(self):
        # the permuted assembly [[B, C†], [C, A]] is unitarily similar
        rng = np.random.default_rng(16)
        n, m = 3, 3
        for trial in range(100):
            rank = int(rng.integers(1, n + m + 1))
            f = random_psd(rng, n + m, rank)
            if trial % 2:
                vec = crandn(rng, n + m)
                vec /= np.linalg.norm(vec)
                top = np.linalg.eigvalsh(f).max()
                f = f - 1.5 * top * np.outer(vec, vec.conj())
            a, b, c = f[:n, :n], f[n:, n:], f[:n, n:]
            assert linalg.block_psd_check(a, b, c) == linalg.block_psd_check(
                b, a, c.conj().T
            )

    @pytest.mark.parametrize(
        "small, failure",
        [
            (-3e-10, None),
            (
                -5e-10,
                "assembled block matrix is not positive semi-definite: "
                "smallest eigenvalue -5.000e-10 < floor -4.000e-10",
            ),
        ],
        ids=["accepted", "refused"],
    )
    def test_assembled_floor_is_minus_the_cutoff(self, small, failure):
        # floor -DEFAULT_RTOL * max(1, max|w|) = -4e-10, the floor of the
        # coefficient matrix; a diagonal matrix has exact eigenvalues in
        # every solver
        a, c = np.array([[4.0]]), np.zeros((1, 1))
        assert linalg.block_psd_failure(a, np.array([[small]]), c) == failure

    def test_non_hermitian_triple_names_its_asymmetry(self):
        a = np.array([[1.0, 1e-3], [0.0, 1.0]])
        assert linalg.block_psd_failure(a, np.eye(1), np.zeros((2, 1))) == (
            "assembled block matrix is not Hermitian within tol=1e-10 "
            "(asymmetry 1.414e-03)"
        )

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(SpcpmError, match="coupling block has shape"):
            linalg.block_psd_check(np.eye(2), np.eye(2), np.zeros((3, 2)))


def test_psd_quadratic_form_cauchy_schwarz():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        d = random_psd(rng, n, int(rng.integers(1, n + 1)))
        a = crandn(rng, n)
        b = crandn(rng, n)
        lhs = abs(a.conj() @ d @ b) ** 2
        rhs = (a.conj() @ d @ a).real * (b.conj() @ d @ b).real
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestInvSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(linalg.inv_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        out = linalg.inv_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_whitening_identity(self):
        rng = np.random.default_rng(23)
        m = random_psd(rng, 4, 4) + 0.1 * np.eye(4)
        root = linalg.inv_sqrt_psd(m)
        assert np.linalg.norm(root - root.conj().T) == 0.0
        assert np.linalg.norm(root @ m @ root - np.eye(4)) <= 1e-9

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.inv_sqrt_psd(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "diagonal, bound",
        [([1.0, 0.0], "1.000e-10"), ([4.0, 3e-10], "4.000e-10"), ([0.0, 0.0], "0.000e+00")],
        ids=["singular", "below-bound", "zero"],
    )
    def test_singular_refusal_names_the_eigenvalue_and_bound(self, diagonal, bound):
        # the bound is DEFAULT_RTOL times the largest eigenvalue
        with pytest.raises(SingularMatrixError) as info:
            linalg.inv_sqrt_psd(np.diag(diagonal))
        assert str(info.value) == (
            f"matrix is not positive definite: smallest eigenvalue "
            f"{min(diagonal):.3e} <= bound {bound}"
        )

    def test_indefinite_is_refused_as_not_psd(self):
        # an indefinite matrix fails the PSD gate before the singularity rule
        with pytest.raises(SpcpmError) as info:
            linalg.inv_sqrt_psd(np.diag([1.0, -1.0]))
        assert not isinstance(info.value, SingularMatrixError)
        assert str(info.value) == (
            "matrix is not positive semi-definite: smallest eigenvalue "
            "-1.000e+00 < floor -1.000e-10"
        )

    def test_rejects_non_square(self):
        with pytest.raises(SpcpmError, match=r"^matrix has shape \(2, 3\), expected \(2, 2\)$"):
            linalg.inv_sqrt_psd(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(SpcpmError, match="not Hermitian"):
            linalg.inv_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda m: linalg.block_psd_check(m, m, m), "first diagonal block"),
        (linalg.inv_sqrt_psd, "matrix"),
    ],
    ids=["block_psd_check", "inv_sqrt_psd"],
)
def test_empty_matrices_are_refused(call, what):
    with pytest.raises(SpcpmError, match=rf"^{what} must not be empty, got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))
