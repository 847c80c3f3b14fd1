"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from spcpm import linalg
from spcpm.errors import SingularMatrixError, SpcpmError


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = crandn(rng, n, n)
    return (g + g.conj().T) / 2


def random_psd(rng, n, rank):
    g = crandn(rng, n, rank)
    return g @ g.conj().T


def assemble(a, b, c):
    """Direct block assembly [[A, C], [C†, B]] used as the oracle."""
    n, m = a.shape[0], b.shape[0]
    f = np.zeros((n + m, n + m), dtype=np.complex128)
    f[:n, :n] = a
    f[:n, n:] = c
    f[n:, :n] = c.conj().T
    f[n:, n:] = b
    return f


def psd_by_eigvals(m, tol=1e-9):
    """Independent positivity oracle: eigenvalues of the symmetrized matrix."""
    if np.linalg.norm(m - m.conj().T) > tol * max(1.0, np.linalg.norm(m)):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return w[0] >= -tol * max(1.0, np.abs(w).max())


class TestHermitianEig:
    def test_identity(self):
        w, v = linalg.hermitian_eig(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-14)

    def test_already_diagonal(self):
        w, v = linalg.hermitian_eig(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0], atol=1e-14)
        # eigenvector matrix is a permutation (ascending order swaps the columns)
        np.testing.assert_allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        w, v = linalg.hermitian_eig(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(h - v @ np.diag(w) @ v.conj().T) <= 1e-10 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(8)
        w, _ = linalg.hermitian_eig(random_hermitian(rng, 6))
        assert np.all(np.diff(w) >= 0)

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 5)
        # degenerate cluster: eigenvalue 1 with multiplicity 3
        q, _ = np.linalg.qr(crandn(rng, 4, 4))
        degenerate = q @ np.diag([1.0, 1.0, 1.0, 2.0]) @ q.conj().T
        for mat in (h, degenerate):
            first = linalg.hermitian_eig(mat)
            second = linalg.hermitian_eig(mat.copy())
            np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
            np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_square(self):
        with pytest.raises(SpcpmError, match="expected a square matrix"):
            linalg.hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(SpcpmError, match="not Hermitian"):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestIsPsd:
    def test_identity(self):
        assert linalg.is_psd(np.eye(2))

    def test_small_negative_eigenvalue(self):
        assert not linalg.is_psd(np.diag([1.0, -1e-3]), tol=1e-9)

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            stacked = crandn(rng, 4, 6)  # four 3x2 operators, flattened
            g = stacked.conj() @ stacked.T
            assert linalg.is_psd(g)
            # oracle: eigenvalues directly
            assert psd_by_eigvals(g)

    def test_non_hermitian_is_not_psd(self):
        assert not linalg.is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(SpcpmError, match="expected a square matrix"):
            linalg.is_psd(np.zeros((2, 3)))


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
        # testing against the permuted assembly exercises the other Schur side
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
            # at the cutoff tol * max|w| = 1e-9 the eigenvalue is kernel
            (1e-9, "coupling block has support on the kernel of the upper-left block"),
            (2e-9, "Schur complement is not positive semi-definite"),
        ],
        ids=["at-cutoff", "above-cutoff"],
    )
    def test_upper_left_eigenvalue_at_the_cutoff_is_kernel(self, small, failure):
        # a diagonal A has exact eigenvalues in every solver
        a = np.diag([1.0, small])
        c = np.array([[0.0], [1e-3]])
        assert linalg.block_psd_failure(a, np.eye(1), c) == failure

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
    "call",
    [
        linalg.is_psd,
        linalg.psd_eig,
        lambda m: linalg.block_psd_check(m, m, m),
        linalg.inv_sqrt_psd,
    ],
    ids=["is_psd", "psd_eig", "block_psd_check", "inv_sqrt_psd"],
)
def test_empty_matrices_are_refused(call):
    with pytest.raises(SpcpmError, match="must not be empty"):
        call(np.zeros((0, 0)))
