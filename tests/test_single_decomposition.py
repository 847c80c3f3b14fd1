"""One decomposition per Hermitian matrix.

The references below are the routes the library used before it read the
PSD verdict, the kept eigenpairs and the kernel projectors from a single
``eigh``: a positivity test with ``eigvalsh`` followed by a second ``eigh``,
a per-vector phase gauge, a Gram-matrix diagonalization for the orthonormal
form, and ``I - A A^+`` / ``B^+`` built from separate pseudo-inverses.  They
are written in plain numpy and share no code with the library.  Like the
library, the Choi references decompose only the units whose row or column
holds a nonzero entry; ``test_live_units.py`` compares against the whole
matrix.  The library decides a block triple from one ``eigvalsh`` of the
assembled matrix, so the Schur-complement reference is the second,
independent PSD route its verdicts are checked against.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spcpm import dilation
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
from spcpm.errors import SpcpmError
from spcpm.linalg import block_psd_check, block_psd_failure, psd_spectrum
from spcpm.spaces import DecomposedSpace
from channel_helpers import crandn, full_rank_tp_channel
from test_sp import ORACLE_CASES

RTOL = 1e-10


def reference_is_psd(m, tol):
    if np.linalg.norm(m - m.conj().T) > tol * max(1.0, np.linalg.norm(m)):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(w[0] >= -tol * max(1.0, float(np.max(np.abs(w)))))


def reference_choi_to_kraus(rep, rtol=RTOL):
    """PSD test, then a second decomposition, then the gauge vector by vector,
    all on the units whose row or column holds a nonzero entry."""
    ds, dt = rep.source.dim, rep.target.dim
    live = [i for i in range(ds * dt) if rep.matrix[i].any() or rep.matrix[:, i].any()]
    ops = []
    if live:
        m = rep.matrix[np.ix_(live, live)]
        if not reference_is_psd(m, rtol):
            raise SpcpmError("coefficient matrix is not positive semi-definite")
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        cutoff = rtol * max(1.0, float(np.max(np.abs(w))))
        for n in range(len(w)):
            if w[n] > cutoff:
                vec = np.zeros(ds * dt, dtype=np.complex128)
                vec[live] = v[:, n]
                mags = np.abs(vec)
                idx = int(np.argmax(mags > 1e-12 * float(mags.max())))
                vec = vec * np.conj(vec[idx] / mags[idx])
                ops.append(np.sqrt(w[n]) * vec.reshape(dt, ds))
    if not ops:
        ops = [np.zeros((dt, ds), dtype=np.complex128)]
    return KrausRep(rep.source, rep.target, tuple(ops))


def reference_orthonormal_kraus(rep, rtol=RTOL):
    """Minimal list, then the eigendecomposition of its Gram matrix."""
    lin = reference_choi_to_kraus(kraus_to_choi(rep), rtol)
    stacked = np.stack([op.ravel() for op in lin.ops])
    gram = stacked.conj() @ stacked.T
    w, u = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    cutoff = rtol * max(1.0, float(np.max(np.abs(w))))
    ops = np.stack(lin.ops)
    return [
        (float(w[n]), np.tensordot(u[:, n], ops, axes=(0, 0)) / np.sqrt(w[n]))
        for n in range(len(w))
        if w[n] > cutoff
    ]


def reference_pinv(b, rtol):
    w, v = np.linalg.eigh((b + b.conj().T) / 2.0)
    keep = np.abs(w) > rtol * max(1.0, float(np.max(np.abs(w))))
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv) @ v.conj().T


def reference_block_psd_failure(a, b, c, tol=RTOL):
    """Positivity of both blocks, I - A A^+ and C (I - B B^+), and the Schur
    complement through B^+: six decompositions on a PSD triple."""
    if not reference_is_psd(a, tol):
        return "upper-left block is not positive semi-definite"
    if not reference_is_psd(b, tol):
        return "lower-right block is not positive semi-definite"
    scale = max(1.0, np.linalg.norm(c))
    kernel_a = np.eye(a.shape[0]) - a @ reference_pinv(a, tol)
    if np.linalg.norm(kernel_a @ c) > tol * scale:
        return "coupling block has support on the kernel of the upper-left block"
    kernel_b = np.eye(b.shape[0]) - b @ reference_pinv(b, tol)
    if np.linalg.norm(c @ kernel_b) > tol * scale:
        return "coupling block has support on the kernel of the lower-right block"
    if not reference_is_psd(a - c @ reference_pinv(b, tol) @ c.conj().T, tol):
        return "Schur complement is not positive semi-definite"
    return None


DILATION_SPLITS = [(1, 3), (3, 1), (2, 2), (3, 3), (4, 4)]


def assert_same_ops(got, want):
    assert len(got.ops) == len(want.ops)
    for a, b in zip(got.ops, want.ops):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,rep", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_choi_to_kraus_is_bit_identical_on_oracle_channels(name, rep):
    choi = kraus_to_choi(rep)
    assert_same_ops(choi_to_kraus(choi), reference_choi_to_kraus(choi))


@pytest.mark.parametrize("d1,d2", DILATION_SPLITS, ids=[f"{a}+{b}" for a, b in DILATION_SPLITS])
def test_choi_to_kraus_and_dilation_are_bit_identical(d1, d2, monkeypatch):
    rep = full_rank_tp_channel(d1, d2, 990 + 10 * d1 + d2)
    choi = kraus_to_choi(rep)
    assert_same_ops(choi_to_kraus(choi), reference_choi_to_kraus(choi))
    u = build_dilation(rep).u
    monkeypatch.setattr(dilation, "choi_to_kraus", reference_choi_to_kraus)
    assert u.tobytes() == build_dilation(rep).u.tobytes()


def test_choi_to_kraus_zero_and_rank_one_match_reference():
    rng = np.random.default_rng(991)
    space = DecomposedSpace(1, 2)
    vec = crandn(rng, 9)
    for mat in (np.zeros((9, 9)), np.outer(vec, vec.conj())):
        choi = ChoiRep(space, space, mat)
        assert_same_ops(choi_to_kraus(choi), reference_choi_to_kraus(choi))


@pytest.mark.parametrize("name,rep", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_orthonormal_kraus_matches_gram_route(name, rep):
    pairs = orthonormal_kraus(rep)
    ref = reference_orthonormal_kraus(rep)
    assert len(pairs) == len(ref)
    w = np.array([r for r, _ in pairs])
    w_ref = np.array([r for r, _ in ref])
    # one bound at the spectrum's scale, as test_live_units.py applies: a
    # small eigenvalue moves by the rounding of a solve of any size
    assert np.all(np.abs(w - w_ref) <= 1e-12 * np.max(np.abs(w_ref), initial=0.0))
    ys = np.stack([y.ravel() for _, y in pairs])
    assert np.max(np.abs(ys.conj() @ ys.T - np.eye(len(pairs)))) <= 1e-12
    rebuilt = KrausRep(rep.source, rep.target, tuple(np.sqrt(r) * y for r, y in pairs))
    assert channels_equal(rep, rebuilt)


def random_triples(rng):
    """Block triples on every side of each condition of block_psd_failure."""
    for _ in range(60):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        g = crandn(rng, n + m, int(rng.integers(1, n + m + 1)))
        f = g @ g.conj().T
        a, b, c = f[:n, :n], f[n:, n:], f[:n, n:]
        yield a, b, c  # PSD, often rank deficient
        yield a, b, 1.5 * c  # past the Schur bound unless c is tiny
        yield a, b, c + 1e-3 * crandn(rng, n, m)  # support on a kernel
        h = crandn(rng, n, n)
        yield (h + h.conj().T) / 2, b, c  # indefinite upper-left block
        yield a, b - 2.0 * np.abs(b).max() * np.eye(m), c  # indefinite lower-right
        yield a + 1e-3 * crandn(rng, n, n), b, c  # non-Hermitian upper-left
        yield a, b + 1e-3 * crandn(rng, m, m), c  # non-Hermitian lower-right
        vec = crandn(rng, n + m)
        vec /= np.linalg.norm(vec)
        f = f - 1.5 * np.linalg.eigvalsh(f).max() * np.outer(vec, vec.conj())
        yield f[:n, :n], f[n:, n:], f[:n, n:]  # assembled matrix indefinite


def test_block_psd_failure_matches_pseudo_inverse_route():
    rng = np.random.default_rng(992)
    seen = set()
    for a, b, c in random_triples(rng):
        accepted = block_psd_failure(a, b, c) is None
        assert accepted == (reference_block_psd_failure(a, b, c) is None)
        seen.add(accepted)
    assert seen == {True, False}


# Gram triples: F = G G† split into [[A, C], [C†, B]], so F is PSD by
# construction.  A triple is made indefinite by subtracting t v v† with
# t = v†Fv + 1e-2 λmax(F) for a unit vector v: then v†F'v = -1e-2 λmax(F),
# and |w| <= λmax(F) + t <= 2.01 λmax(F), so the smallest eigenvalue of F'
# lies below -1e-3 max|w| by construction.
TRIPLE_SPLITS = [(1, 7), (7, 1), (1, 1), (2, 3), (3, 2), (4, 4)]


def gram_triple(split, seed, singular_a, zero_cross, scale, psd):
    n, m = split
    rng = np.random.default_rng(seed)
    g = crandn(rng, n + m, 1 + seed % (n + m))
    if singular_a:  # the rows of A's part of G span at most n - 1 dims
        q = np.linalg.qr(crandn(rng, n, n))[0][:, : n - 1]
        g[:n] = q @ (q.conj().T @ g[:n])
    f = scale * (g @ g.conj().T)
    if zero_cross:
        f[:n, n:] = 0.0
        f[n:, :n] = 0.0
    if not psd:
        v = crandn(rng, n + m)
        v /= np.linalg.norm(v)
        t = (v.conj() @ f @ v).real + 1e-2 * np.linalg.eigvalsh(f)[-1]
        f = f - t * np.outer(v, v.conj())
    return f[:n, :n], f[n:, n:], f[:n, n:]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(TRIPLE_SPLITS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
    st.booleans(),
)
@example((1, 7), 3, True, False, 1e3, True)
@example((7, 1), 4, True, False, 1e-3, False)
def test_block_psd_verdict_matches_pseudo_inverse_route_on_gram_triples(
    split, seed, singular_a, zero_cross, scale, psd
):
    a, b, c = gram_triple(split, seed, singular_a, zero_cross, scale, psd)
    accepted = block_psd_failure(a, b, c) is None
    assert accepted == (reference_block_psd_failure(a, b, c) is None)
    assert accepted == psd
    if not psd:
        w = np.linalg.eigvalsh(np.block([[a, c], [c.conj().T, b]]))
        assert w[0] <= -1e-3 * np.abs(w).max()


@pytest.fixture
def decompositions(monkeypatch):
    """Count the calls of numpy's Hermitian eigensolvers and record the name
    of the solver and the shape of each input."""
    count = {"n": 0, "shapes": [], "solvers": []}
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, _name=name, **kwargs):
            count["n"] += 1
            count["shapes"].append(np.shape(a))
            count["solvers"].append(_name)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


def test_one_decomposition_per_matrix(decompositions):
    rep = full_rank_tp_channel(2, 2, 993)
    decompositions["solvers"].clear()  # the sampler's normalizer is not counted
    decompositions["shapes"].clear()
    choi_to_kraus(kraus_to_choi(rep))
    orthonormal_kraus(rep)
    build_dilation(rep)
    # one eigh, of the 8 intra-block units of the 16, read by all three
    assert decompositions["solvers"] == ["eigh"]
    assert decompositions["shapes"] == [(8, 8)]
    # the rank keeps its own values-only solve
    assert kraus_rank(rep) == 8
    assert decompositions["solvers"] == ["eigh", "eigvalsh"]
    assert decompositions["shapes"] == [(8, 8), (8, 8)]
    g = crandn(np.random.default_rng(994), 5, 3)
    f = g @ g.conj().T
    decompositions["n"] = 0
    assert block_psd_check(f[:2, :2], f[2:, 2:], f[:2, 2:])
    assert decompositions["n"] == 1


def test_kraus_rank_reads_eigenvalues_only(decompositions):
    rep = full_rank_tp_channel(2, 2, 995)
    assert len(rep.ops) == 8
    decompositions["solvers"].clear()  # the sampler's normalizer is not counted
    decompositions["shapes"].clear()
    assert kraus_rank(rep) == 8
    assert decompositions["solvers"] == ["eigvalsh"]
    assert decompositions["shapes"] == [(8, 8)]


@pytest.mark.parametrize(
    "n, rank, seed", [(2, 5, 996), (3, 2, 997)], ids=["nonsingular", "rank-deficient"]
)
def test_block_psd_check_calls_one_eigvalsh(decompositions, n, rank, seed):
    # rank 2 leaves the 3 x 3 upper-left block with a kernel
    g = crandn(np.random.default_rng(seed), 5, rank)
    f = g @ g.conj().T
    assert block_psd_check(f[:n, :n], f[n:, n:], f[:n, n:])
    assert decompositions["solvers"] == ["eigvalsh"]
    assert decompositions["shapes"] == [(5, 5)]


@pytest.mark.parametrize("vectors, solver", [(False, "eigvalsh"), (True, "eigh")])
def test_psd_spectrum_calls_one_solver(decompositions, vectors, solver):
    w, v = psd_spectrum(np.diag([2.0, 1.0, 0.0]).astype(complex), vectors, "matrix")
    assert list(w) == [0.0, 1.0, 2.0] and (v is None) is not vectors
    assert decompositions["solvers"] == [solver]
    assert decompositions["shapes"] == [(3, 3)]
