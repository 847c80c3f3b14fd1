"""The short paths keep the bits of the formulas they replace.

Each test rebuilds a former formula here (numpy's ``norm``, ``max|w|`` over
the whole spectrum, a subtraction of ``np.eye``) and compares bytes, not
values.  The array gate must return a ``complex128`` array itself, make
every other input a plain native ``complex128`` array, and word each refusal
the same whatever the input's type.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcpm import linalg
from spcpm.cpm import ChoiRep, KrausRep, is_trace_preserving
from spcpm.dilation import _isometry_defect, build_dilation
from spcpm.errors import SpcpmError
from spcpm.sp import SPBlockRep, blocks_from_sp, random_sp_channel, sp_from_blocks
from spcpm.spaces import DecomposedSpace
from channel_helpers import crandn

RNG = np.random.default_rng(2718)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


NORM_INPUTS = {
    "real-1d": RNG.standard_normal(7),
    "real-1d-strided": RNG.standard_normal(60)[::7],
    "real-2d-C": RNG.standard_normal((5, 4)),
    "real-2d-F": np.asfortranarray(RNG.standard_normal((40, 30))),
    "complex-1d": crandn(RNG, 9),
    "complex-2d-C": crandn(RNG, 33, 17),
    "complex-2d-F": np.asfortranarray(crandn(RNG, 40, 30)),
    "complex-2d-strided": crandn(RNG, 64, 60)[::2, 1::3],
    "complex-2d-transposed": crandn(RNG, 30, 50).T,
    "complex-3d-stack": crandn(RNG, 8, 6, 6),
    "complex-zero": np.zeros((3, 3), dtype=np.complex128),
}


@pytest.mark.parametrize("name", NORM_INPUTS)
def test_frobenius_is_numpys_norm(name):
    x = NORM_INPUTS[name]
    got = linalg.frobenius(x)
    assert type(got) is float
    assert bits(got) == bits(np.linalg.norm(x))


SPECTRA = {
    "mixed": [-3e-11, 0.5, 7.0],
    "negative-end-largest": [-50.0, 3.0, 20.0],
    "all-negative": [-9.0, -4.0, -1e-3],
    "all-zero": [0.0, 0.0, 0.0],
    "below-one": [-0.2, 0.1],
    "length-1": [2.5],
    "length-1-negative": [-2.5],
    "length-1-zero": [0.0],
}


def max_abs_cutoff(w) -> float:
    """The former formula, over the whole spectrum."""
    return linalg.DEFAULT_RTOL * max(1.0, float(np.max(np.abs(w))))


@pytest.mark.parametrize("name", SPECTRA)
def test_rank_cutoff_is_the_max_abs_formula(name):
    w = np.array(SPECTRA[name])
    assert type(linalg.rank_cutoff(w)) is float
    assert bits(linalg.rank_cutoff(w)) == bits(max_abs_cutoff(w))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=12))
def test_rank_cutoff_is_the_max_abs_formula_on_any_ascending_spectrum(values):
    w = np.sort(np.array(values))
    assert bits(linalg.rank_cutoff(w)) == bits(max_abs_cutoff(w))


def test_rank_cutoff_of_eigh_spectra_is_the_max_abs_formula():
    for n in (1, 2, 5, 12):
        g = crandn(RNG, n, n)
        for m in (g + g.conj().T, -(g @ g.conj().T), g @ g.conj().T):
            w = np.linalg.eigvalsh(m)
            assert bits(linalg.rank_cutoff(w)) == bits(max_abs_cutoff(w))


def eye_defect(stack: np.ndarray) -> np.ndarray:
    """The former Gram defect: sum_k V_k† V_k - np.eye(n)."""
    flat = stack.reshape(-1, stack.shape[-1])
    return flat.conj().T @ flat - np.eye(flat.shape[1])


def gram_channels():
    for d1, d2 in ((1, 1), (2, 2), (1, 3), (3, 2), (4, 4)):
        space = DecomposedSpace(d1, d2)
        for seed in range(3):
            for tp in (True, False):
                yield random_sp_channel(space, space, d1 * d1 + d2 * d2, tp, seed)


def test_trace_preservation_decides_at_the_eye_formulas_defect():
    # the verdict flips exactly at the former defect, so the defect has its bits
    for rep in gram_channels():
        defect = linalg.frobenius(eye_defect(rep.ops))
        if defect == 0.0:
            continue
        assert is_trace_preserving(rep, defect)
        assert not is_trace_preserving(rep, float(np.nextafter(defect, 0.0)))


def test_isometry_defect_is_the_eye_formula():
    for rep in gram_channels():
        if not is_trace_preserving(rep):
            continue
        dil = build_dilation(rep)
        for pieces in (dil.a1, dil.a2):
            e = eye_defect(pieces)
            assert bits(_isometry_defect(pieces)) == bits(linalg.frobenius(e @ e + 2 * e))


def test_complex128_arrays_come_back_uncopied():
    x = crandn(RNG, 3, 4)
    frozen = KrausRep(DecomposedSpace(1, 1), DecomposedSpace(1, 1), crandn(RNG, 2, 2, 2)).ops
    for arr in (x, x[:, ::2], x.T, frozen):
        assert linalg.checked_array(arr, (None,) * arr.ndim, "m") is arr


@pytest.mark.parametrize(
    "x",
    [
        np.array([[1, 2], [3, 4]]),
        np.array([[1.0, 2.0]], dtype=np.float32),
        np.array([[1 + 2j]], dtype=np.complex64),
        np.array([[1 + 2j, 3]], dtype=">c16"),
        np.eye(2, dtype=np.complex128).view(type("Subclass", (np.ndarray,), {})),
        [[1, 2j]],
    ],
    ids=["int", "float32", "complex64", "big-endian", "subclass", "list"],
)
def test_other_inputs_become_plain_native_complex128(x):
    arr = linalg.checked_array(x, (None, None), "m")
    assert type(arr) is np.ndarray
    assert arr.dtype == np.complex128 and arr.dtype.isnative
    assert np.array_equal(arr, np.asarray(x))


REFUSALS = [
    (np.array([[1.0, np.nan]]), (1, 2), "m must have finite entries"),
    (np.array([[1.0], [np.inf]]), (2, 1), "m must have finite entries"),
    (np.array([[complex(0, -np.inf)]]), (1, 1), "m must have finite entries"),
    (np.zeros((2, 3)), (2, 2), "m has shape (2, 3), expected (2, 2)"),
    (np.zeros((2, 2)), (None, None, None), "m has shape (2, 2), expected (*, *, *)"),
    (np.zeros((0, 2)), (None, 2), "m must not be empty, got shape (0, 2)"),
    (np.zeros((3, 0, 3)), (None, 3, 3), "m must not be empty, got shape (3, 0, 3)"),
]


@pytest.mark.parametrize("x, shape, message", REFUSALS,
                         ids=["nan", "inf", "imaginary-inf", "shape", "axes", "empty",
                              "empty-stack"])
def test_every_input_type_gets_the_same_refusal(x, shape, message):
    # complex128 passes the gate uncopied, complex64 and float64 as copies
    for dtype in (np.complex128, np.complex64, np.float64):
        if dtype is np.float64 and np.iscomplexobj(x):
            continue
        with pytest.raises(SpcpmError) as refusal:
            linalg.checked_array(x.astype(dtype), shape, "m")
        assert str(refusal.value) == message


def gram(g: np.ndarray) -> np.ndarray:
    return g @ g.conj().T


def triples():
    """Block triples with and without dead units (all-zero rows)."""
    for (a, b), (c, d), k in (((2, 2), (2, 2), 8), ((2, 2), (2, 2), 3), ((1, 3), (2, 1), 2)):
        rep = random_sp_channel(DecomposedSpace(a, b), DecomposedSpace(c, d), k, False, 5)
        yield blocks_from_sp(rep)
    c22 = DecomposedSpace(2, 2)
    g = crandn(RNG, 4, 2)
    g[1] = 0.0  # unit 1 of block 1 is dead
    h = crandn(RNG, 4, 3)
    yield SPBlockRep(c22, c22, gram(g), gram(h), np.zeros((4, 4)))
    yield SPBlockRep(c22, c22, gram(g), np.zeros((4, 4)), np.zeros((4, 4)))
    yield SPBlockRep(c22, c22, np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))


def test_generation_decomposes_the_triple_as_conversion_decomposes_the_matrix():
    # generation gates the triple with its ChoiRep's own decomposition, the
    # memo conversion reads: bit for bit the decomposition a fresh ChoiRep of
    # the same matrix makes, with and without dead units
    for triple in triples():
        made = sp_from_blocks(triple)
        fresh = ChoiRep(made.source, made.target, made.matrix)
        for stored, scanned in zip(made._spectrum, fresh._spectrum):
            assert stored.shape == scanned.shape
            assert stored.tobytes() == scanned.tobytes()
