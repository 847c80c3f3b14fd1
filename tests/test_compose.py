"""Composition at the rank bound.

``compose`` contracts the two coefficient matrices and returns the minimal
Kraus list of the composite.  The reference is the list of all pairwise
products W_l V_k (``channel_helpers.pairwise_compose``), whose coefficient
matrix is the composite's by definition; the two agree to rounding, and the
minimal list never holds more than ds·dt operators, however many the inputs
hold, so a chain of compositions does not grow.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from spcpm.cpm import KrausRep, compose, kraus_rank, kraus_to_choi
from spcpm.sp import kraus_blocks_violation, random_sp_channel
from spcpm.spaces import DecomposedSpace
from channel_helpers import pairwise_compose
from test_sp import leaky_twin

SPLITS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1)]
KINDS = ["sp", "leaky", "non-tp"]


def assert_composes_like_pairwise(b, a):
    """``compose(b, a)``, checked: it holds at most ds·dt operators, and its
    coefficient matrix lies within 1e-13·max|C| of the pairwise reference's
    C, plus the eigenvalues of C at or below the rank cutoff, which the
    minimal list drops (a composite can have true eigenvalues there, e.g.
    ~6e-11 against a cutoff of ~1.2e-10)."""
    got = compose(b, a)
    want = kraus_to_choi(pairwise_compose(b, a)).matrix
    w = np.abs(np.linalg.eigvalsh((want + want.conj().T) / 2.0))
    dropped = w[w <= 1e-10 * max(1.0, w.max())].sum()
    diff = np.abs(kraus_to_choi(got).matrix - want).max()
    assert diff <= 1e-13 * np.abs(want).max() + dropped
    assert len(got.ops) <= a.source.dim * b.target.dim
    return got


def channel(source, target, kind, k, seed):
    """An SP channel, its leaky twin (TP, not SP), or a non-TP channel with
    a dense cross-block part, of at least k operators."""
    if kind == "non-tp":
        rng = np.random.default_rng(seed)
        rep = random_sp_channel(source, target, k, False, seed)
        noise = rng.standard_normal(rep.ops.shape) + 1j * rng.standard_normal(rep.ops.shape)
        return KrausRep(source, target, rep.ops + 0.1 * noise)
    k = max(k, -(-source.d1 // target.d1), -(-source.d2 // target.d2))
    rep = random_sp_channel(source, target, k, True, seed)
    if kind == "leaky":
        return KrausRep(source, target, leaky_twin(rep.ops, target))
    return rep


@st.composite
def chains(draw, length):
    """``length + 1`` splits, and per channel its kind and operator count,
    then a seed: the arguments of :func:`build_chain`."""
    splits = [draw(st.sampled_from(SPLITS)) for _ in range(length + 1)]
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(length)]
    counts = [draw(st.integers(1, 4)) for _ in range(length)]
    return splits, kinds, counts, draw(st.integers(0, 2**32 - length))


def build_chain(splits, kinds, counts, seed):
    """The channels between consecutive splits, first acting first."""
    spaces = [DecomposedSpace(*s) for s in splits]
    return [
        channel(spaces[n], spaces[n + 1], kind, k, seed + n)
        for n, (kind, k) in enumerate(zip(kinds, counts))
    ]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chains(2))
@example(([(1, 2), (2, 1), (1, 2)], ["sp", "sp"], [3, 3], 5))
@example(([(2, 1), (1, 2), (2, 1)], ["sp", "sp"], [1, 1], 6))
# an eigenvalue of 6.6e-11 falls below the cutoff 1.2e-10 and is dropped
@example(([(2, 2), (2, 2), (2, 2)], ["leaky", "sp"], [4, 4], 0))
def test_compose_agrees_with_the_pairwise_products(chain):
    a, b = build_chain(*chain)
    got = assert_composes_like_pairwise(b, a)
    if set(chain[1]) == {"sp"}:
        assert kraus_blocks_violation(got)[0] == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chains(4))
@example(([(1, 2), (2, 1), (1, 2), (2, 1), (1, 2)], ["sp"] * 4, [2] * 4, 9))
def test_a_chain_of_three_compositions_stays_within_the_bound(chain):
    reps = build_chain(*chain)
    composite = reps[0]
    for nxt in reps[1:]:
        composite = assert_composes_like_pairwise(nxt, composite)
    assert len(composite.ops) <= reps[0].source.dim * reps[-1].target.dim
    if set(chain[1]) == {"sp"}:
        assert kraus_blocks_violation(composite)[0] == 0.0


def test_sp_chain_at_2_2_stays_at_the_sp_bound():
    """Three compositions of full-rank SP channels at 2+2: the pairwise list
    grows 64 -> 512 -> 4096, the minimal one stays at the bound 2·2 + 2·2."""
    space = DecomposedSpace(2, 2)
    a = random_sp_channel(space, space, 8, True, 31)
    composite = a
    for _ in range(3):
        composite = compose(a, composite)
        assert len(composite.ops) == 8
        assert kraus_blocks_violation(composite)[0] == 0.0


def test_sub_normalized_channels_compose_to_the_zero_channel():
    """Scaled by 1e-3, each channel's coefficient matrix is ~1e-6 of a
    channel's and the composite's ~1e-12, below the rank cutoff 1e-10:
    compose drops it all and returns one all-zero operator, the rank the
    pairwise list already reports."""
    space = DecomposedSpace(2, 2)
    a = random_sp_channel(space, space, 8, True, 41)
    small = KrausRep(space, space, 1e-3 * a.ops)
    got = compose(small, small)
    assert got.ops.shape == (1, 4, 4)
    assert not got.ops.any()
    assert kraus_rank(pairwise_compose(small, small)) == 0
