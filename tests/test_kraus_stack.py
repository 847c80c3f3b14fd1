"""One Kraus stack: the library reads ``KrausRep.ops`` as a single
(K, dt, ds) array.

The references below are the per-operator loop forms the library used
before: a running sum of sandwiches for ``apply``, a running sum of V_k† V_k
for the sampler's normalizer, and one block written into a zero operator per
operator and block for ``split_kraus_blocks`` and the sampler.  The stacked
forms do the same arithmetic in the same order, so every result must be
bit-identical; this also pins the README promise that ``gen`` writes the
same files for the same seed.  ``is_trace_preserving`` alone sums
differently: it reads S = sum_k V_k† V_k as one (K dt, ds) product, which
agrees with the running sum up to rounding and decides exactly at its own
defect.  ``compose`` returns a minimal list, not the pairwise products, so
it is checked against them through the coefficient matrix
(``test_compose.py``).  The sampler reads all of its entries from one
standard-normal draw; the per-operator reference draws them operator by
operator, block 1 before block 2, real before imaginary parts.  The
reference retries a singular normalizer with up to 8 draws, so matching it
shows that the sampler's shape rule, decided before its one draw, refuses
nothing that 8 draws could normalize.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spcpm.sp
from spcpm.cpm import apply, is_trace_preserving
from spcpm.errors import SingularMatrixError
from spcpm.linalg import inv_sqrt_psd
from spcpm.sp import random_sp_channel, split_kraus_blocks
from spcpm.spaces import DecomposedSpace
from channel_helpers import crandn
from test_compose import assert_composes_like_pairwise
from test_sp import ORACLE_CASES

ORACLE_IDS = [c[0] for c in ORACLE_CASES]


def loop_apply(rep, q):
    out = np.zeros((rep.target.dim, rep.target.dim), dtype=np.complex128)
    for op in rep.ops:
        out += op @ q @ op.conj().T
    return out


def loop_gram_sum(ops, dim):
    total = np.zeros((dim, dim), dtype=np.complex128)
    for op in ops:
        total += op.conj().T @ op
    return total


def loop_split(rep):
    source, target = rep.source, rep.target

    def piece(op, block):
        rows, cols = target.block_slice(block), source.block_slice(block)
        out = np.zeros((target.dim, source.dim), dtype=np.complex128)
        out[rows, cols] = op[rows, cols]
        return out

    return (
        np.stack([piece(op, 1) for op in rep.ops]),
        np.stack([piece(op, 2) for op in rep.ops]),
    )


def loop_random_sp_channel(source, target, k, tp, seed):
    """The sampler with a list of operators, each block drawn and written
    into a zero operator, and a per-operator normalizer; returns the
    operator stack."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        ops = []
        for _ in range(k):
            op = np.zeros((target.dim, source.dim), dtype=np.complex128)
            for block in (1, 2):
                rows, cols = target.block_slice(block), source.block_slice(block)
                op[rows, cols] = crandn(rng, target.block_dim(block), source.block_dim(block))
            ops.append(op)
        if not tp:
            return np.stack(ops)
        try:
            normalizer = inv_sqrt_psd(loop_gram_sum(ops, source.dim))
        except SingularMatrixError:
            continue
        return np.stack([op @ normalizer for op in ops])
    raise SingularMatrixError("reference normalizer stayed singular")


@pytest.mark.parametrize("name,rep", ORACLE_CASES, ids=ORACLE_IDS)
class TestStackedFormsMatchLoops:
    def test_apply(self, name, rep):
        rng = np.random.default_rng(7000)
        d = rep.source.dim
        q = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(apply(rep, q), loop_apply(rep, q))

    def test_trace_preservation_defect(self, name, rep):
        # the verdict flips exactly at the defect of S read as one product of
        # the (K dt, ds) stack with its adjoint, which is the running sum of
        # V_k† V_k up to rounding
        flat = rep.ops.reshape(-1, rep.source.dim)
        total = flat.conj().T @ flat
        loop = loop_gram_sum(rep.ops, rep.source.dim)
        assert np.abs(total - loop).max() <= 1e-15 * len(rep.ops) * max(1.0, np.abs(loop).max())
        defect = float(np.linalg.norm(total - np.eye(rep.source.dim)))
        assert defect > 0.0
        assert is_trace_preserving(rep, defect)
        assert not is_trace_preserving(rep, float(np.nextafter(defect, 0.0)))

    def test_compose(self, name, rep):
        inner = random_sp_channel(rep.source, rep.source, 3, False, 7100)
        assert_composes_like_pairwise(rep, inner)
        outer = random_sp_channel(rep.target, rep.target, 2, True, 7200)
        assert_composes_like_pairwise(outer, rep)

    def test_split_kraus_blocks(self, name, rep):
        if name.startswith("sp "):
            first, second = split_kraus_blocks(rep)
        else:
            first, second = split_kraus_blocks(rep, tol=1.0)
        want_first, want_second = loop_split(rep)
        assert first.shape == second.shape == rep.ops.shape
        assert np.array_equal(first, want_first)
        assert np.array_equal(second, want_second)


SAMPLER_SPLITS = [(1, 3), (3, 1), (2, 2), (6, 6)]


@pytest.mark.parametrize("tp", [True, False], ids=["tp", "non-tp"])
@pytest.mark.parametrize(
    "d1,d2", SAMPLER_SPLITS, ids=[f"{a}+{b}" for a, b in SAMPLER_SPLITS]
)
def test_sampler_is_bit_identical_to_loop_form(d1, d2, tp):
    space = DecomposedSpace(d1, d2)
    k = d1 * d1 + d2 * d2
    for seed in (0, 1, 2):
        got = random_sp_channel(space, space, k, tp, seed).ops
        assert np.array_equal(got, loop_random_sp_channel(space, space, k, tp, seed))


def test_sampler_on_unequal_splits_is_bit_identical():
    source, target = DecomposedSpace(2, 3), DecomposedSpace(3, 1)
    for tp in (True, False):
        got = random_sp_channel(source, target, 9, tp, 11).ops
        assert np.array_equal(got, loop_random_sp_channel(source, target, 9, tp, 11))


SMALL_SPLITS = [DecomposedSpace(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]


@pytest.mark.parametrize("tp", [True, False], ids=["tp", "non-tp"])
@pytest.mark.parametrize("source", SMALL_SPLITS, ids=lambda s: f"{s.d1}+{s.d2}")
def test_sampler_has_the_bytes_of_the_loop_form_on_every_small_split(source, tp):
    for target in SMALL_SPLITS:
        k = source.d1 + source.d2  # k·d_ti >= d_si for every target
        for seed in range(4):
            got = random_sp_channel(source, target, k, tp, seed).ops
            want = loop_random_sp_channel(source, target, k, tp, seed)
            assert got.tobytes() == want.tobytes()


DRAW_SPLITS = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (4, 1), (1, 4), (8, 8)]


def sampled_or_singular(sampler, source, target, k, tp, seed):
    try:
        return sampler(source, target, k, tp, seed)
    except SingularMatrixError:
        return "singular"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(DRAW_SPLITS),
    st.sampled_from(DRAW_SPLITS),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
# 3+1 -> 1+1 at k=1: S has rank 1 on the 3-dim source block on every draw
@example((3, 1), (1, 1), 1, True, 0)
# k·d_ti = d_si for one block: the smallest shapes the rule accepts
@example((2, 1), (1, 1), 2, True, 0)
@example((1, 2), (1, 1), 2, True, 0)
def test_one_draw_per_attempt_matches_per_operator_draws(src, tgt, k, tp, seed):
    source, target = DecomposedSpace(*src), DecomposedSpace(*tgt)
    want = sampled_or_singular(loop_random_sp_channel, source, target, k, tp, seed)
    got = sampled_or_singular(
        lambda *args: random_sp_channel(*args).ops, source, target, k, tp, seed
    )
    if isinstance(want, str):
        assert isinstance(got, str)
    else:
        assert np.array_equal(got, want)


def unreachable(*args, **kwargs):
    raise AssertionError("a refused shape reached the draw")


def test_tp_refuses_exactly_the_shapes_the_rule_names(monkeypatch):
    """tp=True refuses k operators exactly when k·d_ti < d_si for a block i,
    naming the first such block, before the generator is made."""
    refused = 0
    for src, tgt, k in itertools.product(DRAW_SPLITS, DRAW_SPLITS, range(1, 7)):
        source, target = DecomposedSpace(*src), DecomposedSpace(*tgt)
        short = [
            (i, target.block_dim(i), source.block_dim(i))
            for i in (1, 2)
            if k * target.block_dim(i) < source.block_dim(i)
        ]
        if not short:
            assert is_trace_preserving(random_sp_channel(source, target, k, True, 0))
            continue
        refused += 1
        i, dt, ds = short[0]
        rule = f"block {i} needs k·d_t{i} >= d_s{i}, but {k}·{dt} = {k * dt} < {ds}"
        with monkeypatch.context() as patch:
            patch.setattr(spcpm.sp, "inv_sqrt_psd", unreachable)
            patch.setattr(np.random, "default_rng", unreachable)
            with pytest.raises(SingularMatrixError, match=re.escape(rule) + "$"):
                random_sp_channel(source, target, k, True, 0)
    assert 0 < refused < len(DRAW_SPLITS) ** 2 * 6
