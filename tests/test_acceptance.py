"""Acceptance suite.

Each test exercises one top-level guarantee of the library at its stated
tolerance over seeded randomized inputs, and prints one pass/fail line
(visible with ``pytest -s`` or in captured output on failure).
"""

import time

import numpy as np

from spcpm import serialize
from spcpm.cli import main
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
from spcpm.dilation import apply_dilation, build_dilation, verify_dilation
from spcpm.linalg import block_psd_check
from spcpm.sp import (
    SPBlockRep,
    blocks_from_sp,
    is_sp_commutation,
    is_sp_definition,
    is_sp_kraus_blocks,
    is_sp_trace,
    random_sp_channel,
    sp_from_blocks,
    sp_kraus_bound_holds,
)
from spcpm.spaces import DecomposedSpace
from channel_helpers import (
    block_units,
    crandn,
    haar_unitary,
    perturb_cross_block,
    tp_renormalized,
    unit,
    unitary_mix,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name}: {detail}"


def min_tp_kraus(source, target):
    """Smallest operator count for which the trace-preserving normalizer can
    be full rank on both blocks."""
    return max(-(-source.d1 // target.d1), -(-source.d2 // target.d2))


DIMS_CYCLE = [
    (DecomposedSpace(1, 1), DecomposedSpace(1, 1)),
    (DecomposedSpace(1, 2), DecomposedSpace(2, 1)),
    (DecomposedSpace(2, 2), DecomposedSpace(2, 2)),
    (DecomposedSpace(2, 3), DecomposedSpace(3, 2)),
    (DecomposedSpace(3, 3), DecomposedSpace(3, 3)),
]


def test_criterion_1_verifier_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(9001)
    tol = 1e-9
    channels = []
    for i in range(250):
        source, target = DIMS_CYCLE[i % len(DIMS_CYCLE)]
        tp = i % 2 == 0
        k = max(1 + i % 3, min_tp_kraus(source, target) if tp else 1)
        channels.append((random_sp_channel(source, target, k, tp, 10_000 + i), True))
    for i in range(250):
        source, target = DIMS_CYCLE[i % len(DIMS_CYCLE)]
        tp = i % 2 == 0
        k = max(1 + i % 3, min_tp_kraus(source, target) if tp else 1)
        rep = random_sp_channel(source, target, k, tp, 20_000 + i)
        rep = perturb_cross_block(rep, rng)
        if i % 2 == 0:
            rep = tp_renormalized(rep)
        channels.append((rep, False))

    disagreements = 0
    for rep, expect_sp in channels:
        verdicts = [
            is_sp_definition(rep, tol),
            is_sp_kraus_blocks(rep, tol),
            is_sp_commutation(rep, tol),
        ]
        if is_trace_preserving(rep, tol):
            verdicts.append(is_sp_trace(rep, tol))
        if len(set(verdicts)) != 1:
            disagreements += 1
        assert verdicts[0] == expect_sp
    elapsed = time.monotonic() - start
    report(
        "verifier equivalence",
        disagreements == 0 and elapsed < 30.0,
        f"500 channels, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_composition_closure():
    tol = 1e-9
    chains = [
        ((1, 1), (1, 1), (1, 1)),
        ((1, 2), (2, 2), (2, 1)),
        ((2, 2), (2, 2), (2, 2)),
        ((2, 1), (1, 2), (2, 2)),
        ((3, 3), (2, 2), (3, 3)),
    ]
    failures = 0
    for i in range(100):
        s_dims, t_dims, r_dims = chains[i % len(chains)]
        source, middle, target = (
            DecomposedSpace(*s_dims),
            DecomposedSpace(*t_dims),
            DecomposedSpace(*r_dims),
        )
        k = 2 + i % 2
        first = random_sp_channel(source, middle, k, True, 30_000 + i)
        second = random_sp_channel(middle, target, k, True, 40_000 + i)
        comp = compose(second, first)
        ok = (
            is_sp_definition(comp, tol)
            and is_sp_kraus_blocks(comp, tol)
            and is_sp_commutation(comp, tol)
            and is_sp_trace(comp, tol)
        )
        if not ok:
            failures += 1
    report("composition closure", failures == 0, f"100 pairs, {failures} failures")


def test_criterion_3_choi_bijection():
    rng = np.random.default_rng(9003)
    worst_matrix = 0.0
    for i in range(100):
        source, target = DIMS_CYCLE[i % 3]
        m = source.dim * target.dim
        rank = 1 + i % m
        g = crandn(rng, m, rank)
        mat = g @ g.conj().T / m
        rep = choi_to_kraus(ChoiRep(source, target, mat))
        assert len(rep.ops) == rank
        back = kraus_to_choi(rep).matrix
        worst_matrix = max(worst_matrix, float(np.linalg.norm(back - mat)))
    ok_matrix = worst_matrix <= 1e-9

    equal_count = 0
    for i in range(100):
        source, target = DIMS_CYCLE[i % len(DIMS_CYCLE)]
        scale = 1.0 / np.sqrt(source.dim * target.dim)
        ops = tuple(
            scale * crandn(rng, target.dim, source.dim) for _ in range(1 + i % 4)
        )
        rep = KrausRep(source, target, ops)
        back = choi_to_kraus(kraus_to_choi(rep))
        if channels_equal(rep, back, 1e-10):
            equal_count += 1
    report(
        "choi bijection",
        ok_matrix and equal_count == 100,
        f"worst matrix residual {worst_matrix:.2e}, {equal_count}/100 channel round trips",
    )


def test_criterion_4_kraus_rank_invariance():
    rng = np.random.default_rng(9004)
    failures = 0
    for i in range(100):
        source, target = DIMS_CYCLE[i % len(DIMS_CYCLE)]
        sp_sample = i % 2 == 1
        if sp_sample:
            rep = random_sp_channel(source, target, 1 + i % 3, False, 50_000 + i)
        else:
            scale = 1.0 / np.sqrt(source.dim * target.dim)
            ops = tuple(
                scale * crandn(rng, target.dim, source.dim) for _ in range(1 + i % 4)
            )
            rep = KrausRep(source, target, ops)
        rank = kraus_rank(rep)

        mixed = unitary_mix(rep, haar_unitary(rng, len(rep.ops)))
        zeros = [np.zeros((target.dim, source.dim)) for _ in range(1 + i % 3)]
        padded = KrausRep(rep.source, rep.target, (*rep.ops, *zeros))
        assert len(padded.ops) == len(rep.ops) + len(zeros)
        m = source.dim * target.dim
        cong = crandn(rng, m, m)
        mat = cong @ kraus_to_choi(rep).matrix @ cong.conj().T
        w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        rank_cong = int(np.count_nonzero(w > 1e-10 * max(1.0, np.abs(w).max())))

        ok = kraus_rank(mixed) == rank and kraus_rank(padded) == rank and rank_cong == rank
        if sp_sample:
            ok = ok and sp_kraus_bound_holds(rep)
        if not ok:
            failures += 1
    report("kraus rank invariance", failures == 0, f"100 channels, {failures} failures")


def test_criterion_5_block_psd_equivalence():
    rng = np.random.default_rng(9005)
    sizes = [(2, 2), (3, 2), (2, 4), (4, 4)]
    agree_direct = 0
    agree_sides = 0
    total = 400
    for i in range(total):
        n, m = sizes[i % len(sizes)]
        rank = 1 + i % (n + m)
        g = crandn(rng, n + m, rank)
        f = g @ g.conj().T
        if i % 2 == 1:
            vec = crandn(rng, n + m)
            vec /= np.linalg.norm(vec)
            top = float(np.linalg.eigvalsh(f).max())
            f = f - 1.5 * top * np.outer(vec, vec.conj())
        a, b, c = f[:n, :n], f[n:, n:], f[:n, n:]

        w = np.linalg.eigvalsh((f + f.conj().T) / 2)
        direct = bool(w[0] >= -1e-9 * max(1.0, np.abs(w).max()))

        via_schur = block_psd_check(a, b, c)
        via_other_side = block_psd_check(b, a, c.conj().T)
        if via_schur == direct:
            agree_direct += 1
        if via_schur == via_other_side:
            agree_sides += 1
    report(
        "block psd equivalence",
        agree_direct == total and agree_sides == total,
        f"{agree_direct}/{total} vs direct, {agree_sides}/{total} side symmetry",
    )


def test_criterion_6_sp_generator_bijection():
    rng = np.random.default_rng(9006)
    tol = 1e-9
    worst_recovery = 0.0
    failures = 0
    for i in range(100):
        source, target = DIMS_CYCLE[i % len(DIMS_CYCLE)]
        k = source.d1 * target.d1
        l = source.d2 * target.d2
        rank = 1 + i % (k + l)
        g = crandn(rng, k + l, rank)
        f = g @ g.conj().T / (k + l)
        blocks = SPBlockRep(source, target, f[:k, :k], f[k:, k:], f[:k, k:])
        rep = choi_to_kraus(sp_from_blocks(blocks))
        if not (
            is_sp_definition(rep, tol)
            and is_sp_kraus_blocks(rep, tol)
            and is_sp_commutation(rep, tol)
        ):
            failures += 1
            continue
        recovered = blocks_from_sp(rep, tol)
        residual = max(
            float(np.linalg.norm(recovered.block1 - blocks.block1)),
            float(np.linalg.norm(recovered.block2 - blocks.block2)),
            float(np.linalg.norm(recovered.cross - blocks.cross)),
        )
        worst_recovery = max(worst_recovery, residual)

    worst_off_block = 0.0
    for i in range(100):
        source, target = DIMS_CYCLE[i % len(DIMS_CYCLE)]
        tp = i % 2 == 0
        k = max(1 + i % 4, min_tp_kraus(source, target) if tp else 1)
        rep = random_sp_channel(source, target, k, tp, 60_000 + i)
        full = kraus_to_choi(rep).matrix
        idx1, idx2 = block_units(source, target)
        leak = np.array(full)
        leak[np.ix_(idx1, idx1)] = 0
        leak[np.ix_(idx1, idx2)] = 0
        leak[np.ix_(idx2, idx1)] = 0
        leak[np.ix_(idx2, idx2)] = 0
        worst_off_block = max(worst_off_block, float(np.linalg.norm(leak)))

    report(
        "sp generator bijection",
        failures == 0 and worst_recovery <= 1e-9 and worst_off_block <= 1e-9,
        f"worst recovery {worst_recovery:.2e}, worst off-block {worst_off_block:.2e}",
    )


def test_criterion_7_unitary_dilation():
    start = time.monotonic()
    space = DecomposedSpace(2, 2)
    d = space.dim
    worst = 0.0
    for i in range(50):
        rep = random_sp_channel(space, space, 1 + i % 4, True, 70_000 + i)
        dil = build_dilation(rep)
        assert dil.ancilla_dim == kraus_rank(rep) + 1
        n = d * dil.ancilla_dim
        eye_big = np.eye(n)
        worst = max(worst, float(np.linalg.norm(dil.u.conj().T @ dil.u - eye_big)))
        for block, v in ((1, dil.v1), (2, dil.v2)):
            support = np.kron(space.projector(block), np.eye(dil.ancilla_dim))
            worst = max(worst, float(np.linalg.norm(v @ v.conj().T - support)))
            worst = max(worst, float(np.linalg.norm(v.conj().T @ v - support)))
            worst = max(worst, float(np.linalg.norm(support @ v @ support - v)))
        for a in range(d):
            for b in range(d):
                q = unit(d, a, b)
                worst = max(
                    worst,
                    float(np.linalg.norm(apply_dilation(dil, q) - apply(rep, q))),
                )
    elapsed = time.monotonic() - start
    report(
        "unitary dilation",
        worst <= 1e-9 and elapsed < 60.0,
        f"50 channels, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_cauchy_schwarz_quadratic_forms():
    rng = np.random.default_rng(9008)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        g = crandn(rng, n, int(rng.integers(1, n + 1)))
        d = g @ g.conj().T
        a = crandn(rng, n)
        b = crandn(rng, n)
        lhs = abs(a.conj() @ d @ b) ** 2
        rhs = (a.conj() @ d @ a).real * (b.conj() @ d @ b).real
        if lhs > rhs * (1 + 1e-9):
            violations += 1
    report(
        "cauchy-schwarz quadratic forms",
        violations == 0,
        f"1000 trials, {violations} violations",
    )


def test_criterion_9_cli_end_to_end(tmp_path):
    failures = 0
    for seed in range(20):
        dims = ["1,1,1,1", "2,1,2,1", "2,2,2,2"][seed % 3]
        chan = tmp_path / f"chan{seed}.json"
        again = tmp_path / f"again{seed}.json"
        gen_args = ["gen", "--dims", dims, "--kraus", str(1 + seed % 3),
                    "--tp", "--seed", str(seed)]
        ok = main(gen_args + ["--out", str(chan)]) == 0
        ok = ok and main(gen_args + ["--out", str(again)]) == 0
        ok = ok and chan.read_bytes() == again.read_bytes()
        ok = ok and main(["verify", str(chan), "--method", "all"]) == 0

        blocks_path = tmp_path / f"blocks{seed}.json"
        ok = ok and main(
            ["convert", str(chan), "--to", "blocks", "--out", str(blocks_path)]
        ) == 0
        if ok:
            original = serialize.channel_from_obj(serialize.read_file(chan))
            blocks = serialize.blocks_from_obj(serialize.read_file(blocks_path))
            rebuilt = choi_to_kraus(sp_from_blocks(blocks))
            ok = channels_equal(original, rebuilt, 1e-9)

        dil_path = tmp_path / f"dil{seed}.json"
        ok = ok and main(["dilate", str(chan), "--out", str(dil_path)]) == 0
        if ok:
            rep = serialize.channel_from_obj(serialize.read_file(chan))
            dil = serialize.dilation_from_obj(serialize.read_file(dil_path))
            ok = verify_dilation(dil, rep)
        if not ok:
            failures += 1
    report("cli end to end", failures == 0, f"20 seeds, {failures} failures")
