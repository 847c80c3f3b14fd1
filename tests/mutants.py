"""Mutant catalogue: known ways to break ``src/spcpm``, each with the tests
that must catch it.

Each entry of ``MUTANTS`` is ``(file, old, new, tests)``: ``file`` is a path
under ``src/``, ``old`` must occur in it exactly once and is replaced by
``new``, and ``tests`` are pytest node ids of which at least one must fail
on the mutated code.  For every entry the script copies ``src/`` to a
temporary directory, applies the entry there and runs only the named tests
with the copy first on ``PYTHONPATH``; the checkout is never modified.
Before the mutants, every named test runs once against an unmutated copy
and must pass there, or a failure under a mutant would show nothing.

The script fails (exit 1) if an entry no longer applies, if its tests still
pass, or if they error out instead of failing.  A change that makes a test
catch a new fault adds the fault here rather than describing it.

Run it from any directory (pytest and hypothesis must be installed)::

    python tests/mutants.py

It is not a tier-1 test module: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the live mask reads rows only, dropping a unit whose row is zero but
    # whose column is not, so a non-Hermitian matrix looks Hermitian
    (
        "spcpm/cpm.py",
        "    return nonzero.any(axis=0) | nonzero.any(axis=1)",
        "    return nonzero.any(axis=1)",
        ["tests/test_live_units.py::test_zero_row_with_a_nonzero_column_is_refused"],
    ),
    # the audit's defect is the worst block's instead of the hypot of both
    (
        "spcpm/dilation.py",
        "defect = math.hypot(",
        "defect = max(",
        ["tests/test_dilation.py::TestFailedCondition::test_isometry"],
    ),
    # the isometry defect keeps only the first-order term of E (E + 2I)
    (
        "spcpm/dilation.py",
        "frobenius(e @ e + 2 * e)",
        "frobenius(2 * e)",
        ["tests/test_dilation.py::test_block_defects_give_the_full_size_defects"],
    ),
    # the induced operators are shifted onto the reference coordinate
    (
        "spcpm/dilation.py",
        "ops[1:, sb, sb]",
        "ops[:-1, sb, sb]",
        [
            "tests/test_dilation.py::"
            "test_induced_operators_are_the_stacks_after_a_zero_reference_operator"
        ],
    ),
    # a failed agreement check passes
    (
        "spcpm/dilation.py",
        '        return "agreement", worst',
        "        return None",
        ["tests/test_dilation.py::TestFailedCondition::test_agreement"],
    ),
    # the array gate lets an empty axis through, so an empty dilation is
    # accepted and an empty Kraus list is refused for its shape instead
    (
        "spcpm/linalg.py",
        "    if 0 in arr.shape:",
        "    if False:",
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors[dilation]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[kraus]",
        ],
    ),
    # the CLI no longer names the failed audit condition
    (
        "spcpm/cli.py",
        'f"constructed dilation failed verification: {condition} residual "',
        'f"constructed dilation failed verification: residual "',
        ["tests/test_dilation.py::TestFailedCondition::test_cli_names_the_condition"],
    ),
    # files are written big-endian
    (
        "spcpm/serialize.py",
        'astype("<c16", copy=False)',
        'astype(">c16", copy=False)',
        ["tests/test_raw_format.py::test_byte_order_is_little_endian"],
    ),
    # the reader skips characters outside the base64 alphabet
    (
        "spcpm/serialize.py",
        "validate=True",
        "validate=False",
        ["tests/test_raw_format.py::test_bad_raw_matrices_are_format_errors"],
    ),
    # an unrepeatable or negative seed reaches numpy
    (
        "spcpm/sp.py",
        "    if not (is_integer(seed) and seed >= 0):",
        "    if False:",
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors",
            "tests/test_cli.py::TestGen::test_negative_seed_exits_2",
        ],
    ),
    # the trace-preserving shape rule refuses its own boundary k·d_ti = d_si
    (
        "spcpm/sp.py",
        "        if k * dt < ds:",
        "        if k * dt <= ds:",
        [
            "tests/test_kraus_stack.py::test_tp_refuses_exactly_the_shapes_the_rule_names",
            "tests/test_kraus_stack.py::test_one_draw_per_attempt_matches_per_operator_draws",
        ],
    ),
    # the trace-preserving shape rule checks block 1 only, so a shape short
    # in block 2 is drawn before inv_sqrt_psd refuses it
    (
        "spcpm/sp.py",
        "    for block in (1, 2):\n        dt, ds = target.block_dim(block)",
        "    for block in (1,):\n        dt, ds = target.block_dim(block)",
        ["tests/test_kraus_stack.py::test_tp_refuses_exactly_the_shapes_the_rule_names"],
    ),
    # the file readers skip their object check, so a JSON list, string or
    # null escapes as a bare AttributeError
    (
        "spcpm/serialize.py",
        "    if not isinstance(obj, dict):\n        raise SpcpmError(f\"a {kind!r} file",
        "    if False:\n        raise SpcpmError(f\"a {kind!r} file",
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors[channel_from_list]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[choi_from_str]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[blocks_from_NoneType]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[dilation_from_list]",
        ],
    ),
    # a fractional, boolean or string Kraus count reaches numpy
    (
        "spcpm/sp.py",
        "    if not is_integer(k):",
        "    if False:",
        ["tests/test_api.py::test_rejections_are_spcpm_errors"],
    ),
    # a float or bool block dimension is accepted
    (
        "spcpm/spaces.py",
        "        if not (is_integer(self.d1) and is_integer(self.d2)):",
        "        if False:",
        ["tests/test_api.py::test_space_refuses_non_integer_dims"],
    ),
    # the gate's PSD floor reads the residual tolerance instead of the rank
    # cutoff, for the block triple and the coefficient matrix alike
    (
        "spcpm/linalg.py",
        "    floor = -rank_cutoff(w)",
        "    floor = -DEFAULT_TOL * max(1.0, float(np.max(np.abs(w))))",
        [
            "tests/test_linalg.py::TestBlockPsdCheck::test_assembled_floor_is_minus_the_cutoff",
            "tests/test_tolerance.py::test_coefficient_psd_floor_is_default_rtol",
            "tests/test_tolerance.py::test_generation_accepts_exactly_what_conversion_accepts",
        ],
    ),
    # the assembled matrix is symmetrized before the gate reads it, so a
    # non-Hermitian diagonal block is judged by its Hermitian part
    (
        "spcpm/linalg.py",
        '        psd_spectrum(f, False, "assembled block matrix")',
        '        psd_spectrum((f + f.conj().T) / 2.0, False, "assembled block matrix")',
        [
            "tests/test_single_decomposition.py::test_block_psd_failure_matches_pseudo_inverse_route",
            "tests/test_linalg.py::TestBlockPsdCheck::test_non_hermitian_triple_names_its_asymmetry",
        ],
    ),
    # the gate drops its floor, so a PSD triple whose smallest eigenvalue
    # rounds below zero is refused
    (
        "spcpm/linalg.py",
        "    if w[0] < floor:",
        "    if w[0] < 0.0:",
        [
            "tests/test_linalg.py::TestBlockPsdCheck::test_assembled_floor_is_minus_the_cutoff",
            "tests/test_single_decomposition.py::"
            "test_block_psd_verdict_matches_pseudo_inverse_route_on_gram_triples",
        ],
    ),
    # the lower-left block is C^T instead of C†, so a complex coupling
    # makes a PSD triple look non-Hermitian
    (
        "spcpm/linalg.py",
        "    f[n:, :n] = c.conj().T",
        "    f[n:, :n] = c.T",
        [
            "tests/test_single_decomposition.py::"
            "test_block_psd_verdict_matches_pseudo_inverse_route_on_gram_triples",
        ],
    ),
    # the gate symmetrizes before the asymmetry bound, so the bound never
    # fires
    (
        "spcpm/linalg.py",
        "    asymmetry = frobenius(arr - arr.conj().T)",
        "    arr = (arr + arr.conj().T) / 2.0\n"
        "    asymmetry = frobenius(arr - arr.conj().T)",
        [
            "tests/test_linalg.py::TestInvSqrtPsd::test_rejects_non_hermitian",
            "tests/test_tolerance.py::test_inv_sqrt_psd_hermiticity_bound_is_default_rtol",
        ],
    ),
    # composition applies the outer channel first
    (
        "spcpm/cpm.py",
        "    ops = b.ops[:, None] @ a.ops[None]",
        "    ops = a.ops[None] @ b.ops[:, None]",
        ["tests/test_kraus_stack.py"],
    ),
    # the rank cutoff moves: tests that only see clear ranks pass from
    # 1e-14 to 1e-7, so one test sits at the cutoff on both sides
    (
        "spcpm/linalg.py",
        "DEFAULT_RTOL = 1e-10",
        "DEFAULT_RTOL = 1e-9",
        ["tests/test_cpm.py::TestKrausRank::test_cutoff_is_1e_10_of_the_largest_eigenvalue"],
    ),
    (
        "spcpm/linalg.py",
        "DEFAULT_RTOL = 1e-10",
        "DEFAULT_RTOL = 1e-11",
        ["tests/test_cpm.py::TestKrausRank::test_cutoff_is_1e_10_of_the_largest_eigenvalue"],
    ),
    # a non-trace-preserving channel is dilated
    (
        "spcpm/dilation.py",
        "    if not is_trace_preserving(rep, tol):",
        "    if False:",
        ["tests/test_dilation.py::TestBuildDilation::test_rejects_non_tp"],
    ),
    # the coefficient matrix is decided in place, at a PSD floor read from
    # the residual tolerance instead of the rank cutoff of psd_spectrum
    (
        "spcpm/cpm.py",
        "    w, v = psd_spectrum(m[np.ix_(live, live)], vectors, subject)",
        "    w, v = np.linalg.eigh(m[np.ix_(live, live)])\n"
        "    if w[0] < -DEFAULT_TOL * max(1.0, abs(w).max()):\n"
        '        raise SpcpmError("coefficient matrix is not positive semi-definite")',
        ["tests/test_tolerance.py::test_coefficient_psd_floor_is_default_rtol"],
    ),
    # the gate's Hermiticity bound (inv_sqrt_psd's among them) reads the
    # residual tolerance
    (
        "spcpm/linalg.py",
        "    if asymmetry > DEFAULT_RTOL * max(1.0, frobenius(arr)):",
        "    if asymmetry > DEFAULT_TOL * max(1.0, frobenius(arr)):",
        ["tests/test_tolerance.py::test_inv_sqrt_psd_hermiticity_bound_is_default_rtol"],
    ),
    # the Kraus rank reads the live block with its own eigvalsh, past the
    # gate's Hermiticity bound and floor
    (
        "spcpm/cpm.py",
        '    return len(_kept_eigenpairs(kraus_to_choi(rep), False, "coefficient matrix")[0])',
        "    m = kraus_to_choi(rep).matrix\n"
        "    live = _live_units(m)\n"
        "    if not live.any():\n"
        "        return 0\n"
        "    w = np.linalg.eigvalsh(m[np.ix_(live, live)])\n"
        "    return int(np.count_nonzero(w > rank_cutoff(w)))",
        ["tests/test_api.py::test_eigensolvers_are_called_only_in_psd_spectrum"],
    ),
    # generation skips the gate (and stores no decomposition), so an
    # indefinite triple becomes a matrix that conversion refuses
    (
        "spcpm/sp.py",
        '    object.__setattr__(choi, "_spectrum", '
        '_kept_eigenpairs(choi, True, "assembled block matrix"))',
        "",
        [
            "tests/test_tolerance.py::test_generation_accepts_exactly_what_conversion_accepts",
            "tests/test_sp.py::test_every_valid_triple_is_an_sp_map_that_returns_it",
        ],
    ),
    # generation stores a decomposition of the whole assembled matrix, dead
    # units included, instead of conversion's live-unit one: the same
    # channel, not the same bits
    (
        "spcpm/sp.py",
        '    object.__setattr__(choi, "_spectrum", '
        '_kept_eigenpairs(choi, True, "assembled block matrix"))',
        "    from .linalg import psd_spectrum, rank_cutoff\n"
        '    w, v = psd_spectrum(f, True, "assembled block matrix")\n'
        "    keep = w > rank_cutoff(w)\n"
        "    vecs = v[:, keep]\n"
        "    mags = np.abs(vecs)\n"
        "    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)\n"
        "    cols = np.arange(vecs.shape[1])\n"
        "    ops = np.zeros((len(cols), m), dtype=np.complex128)\n"
        "    ops[:, units] = (vecs * np.conj(vecs[first, cols] / mags[first, cols])).T\n"
        "    shape = (-1, blocks.target.dim, blocks.source.dim)\n"
        '    object.__setattr__(choi, "_spectrum", (w[keep], ops.reshape(shape)))',
        ["tests/test_sp.py::test_every_valid_triple_is_an_sp_map_that_returns_it"],
    ),
    # the array gate skips its finiteness check, so NaN and inf reach the
    # stores, the solvers and the files
    (
        "spcpm/linalg.py",
        "    if not np.isfinite(arr).all():",
        "    if False:",
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors[checked_array]",
            "tests/test_dilation.py::TestConstructor::test_refuses",
            "tests/test_raw_format.py::test_encode_refuses_what_no_file_may_hold",
            "tests/test_raw_format.py::test_bad_raw_matrices_are_format_errors",
        ],
    ),
    # the array gate compares only the leading axis, so every later fixed
    # axis is treated as free: Kraus operators and dilation pieces of the
    # wrong size, and non-square matrices, pass
    (
        "spcpm/linalg.py",
        "for got, want in zip(arr.shape, shape)",
        "for got, want in zip(arr.shape[:1], shape)",
        [
            "tests/test_cpm.py::TestKrausRep::test_rejects_wrong_shape",
            "tests/test_dilation.py::TestConstructor::test_refuses",
            "tests/test_linalg.py::TestInvSqrtPsd::test_rejects_non_square",
        ],
    ),
]


def _env(src: Path) -> dict:
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1")


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True, text=True)


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _check_baseline(tmp: Path) -> bool:
    tests = sorted({t for *_, named in MUTANTS for t in named})
    run = _pytest(_copy_src(tmp), tests)
    if run.returncode != 0:
        print("the named tests do not pass on the unmutated code:")
        print(run.stdout[-3000:] + run.stderr[-3000:])
        return False
    return True


def _check(tmp: Path, file: str, old: str, new: str, tests) -> str:
    """``"killed"``, or what is wrong with the entry."""
    src = _copy_src(tmp)
    path = src / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        return f"does not apply: old text occurs {count} times"
    path.write_text(text.replace(old, new), encoding="utf-8")
    run = _pytest(src, tests)
    if run.returncode == 1:
        return "killed"
    if run.returncode == 0:
        return "SURVIVED: the named tests pass"
    return f"pytest exit {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}"


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="spcpm-mutants-") as name:
        tmp = Path(name)
        if not _check_baseline(tmp):
            return 1
        for file, old, new, tests in MUTANTS:
            verdict = _check(tmp, file, old, new, tests)
            failures += verdict != "killed"
            print(f"{verdict}: {file}: {old.strip()!r} -> {new.strip()!r}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
