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
    # an empty dilation is accepted
    (
        "spcpm/dilation.py",
        "        if len(self.a1) == 0:",
        "        if False:",
        ["tests/test_api.py::test_rejections_are_spcpm_errors[dilation]"],
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
        'check_matrix(np.asarray(m, dtype="<c16"))',
        'check_matrix(np.asarray(m, dtype=">c16"))',
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
    # coupling support on the kernel of the lower-right block goes unseen
    (
        "spcpm/linalg.py",
        "    if frobenius(c @ vb[:, ~range_b]) > tol * scale:",
        "    if False:",
        ["tests/test_single_decomposition.py::test_block_psd_failure_matches_pseudo_inverse_route"],
    ),
    # a kernel that eigvalsh shows in the upper-left block is never
    # decomposed, so coupling support on it goes unseen
    (
        "spcpm/linalg.py",
        "    if wa[0] <= rank_cutoff(wa, tol):",
        "    if False:",
        [
            "tests/test_single_decomposition.py::test_block_psd_failure_matches_pseudo_inverse_route",
            "tests/test_single_decomposition.py::"
            "test_block_psd_check_decomposes_a_singular_upper_left_block",
        ],
    ),
    # an eigenvalue of the upper-left block at the cutoff no longer counts
    # as kernel, so its coupling support is named as a Schur failure
    (
        "spcpm/linalg.py",
        "    if wa[0] <= rank_cutoff(wa, tol):",
        "    if wa[0] < rank_cutoff(wa, tol):",
        ["tests/test_linalg.py::TestBlockPsdCheck::test_upper_left_eigenvalue_at_the_cutoff_is_kernel"],
    ),
    # the Schur complement's eigvalsh verdict is dropped
    (
        "spcpm/linalg.py",
        "    if _psd_spectrum(schur, tol, vectors=False) is None:",
        "    if False:",
        [
            "tests/test_single_decomposition.py::test_block_psd_failure_matches_pseudo_inverse_route",
            "tests/test_single_decomposition.py::test_block_psd_check_reads_eigenvectors_of_b_only",
        ],
    ),
    # is_psd symmetrizes before the asymmetry bound, so the bound never fires
    (
        "spcpm/linalg.py",
        "    return _psd_spectrum(_square_matrix(m, tol), tol, vectors=False) is not None",
        "    arr = _square_matrix(m, tol)\n"
        "    return _psd_spectrum((arr + arr.conj().T) / 2, tol, vectors=False) is not None",
        ["tests/test_linalg.py::TestIsPsd::test_non_hermitian_is_not_psd"],
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
