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
        "    live = m.any(axis=0) | m.any(axis=1)",
        "    live = m.any(axis=1)",
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
        ["tests/test_raw_format.py::test_malformed_arrays_are_refused_naming_their_key"],
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
        "    adjoint = arr.conj().T\n",
        "    arr = (arr + arr.conj().T) / 2.0\n    adjoint = arr.conj().T\n",
        [
            "tests/test_linalg.py::TestInvSqrtPsd::test_rejects_non_hermitian",
            "tests/test_tolerance.py::test_inv_sqrt_psd_hermiticity_bound_is_default_rtol",
        ],
    ),
    # the contraction swaps the inner channel's (c, e) axes, reading
    # C_a[(e,a),(c,b)] for C_a[(c,a),(e,b)]
    (
        "spcpm/cpm.py",
        "    inner = kraus_to_choi(a).matrix.reshape(dm, ds, dm, ds).transpose(0, 2, 1, 3)",
        "    inner = kraus_to_choi(a).matrix.reshape(dm, ds, dm, ds).transpose(2, 0, 1, 3)",
        ["tests/test_compose.py::test_compose_agrees_with_the_pairwise_products"],
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
        '    require(NotTracePreservingError, "trace preservation", _tp_defect(rep), tol)\n',
        "",
        ["tests/test_dilation.py::TestBuildDilation::test_rejects_non_tp"],
    ),
    # the coefficient matrix is decided in place, at a PSD floor read from
    # the residual tolerance instead of the rank cutoff of psd_spectrum
    (
        "spcpm/cpm.py",
        '    w, v = psd_spectrum(block, vectors, "coefficient matrix")',
        "    w, v = np.linalg.eigh(block)\n"
        "    if w[0] < -DEFAULT_TOL * max(1.0, abs(w).max()):\n"
        '        raise SpcpmError("coefficient matrix is not positive semi-definite")',
        ["tests/test_tolerance.py::test_coefficient_psd_floor_is_default_rtol"],
    ),
    # the gate's Hermiticity bound (inv_sqrt_psd's among them) reads the
    # residual tolerance
    (
        "spcpm/linalg.py",
        "    if asymmetry > DEFAULT_RTOL * max(1.0, norm):",
        "    if asymmetry > DEFAULT_TOL * max(1.0, norm):",
        ["tests/test_tolerance.py::test_inv_sqrt_psd_hermiticity_bound_is_default_rtol"],
    ),
    # the Kraus rank reads the live block with its own eigvalsh, past the
    # gate's Hermiticity bound and floor
    (
        "spcpm/cpm.py",
        "    return len(_kept_eigenpairs(kraus_to_choi(rep), False)[0])",
        "    m = kraus_to_choi(rep).matrix\n"
        "    live = m.any(axis=0) | m.any(axis=1)\n"
        "    if not live.any():\n"
        "        return 0\n"
        "    w = np.linalg.eigvalsh(m[np.ix_(live, live)])\n"
        "    return int(np.count_nonzero(w > rank_cutoff(w)))",
        ["tests/test_api.py::test_eigensolvers_are_called_only_in_psd_spectrum"],
    ),
    # generation skips the gate (the memo is left unmade), so an indefinite
    # triple becomes a matrix that conversion refuses
    (
        "spcpm/sp.py",
        "    choi._spectrum  # the positivity gate: decomposes the matrix or raises\n",
        "",
        [
            "tests/test_tolerance.py::test_generation_accepts_exactly_what_conversion_accepts",
            "tests/test_sp.py::test_every_valid_triple_is_an_sp_map_that_returns_it",
        ],
    ),
    # the array gate skips its finiteness check, so NaN and inf reach the
    # stores, the solvers and the files
    (
        "spcpm/linalg.py",
        "    if not np.logical_and.reduce(np.isfinite(arr), axis=None):",
        "    if False:",
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors[checked_array]",
            "tests/test_dilation.py::TestConstructor::test_refuses",
            "tests/test_raw_format.py::test_malformed_arrays_are_refused_naming_their_key",
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
    # the file readers skip the format tag, so an object tagged for another
    # format, or not tagged, loads as spcpm/5
    (
        "spcpm/serialize.py",
        '    if obj.get("format") != FORMAT:\n'
        '        raise SpcpmError(f"unsupported format tag: {obj.get(\'format\')!r}")\n'
        '    if obj.get("kind") != kind:',
        '    if obj.get("kind") != kind:',
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors[channel_tag_spcpm9]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[choi_tag_missing]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[blocks_tag_spcpm9]",
            "tests/test_api.py::test_rejections_are_spcpm_errors[dilation_tag_missing]",
            "tests/test_cli.py::TestFileFormat::test_other_format_tags_are_refused[spcpm/1]",
            "tests/test_cli.py::TestFileFormat::test_other_format_tags_are_refused[spcpm/2]",
            "tests/test_cli.py::TestFileFormat::test_other_format_tags_are_refused[spcpm/3]",
            "tests/test_cli.py::TestFileFormat::test_other_format_tags_are_refused[spcpm/4]",
            "tests/test_cli.py::TestFileFormat::test_other_format_tags_are_refused[spcpm/6]",
        ],
    ),
    # an overwrite is not cut to its new length, so a shorter file keeps the
    # tail of the longer one it replaced
    (
        "spcpm/serialize.py",
        "                os.ftruncate(fd, len(data))",
        "                pass",
        ["tests/test_raw_format.py::test_overwrite_leaves_exactly_the_new_bytes"],
    ),
    # every path is cut, so /dev/null (and a pipe or a terminal) cannot be
    # written
    (
        "spcpm/serialize.py",
        "            if stat.S_ISREG(st.st_mode) and st.st_size > len(data):",
        "            if True:",
        ["tests/test_raw_format.py::test_a_file_that_cannot_be_cut_is_written"],
    ),
    # files are truncated to zero at open again, which on ext4 starts
    # writeback at every close
    (
        "spcpm/serialize.py",
        "os.O_WRONLY | os.O_CREAT, 0o666",
        "os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666",
        ["tests/test_raw_format.py::test_files_are_opened_without_truncation"],
    ),
    # the block check reads only the lower-left cross slice, so leakage from
    # source block 2 into target block 1 goes unseen
    (
        "spcpm/sp.py",
        "    cross[:, 1] = np.add.reduce(sq[:, :d_t1, d_s1:], axis=(1, 2))",
        "    cross[:, 1] = 0.0",
        ["tests/test_sp.py::test_blocks_route_keeps_the_bits_of_the_norm_formula"],
    ),
    # a matrix that is not square passes the square gate and escapes the
    # spectral gate as numpy's broadcasting error
    (
        "spcpm/linalg.py",
        "    if arr.shape[0] != arr.shape[1]:",
        "    if False:",
        ["tests/test_linalg.py::TestInvSqrtPsd::test_rejects_non_square"],
    ),
    # the induced Kraus list holds block 1's pieces only
    (
        "spcpm/dilation.py",
        "        for block, pieces in ((1, self.a1), (2, self.a2)):",
        "        for block, pieces in ((1, self.a1),):",
        [
            "tests/test_dilation.py::"
            "test_induced_operators_are_the_stacks_after_a_zero_reference_operator",
            "tests/test_dilation.py::test_apply_after_the_audit_builds_no_kraus_list",
        ],
    ),
    # bit equality compares the first field only, so objects that differ
    # in their arrays compare equal
    (
        "spcpm/linalg.py",
        "        values = (getattr(self, f.name) for f in fields(self))",
        "        values = (getattr(self, f.name) for f in fields(self)[:1])",
        ["tests/test_value_equality.py::test_objects_differing_in_one_field_compare_unequal"],
    ),
    # the array gate skips the finiteness check for an array it returns as
    # it is, so NaN and inf in a complex128 array reach the stores and solvers
    (
        "spcpm/linalg.py",
        "    if not np.logical_and.reduce(np.isfinite(arr), axis=None):",
        "    if arr is not x and not np.logical_and.reduce(np.isfinite(arr), axis=None):",
        ["tests/test_fast_paths.py::test_every_input_type_gets_the_same_refusal"],
    ),
    # the reader hands the file's bytes to json.loads, which guesses UTF-16,
    # UTF-32 and a UTF-8 byte-order mark instead of refusing them
    (
        "spcpm/serialize.py",
        '        return json.loads(_read_bytes(path).decode("utf-8"))\n',
        "        return json.loads(_read_bytes(path))\n",
        ["tests/test_raw_format.py::test_only_strict_utf8_is_read"],
    ),
    # the file readers skip the kind, so a blocks file reads as a channel
    # that has no Kraus list
    (
        "spcpm/serialize.py",
        '    if obj.get("kind") != kind:\n'
        '        raise SpcpmError(f"expected a {kind!r} file, got kind={obj.get(\'kind\')!r}")\n',
        "",
        ["tests/test_api.py::test_rejections_are_spcpm_errors[channel_from_blocks]"],
    ),
    # a stack of zero pieces is read, so an empty string reaches the
    # constructor's empty-stack refusal, which does not name the file's key
    (
        "spcpm/serialize.py",
        "    if extra or count < 1 or shape[0]",
        "    if extra or count < 0 or shape[0]",
        [
            "tests/test_api.py::test_rejections_are_spcpm_errors[kraus_empty]",
            "tests/test_raw_format.py::test_a_stack_holds_a_positive_whole_number_of_pieces",
        ],
    ),
    # a byte count that is no whole number of pieces or rows is read, and
    # the reshape escapes as numpy's ValueError
    (
        "spcpm/serialize.py",
        "    if extra or count < 1 or shape[0]",
        "    if count < 1 or shape[0]",
        [
            "tests/test_raw_format.py::test_a_stack_holds_a_positive_whole_number_of_pieces",
            "tests/test_raw_format.py::test_a_fixed_shape_names_its_byte_count",
        ],
    ),
    # a fixed shape takes any whole number of rows, so a coefficient matrix
    # a row short reaches the constructor, whose refusal does not name the key
    (
        "spcpm/serialize.py",
        " or shape[0] not in (None, count):",
        ":",
        ["tests/test_raw_format.py::test_a_fixed_shape_names_its_byte_count"],
    ),
    # the byte-count refusal does not say which of a file's arrays is wrong
    (
        "spcpm/serialize.py",
        'f"{key} holds {len(raw)} bytes, expected {want}"',
        'f"array holds {len(raw)} bytes, expected {want}"',
        [
            "tests/test_raw_format.py::test_a_fixed_shape_names_its_byte_count",
            "tests/test_raw_format.py::test_malformed_arrays_are_refused_naming_their_key",
        ],
    ),
    # a size that is not an integer escapes the dims parser, and argparse
    # words the refusal without int()'s reason
    (
        "spcpm/cli.py",
        "        return [int(p) for p in parts]\n    except ValueError as exc:",
        "        return [int(p) for p in parts]\n    except TypeError as exc:",
        ["tests/test_cli.py::test_bad_usage_exits_2"],
    ),
    # block extraction skips its commutation check, so a channel whose
    # copies each pass the Kraus block check leaks into the triple
    (
        "spcpm/sp.py",
        '    require(NotSPError, "commutation", commutation_violation(rep), tol)\n',
        "",
        [
            "tests/test_tolerance.py::"
            "test_a_later_check_refuses_what_the_kraus_block_check_passes[blocks_from_sp]",
            "tests/test_tolerance.py::test_blocks_conversion_refuses_by_the_residual_verify_reports",
        ],
    ),
    # the dilation splits its minimal Kraus list at a tolerance that passes
    # every list, whose operators may leak more than the list they were
    # reduced from
    (
        "spcpm/dilation.py",
        "split_kraus_blocks(choi_to_kraus(kraus_to_choi(rep)), tol)",
        "split_kraus_blocks(choi_to_kraus(kraus_to_choi(rep)), 1e300)",
        [
            "tests/test_tolerance.py::"
            "test_a_later_check_refuses_what_the_kraus_block_check_passes[build_dilation]"
        ],
    ),
    # the extracted triple is split at block 2's size instead of block 1's,
    # which only a split with d_s1·d_t1 != d_s2·d_t2 can tell
    (
        "spcpm/sp.py",
        "    k = source.d1 * target.d1\n    return SPBlockRep(",
        "    k = source.d2 * target.d2\n    return SPBlockRep(",
        ["tests/test_sp.py::TestBlocksFromSp::test_round_trip_through_blocks"],
    ),
    # the dilate confirmation goes to standard output, which then holds more
    # than the command computed
    (
        "spcpm/cli.py",
        "    print(message, file=sys.stderr)\n",
        "    print(message)\n",
        [
            "tests/test_cli.py::TestWriteConfirmation::"
            "test_confirmation_goes_to_standard_error[dilate]"
        ],
    ),
    # the sampler skips its size check, so a stack past numpy's index range
    # escapes as numpy's ValueError
    (
        "spcpm/sp.py",
        "    if nbytes > np.iinfo(np.intp).max:",
        "    if False:",
        [
            "tests/test_sp.py::TestRandomSpChannel::test_stack_past_the_index_range_is_refused",
            "tests/test_cli.py::TestGen::test_size_past_the_index_range_exits_2",
        ],
    ),
    # the coefficient matrix is built without the errstate block, so a
    # finite Kraus list whose product overflows warns before its refusal
    (
        "spcpm/cpm.py",
        '        with np.errstate(over="ignore", invalid="ignore"):\n'
        "            matrix = stacked.T @ stacked.conj()\n",
        "        matrix = stacked.T @ stacked.conj()\n",
        [
            "tests/test_cpm.py::TestKrausToChoi::"
            "test_product_past_the_float_range_is_refused_by_the_gate"
        ],
    ),
    # the spectral gate skips its size refusal, so a matrix whose squared
    # norm overflows is symmetrized to inf and solved into nan
    (
        "spcpm/linalg.py",
        "    if norm == math.inf:",
        "    if False:",
        [
            "tests/test_linalg.py::TestNormPastTheFloatRange::test_refusal_names_the_subject",
            "tests/test_linalg.py::TestNormPastTheFloatRange::test_block_psd_check_answers_false",
            "tests/test_sp.py::TestSpFromBlocks::test_triple_past_the_float_range_is_refused",
            "tests/test_cli.py::TestKrausRankCommand::"
            "test_squared_norm_past_the_float_range_exits_2",
        ],
    ),
    # the Gram defect is formed without its errstate block, so a trace check
    # of a channel whose product overflows warns before its verdict
    (
        "spcpm/cpm.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n'
        "        gram = flat.conj().T @ flat\n",
        "    gram = flat.conj().T @ flat\n",
        [
            "tests/test_cli.py::TestHugeEntries::"
            "test_command_keeps_its_verdict_or_refuses[verify --method trace-identity-1e+160]",
            "tests/test_cli.py::TestHugeEntries::"
            "test_command_keeps_its_verdict_or_refuses[dilate-ones-1e+200]",
        ],
    ),
    # the one comparison with tol is written as `not residual > tol`, so a
    # NaN residual passes
    (
        "spcpm/linalg.py",
        "    return bool(residual <= tol)",
        "    return bool(not residual > tol)",
        ["tests/test_dilation.py::TestFailedCondition::test_a_nan_isometry_defect_fails"],
    ),
    # a refusal drops the residual from its message
    (
        "spcpm/linalg.py",
        'f"{route} residual {residual:.3e} at {where}',
        'f"{route} residual at {where}',
        [
            "tests/test_tolerance.py::"
            "test_every_refusal_names_its_route_residual_identity_and_tol"
        ],
    ),
    # the audit's product is formed without its errstate block, so a
    # dilation whose isometry defect overflows warns before its verdict
    (
        "spcpm/dilation.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n'
        "        return frobenius(e @ e + 2 * e)",
        "    return frobenius(e @ e + 2 * e)",
        ["tests/test_dilation.py::TestFailedCondition::test_a_nan_isometry_defect_fails"],
    ),
    # the channel's image skips the array gate, so an overflowing image is
    # returned as inf instead of refused
    (
        "spcpm/cpm.py",
        '    return checked_array(out, (rep.target.dim,) * 2, "channel output")',
        "    return out",
        ["tests/test_cpm.py::TestApply::test_image_past_the_float_range_is_refused"],
    ),
    # an operator whose sum of squares overflows is not rescaled, so the
    # blocks residual reads inf/inf = nan, or x/inf = 0 for a leak
    (
        "spcpm/sp.py",
        "    if over.any():",
        "    if False:",
        [
            "tests/test_sp.py::test_blocks_route_is_finite_where_the_sums_overflow",
            "tests/test_sp.py::test_a_leak_is_seen_where_only_the_total_overflows",
            "tests/test_sp.py::test_blocks_route_is_scale_free_above_unit_norm",
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
