"""End-to-end tests for the command-line interface and the JSON formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spcpm
from spcpm import serialize
from spcpm.cli import _build_parser, main
from spcpm.cpm import KrausRep, channels_equal, choi_to_kraus, kraus_rank
from spcpm.dilation import build_dilation, verify_dilation
from spcpm.errors import SpcpmError
from spcpm.linalg import DEFAULT_TOL, block_psd_check
from spcpm.sp import SPBlockRep, sp_from_blocks
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)


def write_channel(path, rep):
    serialize.write_file(path, serialize.channel_to_obj(rep))


def channel_file_bytes(ops):
    """A 1+1 channel file holding the Kraus list ``ops`` as it is, whatever
    the shapes of its matrices."""
    obj = serialize.channel_to_obj(KrausRep(C2, C2, (np.eye(2),)))
    obj["kraus"] = [serialize.encode_matrix(op) for op in ops]
    return (json.dumps(obj) + "\n").encode()


def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    write_channel(path, KrausRep(C2, C2, (np.eye(2),)))
    return path


def dephasing_file(tmp_path, p=0.75):
    path = tmp_path / "dephasing.json"
    ops = (np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * np.diag([1.0, -1.0]))
    write_channel(path, KrausRep(C2, C2, ops))
    return path


class TestMatrixRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(300)
        mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        # push through an actual JSON text round trip
        text = json.dumps(serialize.encode_matrix(mat))
        back = serialize.decode_matrix(json.loads(text))
        np.testing.assert_array_equal(back, mat)

    def test_channel_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(301)
        ops = tuple(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(2)
        )
        rep = KrausRep(DecomposedSpace(1, 2), DecomposedSpace(2, 1), ops)
        path = tmp_path / "chan.json"
        write_channel(path, rep)
        back = serialize.channel_from_obj(serialize.read_file(path))
        assert back.source == rep.source and back.target == rep.target
        for a, b in zip(back.ops, rep.ops):
            np.testing.assert_array_equal(a, b)


class TestFileFormat:
    def test_files_are_compact_and_tagged_4(self, tmp_path):
        path = tmp_path / "chan.json"
        write_channel(path, KrausRep(C2, C2, (np.eye(2),)))
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text)["format"] == "spcpm/4"

    @pytest.mark.parametrize("tag", ["spcpm/1", "spcpm/2", "spcpm/3", "spcpm/5"])
    def test_other_format_tags_are_refused(self, tmp_path, capsys, tag):
        # only spcpm/4 is read; the refusal names the tag it saw
        obj = serialize.channel_to_obj(KrausRep(C2, C2, (np.eye(2),)))
        obj["format"] = tag
        path = tmp_path / "other.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SpcpmError, match=f"unsupported format tag: '{tag}'"):
            serialize.channel_from_obj(serialize.read_file(path))
        assert main(["verify", str(path)]) == 2
        assert f"unsupported format tag: '{tag}'" in capsys.readouterr().err

    def test_signed_zeros_survive(self):
        mat = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
        text = json.dumps(serialize.encode_matrix(mat))
        back = serialize.decode_matrix(json.loads(text))
        assert back.tobytes() == mat.tobytes()

    @pytest.mark.parametrize(
        "fields,match",
        [
            ({"data": [[1.0, 0.0], [0.0, 0.0]]}, "matrix data must be a base64 string"),
            ({"rows": 1.9, "cols": True}, "rows and cols must be integers"),
            ({"rows": "1"}, "rows and cols must be integers"),
        ],
        ids=["pairs", "float-and-bool-size", "text-size"],
    )
    def test_bad_entries_are_format_errors(self, fields, match):
        data = serialize.encode_matrix(np.array([[1.0, 0.0]]))["data"]
        obj = {"rows": 1, "cols": 2, "data": data, **fields}
        with pytest.raises(SpcpmError, match=match):
            serialize.decode_matrix(obj)

    @pytest.mark.parametrize(
        "key,value",
        [("source_dims", [True, True]), ("rows", 1.9), ("cols", True), ("rows", "2")],
    )
    def test_non_integer_sizes_in_files_exit_2(self, tmp_path, key, value):
        obj = serialize.channel_to_obj(KrausRep(C2, C2, (np.eye(2),)))
        (obj if key.endswith("_dims") else obj["kraus"][0])[key] = value
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SpcpmError, match="integers"):
            serialize.channel_from_obj(serialize.read_file(path))
        assert main(["verify", str(path)]) == 2


class TestGen:
    def test_gen_then_verify(self, tmp_path):
        out = tmp_path / "chan.json"
        assert main(["gen", "--dims", "1,1,1,1", "--kraus", "1", "--tp",
                     "--seed", "7", "--out", str(out)]) == 0
        rep = serialize.channel_from_obj(serialize.read_file(out))
        assert len(rep.ops) == 1
        assert rep.ops[0].shape == (2, 2)
        assert main(["verify", str(out), "--method", "all"]) == 0

    def test_byte_identical_regeneration(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--dims", "2,1,1,2", "--kraus", "3", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_zero_dimension(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(["gen", "--dims", "0,1,1,1", "--kraus", "1",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing-dir/x.json", "."],
                             ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, out, capsys):
        args = ["gen", "--dims", "1,1,1,1", "--kraus", "1", "--seed", "1",
                "--out", str(tmp_path / out)]
        assert main(args) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(["gen", "--dims", "1,1,1,1", "--kraus", "1",
                     "--seed=-1", "--out", str(out)])
        assert code == 2
        assert "error: seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dims,kraus",
        [("100000000000000000000,1,1,1", "2"), ("1,1,1,1", "100000000000000000000")],
        ids=["dims", "kraus"],
    )
    def test_size_past_the_index_range_exits_2(self, tmp_path, capsys, dims, kraus):
        out = tmp_path / "never.json"
        code = main(["gen", "--dims", dims, "--kraus", kraus,
                     "--seed", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than an array can hold" in err
        assert not out.exists()

    def test_singular_normalizer_exit_code(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(["gen", "--dims", "2,1,1,1", "--kraus", "1", "--tp",
                     "--seed", "1", "--out", str(out)])
        assert code == 3
        assert "block 1 needs k·d_t1 >= d_s1, but 1·1 = 1 < 2" in capsys.readouterr().err
        assert not out.exists()
        # at the boundary k·d_t1 = d_s1 the draw is normalized and verifies SP
        boundary = tmp_path / "boundary.json"
        assert main(["gen", "--dims", "2,1,1,1", "--kraus", "2", "--tp",
                     "--seed", "1", "--out", str(boundary)]) == 0
        assert main(["verify", str(boundary)]) == 0


def run_spcpm(args, stdout, **env):
    """Run the console entry point in a fresh interpreter, standard output to
    ``stdout`` and ``env`` added to the environment; returns the finished
    process."""
    src = str(Path(spcpm.__file__).resolve().parent.parent)
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **env)
    return subprocess.run(
        [sys.executable, "-m", "spcpm.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
class TestOutIsStandardOutput:
    """The confirmation goes to stderr, so with ``--out /dev/stdout`` stdout
    holds exactly the file, whether it is a pipe or a regular file."""

    GEN = ["gen", "--dims", "1,1,1,1", "--kraus", "1", "--seed", "1"]

    @pytest.mark.parametrize("stdout", ["pipe", "file"])
    def test_stdout_holds_exactly_the_file(self, tmp_path, capsys, stdout):
        fresh = tmp_path / "fresh.json"
        assert main(self.GEN + ["--out", str(fresh)]) == 0
        assert capsys.readouterr() == ("", f"wrote channel with 1 Kraus operators to {fresh}\n")
        args = self.GEN + ["--out", "/dev/stdout"]
        if stdout == "pipe":
            run = run_spcpm(args, subprocess.PIPE)
            got = run.stdout
        else:
            piped = tmp_path / "piped.json"
            with open(piped, "wb") as f:
                run = run_spcpm(args, f)
            got = piped.read_bytes()
        assert run.returncode == 0
        assert got == fresh.read_bytes()
        assert run.stderr == b"wrote channel with 1 Kraus operators to /dev/stdout\n"


class TestWriteConfirmation:
    """Every command that writes ``--out`` confirms it with one line on
    standard error; standard output carries only what a command computed."""

    @pytest.mark.parametrize("command", ["gen", "convert", "compose", "dilate"])
    def test_confirmation_goes_to_standard_error(self, tmp_path, capsys, command):
        src = identity_file(tmp_path)
        out = tmp_path / "out.json"
        args = {
            "gen": ["gen", "--dims", "1,1,1,1", "--kraus", "1", "--seed", "1"],
            "convert": ["convert", str(src), "--to", "choi"],
            "compose": ["compose", str(src), str(src)],
            "dilate": ["dilate", str(src)],
        }[command]
        assert main(args + ["--out", str(out)]) == 0
        out_text, err_text = capsys.readouterr()
        assert out_text == ""
        assert err_text.startswith("wrote ") and err_text.endswith(f" to {out}\n")
        assert err_text.count("\n") == 1

    def test_closed_standard_output_leaves_the_write_whole(self, tmp_path, monkeypatch):
        # a process started with fd 1 closed has ``sys.stdout`` set to None
        gen = ["gen", "--dims", "2,1,1,2", "--kraus", "2", "--seed", "3", "--out"]
        open_out, closed_out = tmp_path / "open.json", tmp_path / "closed.json"
        assert main(gen + [str(open_out)]) == 0
        monkeypatch.setattr(sys, "stdout", None)
        assert main(gen + [str(closed_out)]) == 0
        assert closed_out.read_bytes() == open_out.read_bytes()


class TestVerify:
    def test_identity_all_methods(self, tmp_path):
        path = identity_file(tmp_path)
        for method in ("definition", "blocks", "commutation", "trace", "all"):
            assert main(["verify", str(path), "--method", method]) == 0

    def test_block_swapping_channel_reports_residual(self, tmp_path, capsys):
        path = tmp_path / "swap.json"
        write_channel(path, KrausRep(C2, C2, (np.array([[0.0, 1.0], [1.0, 0.0]]),)))
        assert main(["verify", str(path)]) == 1
        report = capsys.readouterr().out
        assert "NOT SP" in report
        assert "residual" in report

    def test_trace_method_on_non_tp_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "subnorm.json"
        write_channel(path, KrausRep(C2, C2, (np.eye(2) / 2,)))
        assert main(["verify", str(path), "--method", "trace"]) == 2
        refusal = "error: trace method requires a trace-preserving channel\n"
        assert capsys.readouterr() == ("", refusal)
        # under "all" the other verifiers still decide the verdict
        assert main(["verify", str(path), "--method", "all"]) == 0

    def test_methods_agree_on_generated_files(self, tmp_path):
        for seed in range(10):
            path = tmp_path / f"gen{seed}.json"
            assert main(["gen", "--dims", "2,2,2,2", "--kraus", "2", "--tp",
                         "--seed", str(seed), "--out", str(path)]) == 0
            for method in ("definition", "blocks", "commutation", "trace"):
                assert main(["verify", str(path), "--method", method]) == 0

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            b'{"format": "\xff"}',
            b"[" * 200_000,
            b'{"rows": ' + b"1" * 5000 + b"}",
            channel_file_bytes([np.eye(2), np.eye(3)]),
            channel_file_bytes([np.ones((3, 4))]),
        ],
        ids=["not-utf8", "deep-nesting", "long-integer", "ragged-kraus", "wide-kraus"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, content, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "never.json"
        for args in (["verify", str(path)],
                     ["convert", str(path), "--to", "kraus-min", "--out", str(out)]):
            assert main(args) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestConvert:
    def test_identity_minimal_kraus_is_single_operator(self, tmp_path):
        src = identity_file(tmp_path)
        out = tmp_path / "min.json"
        assert main(["convert", str(src), "--to", "kraus-min", "--out", str(out)]) == 0
        rep = serialize.channel_from_obj(serialize.read_file(out))
        assert len(rep.ops) == 1

    def test_dephasing_blocks(self, tmp_path):
        src = dephasing_file(tmp_path, p=0.75)
        out = tmp_path / "blocks.json"
        assert main(["convert", str(src), "--to", "blocks", "--out", str(out)]) == 0
        blocks = serialize.blocks_from_obj(serialize.read_file(out))
        np.testing.assert_allclose(blocks.block1, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.block2, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.cross, [[0.5]], atol=1e-12)

    def test_blocks_reassembly_matches_original(self, tmp_path):
        src = tmp_path / "chan.json"
        assert main(["gen", "--dims", "2,1,1,2", "--kraus", "2", "--tp",
                     "--seed", "21", "--out", str(src)]) == 0
        out = tmp_path / "blocks.json"
        assert main(["convert", str(src), "--to", "blocks", "--out", str(out)]) == 0
        original = serialize.channel_from_obj(serialize.read_file(src))
        blocks = serialize.blocks_from_obj(serialize.read_file(out))
        rebuilt = choi_to_kraus(sp_from_blocks(blocks))
        assert channels_equal(original, rebuilt, 1e-9)

    def test_choi_and_orthonormal_outputs(self, tmp_path):
        src = dephasing_file(tmp_path)
        choi_out = tmp_path / "choi.json"
        assert main(["convert", str(src), "--to", "choi", "--out", str(choi_out)]) == 0
        choi = serialize.choi_from_obj(serialize.read_file(choi_out))
        assert choi.matrix.shape == (4, 4)
        ortho_out = tmp_path / "ortho.json"
        assert main(["convert", str(src), "--to", "orthonormal", "--out", str(ortho_out)]) == 0
        obj = serialize.read_file(ortho_out)
        assert len(obj["weights"]) == len(obj["kraus"]) == 2

    def test_blocks_of_non_sp_channel_is_negative(self, tmp_path):
        path = tmp_path / "swap.json"
        write_channel(path, KrausRep(C2, C2, (np.array([[0.0, 1.0], [1.0, 0.0]]),)))
        out = tmp_path / "never.json"
        assert main(["convert", str(path), "--to", "blocks", "--out", str(out)]) == 1
        assert not out.exists()


class TestCompose:
    def test_compose_with_identity(self, tmp_path):
        chan = tmp_path / "chan.json"
        assert main(["gen", "--dims", "1,1,1,1", "--kraus", "2", "--tp",
                     "--seed", "31", "--out", str(chan)]) == 0
        ident = identity_file(tmp_path)
        out = tmp_path / "comp.json"
        assert main(["compose", str(chan), str(ident), "--out", str(out)]) == 0
        original = serialize.channel_from_obj(serialize.read_file(chan))
        composed = serialize.channel_from_obj(serialize.read_file(out))
        assert channels_equal(original, composed, 1e-10)

    def test_composition_of_sp_files_verifies_sp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--dims", "1,2,2,1", "--kraus", "2", "--tp",
                     "--seed", "32", "--out", str(a)]) == 0
        assert main(["gen", "--dims", "2,1,2,2", "--kraus", "2", "--tp",
                     "--seed", "33", "--out", str(b)]) == 0
        out = tmp_path / "comp.json"
        assert main(["compose", str(a), str(b), "--out", str(out)]) == 0
        assert main(["verify", str(out), "--method", "all"]) == 0

    def test_mismatched_dims(self, tmp_path):
        a = identity_file(tmp_path)
        b = tmp_path / "big.json"
        assert main(["gen", "--dims", "2,1,2,1", "--kraus", "1",
                     "--seed", "34", "--out", str(b)]) == 0
        out = tmp_path / "never.json"
        assert main(["compose", str(a), str(b), "--out", str(out)]) == 2


class TestDilate:
    def test_identity_channel(self, tmp_path):
        src = identity_file(tmp_path)
        out = tmp_path / "dil.json"
        assert main(["dilate", str(src), "--out", str(out)]) == 0
        dil = serialize.dilation_from_obj(serialize.read_file(out))
        assert dil.ancilla_dim == 2
        rep = serialize.channel_from_obj(serialize.read_file(src))
        assert verify_dilation(dil, rep)
        # the file stores the two piece stacks; u, v1 and v2 are derived
        obj = serialize.read_file(out)
        assert set(obj) == {"format", "kind", "dims", "a1", "a2"}

    def test_generated_channel(self, tmp_path):
        src = tmp_path / "chan.json"
        assert main(["gen", "--dims", "2,2,2,2", "--kraus", "3", "--tp",
                     "--seed", "41", "--out", str(src)]) == 0
        out = tmp_path / "dil.json"
        assert main(["dilate", str(src), "--out", str(out)]) == 0
        dil = serialize.dilation_from_obj(serialize.read_file(out))
        rep = serialize.channel_from_obj(serialize.read_file(src))
        assert verify_dilation(dil, rep)
        # three generic operators stay linearly independent, so the ancilla
        # ends up one larger than the minimal operator count
        assert kraus_rank(rep) == 3
        assert dil.ancilla_dim == 4

    def test_non_tp_input_is_negative(self, tmp_path):
        path = tmp_path / "subnorm.json"
        write_channel(path, KrausRep(C2, C2, (np.eye(2) / 2,)))
        out = tmp_path / "never.json"
        assert main(["dilate", str(path), "--out", str(out)]) == 1

    def test_different_decompositions_are_negative(self, tmp_path, capsys):
        src = tmp_path / "chan.json"
        assert main(["gen", "--dims", "1,2,2,1", "--kraus", "3", "--tp",
                     "--seed", "42", "--out", str(src)]) == 0
        out = tmp_path / "never.json"
        assert main(["dilate", str(src), "--out", str(out)]) == 1
        assert not out.exists()
        assert "identical source and target" in capsys.readouterr().err


class TestKrausRankCommand:
    def test_identity(self, tmp_path, capsys):
        path = identity_file(tmp_path)
        assert main(["kraus-rank", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kraus rank: 1" in out
        assert "bound" in out  # identity is SP, so the bound is reported

    def test_duplicated_operators(self, tmp_path, capsys):
        rng = np.random.default_rng(302)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        path = tmp_path / "dup.json"
        write_channel(path, KrausRep(C2, C2, (v, v)))
        assert main(["kraus-rank", str(path)]) == 0
        assert "kraus rank: 1" in capsys.readouterr().out

    def test_four_kraus_depolarizing_style(self, tmp_path, capsys):
        d = 2
        ops = []
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = 1.0 / np.sqrt(d)
                ops.append(e)
        path = tmp_path / "depol.json"
        write_channel(path, KrausRep(C2, C2, tuple(ops)))
        assert main(["kraus-rank", str(path)]) == 0
        assert "kraus rank: 4" in capsys.readouterr().out

    @pytest.mark.parametrize("op", [np.eye(2), np.ones((2, 2))], ids=["identity", "ones"])
    def test_squared_norm_past_the_float_range_exits_2(self, tmp_path, capsys, op):
        # one operator, rank 1, whose coefficient entries (1.44e308) are finite
        # but whose Hermitian part and spectrum would overflow
        path = tmp_path / "huge.json"
        write_channel(path, KrausRep(C2, C2, (1.2e154 * op,)))
        assert main(["kraus-rank", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: coefficient matrix is too large: its squared Frobenius norm overflows\n"
        )


class TestHugeEntries:
    """Every command on the 1+1 channels c·I (SP) and c·ones (not SP), one
    operator each and neither trace preserving, for scales c whose products
    pass the float range: from c ≈ 1e77 the squared norm of the coefficient
    matrix does, from c ≈ 1e154 its entries do.  Each command ends in a
    documented exit code with its verdict kept or a worded refusal, and
    without a numpy warning (pytest makes every warning an error)."""

    # command -> the exit code of its verdict on (c·I, c·ones), 2 being the
    # refusal any command may give instead
    VERDICTS = {
        "verify": (0, 1),
        "verify --method definition": (0, 1),
        "verify --method blocks": (0, 1),
        "verify --method commutation": (0, 1),
        "verify --method trace": (2, 2),
        "convert --to choi": (0, 0),
        "convert --to kraus-min": (0, 0),
        "convert --to orthonormal": (0, 0),
        "convert --to blocks": (0, 1),
        "compose": (0, 0),
        "dilate": (1, 1),
        "kraus-rank": (0, 0),
    }

    @pytest.mark.parametrize("scale", [1e77, 1e100, 1e153, 1e160, 1e200], ids="{:g}".format)
    @pytest.mark.parametrize("shape", ["identity", "ones"])
    @pytest.mark.parametrize("command", VERDICTS)
    def test_command_keeps_its_verdict_or_refuses(self, tmp_path, capsys, command, shape, scale):
        op = np.eye(2) if shape == "identity" else np.ones((2, 2))
        path = tmp_path / "huge.json"
        write_channel(path, KrausRep(C2, C2, (scale * op,)))
        name, *options = command.split()
        files = [str(path)] * (2 if name == "compose" else 1)
        out = [] if name in ("verify", "kraus-rank") else ["--out", str(tmp_path / "out.json")]
        code = main([name, *files, *options, *out])
        verdict = self.VERDICTS[command][shape == "ones"]
        assert code in (verdict, 2)
        stdout, stderr = capsys.readouterr()
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
        if name == "kraus-rank":
            assert stdout.startswith("kraus rank: 1\n") if code == 0 else stdout == ""
        if name == "verify" and code != 2:
            assert stdout.endswith(f"verdict: {'NOT SP' if code else 'SP'}\n")


class TestEightPlusEight:
    """The CLI at 8+8 and full Kraus rank K = 128, the largest size it is
    checked at: file sizes, the rank at the SP bound, the block triple's
    round trip and refusal, and the outputs whose bits follow the BLAS
    thread count."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("eight")
        kinds = ("channel", "blocks", "dilation", "composite")
        files = {kind: d / f"{kind}88.json" for kind in kinds}
        channel = str(files["channel"])
        for args in (
            ["gen", "--dims", "8,8,8,8", "--kraus", "128", "--tp", "--seed", "7",
             "--out", channel],
            ["convert", channel, "--to", "blocks", "--out", str(files["blocks"])],
            ["dilate", channel, "--out", str(files["dilation"])],
            ["compose", channel, channel, "--out", str(files["composite"])],
        ):
            assert main(args) == 0
        return files

    def test_channel_verifies_sp(self, files):
        assert main(["verify", str(files["channel"])]) == 0

    @pytest.mark.parametrize("kind", ["dilation", "composite"])
    def test_file_is_under_a_megabyte(self, files, kind):
        assert files[kind].stat().st_size < 1_000_000

    @pytest.mark.parametrize("kind", ["channel", "composite"])
    def test_kraus_rank_is_the_sp_bound(self, files, kind, capsys):
        assert main(["kraus-rank", str(files[kind])]) == 0
        assert "kraus rank: 128" in capsys.readouterr().out.splitlines()

    def test_blocks_file_converts_back_to_the_channel(self, files):
        blocks = serialize.blocks_from_obj(serialize.read_file(files["blocks"]))
        original = serialize.channel_from_obj(serialize.read_file(files["channel"]))
        assert channels_equal(choi_to_kraus(sp_from_blocks(blocks)), original)

    def test_negated_block2_is_refused(self, files):
        b = serialize.blocks_from_obj(serialize.read_file(files["blocks"]))
        bad = SPBlockRep(b.source, b.target, b.block1, -b.block2, b.cross)
        assert not block_psd_check(bad.block1, bad.block2, bad.cross)
        with pytest.raises(SpcpmError, match="^coefficient matrix is not positive semi-definite"):
            sp_from_blocks(bad)

    @pytest.mark.parametrize("command", ["convert", "compose"])
    def test_thread_counts_agree_in_value(self, files, tmp_path, command):
        # an eigh of 128 live units rounds by the BLAS thread split, so the
        # bits may differ between thread counts and the channels may not
        channel = str(files["channel"])
        inputs = [channel, "--to", "kraus-min"] if command == "convert" else [channel, channel]
        reps = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            args = [command, *inputs, "--out", str(out)]
            run = run_spcpm(args, subprocess.PIPE, OPENBLAS_NUM_THREADS=threads)
            assert run.returncode == 0, run.stderr
            reps.append(serialize.channel_from_obj(serialize.read_file(out)))
        assert channels_equal(*reps, 1e-12)


def test_bad_usage_exits_2(capsys):
    # three sizes, then four of which one is not an integer
    for dims in ("1,1,1", "1,x,1,1"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--dims", dims, "--kraus", "1", "--seed", "1", "--out", "x"])
        assert exc.value.code == 2
    assert "invalid literal for int() with base 10: 'x'" in capsys.readouterr().err


TOL_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["verify", "chan.json"],
        ["convert", "chan.json", "--to", "blocks", "--out", "out.json"],
        ["dilate", "chan.json", "--out", "out.json"],
        ["kraus-rank", "chan.json"],
    ],
    ids=["verify", "convert", "dilate", "kraus-rank"],
)


@TOL_COMMANDS
def test_default_tolerance_is_the_library_default(command):
    assert _build_parser().parse_args(command).tol == DEFAULT_TOL


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "abc"])
@TOL_COMMANDS
def test_meaningless_tolerance_is_usage_error(command, value, capsys):
    # an infinite tolerance would call every channel SP, a NaN or negative
    # one none; both are refused before any file is read
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--tol={value}"])
    assert exc.value.code == 2
    assert "tolerance" in capsys.readouterr().err
