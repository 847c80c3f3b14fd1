"""End-to-end tests for the command-line interface and the JSON formats."""

import json

import numpy as np
import pytest

from spcpm import serialize
from spcpm.cli import main
from spcpm.cpm import KrausRep, channels_equal, choi_to_kraus, kraus_rank
from spcpm.dilation import build_dilation, verify_dilation
from spcpm.errors import SpcpmError
from spcpm.sp import sp_from_blocks
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)


def write_channel(path, rep):
    serialize.write_file(path, serialize.channel_to_obj(rep))


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
    def test_files_are_compact_and_tagged_2(self, tmp_path):
        path = tmp_path / "chan.json"
        write_channel(path, KrausRep(C2, C2, (np.eye(2),)))
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text)["format"] == "spcpm/2"

    def test_first_format_is_refused(self, tmp_path):
        obj = serialize.channel_to_obj(KrausRep(C2, C2, (np.eye(2),)))
        obj["format"] = "spcpm/1"
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj, indent=2) + "\n")
        with pytest.raises(SpcpmError, match="unsupported format tag: 'spcpm/1'"):
            serialize.read_file(path)
        assert main(["verify", str(path)]) == 2

    def test_unknown_format_tag_is_refused(self, tmp_path):
        obj = serialize.channel_to_obj(KrausRep(C2, C2, (np.eye(2),)))
        obj["format"] = "spcpm/3"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SpcpmError, match="format tag"):
            serialize.read_file(path)

    def test_signed_zeros_survive(self):
        mat = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
        text = json.dumps(serialize.encode_matrix(mat))
        back = serialize.decode_matrix(json.loads(text))
        assert back.tobytes() == mat.tobytes()

    @pytest.mark.parametrize(
        "fields,match",
        [
            ({"data": [[1.0, 0.0], [1.0]]}, "matrix entries"),
            ({"data": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}, "matrix entries"),
            ({"data": [[1.0, 0.0], ["x", 0.0]]}, "matrix entries"),
            ({"data": [[1.0, 0.0], [{}, 0.0]]}, "matrix entries"),
            ({"data": [[1.0, 0.0], [None, 0.0]]}, "matrix entries"),
            ({"data": [[1.0, 0.0], [float("inf"), 0.0]]}, "matrix entries"),
            ({"data": [[1.0, 0.0], [10**400, 0.0]]}, "matrix entries"),
            ({"data": [1.0, 0.0]}, "matrix entries"),
            ({"rows": 1.9, "cols": True}, "rows and cols must be integers"),
            ({"rows": "1"}, "rows and cols must be integers"),
        ],
        ids=["short", "triple", "text", "object", "null", "inf", "huge", "flat",
             "float-and-bool-size", "text-size"],
    )
    def test_bad_entries_are_format_errors(self, fields, match):
        obj = {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0]], **fields}
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

    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_non_integer_ancilla_dim_is_refused(self, value):
        obj = serialize.dilation_to_obj(build_dilation(KrausRep(C2, C2, (np.eye(2),))))
        obj["ancilla_dim"] = value
        with pytest.raises(SpcpmError, match="ancilla_dim must be a positive integer"):
            serialize.dilation_from_obj(obj)


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

    def test_singular_normalizer_exit_code(self, tmp_path):
        out = tmp_path / "never.json"
        code = main(["gen", "--dims", "2,1,1,1", "--kraus", "1", "--tp",
                     "--seed", "1", "--out", str(out)])
        assert code == 3


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

    def test_trace_method_on_non_tp_is_usage_error(self, tmp_path):
        path = tmp_path / "subnorm.json"
        write_channel(path, KrausRep(C2, C2, (np.eye(2) / 2,)))
        assert main(["verify", str(path), "--method", "trace"]) == 2
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
        # the file stores u alone; v1 and v2 are its blocks
        obj = serialize.read_file(out)
        assert set(obj) == {"format", "kind", "dims", "ancilla_dim", "u"}

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


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--dims", "1,1,1", "--kraus", "1", "--seed", "1", "--out", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "abc"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "chan.json"],
        ["convert", "chan.json", "--to", "blocks", "--out", "out.json"],
        ["dilate", "chan.json", "--out", "out.json"],
        ["kraus-rank", "chan.json"],
    ],
    ids=["verify", "convert", "dilate", "kraus-rank"],
)
def test_meaningless_tolerance_is_usage_error(command, value, capsys):
    # an infinite tolerance would call every channel SP, a NaN or negative
    # one none; both are refused before any file is read
    with pytest.raises(SystemExit) as exc:
        main(command + [f"--tol={value}"])
    assert exc.value.code == 2
    assert "tolerance" in capsys.readouterr().err
