"""The matrix form of spcpm files: base64 of little-endian complex128 bytes."""

import base64
import json
import os
import re
import stat
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spcpm import serialize
from spcpm.cli import main
from spcpm.cpm import KrausRep, kraus_to_choi, orthonormal_kraus
from spcpm.dilation import build_dilation
from spcpm.sp import SPBlockRep, blocks_from_sp, random_sp_channel
from spcpm.errors import SpcpmError
from spcpm.spaces import DecomposedSpace

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


# ---------------------------------------------------------------------------
# round trip and byte order


@st.composite
def finite_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = 2 * rows * cols
    parts = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n, max_size=n))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)


EDGE = np.array([
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(TINY, -TINY)],
    [complex(MAX, -MAX), complex(-MAX, MAX), complex(sys.float_info.min / 3, -1.0)],
])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(finite_matrices())
@example(EDGE)
def test_raw_round_trip_is_bit_exact(mat):
    obj = json.loads(json.dumps(serialize.encode_matrix(mat)))
    assert isinstance(obj["data"], str)
    back = serialize.decode_matrix(obj)
    assert back.shape == mat.shape and back.tobytes() == mat.tobytes()


def test_byte_order_is_little_endian():
    # built from struct, not numpy, so the pin holds on any host
    data = b64(struct.pack("<dd", 1.5, -2.0))
    back = serialize.decode_matrix({"rows": 1, "cols": 1, "data": data})
    assert back.dtype == np.complex128 and back[0, 0] == 1.5 - 2j
    assert serialize.encode_matrix([[1.5 - 2j]])["data"] == data


def test_data_is_row_major_and_sixteen_bytes_per_entry():
    mat = np.arange(6).reshape(2, 3) * (1 - 1j)
    obj = serialize.encode_matrix(mat)
    raw = base64.b64decode(obj["data"])
    assert (obj["rows"], obj["cols"], len(raw)) == (2, 3, 16 * 6)
    assert struct.unpack("<12d", raw)[2:4] == (1.0, -1.0)  # entry [0, 1]


def test_views_and_real_inputs_encode_as_their_complex128_copies():
    mat = np.arange(12).reshape(3, 4) * (1 - 2j)
    for view in (mat.T, mat[::2, 1:], mat.real):
        want = np.array(view, dtype=np.complex128)
        assert serialize.encode_matrix(view) == serialize.encode_matrix(want)


# ---------------------------------------------------------------------------
# refusals: every malformed raw matrix is an SpcpmError


@pytest.mark.parametrize(
    "mat,match",
    [
        (np.array([[1.0, np.nan]]), "finite"),
        (np.array([[1.0], [complex(0.0, np.inf)]]), "finite"),
        (np.zeros((0, 3)), r"^matrix must not be empty, got shape \(0, 3\)$"),
        (np.zeros((2, 2, 2)), r"^matrix has shape \(2, 2, 2\), expected \(\*, \*\)$"),
        (np.zeros(3), r"^matrix has shape \(3,\), expected \(\*, \*\)$"),
    ],
    ids=["nan", "inf", "empty", "3-d", "1-d"],
)
def test_encode_refuses_what_no_file_may_hold(mat, match):
    with pytest.raises(SpcpmError, match=match):
        serialize.encode_matrix(mat)

GOOD = struct.pack("<4d", 1.0, 0.0, 0.0, -1.0)  # rows=1, cols=2
NAN_BITS = struct.pack("<4d", 1.0, float("nan"), 0.0, 0.0)
INF_BITS = struct.pack("<4d", 1.0, 0.0, float("-inf"), 0.0)


@pytest.mark.parametrize(
    "fields,match",
    [
        ({"data": "*" + b64(GOOD)[1:]}, "base64"),
        ({"data": b64(GOOD)[:20] + "\n" + b64(GOOD)[20:]}, "base64"),
        ({"data": b64(GOOD).rstrip("=")}, "base64"),
        ({"data": b64(GOOD)[:8] + "é" + b64(GOOD)[9:]}, "base64"),
        ({"data": b64(GOOD + b"\0")}, "bytes"),
        ({"data": b64(GOOD[:-1])}, "bytes"),
        ({"data": b64(GOOD + GOOD[:16])}, "bytes"),
        ({"data": b64(GOOD[:16])}, "bytes"),
        ({"rows": 10**12, "cols": 10**6}, "bytes"),
        ({"data": b64(NAN_BITS)}, "finite"),
        ({"data": b64(INF_BITS)}, "finite"),
        ({"data": 5}, "must be a base64 string"),
        ({"data": None}, "must be a base64 string"),
        ({"data": {"re": 1.0}}, "must be a base64 string"),
        ({"rows": "1", "data": "!"}, "integers"),
        ({"cols": 0, "data": "!"}, "positive"),
    ],
    ids=["non-alphabet", "newline", "no-padding", "non-ascii", "one-byte-more",
         "one-byte-less", "one-entry-more", "one-entry-less", "huge-rows",
         "nan", "inf", "number", "null", "object", "sizes-checked-first",
         "zero-cols-checked-first"],
)
def test_bad_raw_matrices_are_format_errors(fields, match):
    # read as the 1 x 2 cross block of a 1+1 -> 1+2 blocks file, so the
    # constructor's array gate, which refuses non-finite entries, runs too
    obj = {"rows": 1, "cols": 2, "data": b64(GOOD), **fields}
    c2, c12 = DecomposedSpace(1, 1), DecomposedSpace(1, 2)
    blocks = {**serialize.blocks_to_obj(SPBlockRep(c2, c12, [[1]], np.eye(2), [[0, 0]])),
              "cross": obj}
    with pytest.raises(SpcpmError, match=match):
        serialize.blocks_from_obj(blocks)


def test_good_raw_matrix_decodes():
    back = serialize.decode_matrix({"rows": 1, "cols": 2, "data": b64(GOOD)})
    assert back.tolist() == [[1.0, -1j]]


def test_nan_bits_in_a_file_exit_2(tmp_path, capsys):
    c2 = DecomposedSpace(1, 1)
    obj = serialize.channel_to_obj(KrausRep(c2, c2, (np.eye(2),)))
    obj["kraus"][0]["data"] = b64(NAN_BITS + GOOD)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# key order: json.dumps writes keys in insertion order, so the order of each
# writer's keys is part of the file bytes


def test_every_writer_keeps_its_key_order():
    space = DecomposedSpace(2, 1)
    rep = random_sp_channel(space, space, 2, True, 5)
    dims = ["format", "kind", "source_dims", "target_dims"]
    objs = {
        "channel": (serialize.channel_to_obj(rep), dims + ["kraus"]),
        "choi": (serialize.choi_to_obj(kraus_to_choi(rep)), dims + ["basis", "matrix"]),
        "blocks": (serialize.blocks_to_obj(blocks_from_sp(rep)),
                   dims + ["block1", "block2", "cross"]),
        "orthonormal": (serialize.orthonormal_to_obj(orthonormal_kraus(rep), space, space),
                        dims + ["weights", "kraus"]),
        "dilation": (serialize.dilation_to_obj(build_dilation(rep)),
                     ["format", "kind", "dims", "a1", "a2"]),
    }
    for kind, (obj, keys) in objs.items():
        assert list(obj) == keys, kind
        assert obj["format"] == "spcpm/4" and obj["kind"] == kind
        assert obj[keys[2]] == [2, 1]


# ---------------------------------------------------------------------------
# writing: a file is rewritten in place and cut to its new length


def one_plus_one_channel():
    c2 = DecomposedSpace(1, 1)
    return serialize.channel_to_obj(KrausRep(c2, c2, (np.eye(2),)))


def long_channel():
    c33 = DecomposedSpace(3, 3)
    return serialize.channel_to_obj(random_sp_channel(c33, c33, 6, False, 5))


@pytest.mark.parametrize("first, second", [(long_channel, one_plus_one_channel),
                                           (one_plus_one_channel, long_channel)],
                         ids=["long-then-short", "short-then-long"])
def test_overwrite_leaves_exactly_the_new_bytes(tmp_path, first, second):
    path = tmp_path / "over.json"
    serialize.write_file(path, first())
    obj = second()
    serialize.write_file(path, obj)
    assert path.read_bytes() == (json.dumps(obj) + "\n").encode()


def test_a_file_that_cannot_be_cut_is_written():
    # ftruncate refuses /dev/null with EINVAL; pipes and terminals likewise
    serialize.write_file(os.devnull, one_plus_one_channel())


def test_files_are_opened_without_truncation(tmp_path, monkeypatch):
    # a truncate to zero and a write in one open is what made ext4 flush
    flags = []
    real_open = serialize.os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(serialize.os, "open", recording_open)
    path = tmp_path / "over.json"
    serialize.write_file(path, long_channel())
    serialize.write_file(path, one_plus_one_channel())
    assert len(flags) == 2
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_overwrite_keeps_the_permission_bits(tmp_path):
    path = tmp_path / "private.json"
    serialize.write_file(path, long_channel())
    path.chmod(0o600)
    serialize.write_file(path, one_plus_one_channel())
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


# ---------------------------------------------------------------------------
# reads and writes on the raw descriptor


def test_a_pipe_is_read_to_its_end():
    # larger than a pipe's buffer and than one read call, so both loop
    c44 = DecomposedSpace(4, 4)
    obj = serialize.channel_to_obj(random_sp_channel(c44, c44, 96, False, 3))
    data = (json.dumps(obj) + "\n").encode()
    assert len(data) > 2 * 65536
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_end, data), os.close(write_end)))
    writer.start()
    try:
        assert serialize.read_file(f"/dev/fd/{read_end}") == obj
    finally:
        os.close(read_end)
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_a_short_write_is_continued(tmp_path, monkeypatch):
    # a write may take fewer bytes than it was handed; here it takes one
    real_write = os.write
    monkeypatch.setattr(serialize.os, "write", lambda fd, data: real_write(fd, data[:1]))
    path = tmp_path / "slow.json"
    obj = long_channel()
    serialize.write_file(path, obj)
    monkeypatch.undo()
    assert path.read_bytes() == (json.dumps(obj) + "\n").encode()


def test_only_a_longer_file_is_cut(tmp_path, monkeypatch):
    cuts = []
    real_ftruncate = os.ftruncate

    def recording_ftruncate(fd, length):
        cuts.append(length)
        real_ftruncate(fd, length)

    monkeypatch.setattr(serialize.os, "ftruncate", recording_ftruncate)
    path = tmp_path / "cut.json"
    short = one_plus_one_channel()
    serialize.write_file(path, short)  # new
    serialize.write_file(path, short)  # as long
    assert cuts == []
    serialize.write_file(path, long_channel())  # longer
    assert cuts == []
    serialize.write_file(path, short)  # shorter
    assert cuts == [len(json.dumps(short)) + 1]
    assert path.read_bytes() == (json.dumps(short) + "\n").encode()


@pytest.mark.parametrize(
    "encode",
    [
        lambda text: text.encode("utf-16"),
        lambda text: text.encode("utf-16-le"),
        lambda text: text.encode("utf-32"),
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        lambda text: text.replace("channel", "chann\xe9l").encode("latin-1"),
    ],
    ids=["utf-16", "utf-16-le", "utf-32", "utf-8-bom", "latin-1"],
)
def test_only_strict_utf8_is_read(tmp_path, encode):
    # json.loads would take the bytes of the first four and guess their encoding
    text = json.dumps(one_plus_one_channel())
    path = tmp_path / "encoded.json"
    path.write_bytes(encode(text))
    with pytest.raises(SpcpmError, match="^cannot read "):
        serialize.read_file(path)


def test_a_directory_is_refused_naming_its_path(tmp_path):
    # it opens, then refuses its first read; the prefix names the path
    with pytest.raises(SpcpmError) as refusal:
        serialize.read_file(tmp_path)
    assert str(refusal.value).startswith(f"cannot read {tmp_path}: ")
    assert "Is a directory" in str(refusal.value)


@pytest.mark.parametrize(
    "end, bad",
    [("\r\n", b'{\r\n"a": 1,\r\n x}'), ("\r", b'{\r"a": \r1,\r x}'), (None, b'{"a": "\r"}')],
    ids=["crlf", "cr", "cr-in-string"],
)
def test_line_ends_are_read_as_text_files_read_them(tmp_path, end, bad):
    # CR and CRLF are JSON whitespace, so a valid file with those line ends
    # reads as its LF form; a malformed one, or a CR inside a string, is refused
    path = tmp_path / "lines.json"
    if end is not None:
        text = json.dumps(one_plus_one_channel(), indent=1)
        path.write_bytes(text.encode())
        lf = serialize.read_file(path)
        path.write_bytes(text.replace("\n", end).encode())
        assert serialize.read_file(path) == lf
    path.write_bytes(bad)
    with pytest.raises(SpcpmError, match=f"^cannot read {re.escape(str(path))}: "):
        serialize.read_file(path)
