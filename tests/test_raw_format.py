"""The array form of spcpm files: each array is one base64 string of
little-endian complex128 bytes whose shape the file's header fixes."""

import base64
import json
import math
import os
import re
import stat
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcpm import serialize
from spcpm.cli import main
from spcpm.cpm import ChoiRep, KrausRep, kraus_to_choi, orthonormal_kraus
from spcpm.dilation import UnitaryDilation, build_dilation
from spcpm.sp import SPBlockRep, blocks_from_sp, random_sp_channel
from spcpm.errors import SpcpmError
from spcpm.spaces import DecomposedSpace

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def wire(obj: dict) -> dict:
    """``obj`` after a JSON text round trip."""
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# round trip and byte order

# finite doubles, with the signed zeros, the subnormals and the largest
# magnitudes drawn often
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, sys.float_info.min / 3, MAX, -MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)
SPLITS = st.tuples(st.integers(1, 3), st.integers(1, 3))


def arrays(shape):
    n = 2 * math.prod(shape)
    parts = st.lists(FLOATS, min_size=n, max_size=n)
    return parts.map(lambda p: np.array(p, dtype=np.float64).view(np.complex128).reshape(shape))


def channel_pairs(source, target, k, draw):
    ops = draw(arrays((k, target.dim, source.dim)))
    rep = KrausRep(source, target, ops)
    back = serialize.channel_from_obj(wire(serialize.channel_to_obj(rep)))
    return [(ops, back.ops)]


def choi_pairs(source, target, k, draw):
    n = source.dim * target.dim
    mat = draw(arrays((n, n)))
    rep = ChoiRep(source, target, mat)
    back = serialize.choi_from_obj(wire(serialize.choi_to_obj(rep)))
    return [(mat, back.matrix)]


def blocks_pairs(source, target, k, draw):
    n1, n2 = source.d1 * target.d1, source.d2 * target.d2
    parts = [draw(arrays(shape)) for shape in ((n1, n1), (n2, n2), (n1, n2))]
    blocks = SPBlockRep(source, target, *parts)
    back = serialize.blocks_from_obj(wire(serialize.blocks_to_obj(blocks)))
    return list(zip(parts, (back.block1, back.block2, back.cross)))


def orthonormal_pairs(source, target, k, draw):
    # no reader: the stack is read back by the one array reader
    ys = draw(arrays((k, target.dim, source.dim)))
    weights = [float(r) for r in range(1, k + 1)]
    obj = wire(serialize.orthonormal_to_obj(list(zip(weights, ys)), source, target))
    assert obj["weights"] == weights
    return [(ys, serialize.decode_array(obj, "kraus", (None, target.dim, source.dim)))]


def dilation_pairs(source, target, k, draw):
    d1, d2 = source.d1, source.d2
    k = min(k, d1 * d1 + d2 * d2)  # the most pieces a dilation holds
    a1, a2 = draw(arrays((k, d1, d1))), draw(arrays((k, d2, d2)))
    dil = UnitaryDilation(source, a1, a2)
    back = serialize.dilation_from_obj(wire(serialize.dilation_to_obj(dil)))
    return [(a1, back.a1), (a2, back.a2)]


ROUND_TRIPS = {
    "channel": channel_pairs,
    "choi": choi_pairs,
    "blocks": blocks_pairs,
    "orthonormal": orthonormal_pairs,
    "dilation": dilation_pairs,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ROUND_TRIPS)), SPLITS, SPLITS, st.integers(1, 5), st.data())
def test_every_kind_round_trips_bit_exactly(kind, s, t, k, data):
    pairs = ROUND_TRIPS[kind](DecomposedSpace(*s), DecomposedSpace(*t), k, data.draw)
    for written, read in pairs:
        assert read.shape == written.shape and read.tobytes() == written.tobytes()


def test_the_zero_channel_writes_an_empty_string():
    c2 = DecomposedSpace(1, 1)
    obj = serialize.orthonormal_to_obj([], c2, c2)
    assert (obj["weights"], obj["kraus"]) == ([], "")


def test_byte_order_is_little_endian():
    # built from struct, not numpy, so the pin holds on any host
    data = b64(struct.pack("<dd", 1.5, -2.0))
    back = serialize.decode_array({"m": data}, "m", (1, 1))
    assert back.dtype == np.complex128 and back[0, 0] == 1.5 - 2j
    assert serialize.encode_array([[1.5 - 2j]]) == data


def test_data_is_row_major_and_sixteen_bytes_per_entry():
    mat = np.arange(6).reshape(2, 3) * (1 - 1j)
    raw = base64.b64decode(serialize.encode_array(mat))
    assert len(raw) == 16 * 6
    assert struct.unpack("<12d", raw)[2:4] == (1.0, -1.0)  # entry [0, 1]


def test_views_and_real_inputs_encode_as_their_complex128_copies():
    mat = np.arange(12).reshape(3, 4) * (1 - 2j)
    for view in (mat.T, mat[::2, 1:], mat.real):
        want = np.array(view, dtype=np.complex128)
        assert serialize.encode_array(view) == serialize.encode_array(want)


# ---------------------------------------------------------------------------
# refusals: every malformed array is an SpcpmError naming its key

C11, C12 = DecomposedSpace(1, 1), DecomposedSpace(1, 2)
# a valid 1+1 -> 1+2 object of each kind with a reader, so every array of
# a file has a shape of its own, and a 2+2 dilation, whose pieces are wider
# than one entry
VALID = {
    "channel": serialize.channel_to_obj(
        KrausRep(C11, C12, np.arange(12).reshape(2, 3, 2) * (1 - 1j))
    ),
    "choi": serialize.choi_to_obj(ChoiRep(C11, C12, np.eye(6))),
    "blocks": serialize.blocks_to_obj(SPBlockRep(C11, C12, [[1]], np.eye(2), [[0, 0]])),
    "dilation": serialize.dilation_to_obj(
        UnitaryDilation(DecomposedSpace(2, 2), np.ones((2, 2, 2)), np.zeros((2, 2, 2)))
    ),
}
READERS = {
    "channel": serialize.channel_from_obj,
    "choi": serialize.choi_from_obj,
    "blocks": serialize.blocks_from_obj,
    "dilation": serialize.dilation_from_obj,
}
ARRAY_KEYS = [("channel", "kraus"), ("choi", "matrix"), ("blocks", "block1"),
              ("blocks", "block2"), ("blocks", "cross"), ("dilation", "a1"), ("dilation", "a2")]
NAN, INF = struct.pack("<dd", 1.0, float("nan")), struct.pack("<dd", float("-inf"), 0.0)

# each malformation as a function of the valid base64 string, and the
# refusal it gets; the last two reach the constructor's array gate
MALFORMED = {
    "missing": (None, "must be a base64 string, got NoneType"),
    "number": (lambda s: 5, "must be a base64 string, got int"),
    "null": (lambda s: None, "must be a base64 string, got NoneType"),
    "object": (lambda s: {"re": 1.0}, "must be a base64 string, got dict"),
    "pairs": (lambda s: [[1.0, 0.0]], "must be a base64 string, got list"),
    "non-alphabet": (lambda s: "*" + s[1:], "is not strict base64"),
    "newline": (lambda s: s[:4] + "\n" + s[4:], "is not strict base64"),
    "cut-quad": (lambda s: s[:-1], "is not strict base64"),
    "non-ascii": (lambda s: s[:8] + "é" + s[9:], "is not strict base64"),
    "empty": (lambda s: "", "holds 0 bytes, expected "),
    "one-byte-more": (lambda s: b64(base64.b64decode(s) + b"\0"), "holds .* bytes, expected "),
    "one-byte-less": (lambda s: b64(base64.b64decode(s)[:-1]), "holds .* bytes, expected "),
    "one-entry-less": (lambda s: b64(base64.b64decode(s)[:-16]), "holds .* bytes, expected "),
    "nan": (lambda s: b64(NAN + base64.b64decode(s)[16:]), "must have finite entries"),
    "inf": (lambda s: b64(INF + base64.b64decode(s)[16:]), "must have finite entries"),
}


@pytest.mark.parametrize("how", MALFORMED)
@pytest.mark.parametrize("kind, key", ARRAY_KEYS, ids=[key for _, key in ARRAY_KEYS])
def test_malformed_arrays_are_refused_naming_their_key(tmp_path, capsys, kind, key, how):
    change, match = MALFORMED[how]
    obj = dict(VALID[kind])
    if change is None:
        del obj[key]
    else:
        obj[key] = change(obj[key])
    # the gate names Kraus operators and coefficient matrices in words
    named = {"kraus": "Kraus operators", "matrix": "coefficient matrix"}.get(key, key)
    prefix = named if how in ("nan", "inf") else key
    with pytest.raises(SpcpmError, match=f"^{prefix} ({match})"):
        READERS[kind](obj)
    if kind == "channel":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix} ")


@pytest.mark.parametrize("key", ["kraus", "a1", "a2"])
def test_a_stack_holds_a_positive_whole_number_of_pieces(key):
    kind = "channel" if key == "kraus" else "dilation"
    piece = len(base64.b64decode(VALID[kind][key])) // 2
    for raw in (b"", bytes(piece + 16), bytes(3 * piece - 16)):
        obj = {**VALID[kind], key: b64(raw)}
        refusal = f"^{key} holds {len(raw)} bytes, expected a positive multiple of {piece}$"
        with pytest.raises(SpcpmError, match=refusal):
            READERS[kind](obj)


@pytest.mark.parametrize(
    "kind, key, nbytes, expected",
    [("blocks", "cross", 48, 32), ("choi", "matrix", 480, 576), ("blocks", "block2", 128, 64)],
    ids=["part-row", "row-less", "rows-more"],
)
def test_a_fixed_shape_names_its_byte_count(kind, key, nbytes, expected):
    # whole rows too many or too few are as wrong as a part of one
    obj = {**VALID[kind], key: b64(bytes(nbytes))}
    with pytest.raises(SpcpmError, match=f"^{key} holds {nbytes} bytes, expected {expected}$"):
        READERS[kind](obj)


@pytest.mark.parametrize("kind", READERS)
def test_huge_dims_with_a_short_string_allocate_nothing(kind):
    # the expected byte count is a Python int from the header, so dims of
    # 10**20 are refused by their count before any array is made
    obj = {key: [10**20, 1] if key.endswith("dims") else value
           for key, value in VALID[kind].items()}
    tracemalloc.start()
    try:
        with pytest.raises(SpcpmError, match=r"^\w+ holds \d+ bytes, expected \D*\d{20,}$"):
            READERS[kind](obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_nan_bits_in_a_file_exit_2(tmp_path, capsys):
    c2 = DecomposedSpace(1, 1)
    obj = serialize.channel_to_obj(KrausRep(c2, c2, (np.eye(2),)))
    obj["kraus"] = b64(NAN + bytes(48))
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
    arrays = {"kraus", "matrix", "block1", "block2", "cross", "a1", "a2"}
    for kind, (obj, keys) in objs.items():
        assert list(obj) == keys, kind
        assert obj["format"] == "spcpm/5" and obj["kind"] == kind
        assert obj[keys[2]] == [2, 1]
        # each array is one string: no rows, cols or list of matrix objects
        assert all(isinstance(obj[key], str) for key in arrays & set(keys)), kind


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
