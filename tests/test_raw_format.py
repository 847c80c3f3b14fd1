"""The matrix form of spcpm files: base64 of little-endian complex128 bytes."""

import base64
import json
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spcpm import serialize
from spcpm.cli import main
from spcpm.cpm import KrausRep, kraus_to_choi, orthonormal_kraus
from spcpm.dilation import build_dilation
from spcpm.sp import blocks_from_sp, random_sp_channel
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
    obj = {"rows": 1, "cols": 2, "data": b64(GOOD), **fields}
    with pytest.raises(SpcpmError, match=match):
        serialize.decode_matrix(obj)


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
