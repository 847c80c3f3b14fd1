"""The spcpm/3 matrix form (base64 of little-endian complex128 bytes) and
the reading of committed spcpm/2 files."""

import base64
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spcpm import serialize
from spcpm.cli import main
from spcpm.cpm import KrausRep, kraus_to_choi
from spcpm.dilation import UnitaryDilation, build_dilation
from spcpm.errors import SpcpmError
from spcpm.sp import blocks_from_sp, random_sp_channel
from spcpm.spaces import DecomposedSpace

DATA = Path(__file__).parent / "data"
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
        (np.zeros((0, 3)), "empty"),
        (np.zeros((2, 2, 2)), "2-D"),
        (np.zeros(3), "2-D"),
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
        ({"data": 5}, "base64 string or a list"),
        ({"data": None}, "base64 string or a list"),
        ({"data": {"re": 1.0}}, "base64 string or a list"),
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
# committed spcpm/2 files still read bit-exactly
#
# The fixtures were written by the spcpm/2 serializer from the objects the
# builders below return; the regeneration goes through the same numpy and
# LAPACK calls, so on the platform that wrote them it is bit-exact.  The
# dilation is the exception: see _fixture_dilation.


def _channel() -> KrausRep:
    return random_sp_channel(DecomposedSpace(1, 2), DecomposedSpace(2, 1), 2, False, 8101)


def _dilation():
    space = DecomposedSpace(1, 2)
    return build_dilation(random_sp_channel(space, space, 2, True, 8102))


def _fixture_u() -> np.ndarray:
    return serialize.decode_matrix(serialize.read_file(DATA / "dilation_v2.json")["u"])


def _fixture_dilation():
    """The fixture's own ``u``, cut into its two blocks by hand.

    The fixture was written when the builder contracted zero-padded d x d
    Kraus pieces; it now contracts the d_i x d_i blocks, which rounds some
    entries differently in the last bit, so a rebuild is compared within
    1e-15 (test_v2_dilation_fixture_matches_a_rebuild) and the bit-exact
    read against the file's own entries."""
    u, anc = _fixture_u(), 3
    return UnitaryDilation(DecomposedSpace(1, 2), anc, u[:anc, :anc], u[anc:, anc:])


#: kind -> (regenerate, read, write, the object's matrices)
V2_KINDS = {
    "channel": (_channel, serialize.channel_from_obj, serialize.channel_to_obj,
                lambda r: (r.ops,)),
    "choi": (lambda: kraus_to_choi(_channel()), serialize.choi_from_obj,
             serialize.choi_to_obj, lambda r: (r.matrix,)),
    "blocks": (lambda: blocks_from_sp(_channel()), serialize.blocks_from_obj,
               serialize.blocks_to_obj, lambda r: (r.block1, r.block2, r.cross)),
    "dilation": (_fixture_dilation, serialize.dilation_from_obj,
                 serialize.dilation_to_obj, lambda r: (r.u1, r.u2, r.u)),
}


def _bits(matrices) -> list[bytes]:
    return [m.tobytes() for m in matrices]


@pytest.mark.parametrize("kind", sorted(V2_KINDS))
def test_v2_fixture_reads_bit_exactly_and_rewrites_as_v3(kind, tmp_path):
    regenerate, from_obj, to_obj, matrices = V2_KINDS[kind]
    obj = serialize.read_file(DATA / f"{kind}_v2.json")
    assert obj["format"] == "spcpm/2"
    back, expected = from_obj(obj), regenerate()
    assert _bits(matrices(back)) == _bits(matrices(expected))
    assert to_obj(back) == to_obj(expected)  # the dims and sizes as well

    path = tmp_path / f"{kind}.json"
    serialize.write_file(path, to_obj(back))
    rewritten = serialize.read_file(path)
    assert rewritten["format"] == "spcpm/3"
    assert _bits(matrices(from_obj(rewritten))) == _bits(matrices(back))


def test_v2_dilation_fixture_reads_with_the_same_u_bits():
    raw = _fixture_u()
    dil = serialize.dilation_from_obj(serialize.read_file(DATA / "dilation_v2.json"))
    n1 = dil.u1.shape[0]
    # every entry on the two blocks keeps its bits; the file's off-block
    # entries are all zeros, some of them -0.0, which read as +0.0
    assert dil.u1.tobytes() == raw[:n1, :n1].tobytes()
    assert dil.u2.tobytes() == raw[n1:, n1:].tobytes()
    assert np.array_equal(dil.u, raw)
    assert np.any(np.signbit(raw[:n1, n1:].view(np.float64)))


def test_v2_dilation_fixture_matches_a_rebuild():
    dil = serialize.dilation_from_obj(serialize.read_file(DATA / "dilation_v2.json"))
    rebuilt = _dilation()
    assert rebuilt.ancilla_dim == dil.ancilla_dim
    assert np.max(np.abs(rebuilt.u - dil.u)) <= 1e-15


def test_v2_dilation_fixture_keeps_signed_zeros():
    u = serialize.dilation_from_obj(serialize.read_file(DATA / "dilation_v2.json")).u
    parts = u.view(np.float64)
    assert np.any((parts == 0) & np.signbit(parts))


def test_v2_channel_fixture_verifies_through_the_cli():
    assert main(["verify", str(DATA / "channel_v2.json")]) == 0
