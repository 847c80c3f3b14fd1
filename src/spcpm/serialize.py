"""JSON interchange for channels, coefficient matrices, block triples and
dilations.

Every file is compact JSON tagged ``"format": "spcpm/3"`` (a dilation
stores its two diagonal blocks ``u1`` and ``u2`` only).  A matrix is
``{"rows": R, "cols": C, "data": <base64>}`` where ``data`` is the standard
(RFC 4648) base64 of the row-major matrix as little-endian ``complex128``
bytes, 16 per entry, so a write followed by a read reproduces every matrix
bit-exactly, signed zeros included.

Files tagged ``spcpm/2``, whose matrices hold ``[re, im]`` pairs of decimal
doubles in ``data``, are still read but never written; the decoder picks the
form by the JSON type of ``data``, and both forms get the same checks.  A
dilation that holds the full ``u`` instead of its blocks (every ``spcpm/2``
one and the earliest ``spcpm/3`` ones) is read by slicing the blocks out,
and refused if any entry off them is nonzero.  Any other tag, an unreadable
path and a malformed file raise :class:`SpcpmError`, and so does a path that
cannot be written.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .cpm import ChoiRep, KrausRep
from .dilation import UnitaryDilation
from .errors import SpcpmError
from .linalg import check_matrix
from .sp import SPBlockRep
from .spaces import DecomposedSpace, is_integer

FORMAT = "spcpm/3"
#: The tags read_file accepts: the written one and the [re, im] form before it.
_READ_FORMATS = (FORMAT, "spcpm/2")
#: The one coefficient basis of choi files: the row-major matrix units.
MATRIX_UNIT_BASIS = "matrix-units"


def encode_matrix(m) -> dict:
    # checked in place: tobytes makes the one copy of a complex128 input
    arr = check_matrix(np.asarray(m, dtype="<c16"))
    data = base64.b64encode(arr.tobytes())
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
            "data": data.decode("ascii")}


def _raw_entries(data: str, n: int) -> np.ndarray:
    """The n entries of a base64 string of little-endian complex128 bytes."""
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise SpcpmError(f"matrix data is not strict base64: {exc}") from exc
    if len(raw) != 16 * n:
        raise SpcpmError(
            f"matrix data holds {len(raw)} bytes, expected 16 * rows * cols"
        )
    return np.frombuffer(raw, dtype="<c16").astype(np.complex128, copy=False)


def _pair_entries(data: list, n: int) -> np.ndarray:
    """The n entries of a list of [re, im] pairs (the spcpm/2 form)."""
    if len(data) != n:
        raise SpcpmError("matrix data length does not match rows * cols")
    try:
        pairs = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpcpmError(f"bad matrix entries: {exc}") from exc
    if pairs.shape != (n, 2):
        raise SpcpmError("matrix entries must be [re, im] pairs")
    return pairs.view(np.complex128)


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise SpcpmError("matrix object must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise SpcpmError(f"bad matrix object: {exc}") from exc
    if not (is_integer(rows) and is_integer(cols)):
        raise SpcpmError("matrix rows and cols must be integers")
    if rows < 1 or cols < 1:
        raise SpcpmError("matrix dimensions must be positive")
    if isinstance(data, str):
        entries = _raw_entries(data, rows * cols)
    elif isinstance(data, list):
        entries = _pair_entries(data, rows * cols)
    else:
        raise SpcpmError("matrix data must be a base64 string or a list of pairs")
    if not np.all(np.isfinite(entries)):
        raise SpcpmError("matrix entries must be finite")
    return entries.reshape(rows, cols)


def _encode_space(space: DecomposedSpace) -> list[int]:
    return [space.d1, space.d2]


def _decode_space(obj, key: str) -> DecomposedSpace:
    dims = obj.get(key)
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(is_integer(d) for d in dims)
    ):
        raise SpcpmError(f"{key} must be a pair of integers")
    return DecomposedSpace(dims[0], dims[1])


def _expect_kind(obj, kind: str) -> None:
    if obj.get("kind") != kind:
        raise SpcpmError(f"expected a {kind!r} file, got kind={obj.get('kind')!r}")


def channel_to_obj(rep: KrausRep) -> dict:
    return {
        "format": FORMAT,
        "kind": "channel",
        "source_dims": _encode_space(rep.source),
        "target_dims": _encode_space(rep.target),
        "kraus": [encode_matrix(op) for op in rep.ops],
    }


def channel_from_obj(obj) -> KrausRep:
    _expect_kind(obj, "channel")
    source = _decode_space(obj, "source_dims")
    target = _decode_space(obj, "target_dims")
    raw_ops = obj.get("kraus")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise SpcpmError("kraus must be a nonempty list of matrices")
    return KrausRep(source, target, tuple(decode_matrix(o) for o in raw_ops))


def choi_to_obj(rep: ChoiRep) -> dict:
    return {
        "format": FORMAT,
        "kind": "choi",
        "source_dims": _encode_space(rep.source),
        "target_dims": _encode_space(rep.target),
        "basis": MATRIX_UNIT_BASIS,
        "matrix": encode_matrix(rep.matrix),
    }


def choi_from_obj(obj) -> ChoiRep:
    _expect_kind(obj, "choi")
    source = _decode_space(obj, "source_dims")
    target = _decode_space(obj, "target_dims")
    if obj.get("basis") != MATRIX_UNIT_BASIS:
        raise SpcpmError(f"unsupported basis tag: {obj.get('basis')!r}")
    return ChoiRep(source, target, decode_matrix(obj.get("matrix")))


def blocks_to_obj(blocks: SPBlockRep) -> dict:
    return {
        "format": FORMAT,
        "kind": "blocks",
        "source_dims": _encode_space(blocks.source),
        "target_dims": _encode_space(blocks.target),
        "block1": encode_matrix(blocks.block1),
        "block2": encode_matrix(blocks.block2),
        "cross": encode_matrix(blocks.cross),
    }


def blocks_from_obj(obj) -> SPBlockRep:
    _expect_kind(obj, "blocks")
    source = _decode_space(obj, "source_dims")
    target = _decode_space(obj, "target_dims")
    return SPBlockRep(
        source,
        target,
        decode_matrix(obj.get("block1")),
        decode_matrix(obj.get("block2")),
        decode_matrix(obj.get("cross")),
    )


def orthonormal_to_obj(
    pairs: list[tuple[float, np.ndarray]],
    source: DecomposedSpace,
    target: DecomposedSpace,
) -> dict:
    return {
        "format": FORMAT,
        "kind": "orthonormal",
        "source_dims": _encode_space(source),
        "target_dims": _encode_space(target),
        "weights": [float(r) for r, _ in pairs],
        "kraus": [encode_matrix(y) for _, y in pairs],
    }


def dilation_to_obj(dil: UnitaryDilation) -> dict:
    return {
        "format": FORMAT,
        "kind": "dilation",
        "dims": _encode_space(dil.space),
        "ancilla_dim": dil.ancilla_dim,
        "u1": encode_matrix(dil.u1),
        "u2": encode_matrix(dil.u2),
    }


def _legacy_blocks(obj, space: DecomposedSpace, anc: int) -> tuple:
    """The two diagonal blocks of a full ``u``; refused if it has any entry
    off them (a signed zero is zero)."""
    u, n, n1 = decode_matrix(obj), space.dim * anc, space.d1 * anc
    if u.shape != (n, n):
        raise SpcpmError(f"u has shape {u.shape}, expected {(n, n)}")
    if np.any(u[:n1, n1:]) or np.any(u[n1:, :n1]):
        raise SpcpmError("u has nonzero entries off its two diagonal blocks")
    return u[:n1, :n1], u[n1:, n1:]


def dilation_from_obj(obj) -> UnitaryDilation:
    _expect_kind(obj, "dilation")
    space = _decode_space(obj, "dims")
    anc = obj.get("ancilla_dim")
    if not is_integer(anc) or anc < 1:
        raise SpcpmError("ancilla_dim must be a positive integer")
    if ("u" in obj) == ("u1" in obj or "u2" in obj):
        raise SpcpmError("a dilation holds either u1 and u2 or a legacy u")
    if "u" in obj:
        return UnitaryDilation(space, anc, *_legacy_blocks(obj["u"], space, anc))
    u1, u2 = decode_matrix(obj.get("u1")), decode_matrix(obj.get("u2"))
    return UnitaryDilation(space, anc, u1, u2)


def write_file(path, obj: dict) -> None:
    text = json.dumps(obj) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SpcpmError(f"cannot write {path}: {exc}") from exc


def read_file(path) -> dict:
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # Python's digit limit; RecursionError covers nesting too deep to parse
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SpcpmError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpcpmError("top-level JSON value must be an object")
    if obj.get("format") not in _READ_FORMATS:
        raise SpcpmError(f"unsupported format tag: {obj.get('format')!r}")
    return obj
