"""JSON interchange for channels, coefficient matrices, block triples and
dilations.

Complex entries are stored as [re, im] pairs of IEEE-754 doubles; the
encoder relies on Python's shortest-round-trip float formatting, so a write
followed by a read reproduces every matrix bit-exactly.  Every file carries
the ``format`` tag ``spcpm/2`` (compact JSON; a dilation stores ``u`` only),
and no other tag is read.  A malformed file raises :class:`SpcpmError`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cpm import ChoiRep, KrausRep
from .dilation import UnitaryDilation
from .errors import SpcpmError
from .linalg import as_matrix
from .sp import SPBlockRep
from .spaces import DecomposedSpace

FORMAT = "spcpm/2"


def _is_int(value) -> bool:
    """Whether a decoded JSON value is an integer (``true`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def encode_matrix(m) -> dict:
    arr = as_matrix(m)
    data = arr.view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": data}


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise SpcpmError("matrix object must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise SpcpmError(f"bad matrix object: {exc}") from exc
    if not (_is_int(rows) and _is_int(cols)):
        raise SpcpmError("matrix rows and cols must be integers")
    if rows < 1 or cols < 1:
        raise SpcpmError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SpcpmError("matrix data length does not match rows * cols")
    try:
        pairs = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpcpmError(f"bad matrix entries: {exc}") from exc
    if pairs.shape != (rows * cols, 2):
        raise SpcpmError("matrix entries must be [re, im] pairs")
    if not np.all(np.isfinite(pairs)):
        raise SpcpmError("matrix entries must be finite")
    return pairs.view(np.complex128).reshape(rows, cols)


def _encode_space(space: DecomposedSpace) -> list[int]:
    return [space.d1, space.d2]


def _decode_space(obj, key: str) -> DecomposedSpace:
    dims = obj.get(key)
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_int(d) for d in dims)
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
        "basis": rep.basis_tag,
        "matrix": encode_matrix(rep.matrix),
    }


def choi_from_obj(obj) -> ChoiRep:
    _expect_kind(obj, "choi")
    source = _decode_space(obj, "source_dims")
    target = _decode_space(obj, "target_dims")
    basis = obj.get("basis")
    if not isinstance(basis, str):
        raise SpcpmError("basis must be a string tag")
    return ChoiRep(source, target, decode_matrix(obj.get("matrix")), basis)


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
        "u": encode_matrix(dil.u),
    }


def dilation_from_obj(obj) -> UnitaryDilation:
    _expect_kind(obj, "dilation")
    space = _decode_space(obj, "dims")
    anc = obj.get("ancilla_dim")
    if not _is_int(anc) or anc < 1:
        raise SpcpmError("ancilla_dim must be a positive integer")
    return UnitaryDilation(space, anc, decode_matrix(obj.get("u")))


def write_file(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj) + "\n")


def read_file(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpcpmError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpcpmError("top-level JSON value must be an object")
    if obj.get("format") != FORMAT:
        raise SpcpmError(f"unsupported format tag: {obj.get('format')!r}")
    return obj
