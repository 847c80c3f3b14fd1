"""JSON interchange for channels, coefficient matrices, block triples and
dilations.

Every file is compact JSON tagged ``"format": "spcpm/4"``.  A matrix is
``{"rows": R, "cols": C, "data": <base64>}`` where ``data`` is the standard
(RFC 4648) base64 of the row-major matrix as little-endian ``complex128``
bytes, 16 per entry, so a write followed by a read reproduces every matrix
bit-exactly, signed zeros included.  A dilation stores its two stacks of
in-block Kraus pieces ``a1`` and ``a2``, each as a ``(K·d_i) x d_i`` matrix
of the K pieces one below the other; its unitary and ancilla dimension are
derived.

Each fact about an input file is checked at one site: :func:`read_file`
only reads, decodes and parses; a ``*_from_obj`` reader checks the header,
a JSON object of its kind tagged ``spcpm/4`` (the earlier ``spcpm/1`` to
``spcpm/3`` are refused), so ``json.loads`` output gets the same refusal
as a file; and the constructor each decoded matrix is handed to
gates the array.  Every refusal raises :class:`SpcpmError`, and so does a
path that cannot be written.

:func:`write_file` writes the one line of JSON and ``\n`` as UTF-8 bytes, the
same on every platform, with the system calls ``open``, ``write`` (repeated
until every byte is taken), ``fstat``, ``ftruncate`` (only on a regular file
that was longer) and ``close``.  An existing file is rewritten in place and
cut to its new length, so its links and permission bits are kept; nothing
is synced to disk, and a write that fails part-way leaves an incomplete
file: the bytes written so far, then whatever followed them in the old file.
:func:`read_file` makes ``open``, ``read`` (to end of file) and ``close``,
so a pipe or ``/dev/stdin`` reads like a file, and decodes the bytes as
strict UTF-8: a byte-order mark, UTF-16 and invalid bytes are refused.
"""

from __future__ import annotations

import base64
import json
import os
import stat

import numpy as np

from .cpm import ChoiRep, KrausRep
from .dilation import UnitaryDilation
from .errors import SpcpmError
from .linalg import checked_array
from .sp import SPBlockRep
from .spaces import DecomposedSpace, is_integer

FORMAT = "spcpm/4"
#: The one coefficient basis of choi files: the row-major matrix units.
MATRIX_UNIT_BASIS = "matrix-units"
#: Bytes asked of each ``read`` call: a file up to this size takes two calls.
_READ_SIZE = 1 << 16


def encode_matrix(m) -> dict:
    # tobytes makes the one copy of a complex128 input
    arr = checked_array(m, (None, None), "matrix").astype("<c16", copy=False)
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


def decode_matrix(obj) -> np.ndarray:
    """The matrix of a matrix object; the constructor it is handed to gates it."""
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
    if not isinstance(data, str):
        raise SpcpmError("matrix data must be a base64 string")
    return _raw_entries(data, rows * cols).reshape(rows, cols)


def _header(kind: str, **spaces: DecomposedSpace) -> dict:
    """The keys every file starts with: format, kind, then each space's
    ``[d1, d2]`` under its key, in the order given."""
    dims = {key: [space.d1, space.d2] for key, space in spaces.items()}
    return {"format": FORMAT, "kind": kind, **dims}


def _read_header(obj, kind: str, *keys: str) -> list[DecomposedSpace]:
    """The spaces under ``keys`` of a ``kind`` object; anything else is refused."""
    if not isinstance(obj, dict):
        raise SpcpmError(f"a {kind!r} file must be a JSON object, got {type(obj).__name__}")
    if obj.get("format") != FORMAT:
        raise SpcpmError(f"unsupported format tag: {obj.get('format')!r}")
    if obj.get("kind") != kind:
        raise SpcpmError(f"expected a {kind!r} file, got kind={obj.get('kind')!r}")
    spaces = []
    for key in keys:
        dims = obj.get(key)
        if (
            not isinstance(dims, list)
            or len(dims) != 2
            or not all(is_integer(d) for d in dims)
        ):
            raise SpcpmError(f"{key} must be a pair of integers")
        spaces.append(DecomposedSpace(dims[0], dims[1]))
    return spaces


def channel_to_obj(rep: KrausRep) -> dict:
    return {
        **_header("channel", source_dims=rep.source, target_dims=rep.target),
        "kraus": [encode_matrix(op) for op in rep.ops],
    }


def channel_from_obj(obj) -> KrausRep:
    source, target = _read_header(obj, "channel", "source_dims", "target_dims")
    raw_ops = obj.get("kraus")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise SpcpmError("kraus must be a nonempty list of matrices")
    return KrausRep(source, target, tuple(decode_matrix(o) for o in raw_ops))


def choi_to_obj(rep: ChoiRep) -> dict:
    return {
        **_header("choi", source_dims=rep.source, target_dims=rep.target),
        "basis": MATRIX_UNIT_BASIS,
        "matrix": encode_matrix(rep.matrix),
    }


def choi_from_obj(obj) -> ChoiRep:
    source, target = _read_header(obj, "choi", "source_dims", "target_dims")
    if obj.get("basis") != MATRIX_UNIT_BASIS:
        raise SpcpmError(f"unsupported basis tag: {obj.get('basis')!r}")
    return ChoiRep(source, target, decode_matrix(obj.get("matrix")))


def blocks_to_obj(blocks: SPBlockRep) -> dict:
    return {
        **_header("blocks", source_dims=blocks.source, target_dims=blocks.target),
        "block1": encode_matrix(blocks.block1),
        "block2": encode_matrix(blocks.block2),
        "cross": encode_matrix(blocks.cross),
    }


def blocks_from_obj(obj) -> SPBlockRep:
    source, target = _read_header(obj, "blocks", "source_dims", "target_dims")
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
        **_header("orthonormal", source_dims=source, target_dims=target),
        "weights": [float(r) for r, _ in pairs],
        "kraus": [encode_matrix(y) for _, y in pairs],
    }


def dilation_to_obj(dil: UnitaryDilation) -> dict:
    return {
        **_header("dilation", dims=dil.space),
        "a1": encode_matrix(dil.a1.reshape(-1, dil.space.d1)),
        "a2": encode_matrix(dil.a2.reshape(-1, dil.space.d2)),
    }


def _decode_stack(obj, name: str, db: int) -> np.ndarray:
    """The (K, d_i, d_i) stack of a ``(K·d_i) x d_i`` matrix, K >= 1."""
    if name not in obj:
        raise SpcpmError(f"dilation needs {name}, a (K·{db}) x {db} stack of Kraus pieces")
    m = decode_matrix(obj[name])
    if m.shape[1] != db or m.shape[0] % db:
        raise SpcpmError(f"{name} has shape {m.shape}, expected (K·{db}, {db})")
    return m.reshape(-1, db, db)


def dilation_from_obj(obj) -> UnitaryDilation:
    (space,) = _read_header(obj, "dilation", "dims")
    return UnitaryDilation(
        space, _decode_stack(obj, "a1", space.d1), _decode_stack(obj, "a2", space.d2)
    )


def write_file(path, obj: dict) -> None:
    """Write ``obj`` to ``path`` as one line of JSON, rewriting the file in
    place on the raw descriptor: ``open`` without ``O_TRUNC``, ``write``
    until every byte is taken, ``fstat``, ``ftruncate`` to the new length
    when the file is a regular one that was longer, and ``close``.  ext4
    (``auto_da_alloc``) starts writeback when a file that was truncated to
    zero and written in the same open is closed; on Linux 6.18 with ext4 on
    a virtual disk that made an overwrite of an 830-byte dilation file cost
    about 130 µs instead of about 33 µs.  A path that is not a regular file
    (``/dev/null``, a pipe, a terminal) cannot be cut, so it is only
    written."""
    data = memoryview((json.dumps(obj) + "\n").encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise SpcpmError(f"cannot write {path}: {exc}") from exc


def _read_bytes(path) -> bytes:
    """Every byte of ``path``: ``open``, ``read`` to end of file, ``close``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_file(path):
    """The JSON value in ``path``: its bytes from :func:`_read_bytes` (no
    ``fstat``, ``isatty`` or ``lseek``), decoded as strict UTF-8 and parsed.

    A byte-order mark is not skipped, so it is refused, and so are UTF-16
    and UTF-32.  CR and CRLF line ends are JSON whitespace.  Nothing about
    the value is checked here: the ``*_from_obj`` reader it is handed to
    checks the header, and the constructor it builds gates the arrays."""
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # Python's digit limit; RecursionError covers nesting too deep to parse
    try:
        return json.loads(_read_bytes(path).decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SpcpmError(f"cannot read {path}: {exc}") from exc
