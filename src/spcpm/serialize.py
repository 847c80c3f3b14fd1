"""JSON interchange for channels, coefficient matrices, block triples and
dilations.

Every file is compact JSON tagged ``"format": "spcpm/5"``, and its header
(the dims pairs) fixes the shape of every array it holds.  An array is one
JSON string: the standard (RFC 4648, padded) base64 of its row-major entries
as little-endian ``complex128`` bytes, 16 per entry, so a write followed by
a read reproduces every array bit-exactly, signed zeros included.  A stack
of Kraus operators or dilation pieces is one array whose leading length K
is read from the byte count.  A dilation stores its two stacks of in-block
Kraus pieces ``a1`` and ``a2``; its unitary and ancilla dimension are
derived.

Each fact about an input file is checked at one site: :func:`read_file`
only reads, decodes and parses; a ``*_from_obj`` reader checks the header,
a JSON object of its kind tagged ``spcpm/5`` (the earlier ``spcpm/1`` to
``spcpm/4`` are refused), so ``json.loads`` output gets the same refusal
as a file; :func:`decode_array` checks that each array is a strict base64
string of the byte count the header fixes; and the constructor each
decoded array is handed to checks its entries.  Every refusal raises
:class:`SpcpmError`, and so does a path that cannot be written.

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
import math
import os
import stat

import numpy as np

from .cpm import ChoiRep, KrausRep
from .dilation import UnitaryDilation
from .errors import SpcpmError
from .sp import SPBlockRep
from .spaces import DecomposedSpace, is_integer

FORMAT = "spcpm/5"
#: The one coefficient basis of choi files: the row-major matrix units.
MATRIX_UNIT_BASIS = "matrix-units"
#: Bytes asked of each ``read`` call: a file up to this size takes two calls.
_READ_SIZE = 1 << 16


def encode_array(arr) -> str:
    """The base64 of ``arr``'s row-major little-endian ``complex128`` bytes;
    every writer hands it arrays its constructors have already gated."""
    # tobytes makes the one copy of a complex128 input
    raw = np.asarray(arr).astype("<c16", copy=False).tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_array(obj: dict, key: str, shape: tuple) -> np.ndarray:
    """The array of ``shape`` under ``key``; a leading ``None`` is a stack's
    length K >= 1, read from the byte count.  The count is checked against
    the header's sizes before anything is allocated, and the constructor
    the array is handed to checks its entries."""
    data = obj.get(key)
    if not isinstance(data, str):
        raise SpcpmError(f"{key} must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise SpcpmError(f"{key} is not strict base64: {exc}") from exc
    # on Python ints, so a header of huge dims cannot wrap
    piece = 16 * math.prod(shape[1:])
    count, extra = divmod(len(raw), piece)
    if extra or count < 1 or shape[0] not in (None, count):
        want = f"a positive multiple of {piece}" if shape[0] is None else piece * shape[0]
        raise SpcpmError(f"{key} holds {len(raw)} bytes, expected {want}")
    entries = np.frombuffer(raw, dtype="<c16").astype(np.complex128, copy=False)
    return entries.reshape(count, *shape[1:])


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
        "kraus": encode_array(rep.ops),
    }


def channel_from_obj(obj) -> KrausRep:
    source, target = _read_header(obj, "channel", "source_dims", "target_dims")
    return KrausRep(source, target, decode_array(obj, "kraus", (None, target.dim, source.dim)))


def choi_to_obj(rep: ChoiRep) -> dict:
    return {
        **_header("choi", source_dims=rep.source, target_dims=rep.target),
        "basis": MATRIX_UNIT_BASIS,
        "matrix": encode_array(rep.matrix),
    }


def choi_from_obj(obj) -> ChoiRep:
    source, target = _read_header(obj, "choi", "source_dims", "target_dims")
    if obj.get("basis") != MATRIX_UNIT_BASIS:
        raise SpcpmError(f"unsupported basis tag: {obj.get('basis')!r}")
    n = source.dim * target.dim
    return ChoiRep(source, target, decode_array(obj, "matrix", (n, n)))


def blocks_to_obj(blocks: SPBlockRep) -> dict:
    return {
        **_header("blocks", source_dims=blocks.source, target_dims=blocks.target),
        "block1": encode_array(blocks.block1),
        "block2": encode_array(blocks.block2),
        "cross": encode_array(blocks.cross),
    }


def blocks_from_obj(obj) -> SPBlockRep:
    source, target = _read_header(obj, "blocks", "source_dims", "target_dims")
    n1, n2 = source.d1 * target.d1, source.d2 * target.d2
    return SPBlockRep(
        source,
        target,
        decode_array(obj, "block1", (n1, n1)),
        decode_array(obj, "block2", (n2, n2)),
        decode_array(obj, "cross", (n1, n2)),
    )


def orthonormal_to_obj(
    pairs: list[tuple[float, np.ndarray]],
    source: DecomposedSpace,
    target: DecomposedSpace,
) -> dict:
    return {
        **_header("orthonormal", source_dims=source, target_dims=target),
        "weights": [float(r) for r, _ in pairs],
        "kraus": encode_array([y for _, y in pairs]),
    }


def dilation_to_obj(dil: UnitaryDilation) -> dict:
    return {
        **_header("dilation", dims=dil.space),
        "a1": encode_array(dil.a1),
        "a2": encode_array(dil.a2),
    }


def dilation_from_obj(obj) -> UnitaryDilation:
    (space,) = _read_header(obj, "dilation", "dims")
    d1, d2 = space.d1, space.d2
    return UnitaryDilation(
        space, decode_array(obj, "a1", (None, d1, d1)), decode_array(obj, "a2", (None, d2, d2))
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
