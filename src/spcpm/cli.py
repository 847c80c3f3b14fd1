"""Command-line front end.

Subcommands: ``gen`` (sample a random SP channel), ``verify`` (run the SP
verifiers), ``convert`` (change representation), ``compose``, ``dilate`` and
``kraus-rank``.  Channels travel as JSON files; reports go to standard
output, diagnostics (each ``wrote …`` confirmation too) to standard error,
so ``--out /dev/stdout`` puts exactly the file on standard output.

Exit codes.  A command returns one itself only for a verdict: ``verify``'s
NOT SP (1) and ``dilate``'s failed self-audit (3).  Every refusal is raised
and mapped by :func:`main` from its error class:

* 0 -- success or affirmative verdict;
* 1 -- domain-negative: ``verify``'s NOT SP, or a :class:`NotSPError`,
  :class:`NotTracePreservingError` or :class:`SourceTargetMismatchError`;
* 2 -- usage or format error: any other :class:`SpcpmError`, including an
  input file that cannot be read or parsed and an ``--out`` path that
  cannot be written;
* 3 -- numeric failure: :class:`SingularMatrixError` (``gen --tp`` with
  ``k·d_ti < d_si`` for a block i, so no draw can be normalized) or
  ``dilate``'s failed self-audit.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .cpm import (
    KrausRep,
    choi_to_kraus,
    compose,
    is_trace_preserving,
    kraus_rank,
    kraus_to_choi,
    orthonormal_kraus,
)
from .dilation import _dilation_failure, build_dilation
from .errors import (
    NotSPError,
    NotTracePreservingError,
    SingularMatrixError,
    SourceTargetMismatchError,
    SpcpmError,
)
from .linalg import DEFAULT_TOL, check_tolerance
from .sp import (
    _kraus_bound,
    definition_violation,
    commutation_violation,
    is_sp_kraus_blocks,
    kraus_blocks_violation,
    blocks_from_sp,
    random_sp_channel,
    trace_violation,
)
from .spaces import DecomposedSpace

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: The SP verifiers by method name; each returns (worst residual, label).
VERIFIERS = {
    "definition": definition_violation,
    "blocks": kraus_blocks_violation,
    "commutation": commutation_violation,
    "trace": trace_violation,
}
VERIFY_METHODS = tuple(VERIFIERS)


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_dims(text: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected 4 comma-separated integers: ds1,ds2,dt1,dt2"
        )
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid tolerance: {text!r}") from exc
    try:
        return check_tolerance(value, "tolerance")
    except SpcpmError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_channel(path) -> KrausRep:
    return serialize.channel_from_obj(serialize.read_file(path))


def cmd_gen(args) -> int:
    source = DecomposedSpace(args.dims[0], args.dims[1])
    target = DecomposedSpace(args.dims[2], args.dims[3])
    rep = random_sp_channel(source, target, args.kraus, args.tp, args.seed)
    serialize.write_file(args.out, serialize.channel_to_obj(rep))
    print(f"wrote channel with {args.kraus} Kraus operators to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = _load_channel(args.file)
    tol = args.tol
    methods = VERIFY_METHODS if args.method == "all" else (args.method,)
    verdict = True
    for method in methods:
        if method == "trace" and not is_trace_preserving(rep, tol):
            if args.method == "trace":
                raise SpcpmError("trace method requires a trace-preserving channel")
            print("trace: skipped (channel is not trace preserving)")
            continue
        residual, label = VERIFIERS[method](rep)
        ok = residual <= tol
        verdict = verdict and ok
        status = "SP" if ok else "NOT SP"
        print(f"{method}: {status} (worst residual {residual:.3e} at {label}; tol {tol:.1e})")
    print(f"verdict: {'SP' if verdict else 'NOT SP'}")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_convert(args) -> int:
    rep = _load_channel(args.file)
    if args.to == "choi":
        obj = serialize.choi_to_obj(kraus_to_choi(rep))
    elif args.to == "kraus-min":
        obj = serialize.channel_to_obj(choi_to_kraus(kraus_to_choi(rep)))
    elif args.to == "orthonormal":
        pairs = orthonormal_kraus(rep)
        obj = serialize.orthonormal_to_obj(pairs, rep.source, rep.target)
    else:  # blocks
        obj = serialize.blocks_to_obj(blocks_from_sp(rep, args.tol))
    serialize.write_file(args.out, obj)
    print(f"wrote {args.to} representation to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_compose(args) -> int:
    rep_a = _load_channel(args.file_a)
    rep_b = _load_channel(args.file_b)
    composed = compose(rep_b, rep_a)
    serialize.write_file(args.out, serialize.channel_to_obj(composed))
    print(f"wrote composition (second after first) to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_dilate(args) -> int:
    rep = _load_channel(args.file)
    dil = build_dilation(rep, args.tol)
    failure = _dilation_failure(dil, rep, args.tol)
    if failure is not None:
        condition, residual = failure
        _err(
            f"constructed dilation failed verification: {condition} residual "
            f"{residual:.3e} exceeds tol {args.tol:.1e}"
        )
        return EXIT_NUMERIC
    serialize.write_file(args.out, serialize.dilation_to_obj(dil))
    message = f"wrote dilation with ancilla dimension {dil.ancilla_dim} to {args.out}"
    print(message, file=sys.stderr)
    return EXIT_OK


def cmd_kraus_rank(args) -> int:
    rep = _load_channel(args.file)
    rank = kraus_rank(rep)
    print(f"kraus rank: {rank}")
    if is_sp_kraus_blocks(rep, args.tol):
        print(f"SP bound (ds1*dt1 + ds2*dt2): {_kraus_bound(rep.source, rep.target)}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcpm",
        description="Subspace-preserving channels on two-block decompositions.",
    )
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("gen", help="sample a random SP channel")
    gen.add_argument("--dims", type=_parse_dims, required=True,
                     help="ds1,ds2,dt1,dt2")
    gen.add_argument("--kraus", type=int, required=True,
                     help="number of Kraus operators")
    gen.add_argument("--tp", action="store_true",
                     help="normalize to a trace-preserving channel")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run the SP verifiers on a channel file")
    verify.add_argument("file")
    verify.add_argument("--method", choices=VERIFY_METHODS + ("all",), default="all")
    verify.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    verify.set_defaults(func=cmd_verify)

    convert = sub.add_parser("convert", help="convert a channel to another representation")
    convert.add_argument("file")
    convert.add_argument("--to", choices=("choi", "kraus-min", "orthonormal", "blocks"),
                         required=True)
    convert.add_argument("--out", required=True)
    convert.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    convert.set_defaults(func=cmd_convert)

    comp = sub.add_parser("compose", help="compose two channel files (first acts first)")
    comp.add_argument("file_a")
    comp.add_argument("file_b")
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_compose)

    dilate = sub.add_parser("dilate", help="build the unitary dilation of a TP SP channel")
    dilate.add_argument("file")
    dilate.add_argument("--out", required=True)
    dilate.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    dilate.set_defaults(func=cmd_dilate)

    rank = sub.add_parser("kraus-rank", help="print the Kraus rank and the SP bound")
    rank.add_argument("file")
    rank.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    rank.set_defaults(func=cmd_kraus_rank)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotSPError, NotTracePreservingError, SourceTargetMismatchError) as exc:
        _err(str(exc))
        return EXIT_NEGATIVE
    except SingularMatrixError as exc:
        _err(str(exc))
        return EXIT_NUMERIC
    except SpcpmError as exc:
        _err(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
