"""The three workloads: what one item does, and the oracle that checks it.

Every item of a workload is the same work on fresh inputs drawn from
``(seed, item index)``. The item body calls only public functions of the
library, each through ``tracer.call`` so the traced run can attribute time
to layers; harness glue between calls is kept to a few small numpy
operations. Expected values come from how the inputs were built, never
from the library:

* a channel drawn with ``K = d1**2 + d2**2`` Kraus operators has Kraus
  rank ``K`` and dilation ancilla ``K + 1``;
* its *leaky twin* (each Kraus operator left-multiplied by a 1e-3 rad
  rotation between the last basis vector of target block 1 and the first
  of block 2) is trace preserving but not SP, so every verifier route must
  say NOT SP and the block and dilation constructors must refuse it;
* a block triple whose ``cross`` is scaled to twice its Schur bound
  (computed here with plain numpy) is not positive semi-definite.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from spcpm import serialize
from spcpm.cpm import KrausRep, apply, channels_equal, choi_to_kraus, kraus_rank
from spcpm.dilation import apply_dilation, build_dilation, verify_dilation
from spcpm.errors import NotSPError, NotTracePreservingError
from spcpm.linalg import block_psd_check
from spcpm.sp import (
    blocks_from_sp,
    commutation_violation,
    definition_violation,
    kraus_blocks_violation,
    random_sp_channel,
    sp_from_blocks,
    trace_violation,
)
from spcpm.spaces import DecomposedSpace

TOL = 1e-9
LEAK_ANGLE = 1e-3

ROUTES = (
    ("definition", definition_violation),
    ("commutation", commutation_violation),
    ("trace", trace_violation),
    ("kraus_blocks", kraus_blocks_violation),
)


def draw_seed(*key: int) -> int:
    """A 32-bit seed derived from the workload seed and the item's position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def residual(result) -> float:
    """The worst residual from a verifier's return value (a tuple whose first
    entry is the residual, or a record with a ``residual`` field)."""
    if hasattr(result, "residual"):
        return float(result.residual)
    return float(result[0])


def leaky_twin(rep: KrausRep) -> KrausRep:
    """The channel rotated by LEAK_ANGLE across the block boundary of the
    target: still trace preserving, no longer SP."""
    t = rep.target
    rot = np.eye(t.dim, dtype=np.complex128)
    i, j = t.d1 - 1, t.d1
    c, s = np.cos(LEAK_ANGLE), np.sin(LEAK_ANGLE)
    rot[i, i], rot[i, j], rot[j, i], rot[j, j] = c, -s, s, c
    return KrausRep(rep.source, rep.target, tuple(rot @ op for op in rep.ops))


def past_schur_scale(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Twice the largest s for which [[A, sC], [sC+, B]] is still PSD, for
    positive definite A and B (plain numpy, independent of the library)."""
    m = np.linalg.solve(a, c @ np.linalg.solve(b, c.conj().T))
    return 2.0 / np.sqrt(float(np.max(np.linalg.eigvals(m).real)))


def split_tag(d1: int, d2: int) -> str:
    return f"s{d1}_{d2}"


def density_matrix(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class SpVerify:
    """SP verification by all four routes, Kraus rank and the block-triple
    round trip, at 2+2, 4+4 and 6+6, on an SP channel and its leaky twin."""

    name = "sp_verify"
    items_per_pass = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.splits = ((2, 2),) if smoke else ((2, 2), (4, 4), (6, 6))

    def item(self, index: int, tr) -> dict:
        out = {}
        for n, (d1, d2) in enumerate(self.splits):
            tag = split_tag(d1, d2)
            space = DecomposedSpace(d1, d2)
            k = d1 * d1 + d2 * d2
            rep = tr.call(
                "sp.random_sp_channel", random_sp_channel, space, space, k, True,
                draw_seed(self.seed, index, n),
            )
            twin = leaky_twin(rep)
            routes = {}
            for route, fn in ROUTES:
                name = f"sp.{route}_violation.{tag}"
                routes[route] = (
                    residual(tr.call(name, fn, rep)),
                    residual(tr.call(name, fn, twin)),
                )
            rank = tr.call("cpm.kraus_rank", kraus_rank, rep)
            blocks = tr.call("sp.blocks_from_sp", blocks_from_sp, rep)
            psd = tr.call(
                "linalg.block_psd_check", block_psd_check,
                blocks.block1, blocks.block2, blocks.cross,
            )
            rebuilt = tr.call(
                "cpm.choi_to_kraus", choi_to_kraus,
                tr.call("sp.sp_from_blocks", sp_from_blocks, blocks),
            )
            same = tr.call("cpm.channels_equal", channels_equal, rep, rebuilt)
            scale = past_schur_scale(blocks.block1, blocks.block2, blocks.cross)
            scaled_psd = tr.call(
                "linalg.block_psd_check", block_psd_check,
                blocks.block1, blocks.block2, scale * blocks.cross,
            )
            try:
                tr.call("sp.blocks_from_sp", blocks_from_sp, twin)
                twin_refused = False
            except NotSPError:
                twin_refused = True
            out[tag] = {
                "k": k, "routes": routes, "rank": rank, "psd": psd, "same": same,
                "scaled_psd": scaled_psd, "twin_refused": twin_refused,
            }
        return out

    def check(self, index: int, out: dict) -> tuple[bool, dict, int]:
        record, ok = {}, True
        for tag, r in out.items():
            good = {
                "sp_all_routes": all(sp <= TOL for sp, _ in r["routes"].values()),
                "twin_not_sp_all_routes": all(lk > TOL for _, lk in r["routes"].values()),
                "rank_is_k": r["rank"] == r["k"],
                "triple_psd": r["psd"] is True,
                "round_trip_equal": r["same"] is True,
                "scaled_triple_rejected": r["scaled_psd"] is False,
                "twin_blocks_refused": r["twin_refused"],
            }
            ok = ok and all(good.values())
            record[tag] = {
                "checks": good,
                "rank": r["rank"],
                "residuals": {
                    route: [f"{sp:.3e}", f"{lk:.3e}"] for route, (sp, lk) in r["routes"].items()
                },
            }
        return ok, record, 0


class DilateRoundtrip:
    """Dilation build and audit at 2+2 and 3+3 (ancilla 9 and 19), a file
    round trip of the result, and the two refusals."""

    name = "dilate_roundtrip"
    items_per_pass = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.splits = ((2, 2),) if smoke else ((2, 2), (3, 3))

    def item(self, index: int, tr) -> dict:
        out = {}
        for n, (d1, d2) in enumerate(self.splits):
            tag = split_tag(d1, d2)
            space = DecomposedSpace(d1, d2)
            k = d1 * d1 + d2 * d2
            rep = tr.call(
                "sp.random_sp_channel", random_sp_channel, space, space, k, True,
                draw_seed(self.seed, index, n),
            )
            build = f"dilation.build_dilation.{tag}"
            dil = tr.call(build, build_dilation, rep)
            audit = tr.call(f"dilation.verify_dilation.{tag}", verify_dilation, dil, rep)
            path = self.workdir / f"dilation-{tag}.json"
            obj = tr.call("serialize.dilation_to_obj", serialize.dilation_to_obj, dil)
            tr.call("serialize.write_file", serialize.write_file, path, obj)
            back = tr.call(
                "serialize.dilation_from_obj", serialize.dilation_from_obj,
                tr.call("serialize.read_file", serialize.read_file, path),
            )
            rho = density_matrix(space.dim, draw_seed(self.seed, index, n, 1))
            via_u = tr.call("dilation.apply_dilation", apply_dilation, dil, rho)
            via_kraus = tr.call("cpm.apply", apply, rep, rho)
            refusals = {}
            for label, bad, error in (
                ("twin", leaky_twin(rep), NotSPError),
                ("non_tp", None, NotTracePreservingError),
            ):
                if bad is None:
                    bad = tr.call(
                        "sp.random_sp_channel", random_sp_channel, space, space, k, False,
                        draw_seed(self.seed, index, n, 2),
                    )
                try:
                    tr.call(build, build_dilation, bad)
                    refusals[label] = False
                except error:
                    refusals[label] = True
            out[tag] = {
                "k": k, "dil": dil, "back": back, "audit": audit,
                "apply_gap": float(np.max(np.abs(via_u - via_kraus))),
                "refusals": refusals, "bytes": path.stat().st_size,
            }
        return out

    def check(self, index: int, out: dict) -> tuple[bool, dict, int]:
        record, ok, written = {}, True, 0
        for tag, r in out.items():
            dil, back = r["dil"], r["back"]
            good = {
                "ancilla_is_k_plus_1": dil.ancilla_dim == r["k"] + 1,
                "audit_passed": r["audit"] is True,
                "file_round_trip_bit_exact": all(
                    np.array_equal(getattr(dil, f), getattr(back, f))
                    for f in ("u", "v1", "v2")
                ) and back.ancilla_dim == dil.ancilla_dim,
                "apply_matches_channel": r["apply_gap"] <= TOL,
                "twin_refused": r["refusals"]["twin"],
                "non_tp_refused": r["refusals"]["non_tp"],
            }
            ok = ok and all(good.values())
            written += r["bytes"]
            record[tag] = {"checks": good, "ancilla": dil.ancilla_dim, "file_bytes": r["bytes"]}
        return ok, record, written


#: The fixed command pipeline of cli_session: (span name, argv after
#: ``spcpm``, expected exit code, file the command writes).
CLI_PIPELINE = (
    ("gen", ["gen", "--dims", "2,2,2,2", "--tp", "--kraus", "8", "--seed", "{seed}",
             "--out", "channel.json"], 0, "channel.json"),
    ("verify", ["verify", "channel.json"], 0, None),
    ("convert", ["convert", "channel.json", "--to", "blocks", "--out", "blocks.json"],
     0, "blocks.json"),
    ("convert", ["convert", "channel.json", "--to", "kraus-min", "--out", "minimal.json"],
     0, "minimal.json"),
    ("compose", ["compose", "channel.json", "channel.json", "--out", "composite.json"],
     0, "composite.json"),
    ("kraus-rank", ["kraus-rank", "composite.json"], 0, None),
    ("dilate", ["dilate", "channel.json", "--out", "dilation.json"], 0, "dilation.json"),
    ("verify", ["verify", "leaky.json"], 1, None),
)


class CliSession:
    """One ``python -m spcpm.cli`` process per item, cycling CLI_PIPELINE on
    2+2 channels; the last command checks a leaky file written at set-up."""

    name = "cli_session"
    items_per_pass = len(CLI_PIPELINE)

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        space = DecomposedSpace(2, 2)
        rep = random_sp_channel(space, space, 8, True, draw_seed(seed, 0, 0, 3))
        serialize.write_file(workdir / "leaky.json", serialize.channel_to_obj(leaky_twin(rep)))

    def item(self, index: int, tr) -> dict:
        span, argv, expected, written = CLI_PIPELINE[index % len(CLI_PIPELINE)]
        argv = [a.format(seed=draw_seed(self.seed, index // len(CLI_PIPELINE))) for a in argv]
        proc = tr.call(
            f"cli.{span}", subprocess.run,
            [sys.executable, "-m", "spcpm.cli", *argv],
            cwd=self.workdir, capture_output=True, text=True, timeout=120,
        )
        return {
            "command": span, "code": proc.returncode, "expected": expected,
            "stdout": proc.stdout, "written": written,
        }

    def fresh_import(self, tr) -> None:
        """One fresh interpreter that only imports the package."""
        tr.call(
            "cli.import", subprocess.run, [sys.executable, "-c", "import spcpm"],
            check=True, timeout=120,
        )

    def check(self, index: int, out: dict) -> tuple[bool, dict, int]:
        good = {"exit_code": out["code"] == out["expected"]}
        lines = out["stdout"].strip().splitlines()
        if out["command"] == "verify":
            verdict = "verdict: SP" if out["expected"] == 0 else "verdict: NOT SP"
            good["verdict"] = bool(lines) and lines[-1] == verdict
        if out["command"] == "kraus-rank":
            found = re.search(r"kraus rank: (\d+)", out["stdout"])
            composite = serialize.channel_from_obj(
                serialize.read_file(self.workdir / "composite.json")
            )
            good["rank_matches_library"] = (
                found is not None and int(found.group(1)) == kraus_rank(composite)
            )
        path = self.workdir / out["written"] if out["written"] else None
        written = path.stat().st_size if path is not None and path.exists() else 0
        record = {"command": out["command"], "code": out["code"], "checks": good}
        return all(good.values()), record, written


WORKLOADS = {w.name: w for w in (SpVerify, DilateRoundtrip, CliSession)}
