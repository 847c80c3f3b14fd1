"""Every public tolerance of the library must be finite and > 0.

An infinite tolerance accepts every residual (the block-swap channel would
be "SP"), and a NaN, zero or negative one rejects every residual, so the
library refuses them with SpcpmError.  The rank
cutoff is no parameter: every rank decision, Hermiticity bound and PSD
floor, the block triple's included, reads the one constant ``DEFAULT_RTOL``.
"""

import math
import re

import numpy as np
import pytest

from spcpm import cpm, dilation, linalg, serialize, sp
from spcpm.cli import main
from spcpm.cpm import KrausRep
from spcpm.errors import NotSPError, NotTracePreservingError, SingularMatrixError, SpcpmError
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)
IDENTITY = KrausRep(C2, C2, (np.eye(2),))
SWAP = KrausRep(C2, C2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
EYE = np.eye(2)


# one call per public tolerance parameter, each otherwise valid
ENTRY_POINTS = {
    "cpm.is_trace_preserving": lambda t: cpm.is_trace_preserving(IDENTITY, tol=t),
    "cpm.channels_equal": lambda t: cpm.channels_equal(IDENTITY, IDENTITY, tol=t),
    "sp.is_sp_definition": lambda t: sp.is_sp_definition(SWAP, tol=t),
    "sp.is_sp_kraus_blocks": lambda t: sp.is_sp_kraus_blocks(SWAP, tol=t),
    "sp.split_kraus_blocks": lambda t: sp.split_kraus_blocks(IDENTITY, tol=t),
    "sp.is_sp_commutation": lambda t: sp.is_sp_commutation(SWAP, tol=t),
    "sp.is_sp_trace": lambda t: sp.is_sp_trace(IDENTITY, tol=t),
    "sp.blocks_from_sp": lambda t: sp.blocks_from_sp(IDENTITY, tol=t),
    "sp.sp_kraus_bound_holds.tol": lambda t: sp.sp_kraus_bound_holds(IDENTITY, tol=t),
    "dilation.build_dilation.tol": lambda t: dilation.build_dilation(IDENTITY, tol=t),
    "dilation.verify_dilation": lambda t: dilation.verify_dilation(
        dilation.build_dilation(IDENTITY), IDENTITY, tol=t
    ),
}


# an integer past the float range: its repr may be too long to word
HUGE = [
    pytest.param(10**400, id="10**400"),
    pytest.param(-(10**400), id="-10**400"),
    pytest.param(10**5000, id="10**5000"),
]


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, 0.0, -1.0, True, np.True_, *HUGE], ids=repr
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_meaningless_tolerance_is_refused(entry, value):
    # a bool is no tolerance, though it would pass as 1.0
    with pytest.raises(SpcpmError, match="must be finite and > 0"):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_positive_tolerance_is_accepted(entry):
    ENTRY_POINTS[entry](1e-9)


def z_channel(weight):
    # trace preserving and SP: Kraus operators sqrt(1 - w) I and sqrt(w) Z,
    # whose Choi eigenvalues are 2 (1 - w) and 2 w
    z = np.diag([1.0, -1.0])
    return KrausRep(C2, C2, (np.sqrt(1 - weight) * EYE, np.sqrt(weight) * z))


def inv_sqrt_keeps(weight):
    try:
        linalg.inv_sqrt_psd(np.diag([1 - weight, weight]))
    except SingularMatrixError:
        return False
    return True


# one call per rank decision, True when the direction of eigenvalue weight
# ~w (relative to the largest) is kept; random_sp_channel decides through
# inv_sqrt_psd, and sp_kraus_bound_holds through kraus_rank
RANK_DECISIONS = {
    "cpm.choi_to_kraus": lambda w: len(
        cpm.choi_to_kraus(cpm.kraus_to_choi(z_channel(w))).ops
    ) == 2,
    "cpm.kraus_rank": lambda w: cpm.kraus_rank(z_channel(w)) == 2,
    "cpm.orthonormal_kraus": lambda w: len(cpm.orthonormal_kraus(z_channel(w))) == 2,
    "dilation.build_dilation": lambda w: len(dilation.build_dilation(z_channel(w)).a1) == 2,
    "linalg.inv_sqrt_psd": inv_sqrt_keeps,
}


@pytest.mark.parametrize("weight, kept", [(2e-10, True), (5e-11, False)], ids=["above", "below"])
@pytest.mark.parametrize("entry", sorted(RANK_DECISIONS))
def test_rank_cutoff_is_default_rtol(entry, weight, kept):
    # the weights sit a factor 2 either side of DEFAULT_RTOL = 1e-10
    assert RANK_DECISIONS[entry](weight) is kept


@pytest.mark.parametrize("negative, refused", [(-5e-10, True), (-5e-11, False)],
                         ids=["beyond", "within"])
def test_coefficient_psd_floor_is_default_rtol(negative, refused):
    # the floor is -DEFAULT_RTOL * max(1, max|w|) = -1e-10; DEFAULT_TOL
    # would accept both
    choi = cpm.ChoiRep(C2, C2, np.diag([1.0, negative, 0.0, 0.0]))
    if refused:
        with pytest.raises(SpcpmError, match="not positive semi-definite"):
            cpm.choi_to_kraus(choi)
    else:
        assert len(cpm.choi_to_kraus(choi).ops) == 1


def accepts(call):
    try:
        call()
    except SpcpmError as exc:
        assert "not positive semi-definite" in str(exc)
        return False
    return True


def intra_block_units(source, target):
    # row-major |t_i><s_a| is unit i * ds + a; block 1's units come first
    return [
        i * source.dim + a
        for i in range(target.dim)
        for a in range(source.dim)
        if (i < target.d1) == (a < source.d1)
    ]


# (largest, smallest) eigenvalue of a diagonal triple, on both sides of the
# floor -DEFAULT_RTOL * max(1, largest); at the old generation floor,
# -DEFAULT_TOL * max(1, largest), generation accepted every triple here that
# conversion refuses but (4, -5e-9)
DIAGONAL_TRIPLES = [
    (4.0, 0.0), (4.0, -3e-10), (4.0, -5e-10), (4.0, -3e-9), (4.0, -5e-9),
    (0.5, -5e-11), (0.5, -2e-10), (1e6, -5e-5), (1e6, -2e-4),
]


@pytest.mark.parametrize("largest, smallest", DIAGONAL_TRIPLES)
@pytest.mark.parametrize("dims", [((1, 1), (1, 1)), ((1, 2), (2, 1))], ids=str)
def test_generation_accepts_exactly_what_conversion_accepts(dims, largest, smallest):
    source, target = (DecomposedSpace(*d) for d in dims)
    k, l = source.d1 * target.d1, source.d2 * target.d2
    first, second = np.zeros(k), np.zeros(l)
    first[0], second[0] = largest, smallest
    blocks = sp.SPBlockRep(source, target, np.diag(first), np.diag(second), np.zeros((k, l)))
    # the same entries placed by hand on the intra-block units
    full = np.zeros(source.dim * target.dim)
    full[intra_block_units(source, target)] = np.concatenate([first, second])
    choi = cpm.ChoiRep(source, target, np.diag(full))
    generated = accepts(lambda: sp.sp_from_blocks(blocks))
    assert generated == accepts(lambda: cpm.choi_to_kraus(choi))
    assert generated == (smallest >= -1e-10 * max(1.0, largest))


@pytest.mark.parametrize("asymmetry, refused", [(5e-10, True), (5e-11, False)],
                         ids=["beyond", "within"])
def test_inv_sqrt_psd_hermiticity_bound_is_default_rtol(asymmetry, refused):
    # ||M - M†||_F = sqrt(2) * asymmetry against DEFAULT_RTOL * ||M||_F
    # = 3.2e-10; DEFAULT_TOL would accept both
    m = np.array([[2.0, 1.0 + asymmetry], [1.0, 2.0]])
    if refused:
        with pytest.raises(SpcpmError, match="not Hermitian"):
            linalg.inv_sqrt_psd(m)
    else:
        assert np.all(np.isfinite(linalg.inv_sqrt_psd(m)))


@pytest.mark.parametrize("value", [1e-300, 1.0, 1e300, np.float64(1e-9)])
def test_check_tolerance_returns_valid_values(value):
    assert linalg.check_tolerance(value) == value


@pytest.mark.parametrize("value", [None, "1e-9", 1j, True, np.True_])
def test_check_tolerance_refuses_non_numbers(value):
    with pytest.raises(SpcpmError, match="rtol must be"):
        linalg.check_tolerance(value, "rtol")


def leaky_rotation(scale=1.0):
    """Eight copies of √scale·R/√8, R the rotation by 1e-3 rad: scale times
    a trace-preserving channel, each copy leaking √scale·sin(1e-3)/√8 =
    √scale·3.54e-4 across the blocks."""
    c, s = math.cos(1e-3), math.sin(1e-3)
    rotation = np.array([[c, -s], [s, c]])
    return KrausRep(C2, C2, (math.sqrt(scale) * rotation / math.sqrt(8),) * 8)


# the leaky rotation's worst identity: phi(E[0,0]) = scale·|r><r| with
# r = (cos 1e-3, sin 1e-3) has mass scale·1.414e-3 outside block 1
WORST_UNIT = "at P_t1 phi(E[0,0]) P_t1 vs phi(P_s1 E[0,0] P_s1)"


@pytest.mark.parametrize(
    "call, command, message",
    [
        (sp.blocks_from_sp, ["convert", "--to", "blocks"],
         f"commutation residual 1.414e-03 {WORST_UNIT} exceeds tol 5.0e-04"),
        (dilation.build_dilation, ["dilate"],
         "blocks residual 7.071e-04 at ||P_t1 V[0] P_s2||_F / max(1, ||V[0]||_F) "
         "exceeds tol 5.0e-04"),
    ],
    ids=["blocks_from_sp", "build_dilation"],
)
def test_a_later_check_refuses_what_the_kraus_block_check_passes(
    tmp_path, capsys, call, command, message
):
    # at tol 5e-4 every copy passes the Kraus block check (residual 3.54e-4),
    # but the image of E[0,0] has 1.41e-3 Frobenius mass outside block 1,
    # the commutation residual, and the one operator of the minimal list,
    # R itself, has block residual sin(1e-3)/√2 = 7.07e-4
    rep = leaky_rotation()
    assert cpm.is_trace_preserving(rep, 1e-12) and sp.is_sp_kraus_blocks(rep, 5e-4)
    with pytest.raises(NotSPError, match=f"^{re.escape(message)}$"):
        call(rep, 5e-4)
    path = tmp_path / "rotation.json"
    serialize.write_file(path, serialize.channel_to_obj(rep))
    out = tmp_path / "out.json"
    assert main([command[0], str(path), *command[1:], "--out", str(out), "--tol", "5e-4"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_blocks_conversion_refuses_by_the_residual_verify_reports(tmp_path, capsys):
    # ten times the leaky rotation at tol 5e-3: every copy passes the Kraus
    # block check (relative residual 7.07e-4), and the image of E[0,0] has
    # 1.414e-2 mass outside block 1, so verify says NOT SP by commutation and
    # the conversion refuses by that residual and unit
    path = tmp_path / "rotation.json"
    serialize.write_file(path, serialize.channel_to_obj(leaky_rotation(10.0)))
    assert main(["verify", str(path), "--tol", "5e-3"]) == 1
    report = f"commutation: NOT SP (worst residual 1.414e-02 {WORST_UNIT}; tol 5.0e-03)"
    assert report in capsys.readouterr().out.splitlines()
    out = tmp_path / "blocks.json"
    assert main(["convert", str(path), "--to", "blocks", "--out", str(out), "--tol", "5e-3"]) == 1
    refusal = f"commutation residual 1.414e-02 {WORST_UNIT} exceeds tol 5.0e-03"
    assert capsys.readouterr() == ("", f"error: {refusal}\n")
    assert not out.exists()


# the rotation by 1e-3 rad as one operator: trace preserving, block
# residual sin(1e-3)/√2 = 7.07e-4; and twice the identity: SP, not TP
ROTATION = KrausRep(C2, C2, (math.sqrt(8) * leaky_rotation().ops[0],))
DOUBLED = KrausRep(C2, C2, (2 * EYE,))


@pytest.mark.parametrize(
    "call, error, route, tol",
    [
        (lambda t: sp.split_kraus_blocks(ROTATION, t), NotSPError, "blocks", 1e-9),
        (lambda t: sp.blocks_from_sp(ROTATION, t), NotSPError, "blocks", 1e-9),
        (lambda t: sp.blocks_from_sp(leaky_rotation(), t), NotSPError, "commutation", 5e-4),
        (lambda t: sp.sp_kraus_bound_holds(ROTATION, t), NotSPError, "blocks", 1e-9),
        (lambda t: sp.is_sp_trace(DOUBLED, t), NotTracePreservingError,
         "trace preservation", 1e-9),
        (lambda t: dilation.build_dilation(DOUBLED, t), NotTracePreservingError,
         "trace preservation", 1e-9),
        (lambda t: dilation.build_dilation(ROTATION, t), NotSPError, "blocks", 1e-9),
        # the minimal list of the leaky rotation is the rotation itself
        (lambda t: dilation.build_dilation(leaky_rotation(), t), NotSPError, "blocks", 5e-4),
    ],
    ids=[
        "split_kraus_blocks",
        "blocks_from_sp-blocks",
        "blocks_from_sp-commutation",
        "sp_kraus_bound_holds",
        "is_sp_trace",
        "build_dilation-trace",
        "build_dilation-blocks",
        "build_dilation-minimal-list",
    ],
)
def test_every_refusal_names_its_route_residual_identity_and_tol(call, error, route, tol):
    # every NotSPError and NotTracePreservingError is one linalg.require
    with pytest.raises(error) as caught:
        call(tol)
    found = re.fullmatch(rf"{route} residual (\S+) at .+ exceeds tol (\S+)", str(caught.value))
    assert found, str(caught.value)
    assert float(found[1]) > tol and found[2] == f"{tol:.1e}"
