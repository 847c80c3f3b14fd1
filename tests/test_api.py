"""Tests of the package surface: the public names, the error classes, and
the return types of the predicates."""

import ast
import inspect
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spcpm
from spcpm import cpm, errors, linalg, serialize, sp
from spcpm.cpm import ChoiRep, KrausRep
from spcpm.dilation import UnitaryDilation
from spcpm.errors import SpcpmError
from spcpm.sp import SPBlockRep
from spcpm.spaces import DecomposedSpace

C2 = DecomposedSpace(1, 1)
IDENTITY = KrausRep(C2, C2, (np.eye(2),))
SWAP = KrausRep(C2, C2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))

PUBLIC_NAMES = {
    "ChoiRep",
    "DecomposedSpace",
    "DEFAULT_RTOL",
    "DEFAULT_TOL",
    "KrausRep",
    "SPBlockRep",
    "SpcpmError",
    "UnitaryDilation",
    "apply",
    "apply_dilation",
    "block_psd_check",
    "blocks_from_sp",
    "build_dilation",
    "channels_equal",
    "choi_to_kraus",
    "compose",
    "is_sp_commutation",
    "is_sp_definition",
    "is_sp_kraus_blocks",
    "is_sp_trace",
    "is_trace_preserving",
    "kraus_from_dilation",
    "kraus_rank",
    "kraus_to_choi",
    "orthonormal_kraus",
    "random_sp_channel",
    "sp_from_blocks",
    "sp_kraus_bound_holds",
    "split_kraus_blocks",
    "verify_dilation",
}


def test_public_api_is_the_listed_names():
    assert len(spcpm.__all__) == 30
    assert set(spcpm.__all__) == PUBLIC_NAMES
    for name in spcpm.__all__:
        assert getattr(spcpm, name) is not None


@pytest.mark.parametrize("name", ["apply_choi", "unitary_mix"])
def test_helpers_no_library_path_reads_are_gone(name):
    # the tests keep their own forms in channel_helpers.py
    assert not hasattr(spcpm, name)
    assert not hasattr(cpm, name)


@pytest.mark.parametrize(
    "name",
    ["HermitianEig", "hermitian_eig", "psd_eig", "is_psd", "_spectrum", "_asymmetry"],
)
def test_eigen_wrappers_are_gone_from_linalg(name):
    # every spectrum, and every Hermiticity or positivity refusal, comes
    # from the one gate psd_spectrum
    assert not hasattr(linalg, name)


@pytest.mark.parametrize("name", ["as_matrix", "check_matrix", "frozen_matrix"])
def test_array_helpers_are_gone_from_linalg(name):
    # every array that enters the package passes the one gate checked_array
    assert not hasattr(linalg, name)


def package_trees():
    """{module name: parsed source} of every module of the package."""
    paths = sorted(Path(spcpm.__file__).parent.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def mentioned(node):
    """The name a node mentions, if any: an attribute read, a bare name, an
    import or a string constant."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant):
        return node.value
    return None


def source_mentions(names):
    """(module, innermost enclosing function, name) for every mention of
    one of ``names`` in the package source (see :func:`mentioned`)."""
    found = set()

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if mentioned(node) in names:
            found.add((module, func, mentioned(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for module, tree in package_trees().items():
        visit(tree, module, None)
    return found


def module_level_definitions(tree):
    """(name, defining node) of every function, class and assigned name at
    the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_module_name_has_a_reader():
    # a public module-level name is part of the API or read by the package;
    # the three kind readers wait for their caller (ROADMAP item 11)
    trees = package_trees()
    unread = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, definition in module_level_definitions(tree):
            if name.startswith("_") or name in spcpm.__all__:
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(
                mentioned(node) == name and id(node) not in own
                for other in trees.values()
                for node in ast.walk(other)
            ):
                unread.add(f"{module}.{name}")
    assert unread == {
        "serialize.choi_from_obj",
        "serialize.blocks_from_obj",
        "serialize.dilation_from_obj",
    }


def eigensolver_mentions():
    """Every mention of ``eigh`` or ``eigvalsh`` (see :func:`source_mentions`)."""
    return source_mentions({"eigh", "eigvalsh"})


def test_eigensolvers_are_called_only_in_psd_spectrum():
    # linalg.psd_spectrum is the one spectral gate of the package
    assert eigensolver_mentions() == {
        ("linalg", "psd_spectrum", "eigh"),
        ("linalg", "psd_spectrum", "eigvalsh"),
    }


def test_isfinite_is_read_only_by_the_two_gates():
    # linalg.checked_array is the one array gate, and check_tolerance the
    # one gate of a scalar tolerance
    assert source_mentions({"isfinite"}) == {
        ("linalg", "checked_array", "isfinite"),
        ("linalg", "check_tolerance", "isfinite"),
    }


def test_frozen_objects_are_written_only_by_their_own_constructors():
    # a memo is made by its owner: no function writes past a frozen
    # dataclass's guard except that class's own __post_init__
    mentions = source_mentions({"__setattr__"})
    assert {func for _, func, _ in mentions} == {"__post_init__"}


def test_five_error_classes_all_spcpm_errors():
    classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    assert classes == {
        "SpcpmError",
        "NotSPError",
        "NotTracePreservingError",
        "SourceTargetMismatchError",
        "SingularMatrixError",
    }
    for name in classes:
        assert issubclass(getattr(errors, name), SpcpmError)


@pytest.mark.parametrize(
    "func",
    [
        spcpm.choi_to_kraus,
        spcpm.kraus_rank,
        spcpm.orthonormal_kraus,
        spcpm.build_dilation,
        spcpm.random_sp_channel,
        spcpm.sp_kraus_bound_holds,
        linalg.inv_sqrt_psd,
    ],
    ids=lambda func: func.__name__,
)
def test_no_public_function_takes_the_rank_cutoff(func):
    # the rank cutoff is the constant DEFAULT_RTOL, not a parameter
    assert "rtol" not in inspect.signature(func).parameters


@pytest.mark.parametrize(
    "func",
    [
        linalg.block_psd_failure,
        linalg.block_psd_check,
        sp.sp_from_blocks,
        linalg.psd_spectrum,
        linalg.rank_cutoff,
    ],
    ids=lambda func: func.__name__,
)
def test_positivity_decisions_take_no_tolerance(func):
    # block triples decide at the constant DEFAULT_RTOL, the floor of the
    # coefficient matrix, so generation and conversion cannot disagree
    params = inspect.signature(func).parameters
    assert "tol" not in params and "rtol" not in params


def read_choi_file_with_basis(basis):
    obj = serialize.choi_to_obj(ChoiRep(C2, C2, np.eye(4)))
    obj["basis"] = basis
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "choi.json"
        serialize.write_file(path, obj)
        return serialize.choi_from_obj(serialize.read_file(path))


# the four file readers by the kind they read, and JSON values that are not
# objects
READERS = {
    "channel": serialize.channel_from_obj,
    "choi": serialize.choi_from_obj,
    "blocks": serialize.blocks_from_obj,
    "dilation": serialize.dilation_from_obj,
}
NON_OBJECTS = ([1], "abc", None)
# a valid object of each kind, and the format tags its reader must refuse:
# one from the future and none at all
VALID_OBJECTS = {
    "channel": serialize.channel_to_obj(IDENTITY),
    "choi": serialize.choi_to_obj(ChoiRep(C2, C2, np.eye(4))),
    "blocks": serialize.blocks_to_obj(sp.blocks_from_sp(IDENTITY)),
    "dilation": serialize.dilation_to_obj(
        UnitaryDilation(C2, np.ones((1, 1, 1)), np.ones((1, 1, 1)))
    ),
}
BAD_TAGS = {"spcpm9": "spcpm/9", "missing": None}


def retagged(kind, tag):
    """The valid ``kind`` object with its format tag replaced, or deleted
    for ``None``."""
    obj = dict(VALID_OBJECTS[kind])
    del obj["format"]
    return obj if tag is None else {"format": tag, **obj}


# the gate's type refusals: numpy's reason for a ragged nesting, the dtype
# for strings, None and other objects
RAGGED = "^{} is not an array of numbers: .*inhomogeneous shape"
NOT_NUMBERS = "^{} is not an array of numbers: its dtype is "


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DecomposedSpace(0, 1), "at least one-dimensional"),
        (lambda: KrausRep(C2, C2, ()), r"^Kraus operators must not be empty"),
        (lambda: UnitaryDilation(C2, np.ones((0, 1, 1)), np.ones((0, 1, 1))),
         r"^a1 must not be empty"),
        (lambda: linalg.checked_array([[np.inf]], (None, None), "matrix"),
         "^matrix must have finite entries$"),
        (lambda: read_choi_file_with_basis("pauli"), "unsupported basis tag: 'pauli'"),
        (lambda: sp.random_sp_channel(C2, C2, 0, False, 1), "at least one Kraus"),
        (lambda: sp.random_sp_channel(C2, C2, 2.5, False, 1), "must be an integer"),
        (lambda: sp.random_sp_channel(C2, C2, True, False, 1), "must be an integer"),
        (lambda: sp.random_sp_channel(C2, C2, "3", False, 1), "must be an integer"),
        (lambda: sp.random_sp_channel(C2, C2, 1, False, -1), "seed must be"),
        (lambda: sp.random_sp_channel(C2, C2, 1, False, 1.5), "seed must be"),
        (lambda: sp.random_sp_channel(C2, C2, 1, False, None), "seed must be"),
        (lambda: sp.random_sp_channel(C2, C2, 1, False, True), "seed must be"),
        *[
            (lambda tp=tp: sp.random_sp_channel(C2, C2, 8, tp, 1),
             rf"^tp must be a bool, got {re.escape(repr(tp))}$")
            for tp in ("no", 1, None, 0.0)
        ],
        (lambda: cpm.apply(IDENTITY, [[1, 2], [3]]), RAGGED.format("input")),
        (lambda: cpm.apply(IDENTITY, "ab"), NOT_NUMBERS.format("input")),
        (lambda: KrausRep(C2, C2, ([[1, 0], [0]],)), RAGGED.format("Kraus operators")),
        (lambda: KrausRep(C2, C2, None), NOT_NUMBERS.format("Kraus operators")),
        (lambda: ChoiRep(C2, C2, [[1, 2], [3]]), RAGGED.format("coefficient matrix")),
        (lambda: SPBlockRep(C2, C2, "a", [[1]], [[0]]), NOT_NUMBERS.format("block1")),
        (lambda: linalg.block_psd_check([[1, 2], [3]], [[1]], [[0]]),
         RAGGED.format("first diagonal block")),
        (lambda: UnitaryDilation(C2, [[[1]], [[1, 2]]], [[[1]]]), RAGGED.format("a1")),
        (lambda: serialize.decode_matrix({"rows": 1, "cols": 1}),
         r"^bad matrix object: 'data'$"),
        (lambda: serialize.channel_from_obj(VALID_OBJECTS["blocks"]),
         r"^expected a 'channel' file, got kind='blocks'$"),
        *[
            (lambda ops=ops: serialize.channel_from_obj({**VALID_OBJECTS["channel"],
                                                         "kraus": ops}),
             "^kraus must be a nonempty list of matrices$")
            for ops in ([], "x")
        ],
        *[
            (lambda reader=reader, bad=bad: reader(bad),
             f"^a '{kind}' file must be a JSON object, got {type(bad).__name__}$")
            for kind, reader in READERS.items()
            for bad in NON_OBJECTS
        ],
        *[
            (lambda reader=reader, obj=retagged(kind, tag): reader(obj),
             rf"^unsupported format tag: {re.escape(repr(tag))}$")
            for kind, reader in READERS.items()
            for tag in BAD_TAGS.values()
        ],
    ],
    ids=[
        "space", "kraus", "dilation", "checked_array", "basis", "random_k",
        "random_k_float", "random_k_bool", "random_k_str", "random_seed_negative",
        "random_seed_float", "random_seed_none", "random_seed_bool",
        "random_tp_str", "random_tp_int", "random_tp_none", "random_tp_float",
        "apply_ragged", "apply_str", "kraus_ragged", "kraus_none", "choi_ragged",
        "blocks_str", "block_psd_ragged", "dilation_ragged", "matrix_no_data",
        "channel_from_blocks", "kraus_list_empty", "kraus_list_str",
        *[f"{kind}_from_{type(bad).__name__}" for kind in READERS for bad in NON_OBJECTS],
        *[f"{kind}_tag_{name}" for kind in READERS for name in BAD_TAGS],
    ],
)
def test_rejections_are_spcpm_errors(call, message):
    with pytest.raises(SpcpmError, match=message):
        call()


# nested lists of numbers, strings and None: every shape from ragged to
# valid, with entries from finite to meaningless
NESTED = st.recursive(
    st.one_of(
        st.integers(-3, 3),
        st.floats(),
        st.complex_numbers(max_magnitude=4),
        st.sampled_from(["", "1", "ab"]),
        st.none(),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=12,
)

C21 = DecomposedSpace(2, 1)

# every array entry point, each fed the value at one array argument; the
# sizes are those of a 2+1 space, where a 3x3 nesting is a valid input
ARRAY_ENTRY_POINTS = {
    "KrausRep": lambda x: KrausRep(C21, C21, x),
    "ChoiRep": lambda x: ChoiRep(C2, C2, x),
    "SPBlockRep.block1": lambda x: SPBlockRep(C21, C21, x, [[1]], np.zeros((4, 1))),
    "SPBlockRep.cross": lambda x: SPBlockRep(C2, C2, [[1]], [[1]], x),
    "UnitaryDilation.a1": lambda x: UnitaryDilation(C21, x, np.ones((1, 1, 1))),
    "UnitaryDilation.a2": lambda x: UnitaryDilation(C2, np.ones((1, 1, 1)), x),
    "apply": lambda x: cpm.apply(KrausRep(C21, C21, (np.eye(3),)), x),
    "block_psd_failure.a": lambda x: linalg.block_psd_failure(x, [[1]], [[0]]),
    "block_psd_failure.c": lambda x: linalg.block_psd_failure([[1]], [[1]], x),
    "inv_sqrt_psd": linalg.inv_sqrt_psd,
    "encode_matrix": serialize.encode_matrix,
    "decode_matrix": serialize.decode_matrix,
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=NESTED)
@example(value=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
@example(value=[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_malformed_arrays_are_refused_as_spcpm_errors(value):
    # each entry point accepts the value or refuses it with SpcpmError; any
    # other exception fails the test at the entry's own line above
    for call in ARRAY_ENTRY_POINTS.values():
        try:
            call(value)
        except SpcpmError:
            pass


def test_random_sp_channel_accepts_a_numpy_integer_k():
    got = sp.random_sp_channel(C2, C2, np.int64(3), True, 5)
    assert np.array_equal(got.ops, sp.random_sp_channel(C2, C2, 3, True, 5).ops)


def test_random_sp_channel_accepts_a_numpy_integer_seed():
    got = sp.random_sp_channel(C2, C2, 3, True, np.int64(5))
    assert np.array_equal(got.ops, sp.random_sp_channel(C2, C2, 3, True, 5).ops)


def test_random_sp_channel_accepts_a_numpy_bool_tp():
    got = sp.random_sp_channel(C2, C2, 3, np.bool_(True), 5)
    assert np.array_equal(got.ops, sp.random_sp_channel(C2, C2, 3, True, 5).ops)


PREDICATES = {
    "is_sp_definition": sp.is_sp_definition,
    "is_sp_commutation": sp.is_sp_commutation,
    "is_sp_kraus_blocks": sp.is_sp_kraus_blocks,
    "is_sp_trace": sp.is_sp_trace,
    "is_trace_preserving": cpm.is_trace_preserving,
    "channels_equal": lambda rep, tol: cpm.channels_equal(rep, IDENTITY, tol),
}


@pytest.mark.parametrize("name", PREDICATES)
@pytest.mark.parametrize("rep", [IDENTITY, SWAP], ids=["identity", "swap"])
def test_predicates_return_python_bool(name, rep):
    # a numpy tolerance must not turn the verdict into a numpy.bool_
    result = PREDICATES[name](rep, np.float64(1e-9))
    assert type(result) is bool
    if rep is IDENTITY:
        assert result is True


@pytest.mark.parametrize("d1", [1.5, 2.0, True, np.float64(2.0)], ids=repr)
def test_space_refuses_non_integer_dims(d1):
    with pytest.raises(SpcpmError, match="block dimensions must be integers"):
        DecomposedSpace(d1, 2)
    with pytest.raises(SpcpmError, match="block dimensions must be integers"):
        DecomposedSpace(2, d1)


@pytest.mark.parametrize("d1", [2, np.int64(2), np.uint8(2)], ids=repr)
def test_space_accepts_python_and_numpy_integers(d1):
    space = DecomposedSpace(d1, np.int32(1))
    assert space == DecomposedSpace(2, 1) and space.dim == 3
    assert type(space.d1) is int and type(space.d2) is int


def read_dilation_file_with_stacks(a1, a2):
    """A 1+1 dilation file whose stacks are the given matrices."""
    obj = serialize.dilation_to_obj(UnitaryDilation(C2, np.ones((2, 1, 1)), np.ones((2, 1, 1))))
    obj["a1"], obj["a2"] = serialize.encode_matrix(a1), serialize.encode_matrix(a2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dilation.json"
        serialize.write_file(path, obj)
        return serialize.dilation_from_obj(serialize.read_file(path))


@pytest.mark.parametrize(
    "a1, a2, match",
    [
        (np.ones((2, 1)), np.ones((3, 1)), "a1 and a2 hold 2 and 3 pieces"),
        (np.ones((2, 2)), np.ones((2, 1)), r"a1 has shape \(2, 2\), expected \(K·1, 1\)"),
        (np.ones((2, 1)), np.ones((1, 2)), r"a2 has shape \(1, 2\), expected \(K·1, 1\)"),
    ],
    ids=["lengths", "a1-cols", "a2-cols"],
)
def test_dilation_file_refuses_stacks_that_fix_no_ancilla(a1, a2, match):
    # the ancilla dimension is derived from the stacks, so a file whose
    # stacks give no common K >= 1 is refused on reading
    with pytest.raises(SpcpmError, match=match):
        read_dilation_file_with_stacks(a1, a2)


def test_dilation_file_derives_a_python_int_ancilla():
    dil = read_dilation_file_with_stacks(np.ones((2, 1)), np.zeros((2, 1)))
    assert dil.ancilla_dim == 3 and type(dil.ancilla_dim) is int
    json.dumps(serialize.dilation_to_obj(dil))
