"""Property tests of the state-file boundary: save_state then load_state
gives back every bit of a generated valid state, and every generated
malformed file makes `uwit evaluate` exit 2 (format) or 3 (invariants) with
one `error:` line and no traceback."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from haar import haar_pure_state
from uwit.cli import main
from uwit.states import (
    bell_diagonal_state,
    bell_states,
    in_state_tetrahedron,
    load_state,
    random_density_matrix,
    random_product_state,
    random_separable_state,
    save_state,
    werner_state,
)

BOUNDED = settings(derandomize=True, max_examples=60, deadline=None)

FAMILIES = {
    "ginibre": lambda dims, rng: random_density_matrix(dims, rng),
    "separable": lambda dims, rng: random_separable_state(int(rng.integers(1, 5)), rng, dims),
    "pure": lambda dims, rng: haar_pure_state(dims, rng).density(),
    "product": lambda dims, rng: random_product_state(dims, rng).density(),
}

random_states = st.builds(
    lambda family, dims, seed: FAMILIES[family](dims, np.random.default_rng(seed)),
    st.sampled_from(sorted(FAMILIES)),
    st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    st.integers(0, 2**32 - 1),
)
coordinates = st.floats(-1.0, 1.0)
# real matrices whose imaginary parts hold zeros of either sign
bell_diagonal_states = st.tuples(coordinates, coordinates, coordinates).filter(in_state_tetrahedron).map(bell_diagonal_state)
real_states = st.one_of(
    bell_diagonal_states,
    st.sampled_from(range(4)).map(lambda i: bell_states()[i].density()),
    st.floats(0.0, 1.0).map(werner_state),
)
valid_states = st.one_of(random_states, real_states)


@BOUNDED
@given(valid_states)
def test_save_load_round_trip_is_bit_exact(rho):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert loaded.dims == rho.dims
        assert loaded.matrix.tobytes() == rho.matrix.tobytes()
        first = path.read_bytes()
        save_state(loaded, path)
        assert path.read_bytes() == first


MIXED = np.eye(4) / 4.0
VALID = {"dims": [2, 2], "re": MIXED.tolist(), "im": np.zeros((4, 4)).tolist()}


def _is_4x4(m) -> bool:
    return isinstance(m, list) and len(m) == 4 and all(isinstance(row, list) and len(row) == 4 for row in m)


def _with(**changes) -> str:
    return json.dumps({**VALID, **changes})


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=5), max_leaves=20)

# (file text, exit code)
not_json = st.sampled_from(["", "{", "{oops", "[1, 2", '{"dims": [2, 2],}', "[" * 100_000]).map(lambda t: (t, 2))
not_objects = json_values.map(lambda v: (json.dumps(v), 2))
missing_keys = st.sets(st.sampled_from(sorted(VALID)), min_size=1).map(
    lambda keys: (json.dumps({k: v for k, v in VALID.items() if k not in keys}), 2)
)
bad_dims = st.one_of(
    st.lists(st.booleans(), min_size=2, max_size=2),
    st.tuples(st.booleans(), st.integers(1, 4)).map(list),
    st.tuples(st.integers(1, 4), st.booleans()).map(list),
    st.lists(st.integers(-3, 0), min_size=2, max_size=2),
    st.lists(st.floats(), min_size=2, max_size=2),
    st.lists(st.integers(1, 6), max_size=4).filter(lambda d: d != [2, 2]),
    json_values.filter(lambda d: not isinstance(d, list)),
).map(lambda d: (_with(dims=d), 2))
bad_shapes = st.tuples(
    st.sampled_from(["re", "im"]),
    st.one_of(
        json_values.filter(lambda m: not _is_4x4(m)),
        st.just([[0.25, 0.0, 0.0, 0.0]] * 3 + [[0.25, 0.0]]),  # ragged
        st.just([[[0.25]] * 4] * 4),  # one axis too many
    ),
).map(lambda kv: (_with(**{kv[0]: kv[1]}), 2))


@st.composite
def non_finite(draw):
    """The valid file with one NaN or infinite entry in re or im."""
    key = draw(st.sampled_from(["re", "im"]))
    m = np.array(VALID[key])
    m[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return _with(**{key: m.tolist()}), 3


@st.composite
def invalid_states(draw):
    """Finite 4x4 matrices that break an invariant: Hermiticity, unit trace
    or positivity."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    kind = draw(st.sampled_from(["hermitian", "unit_trace", "positive_semidefinite"]))
    if kind == "hermitian":
        m = MIXED + 1e-3 * g
        assume(np.linalg.norm(m - m.conj().T) > 1e-6)
    elif kind == "unit_trace":
        m = draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 10.0))) * MIXED
    else:  # exactly Hermitian, unit trace, least eigenvalue 1/4 - c < 0
        h = g + g.conj().T
        h = h - np.trace(h).real / 4.0 * np.eye(4)
        assume(np.linalg.norm(h) > 1e-6)
        m = MIXED + draw(st.floats(0.26, 2.0)) * h / -np.linalg.eigvalsh(h)[0]
    return _with(re=m.real.tolist(), im=m.imag.tolist()), 3


malformed_files = st.one_of(not_json, not_objects, missing_keys, bad_dims, bad_shapes, non_finite(), invalid_states())


@settings(BOUNDED, max_examples=150)
@given(malformed_files)
@example((_with(dims=[True, True], re=[[1.0]], im=[[0.0]]), 2))  # a JSON bool is a Python int
@example((_with(dims=[True, 2], re=[[1.0, 0.0], [0.0, 0.0]], im=[[0.0] * 2] * 2), 2))
@example((_with(re=[[10**400] * 4] * 4), 2))
@example(('{"dims": [2, 2], "re": [[' + "1" * 5000 + ']], "im": [[0.0]]}', 2))  # beyond int parsing
@example(("[" * 100_000, 2))
@example((b"\xff\xfe{}", 2))  # not UTF-8
@example((b"\xef\xbb\xbf" + _with().encode(), 2))  # a UTF-8 byte-order mark is not JSON
@example((_with().encode("utf-16"), 2))  # read as UTF-8, never detected as UTF-16
@example((_with().encode("utf-16-le"), 2))  # valid UTF-8, but NUL is not JSON
def test_malformed_files_exit_with_one_error_line(case):
    text, code = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        path = Path(tmp) / "state.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["evaluate", str(path)]) == code
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


def _evaluate(path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["evaluate", str(path), "--q", "2", "--q", "15"])
    return code, out.getvalue(), err.getvalue()


def test_crlf_line_ends_give_the_lf_files_report(tmp_path):
    """A saved state rewritten with CRLF line ends and indentation is the
    same state: exit 0 and a report byte-identical to the LF file's."""
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    save_state(random_density_matrix((2, 2), np.random.default_rng(30)), lf)
    crlf.write_bytes(json.dumps(json.loads(lf.read_bytes()), indent=1).replace("\n", "\r\n").encode() + b"\r\n")
    assert b"\r\n" in crlf.read_bytes()
    expected = _evaluate(lf)
    assert expected[0] == 0 and expected[2] == ""
    assert _evaluate(crlf) == expected


def test_a_directory_is_a_format_error(tmp_path):
    code, out, err = _evaluate(tmp_path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
