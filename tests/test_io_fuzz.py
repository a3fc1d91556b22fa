"""Property tests: malformed JSON never escapes as anything but a package error.

The JSON loaders may return or raise a :class:`PcohError`; the CLI, fed the
same documents as input files, exits 0, 2 or 3 and never prints a traceback.
Examples are drawn from arbitrary JSON and from documents shaped like the
package's formats with arbitrary values spliced in, so that validation past
the first key lookup is reached too.  ``derandomize`` keeps the examples the
same from run to run.
"""

import contextlib
import io as textio
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcoh import cli, io
from pcoh.errors import PcohError

FUZZ = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# entries of matrices, weights and coefficients: any size, non-finite too
numbers = (
    st.integers(-3, 3)
    | st.floats(-2.0, 2.0)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-(2**70), 2**70)
)
# anywhere else a number may land in a dims list, and a vacuous assessment set
# of large dims is a valid (huge) problem, not malformed input: keep them small
leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(-8.0, 8.0)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=6)
)
anything = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
pairs = st.lists(numbers, min_size=2, max_size=2)


@st.composite
def matrices(draw):
    """A matrix object with consistent sizes, its entries sometimes not pairs."""
    n = draw(st.integers(0, 4))
    upper = draw(st.booleans())
    count = n * (n + 1) // 2 if upper else n * n
    entry = pairs if draw(st.booleans()) else pairs | anything
    obj = {"rows": n, "cols": n, "data": draw(st.lists(entry, min_size=count, max_size=count))}
    if upper:
        obj["upper"] = True
    return obj


@st.composite
def solvable(draw):
    """A well-formed assessment set, gamble or diagonal state, so the solvers run too."""
    dims = draw(st.sampled_from([[2], [3], [2, 2]]))
    n = 1
    for d in dims:
        n *= d
    real = st.floats(-2.0, 2.0)

    def hermitian():
        data = draw(st.lists(st.lists(real, min_size=2, max_size=2),
                             min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        return {"rows": n, "cols": n, "upper": True, "data": data}

    kind = draw(st.sampled_from(["assessments", "gamble", "state"]))
    if kind == "assessments":
        return {"dims": dims, "gambles": [hermitian() for _ in range(draw(st.integers(0, 3)))]}
    if kind == "gamble":
        return {"dims": dims, "matrix": hermitian()}
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    diag = [[weights[i] / sum(weights) if i == j else 0.0, 0.0]
            for i in range(n) for j in range(n)]
    return {"dims": dims, "rho": {"rows": n, "cols": n, "data": diag}}


dims = st.lists(st.integers(-1, 4), min_size=0, max_size=3) | anything
matrix = matrices() | anything
vectors = st.lists(pairs, max_size=4) | matrix
exponent_tables = st.dictionaries(
    st.sampled_from(["0,0", "2,0", "0,2", "1,1", "4,2", "6,0", "7,0", "-1,0", "a,b", "3"]),
    numbers | anything,
    max_size=5,
) | anything

documents = st.one_of(
    solvable(),
    anything,
    matrix,
    st.fixed_dictionaries({"dims": dims, "gambles": st.lists(matrix, max_size=3) | anything}),
    st.fixed_dictionaries({"dims": dims, "rho": matrix}),
    st.fixed_dictionaries({"dims": dims, "matrix": matrix}),
    st.fixed_dictionaries(
        {"atoms": st.lists(st.lists(vectors, max_size=2), max_size=3) | anything,
         "weights": st.lists(numbers, max_size=3) | anything}
    ),
    st.fixed_dictionaries({"coeffs": exponent_tables}),
    st.fixed_dictionaries({"z": exponent_tables}),
)

LOADERS = [
    io.matrix_from_json,
    io.vector_from_json,
    io.assessments_from_json,
    io.state_from_json,
    io.gamble_from_json,
    io.charge_from_json,
    io.support_from_json,
    io.poly_from_json,
    io.moments_from_json,
]


@pytest.mark.filterwarnings("ignore:input symmetrised")
@FUZZ
@given(doc=documents)
def test_loaders_raise_only_package_errors(doc):
    # what a loader sees is what json.loads gives back for the file
    doc = json.loads(json.dumps(doc))
    for loader in LOADERS:
        try:
            loader(doc)
        except PcohError:
            pass


def _argv(command, path, other):
    return {
        "coherence": ["coherence", "-i", path],
        "prevision": ["prevision", "-i", path, "--gamble", other],
        "prevision-gamble": ["prevision", "-i", other, "--gamble", path],
        "witness": ["witness", "-i", path],
        "chsh": ["chsh", "-i", path],
        "sos": ["sos", "-i", path],
        "charge": ["charge", "-i", path, "--random", "3"],
        "charge-support": ["charge", "--bell", "--support", path],
    }[command]


@pytest.mark.filterwarnings("ignore:input symmetrised")
@FUZZ
@given(
    command=st.sampled_from(
        ["coherence", "prevision", "prevision-gamble", "witness", "chsh", "sos", "charge",
         "charge-support"]
    ),
    doc=solvable() | documents,
    other=solvable() | documents,
)
# factor dims below 1 once reached the solver and died there
@example(command="coherence", doc={"dims": [0], "gambles": []}, other=None)
@example(command="coherence", doc={"dims": [-1], "gambles": []}, other=None)
def test_cli_exits_cleanly_on_any_json(tmp_path, command, doc, other):
    path, other_path = tmp_path / "doc.json", tmp_path / "other.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    other_path.write_text(json.dumps(other), encoding="utf-8")
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(_argv(command, str(path), str(other_path)))
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
