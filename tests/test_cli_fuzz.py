"""Seeded fuzz of problem files: a malformed file must end in exit code 2
(or a report), never in an escaping exception."""

import contextlib
import copy
import io
import json

import pytest

from conemix.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

VALID = [
    {"cone": {"type": "orthant", "dim": 2}, "unit": ["1/2", 1],
     "map": {"type": "matrix", "data": [["1/2", 1], [0, "1/3"]]}},
    {"map": {"type": "stochastic", "data": [[0.5, 0.25], [0.5, 0.75]]}},
    {"map": {"type": "kraus", "ops": [
        {"re": [[1, 0], [0, 0.8]], "im": [[0, 0], [0, 0]]},
        {"re": [[0, 0.6], [0, 0]]}]}},
    {"cone": {"type": "polyhedral",
              "generators": [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]},
     "map": {"type": "matrix", "data": [[2, 0, 0], [0, 1, -1], [0, 1, 1]]}},
    {"cone": {"type": "tensor", "left": {"type": "orthant", "dim": 2},
              "right": {"type": "orthant", "dim": 2}},
     "tolerances": {"eps_rank": 1e-8, "eps_interior": "1e-9"},
     "map": {"type": "matrix", "data": [
         [1, "1/2", 0, 0], [0, "1/2", 1, 0], [0, 0, 0, 1], [1, 0, 0, 1]]}},
]

KEYS = ["type", "dim", "hdim", "data", "ops", "re", "im", "generators",
        "left", "right", "unit", "mode", "tolerances", "eps_rank"]
SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400, 10 ** 20, 0, -1, 2, 3]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["1e400", "-1e400", "1e-400", "1/0", "0/1", "nan",
                     "inf", "1/3", "-0.5", "", "orthant", "psd",
                     "polyhedral", "tensor", "matrix", "stochastic",
                     "kraus", "rational", "float"]),
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), children,
                      max_size=4),
    max_leaves=12)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


MUTANTS = st.sampled_from(VALID).flatmap(
    lambda doc: st.tuples(st.just(doc), st.sampled_from(list(_paths(doc))),
                          JSON)).map(lambda t: _replaced(*t))


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("doc", VALID)
def test_seed_documents_are_valid(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert _run(["classify", str(path)]) == 0


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@hypothesis.settings(max_examples=300, derandomize=True, database=None,
                     deadline=None)
@hypothesis.given(doc=MUTANTS)
def test_mutated_problem_files_exit_cleanly(problem_path, doc):
    problem_path.write_text(json.dumps(doc))
    for argv in (["classify", str(problem_path)],
                 ["simulate", str(problem_path), "--init", "uniform",
                  "--steps", "20"]):
        assert _run(argv) in (0, 2, 3, 4)
