"""Mutation fuzzing of the file readers and the command line: a mutated
document either reads, raises an InfAlgError, or, through ``cli.main``,
exits 0, 1 or 2. Any other exception escaping is a failure."""

import contextlib
import copy
import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infalg import files
from infalg.cli import main
from infalg.errors import InfAlgError
from infalg.generators import enumerate_algebras, enumerate_q_spaces, gen_string

CAP = 4096
# replacement values and keys: every type JSON gives, empty and nested
# containers, out-of-range and huge integers, and the keys of both formats
VALUES = [None, True, False, 0, 1, -1, 2, 5, 1 << 70, 0.5, "", "t0", [], {}, [0], [True],
          [[0]], [[True]], {"t0": [0]}, {"t0": []}]
KEYS = ["n", "leq", "join", "unit", "zero", "extractors", "meet", "labels", "equivalences",
        "t0", "e0", "x"]


@functools.cache
def seeds():
    """(kind, document) pairs: the algebras of up to 4 elements, the string
    algebra (2, 2) and the Q-spaces of up to 3 points."""
    algebras = [*enumerate_algebras(4), gen_string(2, 2)]
    return ([("algebra", files.algebra_doc(a)) for a in algebras]
            + [("qspace", files.qspace_doc(s)) for s in enumerate_q_spaces(3)])


def slot(data, value):
    """A (container, key) drawn by descending from the root; None for an
    empty root."""
    while True:
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        if not keys:
            return None
        key = data.draw(st.sampled_from(keys))
        child = value[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            return value, key
        value = child


def mutate_structure(data, doc):
    """The document with one to three entries or keys replaced from the
    fixed pools, or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        found = slot(data, doc)
        if found is None:
            break
        container, key = found
        action = data.draw(st.sampled_from(["delete", "value", "key"]))
        if action == "delete":
            del container[key]
        elif action == "value" or isinstance(container, list):
            container[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
        else:
            container[data.draw(st.sampled_from(KEYS))] = container.pop(key)
    return doc


def leaves(value, path=()):
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from leaves(child, (*path, key))
    else:
        yield path, value


def mutate_in_range(data, doc):
    """The document with one to three table entries or bounds set to another
    index below n, or booleans flipped: still well formed, so the laws are
    what the readers check."""
    doc = copy.deepcopy(doc)
    paths = [path for path, v in leaves(doc) if path[0] != "n" and type(v) in (int, bool)]
    for _ in range(data.draw(st.integers(1, 3))):
        *route, last = data.draw(st.sampled_from(paths))
        container = functools.reduce(lambda c, k: c[k], route, doc)
        old = container[last]
        container[last] = not old if type(old) is bool else data.draw(
            st.integers(0, doc["n"] - 1))
    return doc


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_readers_return_or_raise_a_library_error(data):
    kind, doc = data.draw(st.sampled_from(seeds()))
    read = files.algebra_from_doc if kind == "algebra" else files.qspace_from_doc
    try:
        parsed = read(mutate_structure(data, doc), cap=CAP)
    except InfAlgError:
        return
    assert isinstance(parsed, (files.ParsedAlgebra, files.ParsedQSpace))


COMMANDS = {
    "algebra": [["verify"], ["verify", "--lenient"], ["classify"], ["atoms"], ["close"],
                ["dualize"], ["roundtrip"]],
    "qspace": [["reconstruct"], ["roundtrip"]],
}


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_exits_0_1_or_2_on_in_range_mutations(doc_file, data):
    kind, doc = data.draw(st.sampled_from(seeds()))
    doc_file.write_text(json.dumps(mutate_in_range(data, doc)))
    for command in COMMANDS[kind]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = main([*command, str(doc_file)])
        assert status in (0, 1, 2), (command, status, out.getvalue())
