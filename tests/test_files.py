"""files.dumps against the standard library's rendering, which it must
reproduce byte for byte, and the memory its rows cost."""

import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from infalg import files
from infalg.cli import _upset_label
from infalg.duality import dualize, reconstruct
from infalg.generators import enumerate_algebras, enumerate_q_spaces, gen_string, string_elements
from infalg.order import up_sets


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_stdlib_on_algebra_docs(generated_suite):
    algebras = [*generated_suite.values(), *enumerate_algebras(5)]
    for a in algebras:
        for labels in (None, [f"x{i}" for i in range(a.n)]):
            doc = files.algebra_doc(a, labels)
            assert files.dumps(doc) == stdlib(doc)
    for name, max_len in (("string22", 2), ("string23", 3)):
        doc = files.algebra_doc(generated_suite[name], string_elements(2, max_len))
        assert files.dumps(doc) == stdlib(doc)


def test_dumps_matches_stdlib_on_reconstructed_labels(lv_2_chain3):
    space = dualize(lv_2_chain3)
    labels = [_upset_label(m) for m in up_sets(space.poset)]
    assert "{0,1}" in labels
    doc = files.algebra_doc(reconstruct(space), labels)
    assert files.dumps(doc) == stdlib(doc)


def test_dumps_matches_stdlib_on_qspace_docs():
    empty = files.parse_qspace('{"n": 0, "leq": [], "equivalences": {"t": []}}').space
    docs = [files.qspace_doc(s) for s in [*enumerate_q_spaces(3), empty]]
    assert docs[-1] == {"n": 0, "leq": [], "equivalences": {"t": []}}
    for doc in docs:
        assert files.dumps(doc) == stdlib(doc)


scalars = (st.none() | st.booleans()
           | st.integers(min_value=-(1 << 80), max_value=1 << 80)
           | st.text(alphabet=st.sampled_from('a"\\\n\t\x00\x1f\x7fé€😀 ')))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(alphabet=st.sampled_from('k"\\\né'), max_size=3),
                                     inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_matches_stdlib_on_random_values(value):
    assert files.dumps(value) == stdlib(value)


def test_dumps_matches_stdlib_on_edge_values():
    for value in ([], {}, (), [[]], {"a": {}}, {"a": ((), [])}, [None, 1], [1 << 70, -(1 << 65)],
                  [True, False, "q"], ("t", (1,)), {"é\"": ["\\", "\x00"]}, None, "s", 0,
                  {"a": [{1: [True], 2: {}}]}, [1.5, {"f": [0.25, -1]}]):
        assert files.dumps(value) == stdlib(value)


def test_dumps_peak_memory_is_linear_in_its_output():
    # rows are encoded one at a time, so the peak stays near the output's
    # own size; the standard library's indented encoder holds about seven
    # times as much on this 512-element document
    a = gen_string(2, 8)
    assert a.n == 512
    doc = files.algebra_doc(a, string_elements(2, 8))
    tracemalloc.start()
    try:
        text = files.dumps(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text), (peak, len(text))
