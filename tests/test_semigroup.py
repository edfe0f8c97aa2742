import random

import pytest

from infalg.errors import CapExceeded
from infalg.generators import enumerate_lattices
from infalg.semigroup import close, compose, grid, homomorphism_witness, table, unlisted


def test_compose_applies_right_argument_first():
    f, g = (1, 1, 2), (0, 2, 2)
    assert compose(f, g) == (1, 2, 2)
    assert compose(g, f) == (2, 2, 2)


def test_compose_on_short_maps_and_lists():
    # maps of length 0 and 1 take the tuple route, longer ones the itemgetter
    f = (5, 6, 7)
    assert compose(f, ()) == () and compose([], []) == ()
    assert compose(f, (2,)) == (7,) and compose(list(f), [1]) == (6,)
    assert compose(f, (2, 0)) == (7, 5) and compose(list(f), [2, 0]) == (7, 5)
    assert compose([1, 0], (0, 1)) == (1, 0)
    for got in (compose(f, ()), compose(list(f), [1]), compose(list(f), [2, 0])):
        assert type(got) is tuple


def literal_homomorphism_witness(f, op_a, op_b):
    for x in range(len(op_a)):
        for y in range(len(op_a)):
            if f[op_a[x][y]] != op_b[f[x]][f[y]]:
                return (x, y)
    return None


def test_homomorphism_witness_matches_literal_double_loop():
    rng = random.Random(909)
    cases = []
    for _ in range(400):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        op_a = [[rng.randrange(na) for _ in range(na)] for _ in range(na)]
        op_b = [[rng.randrange(nb) for _ in range(nb)] for _ in range(nb)]
        cases.append(([rng.randrange(nb) for _ in range(na)], op_a, op_b))
        # the identity, and a constant at an idempotent, are homomorphisms
        cases.append((list(range(na)), op_a, op_a))
        idem = [c for c in range(nb) if op_b[c][c] == c]
        if idem:
            cases.append(([rng.choice(idem)] * na, op_a, op_b))
    # meet translations are join endomorphisms exactly in distributive
    # lattices; perturbing one entry makes near misses
    for lat in enumerate_lattices(5, distributive_only=False):
        join = lat.join
        for row in lat.meet:
            cases.append((row, join, join))
            bent = list(row)
            bent[rng.randrange(lat.n)] = rng.randrange(lat.n)
            cases.append((bent, join, join))
    found = [0, 0]
    for f, op_a, op_b in cases:
        want = literal_homomorphism_witness(f, op_a, op_b)
        assert homomorphism_witness(f, op_a, op_b) == want, (f, op_a, op_b)
        found[want is None] += 1
    assert min(found) >= 300

    ident, const = (0, 1), (0, 0)
    # the identity is listed twice; every lookup resolves to index 0
    assert table([ident, const, ident]) == ((0, 1, 0), (1, 1, 1), (0, 1, 0))


def test_table_takes_first_listed_index():
    ident, const = (0, 1), (0, 0)
    # the identity is listed twice; every lookup resolves to index 0
    assert table([ident, const, ident]) == ((0, 1, 0), (1, 1, 1), (0, 1, 0))


def test_table_marks_unlisted_composites():
    low, high = (0, 0, 2), (0, 1, 1)   # composite (0, 0, 0) is not listed
    tab = table([low, high])
    assert tab == ((0, None), (None, 1))
    assert unlisted(tab) == (0, 1)
    assert unlisted(table([low])) is None
    assert table([]) == ()
    # a grid built once gives the same table
    assert grid([low, high]) == [[low, (0, 0, 0)], [(0, 0, 1), high]]
    assert table([low, high], grid([low, high])) == tab


def test_close_order_labels_and_primes():
    a, b, ident = (1, 1, 2), (0, 2, 2), (0, 1, 2)
    assert close([a, b], ["a", "b"], compose, ".", None) == (
        [a, b, (1, 2, 2), (2, 2, 2)], ["a", "b", "a.b", "b.a"])
    # a label already in use is primed
    items, labels = close([a, b, ident], ["a", "b", "a.b"], compose, ".", None)
    assert items == [a, b, ident, (1, 2, 2), (2, 2, 2)]
    assert labels == ["a", "b", "a.b", "a.b'", "b.a"]


def test_close_leaves_inputs_untouched_and_is_idempotent():
    items, labels = [(1, 2, 0)], ["r"]
    closed, names = close(items, labels, compose, ".", None)
    assert items == [(1, 2, 0)] and labels == ["r"]
    assert closed == [(1, 2, 0), (2, 0, 1), (0, 1, 2)]
    assert names == ["r", "r.r", "r.r.r"]
    assert close(closed, names, compose, ".", None) == (closed, names)


def test_close_cap():
    with pytest.raises(CapExceeded, match="closure exceeds cap 2"):
        close([(1, 2, 0)], ["r"], compose, ".", 2)
    assert len(close([(1, 2, 0)], ["r"], compose, ".", 3)[0]) == 3
