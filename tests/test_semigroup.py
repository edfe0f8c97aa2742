import pytest

from infalg.errors import CapExceeded
from infalg.semigroup import close, compose, grid, table, unlisted


def test_compose_applies_right_argument_first():
    f, g = (1, 1, 2), (0, 2, 2)
    assert compose(f, g) == (1, 2, 2)
    assert compose(g, f) == (2, 2, 2)


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
