"""Transformation semigroups of index arrays.

A self-map of range(n) is stored as a tuple of images. The extraction
operators of an algebra, the saturations of a Q-space family and the
closures built by the CLI are all such maps, composed and looked up here.

Every law of the package is an identity between composed maps, checked one
row at a time: ``first_row_witness`` scans (key, lhs, rhs) rows and names
the first failing entry, and ``homomorphism_witness`` builds the rows of
f(x . y) = f(x) . f(y) for a map f between two binary operation tables.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import CapExceeded


def compose(f, g) -> tuple[int, ...]:
    """The map x -> f[g[x]]: first g, then f."""
    if len(g) > 1:
        return itemgetter(*g)(f)
    return tuple([f[x] for x in g])  # a single index would give a bare value


def first_row_witness(rows):
    """First failing (*key, index) of a law given as (key, lhs, rhs) rows:
    the two sides as tuples over the last variable, keys in lexicographic
    order. Only a row that differs is rescanned for its failing index; a
    side that ends early differs at its end."""
    for key, lhs, rhs in rows:
        if lhs != rhs:
            return (*key, next((i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y),
                               min(len(lhs), len(rhs))))
    return None


def homomorphism_witness(f, op_a, op_b) -> tuple[int, int] | None:
    """First (x, y), row by row, with f[op_a[x][y]] != op_b[f[x]][f[y]]."""
    return first_row_witness(((x,), compose(f, row), compose(op_b[f[x]], f))
                             for x, row in enumerate(op_a))


def grid(arrays) -> list[list[tuple[int, ...]]]:
    """Every composite of a listed family: entry [k][l] is compose(arrays[k], arrays[l])."""
    return [[compose(f, g) for g in arrays] for f in arrays]


def table(arrays, composites=None) -> tuple[tuple[int | None, ...], ...]:
    """Label table of a listed family: entry [k][l] is the first index of
    compose(arrays[k], arrays[l]) in the list, or None when it is not listed;
    ``composites`` is the family's ``grid`` when the caller already built it,
    or, as for ``equivalence.star_table``, a grid of another product."""
    first: dict = {}
    for i, arr in enumerate(arrays):
        first.setdefault(arr, i)
    return tuple(tuple(map(first.get, row)) for row in composites or grid(arrays))


def unlisted(tab) -> tuple[int, int] | None:
    """First (k, l), row by row, whose composite is not listed in the table."""
    return next(((k, l) for k, row in enumerate(tab) for l, c in enumerate(row)
                 if c is None), None)


def close(items, labels, product, sep: str, cap: int | None) -> tuple[list, list[str]]:
    """The items and labels extended until closed under product.

    Each item, in list order, is multiplied both ways by every item listed
    when its turn starts. A new product x*y is labeled lx + sep + ly, primed
    until the label is unused; CapExceeded is raised once more than cap
    items are listed.
    """
    items, labels = list(items), list(labels)
    seen = set(items)
    used = set(labels)
    i = 0
    while i < len(items):
        for j in range(len(items)):
            for x, y in ((i, j), (j, i)):
                prod = product(items[x], items[y])
                if prod in seen:
                    continue
                label = labels[x] + sep + labels[y]
                while label in used:
                    label += "'"
                seen.add(prod)
                used.add(label)
                items.append(prod)
                labels.append(label)
                if cap is not None and len(items) > cap:
                    raise CapExceeded(f"closure exceeds cap {cap}")
        i += 1
    return items, labels
