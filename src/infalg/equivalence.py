"""Equivalence relations on a finite universe: star products, saturation, closure.

An equivalence is stored as a block-id array canonicalized by first
occurrence, so equality is array equality. Subsets are bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NonCommutingError, StructureError
from .order import bits
from .semigroup import close, table, unlisted


class Equivalence:
    __slots__ = ("n", "block_of", "blocks", "_hash")

    def __init__(self, n: int, labels):
        """Partition of range(n); labels may be arbitrary hashables per element."""
        labels = list(labels)
        if len(labels) != n:
            raise StructureError(f"expected {n} labels, got {len(labels)}")
        ids: dict = {}
        block_of = []
        for lab in labels:
            if lab not in ids:
                ids[lab] = len(ids)
            block_of.append(ids[lab])
        blocks = [0] * len(ids)
        for x, b in enumerate(block_of):
            blocks[b] |= 1 << x
        self.n = n
        self.block_of = tuple(block_of)
        self.blocks = tuple(blocks)
        # every set or dict lookup hashes; the fields never change
        self._hash = hash((n, self.block_of))

    @classmethod
    def identity(cls, n: int) -> "Equivalence":
        return cls(n, range(n))

    @classmethod
    def all_relation(cls, n: int) -> "Equivalence":
        return cls(n, [0] * n)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Equivalence":
        """The partition of range(n) into ``blocks``; StructureError names the
        first point outside range(n), in two blocks, or in none."""
        labels = [None] * n
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n:
                    raise StructureError(f"block point {x} outside range({n})", witness=x)
                if labels[x] is not None:
                    raise StructureError(f"point {x} lies in two blocks", witness=x)
                labels[x] = i
        if None in labels:
            raise StructureError("blocks do not cover the universe", witness=labels.index(None))
        return cls(n, labels)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def relates(self, u: int, v: int) -> bool:
        return self.block_of[u] == self.block_of[v]

    def block_mask(self, u: int) -> int:
        return self.blocks[self.block_of[u]]

    def is_identity(self) -> bool:
        return self.num_blocks == self.n

    def is_all(self) -> bool:
        return self.num_blocks == 1

    def refines(self, other: "Equivalence") -> bool:
        """True iff self, as a relation set, is contained in other."""
        return all(self.block_mask(u) & ~other.block_mask(u) == 0 for u in range(self.n))

    def __eq__(self, other):
        return (isinstance(other, Equivalence)
                and self.n == other.n and self.block_of == other.block_of)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = ["{" + ",".join(map(str, bits(b))) + "}" for b in self.blocks]
        return f"Equivalence({'|'.join(parts)})"


def saturate(theta: Equivalence, mask: int) -> int:
    """Union of all blocks meeting the given subset."""
    out = 0
    for block in theta.blocks:
        if block & mask:
            out |= block
    return out


def compose_rows(theta: Equivalence, gamma: Equivalence) -> list[int]:
    """Relational product rows: row u = {v : u theta w gamma v for some w},
    the same for every u of one theta-block b: the union of the gamma-blocks
    of the points of b. So one pass over the points builds every block's
    row, O(n), where saturating each theta-block against each gamma-block
    takes |theta|·|gamma| steps. Every star product runs through here."""
    if theta.n != gamma.n:
        raise StructureError(f"universe mismatch: {theta.n} vs {gamma.n}")
    rows, blocks = [0] * len(theta.blocks), gamma.blocks
    for b, g in zip(theta.block_of, gamma.block_of):
        rows[b] |= blocks[g]
    return [rows[b] for b in theta.block_of]


def commutation_witness(theta: Equivalence, gamma: Equivalence) -> tuple[int, int] | None:
    """Least pair in the theta-gamma product missing from the gamma-theta product."""
    rows_gt = compose_rows(gamma, theta)
    return next(((u, next(bits(row & ~rows_gt[u])))
                 for u, row in enumerate(compose_rows(theta, gamma)) if row & ~rows_gt[u]), None)


def _product(theta: Equivalence, gamma: Equivalence) -> Equivalence | None:
    """Relational product as an equivalence, or None when the two do not commute."""
    rows = compose_rows(theta, gamma)
    # the product of commuting equivalences is transitive, so its rows are
    # the blocks of a partition
    return Equivalence(theta.n, rows) if rows == compose_rows(gamma, theta) else None


def star(theta: Equivalence, gamma: Equivalence) -> Equivalence:
    """Relational product of commuting equivalences, which is transitive, so
    their least upper bound; raises NonCommutingError otherwise."""
    prod = _product(theta, gamma)
    if prod is None:
        raise NonCommutingError(commutation_witness(theta, gamma))
    return prod


@dataclass(frozen=True)
class StarFamily:
    """A labeled set of distinct equivalences on one universe, checked and
    stored as tuples on construction. ``products``, their ``star_table``, is
    derived on first read; the family is ``closed`` when no entry is missing,
    as the factory ``star_family`` ensures. Duals of some algebras are not
    closed: their semigroup lives on the up-sets' ``SetAlgebra.label_table``."""

    n: int
    members: tuple[Equivalence, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise StructureError(f"duplicate labels in {self.labels}")
        seen = set()
        for i, m in enumerate(self.members):
            if m.n != self.n:
                raise StructureError(f"universe mismatch at member {i}")
            if m in seen:
                raise StructureError(f"duplicate member at index {i}", witness=i)
            seen.add(m)
        if len(self.members) != len(self.labels):
            raise StructureError("member/label count mismatch")

    @cached_property
    def products(self) -> tuple[tuple[int | None, ...], ...]:
        return star_table(self.members)

    @property
    def closed(self) -> bool:
        return unlisted(self.products) is None


def star_table(members) -> tuple[tuple[int | None, ...], ...]:
    """Label table of a list of distinct equivalences, by ``semigroup.table``
    on their star products: entry [i][j] is the index of the star product of
    members i and j, or None when they do not commute or the product is not
    listed."""
    return table(members, [[_product(a, b) for b in members] for a in members])


def star_family(members, labels=None, n: int | None = None) -> StarFamily:
    """A StarFamily of the members, labeled t0, t1, ... by default, on their
    universe, or on ``n`` when there are none, that commutes pairwise and is
    closed under star; the first gap is named, row by row. A family that
    need not be closed is built by ``StarFamily`` itself."""
    members = tuple(members)
    if not members and n is None:
        raise StructureError("empty family needs an explicit universe size")
    if members:
        n = members[0].n
    labels = tuple(f"t{i}" for i in range(len(members))) if labels is None else labels
    family = StarFamily(n, members, labels)
    gap = unlisted(family.products)
    if gap is not None:
        i, j = gap
        w = commutation_witness(members[i], members[j])
        if w is not None:
            raise NonCommutingError(w, f"members {i} and {j} do not commute, witness {w}")
        raise StructureError(f"family not star-closed: missing product of ({i},{j})",
                             witness=gap)
    return family


def star_closure(members, labels=None) -> StarFamily:
    """Least star-closed superset of a commuting family; idempotent."""
    members = list(members)
    if labels is None:
        labels = [f"t{i}" for i in range(len(members))]
    else:
        labels = list(labels)
    for i, a in enumerate(members):
        for j in range(i + 1, len(members)):
            w = commutation_witness(a, members[j])
            if w is not None:
                raise NonCommutingError(w, f"members {i} and {j} do not commute, witness {w}")
    return star_family(*close(members, labels, star, "*", None))


def directedness_witness(family: StarFamily) -> tuple[int, int] | None:
    """First index pair (i, j) such that no member refines both (inclusion
    as relations), or None when the family is downward directed."""
    ms = family.members
    return next(((i, j) for i, a in enumerate(ms) for j, b in enumerate(ms)
                 if not any(c.refines(a) and c.refines(b) for c in ms)), None)


def all_equivalences(n: int) -> list[Equivalence]:
    """Every partition of range(n), by restricted-growth enumeration."""
    out = []

    def rec(prefix, mx):
        if len(prefix) == n:
            out.append(Equivalence(n, prefix))
            return
        for v in range(mx + 2):
            rec(prefix + [v], max(mx, v))

    if n == 0:
        return [Equivalence(0, [])]
    rec([0], 0)
    return out
