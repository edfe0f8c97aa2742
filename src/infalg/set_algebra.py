"""Concrete set algebras: intersection-closed subset families with saturation
operators of a compatible star-semigroup of equivalences.

Information order on subsets is reverse inclusion; combination is set
intersection, the unit is the full universe, the zero is the empty set.
A set algebra owns its members' saturation arrays and their label-level
composition table, which Q-space reconstruction and Q-morphism checks read.
``represent`` decides on masks that an algebra is isomorphic to a set algebra;
``gen_multivariate`` and ``build_block_union_algebra`` need no set-algebra check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import AlgebraMorphism, InfoAlgebra
from .equivalence import Equivalence, StarFamily, directedness_witness, saturate, star_family
from .errors import DEFAULT_CAP, CapExceeded, NotDirectedError, StructureError
from .order import bits, join_semilattice
from .report import Report
from .semigroup import compose, table, unlisted


@dataclass(frozen=True)
class SetAlgebra:
    n: int
    family: tuple[int, ...]
    eqs: StarFamily

    @cached_property
    def saturations(self) -> tuple[tuple[int, ...], ...]:
        """Each member's saturation as a self-map of family positions;
        StructureError names the first (label, mask) saturated outside the
        family, as check_set_algebra's saturation_compatible does."""
        pos = {mask: i for i, mask in enumerate(self.family)}
        arrays = tuple(tuple(pos.get(saturate(theta, x)) for x in self.family)
                       for theta in self.eqs.members)
        w = next(((lab, self.family[arr.index(None)])
                  for lab, arr in zip(self.eqs.labels, arrays) if None in arr), None)
        if w is not None:
            raise StructureError(f"saturation of {w[1]} by {w[0]} is not a member", witness=w)
        return arrays

    @cached_property
    def label_table(self) -> tuple[tuple[int, ...], ...]:
        """Label-level composition: the star products of a closed family, else
        the composed saturation arrays resolved against the listed ones, which
        must be distinct (separating members' always are) and closed. Only a
        family that is not closed has its arrays computed."""
        if self.eqs.closed:
            return self.eqs.products
        arrays = self.saturations
        if len(set(arrays)) != len(arrays):
            raise StructureError("cannot resolve composition: saturation arrays collide")
        tab = table(arrays)
        w = unlisted(tab)
        if w is not None:
            raise StructureError(f"saturations not closed under composition at ({w[0]},{w[1]})",
                                 witness=w)
        return tab

    def to_info_algebra(self) -> InfoAlgebra:
        """The abstract algebra: carrier indexed by family position, the
        saturations as extractors, composed by ``label_table``."""
        fam = self.family
        pos = {mask: i for i, mask in enumerate(fam)}
        join = tuple(tuple(map(pos.__getitem__, map(fi.__and__, fam))) for fi in fam)
        sl = join_semilattice(join, pos[(1 << self.n) - 1], pos[0])
        return InfoAlgebra(sl, self.saturations, self.eqs.labels, self.label_table)


def check_set_algebra(n: int, family, eqs: StarFamily) -> Report:
    fam = tuple(family)
    full = (1 << n) - 1
    report = Report()
    report.add("universe_match", eqs.n == n, (eqs.n, n))
    report.add("contains_bounds", 0 in fam and full in fam)
    members = set(fam)
    report.add("no_duplicates", len(members) == len(fam))
    # only a row that leaves the family is rescanned for its first b
    w = next(((a, next(b for b in fam if a & b not in members))
              for a in fam if not members.issuperset(map(a.__and__, fam))), None)
    report.add("intersection_closed", w is None, w)
    w = next(((lab, mask) for lab, theta in zip(eqs.labels, eqs.members)
              for mask in fam if saturate(theta, mask) not in members), None)
    report.add("saturation_compatible", w is None, w)
    return report


def build_set_algebra(n: int, family, eqs: StarFamily) -> SetAlgebra:
    """Validated set algebra; rejection carries the witness subset or pair."""
    check_set_algebra(n, family, eqs).require("not a set algebra")
    return SetAlgebra(n, tuple(sorted(set(family))), eqs)


def represent(a: InfoAlgebra, image, sa: SetAlgebra) -> AlgebraMorphism | None:
    """The isomorphism x -> (position of image[x]) from a onto sa, labels fixed,
    or None, by is_isomorphism's laws on the masks: image is a bijection onto
    the family sending joins to intersections, the bounds to the full and
    empty sets and extractor k to the saturation by member k, and the label
    tables are equal. Onto a family these give check_set_algebra's laws."""
    f = tuple(map({mask: i for i, mask in enumerate(sa.family)}.get, image))
    ks, ta, tb = range(len(a.extractors)), a.label_table, sa.label_table
    ok = (None not in f and sorted(f) == list(range(len(sa.family)))
          and image[a.unit] == (1 << sa.n) - 1 and image[a.zero] == 0
          and all(compose(image, row) == tuple(map(u.__and__, image))
                  for u, row in zip(image, a.sl.join))
          and len(tb) == len(ks) and all(ta[k][l] == tb[k][l] for k in ks for l in ks)
          and all(image[e[x]] == saturate(theta, u)
                  for e, theta in zip(a.extractors, sa.eqs.members) for x, u in enumerate(image)))
    return AlgebraMorphism(f, tuple(ks)) if ok else None


def build_block_union_algebra(eqs: StarFamily) -> SetAlgebra:
    """Family of all unions of blocks of single members: a set algebra exactly
    when the family is downward directed, as a saturation is a union of
    blocks and, if theta_k refines theta_i and theta_j, unions of their blocks
    meet in a union of theta_k-blocks. A non-directed family is rejected with
    a witness pair, and a member of b blocks when its 2^b unions would exceed
    ``DEFAULT_CAP``."""
    w = directedness_witness(eqs)
    if w is not None:
        raise NotDirectedError(w)
    family = set()
    for theta in eqs.members:
        nb = theta.num_blocks
        if 1 << nb > DEFAULT_CAP:
            raise CapExceeded(f"member with {nb} blocks exceeds union cap {DEFAULT_CAP}")
        for pick in range(1 << nb):
            family.add(sum(theta.blocks[i] for i in bits(pick)) if pick else 0)
    if not family:  # no member, so no bound is a union; the check names it
        return build_set_algebra(eqs.n, (), eqs)
    return SetAlgebra(eqs.n, tuple(sorted(family)), eqs)


@dataclass(frozen=True)
class UpsetRepresentation:
    """Principal up-set representation of an algebra over its nonzero carrier."""

    ground: tuple[int, ...]          # nonzero carrier elements, in index order
    set_algebra: SetAlgebra
    morphism: AlgebraMorphism        # isomorphism from the source

    @cached_property
    def algebra(self) -> InfoAlgebra:
        """The set algebra as an abstract algebra, built on first read."""
        return self.set_algebra.to_info_algebra()


def principal_upset_representation(a: InfoAlgebra) -> UpsetRepresentation:
    """Represent an algebra by truncated principal up-sets of nonzero elements.

    The universe is the carrier minus the contradiction; the family consists
    of the truncated up-sets plus the empty set; the equivalences are the
    extractor kernels restricted to the nonzero part (the kernel class of
    the contradiction is always the singleton, so nothing is lost). The
    morphism is decided by ``represent``; a family that fails it goes to
    build_set_algebra, which names a broken set-algebra law.
    """
    zero = a.zero
    ground = tuple(x for x in range(a.n) if x != zero)
    m = len(ground)
    # truncated up-sets over ground positions: y below the zero, y - 1 above
    # it; the zero's own is the empty set
    below = (1 << zero) - 1
    upset = [up & below | up >> (zero + 1) << zero for up in a.poset.up]
    kernels = [Equivalence(m, compose(e, ground)) for e in a.extractors]
    sa = SetAlgebra(m, tuple(sorted(set(upset))), star_family(kernels, a.labels, n=m))
    morphism = represent(a, upset, sa)
    if morphism is None:
        build_set_algebra(m, sa.family, sa.eqs)
        raise StructureError("principal up-set representation failed to be an isomorphism")
    return UpsetRepresentation(ground, sa, morphism)
