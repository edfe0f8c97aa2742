"""Atom theory: maximally informative elements, classification, and the
representation of an atomic algebra inside the power set of its atoms."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import AlgebraMorphism, InfoAlgebra
from .equivalence import Equivalence, saturate
from .errors import CapExceeded, PreconditionError
from .order import (complements, glb_of_set, is_distributive, join_semilattice, mask_of, pullback,
                    try_lattice)
from .report import Report

ATOM_POWERSET_LIMIT = 10


def atoms(a: InfoAlgebra) -> tuple[int, ...]:
    """Nonzero elements whose only strict upper bound is the contradiction."""
    want = lambda x: a.poset.up[x] == (1 << x) | (1 << a.zero)
    return tuple(x for x in range(a.n) if x != a.zero and want(x))


@dataclass(frozen=True)
class AtomReport:
    atoms: tuple[int, ...]
    at: tuple[int, ...]              # per carrier element, mask over atom positions
    atomic: bool
    atomistic: bool
    completely_atomistic: bool


def classify(a: InfoAlgebra) -> AtomReport:
    """Atomic / atomistic / completely atomistic classification.

    Atomistic means the greatest lower bound of At(x) exists in the poset
    and equals x, for every nonzero x; completely atomistic additionally
    realizes every nonempty atom set as some At(x).
    """
    ats = atoms(a)
    at = tuple(pullback(ats, up) for up in a.poset.up)
    nonzero = [x for x in range(a.n) if x != a.zero]
    atomic = all(at[x] != 0 for x in nonzero)
    atom_mask = mask_of(ats)
    atomistic = all(glb_of_set(a.poset, a.poset.up[x] & atom_mask) == x for x in nonzero)
    # atomistic, each At(x) is a nonempty atom set: all are realized iff as many
    completely = atomistic and len({at[x] for x in nonzero}) == (1 << len(ats)) - 1
    return AtomReport(ats, at, atomic, atomistic, completely)


@dataclass(frozen=True)
class AtomRepresentation:
    atoms: tuple[int, ...]
    target: InfoAlgebra              # full power set of the atoms
    morphism: AlgebraMorphism        # x -> At(x), label -> same label
    is_embedding: bool
    is_isomorphism: bool


def atom_representation(a: InfoAlgebra) -> AtomRepresentation:
    """Map an atomic algebra into the power set of its atoms.

    The target carrier index coincides with the atom-set mask, ordered by
    reverse inclusion; the extractors are the saturations of the kernels
    restricted to the atoms. A homomorphism: x -> At(x) preserves joins and
    bounds; atoms alpha >= e(beta) have e(alpha) = e(beta), as e(alpha) >=
    e(beta) and the combination law makes e(beta v e(alpha)) = e(alpha) not
    the zero; so an atom beta >= e(x) lies in the saturation of At(x), via
    an atom above e(beta) v x, and At(e(x)) is that saturation. An
    embedding exactly when the source is atomistic; onto exactly when
    completely atomistic.
    """
    report = classify(a)
    if not report.atomic:
        bad = next(x for x in range(a.n) if x != a.zero and report.at[x] == 0)
        raise PreconditionError(f"not atomic: element {bad} lies below no atom",
                                witness=bad)
    ats = report.atoms
    m = len(ats)
    if m > ATOM_POWERSET_LIMIT:
        raise CapExceeded(f"power set of {m} atoms exceeds the limit {ATOM_POWERSET_LIMIT}")
    size = 1 << m
    # carrier index == atom-set mask; combination is intersection
    sl = join_semilattice([[i & j for j in range(size)] for i in range(size)], size - 1, 0)
    restricted = [Equivalence(m, [a.apply(k, al) for al in ats])
                  for k in range(len(a.extractors))]
    extractors = tuple(tuple(saturate(eq, i) for i in range(size)) for eq in restricted)
    ks = range(len(a.extractors))
    composition = tuple(tuple(a.compose_label(k, l) for l in ks) for k in ks)
    target = InfoAlgebra(sl, extractors, a.labels, composition)
    morphism = AlgebraMorphism(tuple(report.at), tuple(ks))
    injective = len(set(morphism.f)) == a.n
    onto = len(set(morphism.f)) == size
    return AtomRepresentation(ats, target, morphism, injective, injective and onto)


def check_complete_atomistic_boolean(a: InfoAlgebra) -> Report:
    """Consequences of complete atomisticity: the carrier is a Boolean lattice
    and x -> At(x) preserves joins, meets and complements.

    Joins are checked on pairs x < y: the empty join and single elements
    cannot fail, and a larger join is a fold of binary ones. Meets are
    checked over all pairs, complements elementwise.
    """
    report = classify(a)
    if not report.completely_atomistic:
        raise PreconditionError("not completely atomistic")
    ats, at = report.atoms, report.at
    full = (1 << len(ats)) - 1
    out = Report()

    lat = try_lattice(a.sl)
    ok, w = is_distributive(lat)
    out.add("distributive", ok, w)
    comp, missing = complements(lat)
    out.add("complemented", comp is not None, missing)

    w = next(((x, y) for x, y in combinations(range(a.n), 2)
              if at[a.join(x, y)] != at[x] & at[y]), None)
    out.add("at_preserves_joins", w is None, w)

    w = next(((x, y) for x in range(a.n) for y in range(a.n)
              if at[lat.meet[x][y]] != at[x] | at[y]), None)
    out.add("at_preserves_meets", w is None, w)

    if comp is not None:
        w = next((x for x in range(a.n) if at[comp[x]] != full & ~at[x]), None)
        out.add("at_preserves_complements", w is None, w)
    return out
