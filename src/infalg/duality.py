"""Finite Priestley-style duality between distributive information algebras
and Q-spaces.

A Q-space is a finite ordered set together with a star-closed family of
separating equivalences. Dualizing an algebra takes the meet-irreducible
elements with the inherited order (each stands for the principal prime
ideal it generates) and, per extractor, the equivalence identifying points
whose ideals cut the extractor image in the same trace. Reconstruction
takes all up-sets under reverse inclusion with the restricted saturation
operators. Both round trips are verified, not assumed, each verdict by one
route: reconstruct checks the output's axioms and CDF verdict, not the
set-algebra laws its up-sets meet by construction; round_trip_algebra checks
a bijection against the laws without meets, which a join-preserving bijection
keeps; round_trip_space checks a bijective order isomorphism carrying each
equivalence onto its namesake, which makes it a Q-morphism. The second
routes run against these verdicts in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (AlgebraMorphism, InfoAlgebra, is_distributive_cdf, is_homomorphism,
                      is_isomorphism, verify_axioms)
from .equivalence import Equivalence, StarFamily, saturate, star_family
from .errors import CapExceeded, PreconditionError, StructureError
from .order import (FinitePoset, bits, complements, is_distributive, mask_of,
                    meet_irreducibles, pullback, try_lattice, up_closure, up_sets)
from .report import Report
from .semigroup import first_row_witness, table
from .set_algebra import SetAlgebra

RECONSTRUCT_CAP = 4096


@dataclass(frozen=True)
class QSpace:
    poset: FinitePoset
    eqs: StarFamily

    @property
    def n(self) -> int:
        return self.poset.n

    @cached_property
    def report(self) -> Report:
        """Q-space validity, one separating test per family member; computed
        once and returned by q_space_report, so callers must not mutate it."""
        report = Report()
        report.add("universe_match", self.eqs.n == self.poset.n)
        for lab, theta in zip(self.eqs.labels, self.eqs.members):
            ok, w = check_separating(self.poset, theta)
            report.add(f"separating[{lab}]", ok, w)
        return report


@dataclass(frozen=True)
class QMorphism:
    """Point map alpha (forward) and equivalence-label map omega (backward)."""

    alpha: tuple[int, ...]
    omega: tuple[int, ...]


def check_separating(poset: FinitePoset, theta: Equivalence) -> tuple[bool, object]:
    """Separating test for an equivalence on an ordered set.

    (i) saturation maps every up-set to an up-set; (ii) every inequivalent
    pair is split by some saturated up-set containing exactly one of the
    two. The witness names the failing up-set or pair.
    """
    usets = poset.up_set_index
    saturated = []
    for u in usets:
        image = saturate(theta, u)
        if image not in usets:
            return False, ("saturation_image", u)
        if image == u:
            saturated.append(u)
    w = next(((p, q) for p in range(poset.n) for q in range(p + 1, poset.n)
              if not theta.relates(p, q)
              and not any(((u >> p) & 1) != ((u >> q) & 1) for u in saturated)), None)
    return (True, None) if w is None else (False, ("unseparated_pair", w))


def sentence_saturation_upsets(poset: FinitePoset, theta: Equivalence) -> bool:
    """First-order form of condition (i): saturated principal up-sets are
    up-closed. Literal bounded quantifiers."""
    n = poset.n
    for x in range(n):
        for y in range(n):
            if not poset.le(x, y):
                continue
            for u in range(n):
                if not theta.relates(y, u):
                    continue
                for v in range(n):
                    if not poset.le(u, v):
                        continue
                    if not any(poset.le(x, y2) and theta.relates(y2, v)
                               for y2 in range(n)):
                        return False
    return True


def sentence_separation(poset: FinitePoset, theta: Equivalence) -> bool:
    """First-order form of condition (ii): no two inequivalent points can
    capture each other's saturated principal up-sets."""
    n = poset.n
    for x in range(n):
        for y in range(n):
            if any(poset.le(x, x2) and theta.relates(x2, y)
                   for x2 in range(n)) \
                    and any(poset.le(y, y2) and theta.relates(y2, x)
                            for y2 in range(n)):
                if not theta.relates(x, y):
                    return False
    return True


def sentence_separation_star(poset: FinitePoset, ti: Equivalence,
                             tj: Equivalence) -> bool:
    """Pair form of the separation sentence, guarding the star product.

    The eight bounded quantifiers of the sentence fold into reach masks:
    reach(x) is everything hit by going up from x, across ti, up again and
    across tj; the conclusion asks for a ti-tj path from x to y. Reduces to
    sentence_separation when ti == tj.
    """
    n = poset.n
    reach = [saturate(tj, up_closure(poset, saturate(ti, poset.up[x])))
             for x in range(n)]
    for x in range(n):
        row = saturate(tj, ti.block_mask(x))
        for y in bits(reach[x]):
            if (reach[y] >> x) & 1 and not (row >> y) & 1:
                return False
    return True


def sentence_commutation(ti: Equivalence, tj: Equivalence) -> bool:
    """First-order commutation sentence for a pair of equivalences."""
    n = ti.n
    for x in range(n):
        for u in range(n):
            if not ti.relates(x, u):
                continue
            for y in range(n):
                if not tj.relates(u, y):
                    continue
                if not any(tj.relates(x, u2) and ti.relates(u2, y)
                           for u2 in range(n)):
                    return False
    return True


def q_space_report(space: QSpace) -> Report:
    return space.report


def make_q_space(poset: FinitePoset, eqs: StarFamily) -> QSpace:
    """Validated Q-space; the star family is already commuting and closed."""
    space = QSpace(poset, eqs)
    report = q_space_report(space)
    if not report.ok:
        raise StructureError("not a Q-space:\n" + report.format(), report=report)
    return space


def _dual(a: InfoAlgebra):
    cdf = is_distributive_cdf(a)
    if not cdf.ok:
        raise PreconditionError(f"not a distributive algebra ({cdf.reason})",
                                witness=cdf.witness)
    if len(set(a.extractors)) != len(a.extractors):
        dup = next(arr for arr in a.extractors if a.extractors.count(arr) > 1)
        raise PreconditionError("extractor labels must denote distinct maps; "
                                "dedupe_extractors first", witness=dup)
    points = meet_irreducibles(a.sl)
    poset = a.poset.restrict(points)
    members = []
    for k in range(len(a.extractors)):
        image = mask_of(a.extractors[k])
        members.append(Equivalence(len(points), [a.poset.down[p] & image for p in points]))
    # The trace equivalences of a distributive algebra are each separating,
    # but they need NOT commute pairwise as relations (the smallest
    # counterexample is the 2x2 diamond with a pendant top and its two
    # sublattice retractions); only their saturations restricted to up-sets
    # always form the commuting semigroup. The family is therefore built
    # without the closure requirement and the semigroup structure is kept
    # on the labels.
    eqs = star_family(members, a.labels, n=len(points), require_closure=False)
    space = QSpace(poset, eqs)
    report = q_space_report(space)
    if not report.ok:
        raise StructureError("dual structure is not separating:\n" + report.format(),
                             report=report)
    return space, tuple(points), cdf


def dualize(a: InfoAlgebra) -> QSpace:
    """Dual structure of a distributive algebra: meet-irreducibles with the
    inherited order, one trace equivalence per extractor, each verified
    separating. eqs.closed records whether the relations also form a
    star-semigroup (usually, but not always, the case)."""
    return _dual(a)[0]


def reconstruct(s: QSpace, cap: int = RECONSTRUCT_CAP) -> InfoAlgebra:
    """Algebra of all up-sets of a Q-space under reverse inclusion, with the
    restricted saturation operators. The up-sets form a set algebra by
    construction and by the Q-space report, so only the output's axioms and
    CDF verdict are checked; for a family that is not star-closed they are
    the only check that its saturations commute."""
    fam = up_sets(s.poset)
    if len(fam) > cap:
        raise CapExceeded(f"{len(fam)} up-sets exceed the cap {cap}")
    report = q_space_report(s)
    if not report.ok:
        raise PreconditionError("invalid Q-space:\n" + report.format())
    out = SetAlgebra(s.poset.n, tuple(fam), s.eqs).to_info_algebra()
    axioms = verify_axioms(out)
    if not axioms.ok:
        raise StructureError("reconstructed algebra fails axioms:\n" + axioms.format())
    if not is_distributive_cdf(out).ok:
        raise StructureError("reconstructed algebra is not distributive")
    return out


@dataclass(frozen=True)
class AlgebraRoundTrip:
    space: QSpace
    points: tuple[int, ...]          # carrier elements serving as dual points
    target: InfoAlgebra              # reconstruct(dualize(source))
    morphism: AlgebraMorphism        # verified isomorphism source -> target


def round_trip_algebra(a: InfoAlgebra) -> AlgebraRoundTrip:
    """source -> reconstruct(dualize(source)) with the canonical element map
    x -> (up-set of dual points at or above x); verified isomorphism."""
    space, points, _ = _dual(a)
    target = reconstruct(space)
    index = space.poset.up_set_index
    f = tuple(index[pullback(points, up)] for up in a.poset.up)
    morphism = AlgebraMorphism(f, tuple(range(len(a.extractors))))
    if not is_isomorphism(morphism, a, target):
        raise StructureError("algebra round trip failed to be an isomorphism")
    return AlgebraRoundTrip(space, points, target, morphism)


@dataclass(frozen=True)
class SpaceRoundTrip:
    target: QSpace                   # dualize(reconstruct(source))
    morphism: QMorphism              # verified Q-isomorphism source -> target
    points: tuple[int, ...]          # carrier indices of the target's points


def round_trip_space(s: QSpace) -> SpaceRoundTrip:
    """source -> dualize(reconstruct(source)) via p -> (principal up-set of p
    as a point of the double dual) and the identity on labels; verified
    Q-isomorphism: a bijective order isomorphism carrying each equivalence
    onto its namesake. The Q-morphism laws follow: the two families'
    saturation arrays are then conjugate, so their label tables agree, and
    reconstruct has found them closed under composition.
    """
    algebra = reconstruct(s)
    index = s.poset.up_set_index
    target, points, _ = _dual(algebra)
    n = s.poset.n
    if target.poset.n != n or len(target.eqs.members) != len(s.eqs.members):
        raise StructureError("double dual has different size")
    carrier_of = {c: i for i, c in enumerate(points)}
    lam = tuple(carrier_of.get(index[row]) for row in s.poset.up)
    if None in lam:
        raise StructureError(f"principal up-set of point {lam.index(None)} is not a dual point")
    if sorted(lam) != list(range(n)):
        raise StructureError("space round trip point map is not bijective")
    # row p of each relation against the lam-pullback of row lam[p] of its image
    w = next(((p, q) for p in range(n)
              for q in bits(s.poset.up[p] ^ pullback(lam, target.poset.up[lam[p]]))), None)
    if w is not None:
        raise StructureError(f"order not preserved at {w}")
    w = next(((i, p, q) for i, (theta, ti) in enumerate(zip(s.eqs.members, target.eqs.members))
              for p in range(n)
              for q in bits(theta.block_mask(p) ^ pullback(lam, ti.block_mask(lam[p])))), None)
    if w is not None:
        raise StructureError(f"equivalence correspondence broken at {w}")
    return SpaceRoundTrip(target, QMorphism(lam, tuple(range(len(s.eqs.members)))), points)


def _member_arrays(space: QSpace) -> list[tuple[int, ...]]:
    """Saturation of every family member as a self-map of the up-set list.

    Distinct separating members always give distinct arrays; collisions are
    rejected because they would make label-level composition ambiguous.
    """
    pos = space.poset.up_set_index
    arrays = [tuple(pos[saturate(member, u)] for u in pos)
              for member in space.eqs.members]
    if len(set(arrays)) != len(arrays):
        raise StructureError("ambiguous composition: saturation arrays collide")
    return arrays


def check_q_morphism(m: QMorphism, s: QSpace, t: QSpace) -> Report:
    """Q-morphism laws for (alpha, omega): s -> t.

    alpha maps points forward and must preserve order; omega maps the
    codomain's equivalence labels back and must respect the label-level
    semigroup; the saturation law asks that pulling back a saturated up-set
    equals saturating the pullback, for every codomain up-set and label.
    """
    report = Report()
    ok = (len(m.alpha) == s.poset.n and all(0 <= v < t.poset.n for v in m.alpha)
          and len(m.omega) == len(t.eqs.members)
          and all(0 <= v < len(s.eqs.members) for v in m.omega))
    report.add("maps_total", ok)
    if not ok:
        return report

    w = next(((p, q) for p in range(s.poset.n) for q in bits(s.poset.up[p])
              if not t.poset.le(m.alpha[p], m.alpha[q])), None)
    report.add("alpha_order_preserving", w is None, w)

    # label-level composition through up-set saturation arrays: for a
    # star-closed family it agrees with the star product, for a dual family
    # it is the image of the extractor composition
    tab_s = table(_member_arrays(s))
    tab_t = table(_member_arrays(t))

    def composite(tab, i, j):
        if tab[i][j] is None:
            raise StructureError(f"saturations not closed under composition at ({i},{j})")
        return tab[i][j]

    ks = range(len(t.eqs.members))
    w = next(((i, j) for i in ks for j in ks
              if m.omega[composite(tab_t, i, j)]
              != composite(tab_s, m.omega[i], m.omega[j])), None)
    report.add("omega_semigroup_map", w is None, w)

    # row i over the codomain's up-sets v, named back by v on failure
    ups = tuple(t.poset.up_set_index)
    pulled = [pullback(m.alpha, v) for v in ups]
    w = first_row_witness(
        ((i,), tuple(pullback(m.alpha, saturate(gamma, v)) for v in ups),
         tuple(saturate(s.eqs.members[m.omega[i]], u) for u in pulled))
        for i, gamma in enumerate(t.eqs.members))
    if w is not None:
        w = (w[0], ups[w[1]])
    report.add("saturation_compatible", w is None, w)
    return report


def dual_point_map(f, a: InfoAlgebra, b: InfoAlgebra,
                   points_a: tuple[int, ...], points_b: tuple[int, ...]) -> tuple[int, ...]:
    """Point map of the dual morphism: a dual point of b goes to the
    generator of the preimage ideal, namely the join of everything f sends
    at or below it."""
    alpha = []
    for nu in points_b:
        gen = a.unit
        for x in range(a.n):
            if b.le(f[x], nu):
                gen = a.join(gen, x)
        if gen not in points_a:
            raise StructureError(f"preimage ideal generator {gen} is not meet-irreducible")
        alpha.append(points_a.index(gen))
    return tuple(alpha)


def dualize_morphism(m: AlgebraMorphism, a: InfoAlgebra, b: InfoAlgebra) -> QMorphism:
    """Dual Q-morphism of an algebra homomorphism between distributive
    algebras; runs from the dual of the codomain to the dual of the domain
    and is checked against the Q-morphism laws."""
    hom = is_homomorphism(m, a, b, check_meets=True)
    if not hom.ok:
        raise PreconditionError("not a homomorphism:\n" + hom.format())
    space_a, points_a, _ = _dual(a)
    space_b, points_b, _ = _dual(b)
    alpha = dual_point_map(m.f, a, b, points_a, points_b)
    qm = QMorphism(alpha, tuple(m.g))
    report = check_q_morphism(qm, space_b, space_a)
    if not report.ok:
        raise StructureError("dualized morphism fails the Q-morphism laws:\n"
                             + report.format())
    return qm


def double_dual_element_map(qm: QMorphism, space_a: QSpace, space_b: QSpace) -> tuple[int, ...]:
    """Carrier map between the reconstructed algebras induced by a dual
    point map: an up-set of the domain's dual goes to its alpha-preimage."""
    index_b = space_b.poset.up_set_index
    return tuple(index_b[pullback(qm.alpha, u)] for u in space_a.poset.up_set_index)


def boolean_diagnostics(a: InfoAlgebra) -> Report:
    """Boolean consequences: the dual order is an antichain and every
    principal prime ideal is maximal (only the contradiction lies strictly
    above its generator)."""
    lat = try_lattice(a.sl)
    ok, w = is_distributive(lat)
    if not ok:
        raise PreconditionError(f"not Boolean: not distributive, witness {w}")
    comp, missing = complements(lat)
    if comp is None:
        raise PreconditionError(f"not Boolean: element {missing} has no complement")

    points = meet_irreducibles(lat)
    report = Report()
    w = next(((p, q) for p in points for q in points if p != q and a.le(p, q)), None)
    report.add("dual_antichain", w is None, w)
    w = next((p for p in points
              if a.poset.up[p] != (1 << p) | (1 << a.zero)), None)
    report.add("principal_primes_maximal", w is None, w)
    return report


def make_nontrivial_separating(poset: FinitePoset) -> Equivalence | None:
    """Search for a separating equivalence other than identity and the
    all-relation: one up-set with at least two points as a single block,
    singletons elsewhere. Principal up-sets are scanned first; None is
    returned when no candidate exists (on two-point orders only the two
    trivial equivalences exist at all)."""
    n = poset.n
    if n < 2:
        raise PreconditionError(f"need at least two points, got {n}")
    full = poset.full_mask()
    principal = [poset.up[x] for x in range(n)]
    rest = sorted(set(up_sets(poset)).difference(principal))
    for u in principal + rest:
        if u == full or bin(u).count("1") < 2:
            continue
        labels = [0 if (u >> x) & 1 else x + 1 for x in range(n)]
        theta = Equivalence(n, labels)
        ok, _ = check_separating(poset, theta)
        if ok:
            return theta
    return None
