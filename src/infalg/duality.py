"""Finite Priestley-style duality between distributive information algebras
and Q-spaces.

A Q-space is a finite ordered set together with a star-closed family of
separating equivalences. Dualizing an algebra takes the meet-irreducible
elements with the inherited order (each stands for the principal prime ideal
it generates) and, per extractor e, the kernel of e on those points. That is
Cignoli's relation (Discrete Math. 96, 1991), ideals cutting e's image in the
same trace: e is monotone, idempotent and below the identity, so the trace
of the ideal of p is that of e(p), its greatest element. Reconstruction takes all
up-sets under reverse inclusion with the restricted saturation operators,
composed by the up-set set algebra's ``label_table``, which a Q-morphism's
omega must also respect. Separation and the Q-morphism saturation law are
decided on the principal up-sets, of which every up-set is a union. Both
round trips are built from the proofs, each verdict by one route, on masks:
reconstruct needs only a label table that resolves, as the up-sets form a
distributive lattice (Birkhoff) whose saturations meet every other axiom by
construction and commute once their composites are listed;
round_trip_algebra checks the canonical map by set_algebra.represent, on
the laws without meets, which a join-preserving bijection keeps;
round_trip_space returns the relabeling that reads the double dual off the
principal up-sets. Tables are built only for an algebra that is returned or
written; the table routes run against these verdicts in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .algebra import AlgebraMorphism, InfoAlgebra, is_distributive_cdf, is_homomorphism
from .equivalence import Equivalence, StarFamily, saturate
from .errors import DEFAULT_CAP, PreconditionError, StructureError
from .order import (FinitePoset, bits, check_upset_cap, complements, is_distributive, mask_of,
                    meet_irreducibles, pullback, try_lattice, up_closure, up_sets)
from .report import Report
from .semigroup import compose
from .set_algebra import SetAlgebra, represent


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
        match = self.eqs.n == self.poset.n
        report.add("universe_match", match, (self.eqs.n, self.poset.n))
        if not match:
            return report
        for lab, theta in zip(self.eqs.labels, self.eqs.members):
            ok, w = check_separating(self.poset, theta)
            report.add(f"separating[{lab}]", ok, w)
        return report

    @cached_property
    def up_set_algebra(self) -> SetAlgebra:
        """The set algebra of all up-sets, unchecked; reconstruct certifies
        it, and builds its tables."""
        return SetAlgebra(self.n, tuple(up_sets(self.poset)), self.eqs)


@dataclass(frozen=True)
class QMorphism:
    """Point map alpha (forward) and equivalence-label map omega (backward)."""

    alpha: tuple[int, ...]
    omega: tuple[int, ...]


def check_separating(poset: FinitePoset, theta: Equivalence) -> tuple[bool, object]:
    """Separating test for an equivalence on an ordered set.

    (i) saturation maps every up-set to an up-set; (ii) every inequivalent
    pair is split by some saturated up-set containing exactly one of the
    two. Both are decided on the principal up-sets: saturation preserves
    unions, so the least up-set failing (i) is principal, and given (i)
    saturating up[p] gives the least saturated up-set holding p, so p and q
    are unseparated iff theirs coincide. The witness names the failing
    up-set or pair. Given (i), on a partial order an unseparated pair p, q
    yields another, p' > p and q' > q with p' theta q and q' theta p; so
    (ii) follows and only a preorder has an unseparated_pair.
    """
    least = [saturate(theta, row) for row in poset.up]
    bad = [row for row, s in zip(poset.up, least) if up_closure(poset, s) != s]
    if bad:
        return False, ("saturation_image", min(bad))
    w = next(((p, q) for p in range(poset.n) for q in range(p + 1, poset.n)
              if least[p] == least[q] and not theta.relates(p, q)), None)
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
    q_space_report(space).require("not a Q-space")
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
    eqs = _kernels([compose(e, points) for e in a.extractors], a.labels, len(points))
    return QSpace(a.poset.restrict(points), eqs), tuple(points)


def _kernels(rows, labels, n: int) -> StarFamily:
    """The dual family: member k is the kernel of row k, extractor k's values
    at the n dual points. These are separating but need NOT commute as
    relations (the smallest counterexample is the 2x2 diamond with a pendant
    top and its two sublattice retractions); only their saturations of
    up-sets always do, so the family need not be closed and its semigroup is
    kept on the labels."""
    return StarFamily(n, [Equivalence(n, row) for row in rows], labels)


def dualize(a: InfoAlgebra) -> QSpace:
    """Dual structure of a distributive algebra: meet-irreducibles with the
    inherited order, one trace equivalence per extractor, separating as
    Cignoli's relation is. eqs.closed records whether the relations also
    form a star-semigroup (usually, but not always, the case)."""
    return _dual(a)[0]


def _certify(s: QSpace, cap: int | None) -> SetAlgebra:
    """The up-set algebra of a valid Q-space within the cap (None: none),
    certified by a label table that resolves. Its up-sets form a
    distributive lattice (Birkhoff; Davey & Priestley, Introduction to
    Lattices and Order, 2002, ch. 5); each saturation is an up-set map by
    the Q-space report, preserves unions, hence meets, and meets every
    other axiom on any subset, so the saturations need only commute. A
    star-closed family's table holds star products of commuting relations.
    Otherwise each saturation is a closure operator on the up-sets, and if
    c, d and c.d are, y = c(d(x)) gives y <= d(y) <= c(d(y)) = y, and
    c(x) <= y gives d(c(x)) <= d(y) = y: d.c <= c.d. A table that resolves
    lists both composites, so they are equal; it raises StructureError when
    the saturations collide or are not closed under composition."""
    check_upset_cap(s.poset, cap)
    q_space_report(s).require("invalid Q-space", PreconditionError)
    s.up_set_algebra.label_table  # raises unless the table resolves
    return s.up_set_algebra


def reconstruct(s: QSpace, cap: int = DEFAULT_CAP) -> InfoAlgebra:
    """Algebra of all up-sets of a Q-space under reverse inclusion, with the
    restricted saturation operators, certified on the principal up-sets
    before its tables are built; for a family that is not star-closed the
    certificate is that its label table resolves."""
    return _certify(s, cap).to_info_algebra()


@dataclass(frozen=True)
class AlgebraRoundTrip:
    space: QSpace
    points: tuple[int, ...]          # carrier elements serving as dual points
    morphism: AlgebraMorphism        # verified isomorphism source -> target

    @cached_property
    def target(self) -> InfoAlgebra:
        """reconstruct(dualize(source)), built on first read."""
        return self.space.up_set_algebra.to_info_algebra()


def round_trip_algebra(a: InfoAlgebra) -> AlgebraRoundTrip:
    """source -> reconstruct(dualize(source)) by x -> (up-set of dual points at
    or above x), an isomorphism decided by ``represent`` on the masks. No
    cap applies: the dual's up-sets are as many as the source's elements
    (Birkhoff), which it already holds."""
    space, points = _dual(a)
    image = [pullback(points, up) for up in a.poset.up]
    morphism = represent(a, image, _certify(space, None))
    if morphism is None:
        raise StructureError("algebra round trip failed to be an isomorphism")
    return AlgebraRoundTrip(space, points, morphism)


@dataclass(frozen=True)
class SpaceRoundTrip:
    target: QSpace                   # dualize(reconstruct(source))
    morphism: QMorphism              # Q-isomorphism source -> target, by construction
    points: tuple[int, ...]          # carrier indices of the target's points


def round_trip_space(s: QSpace, cap: int = DEFAULT_CAP) -> SpaceRoundTrip:
    """source -> dualize(reconstruct(source)), read off the masks once
    reconstruct's certificate holds: the dual points are the principal
    up-sets, at their up_set_index positions, ordered as their points, and
    member k is the kernel there of the saturation by member k of s. The
    morphism is the relabeling this builds, p -> (position of up[p]) with
    the identity on labels, an order isomorphism; a separating theta
    relates p and q iff it saturates up[p] and up[q] alike ((ii) one way,
    (i) the other), so each member goes onto its namesake. A preorder has
    a smaller double dual. ``cap`` bounds the up-sets. No table is built."""
    _certify(s, cap)
    poset, index = s.poset, s.poset.up_set_index
    if len(poset.up_index) < s.n:
        raise StructureError("double dual has different size")
    order = sorted(range(s.n), key=lambda p: index[poset.up[p]])
    rows = [tuple(saturate(theta, poset.up[p]) for p in order) for theta in s.eqs.members]
    lam = tuple(sorted(range(s.n), key=order.__getitem__))  # the inverse of order
    return SpaceRoundTrip(QSpace(poset.restrict(order), _kernels(rows, s.eqs.labels, s.n)),
                          QMorphism(lam, tuple(range(len(s.eqs.members)))),
                          tuple(index[poset.up[p]] for p in order))


def check_q_morphism(m: QMorphism, s: QSpace, t: QSpace) -> Report:
    """Q-morphism laws for (alpha, omega): s -> t.

    alpha maps points forward and must preserve order; omega maps the
    codomain's equivalence labels back and must respect the label-level
    semigroup; the saturation law asks that pulling back a saturated up-set
    equals saturating the pullback, for every codomain label and up-set;
    both sides preserve unions, so the principal up-sets decide it.
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

    for x in (s, t):  # star-closed: read without up-sets
        if not x.eqs.closed:
            check_upset_cap(x.poset, DEFAULT_CAP)
    tab_s, tab_t = (x.eqs.products if x.eqs.closed else x.up_set_algebra.label_table
                    for x in (s, t))
    ks = range(len(t.eqs.members))
    w = next(((i, j) for i in ks for j in ks
              if m.omega[tab_t[i][j]] != tab_s[m.omega[i]][m.omega[j]]), None)
    report.add("omega_semigroup_map", w is None, w)

    ups = sorted(set(t.poset.up))
    w = next(((i, v) for i, gamma in enumerate(t.eqs.members) for v in ups
              if pullback(m.alpha, saturate(gamma, v))
              != saturate(s.eqs.members[m.omega[i]], pullback(m.alpha, v))), None)
    report.add("saturation_compatible", w is None, w)
    return report


def dual_point_map(f, a: InfoAlgebra, b: InfoAlgebra,
                   points_a: tuple[int, ...], points_b: tuple[int, ...]) -> tuple[int, ...]:
    """Point map of the dual morphism: a dual point of b goes to the
    generator of the preimage ideal, namely the join of everything f sends
    at or below it."""
    alpha = []
    for nu in points_b:
        gen = reduce(a.join, (x for x in range(a.n) if b.le(f[x], nu)), a.unit)
        if gen not in points_a:
            raise StructureError(f"preimage ideal generator {gen} is not meet-irreducible",
                                 witness=gen)
        alpha.append(points_a.index(gen))
    return tuple(alpha)


def dualize_morphism(m: AlgebraMorphism, a: InfoAlgebra, b: InfoAlgebra) -> QMorphism:
    """Dual Q-morphism of an algebra homomorphism between distributive
    algebras, from the dual of the codomain to the dual of the domain: a
    Q-morphism by the duality (Clark & Davey, Natural Dualities, 1998)."""
    is_homomorphism(m, a, b, check_meets=True).require("not a homomorphism", PreconditionError)
    space_a, points_a = _dual(a)
    space_b, points_b = _dual(b)
    alpha = dual_point_map(m.f, a, b, points_a, points_b)
    return QMorphism(alpha, tuple(m.g))


def double_dual_element_map(qm: QMorphism, space_a: QSpace, space_b: QSpace) -> tuple[int, ...]:
    """Carrier map between the reconstructed algebras induced by a dual
    point map: an up-set of the domain's dual goes to its alpha-preimage,
    which StructureError names when it is not an up-set, as it names the
    first index where alpha is not a map into range(space_a.n)."""
    alpha, n = qm.alpha, space_b.n
    if len(alpha) != n:
        raise StructureError(f"alpha has length {len(alpha)}, expected {n}",
                             witness=min(len(alpha), n))
    i = next((i for i, v in enumerate(alpha) if not 0 <= v < space_a.n), None)
    if i is not None:
        raise StructureError(f"alpha[{i}] = {alpha[i]} is outside range({space_a.n})", witness=i)
    index_a, index_b = (check_upset_cap(x.poset, DEFAULT_CAP) for x in (space_a, space_b))
    f = tuple(map(index_b.get, (pullback(alpha, u) for u in index_a)))
    if None in f:
        u = list(index_a)[f.index(None)]
        raise StructureError(f"preimage of up-set {u} is not an up-set", witness=u)
    return f


def boolean_diagnostics(a: InfoAlgebra) -> Report:
    """Boolean consequences: the dual order is an antichain and every
    principal prime ideal is maximal (only the contradiction lies strictly
    above its generator)."""
    lat = try_lattice(a.sl)
    ok, w = is_distributive(lat)
    if not ok:
        raise PreconditionError(f"not Boolean: not distributive, witness {w}", witness=w)
    comp, missing = complements(lat)
    if comp is None:
        raise PreconditionError(f"not Boolean: element {missing} has no complement",
                                witness=missing)

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
    all-relation: one up-set u of two points or more, short of the whole
    set, as a single block, singletons elsewhere. Saturation adds u or
    nothing to an up-set, so (i) holds, and u separates iff it holds every
    point of a shared up row (none on a partial order). The principal
    up-sets are tried, then the unions of two with the shared rows, in mask
    order: each separating block holds one, so no up-set is listed. None
    when no candidate exists (on two-point orders, for one)."""
    n = poset.n
    if n < 2:
        raise PreconditionError(f"need at least two points, got {n}")
    full, up = poset.full_mask(), poset.up

    def candidates():  # the unions are formed only if no principal up-set separates
        yield from up
        last = poset.up_index  # a row's last point: the others share its row
        shared = up_closure(poset, mask_of(p for p, row in enumerate(up) if last[row] != p))
        yield from sorted(up[p] | up[q] | shared for p in range(n) for q in range(p + 1, n))

    for u in candidates():
        if u == full or bin(u).count("1") < 2:
            continue
        theta = Equivalence(n, [0 if (u >> x) & 1 else x + 1 for x in range(n)])
        if check_separating(poset, theta)[0]:
            return theta
    return None
