"""Reference definitions for the test oracles: each concept written once,
literally, on plain data, from the standard library alone.

Nothing here imports ``infalg`` (``tests/source_checks.py`` holds this file
to its stdlib-only rule), so a defect in a library primitive cannot sit on
both sides of an oracle comparison. Each law is a loop over its variables
in lexicographic order, so a first witness is the least one. Structures
are the fields the package stores: a subset is a mask; an order is its up
rows, bit b of ``up[a]`` set iff a <= b, the unit at the bottom and the
zero (contradiction) at the top; a map is a tuple of images, and
``compose(f, g)`` applies g first; an equivalence is a tuple of block
labels; an algebra is (join, unit, zero, extractors, composition), the
last None where the label table is read off the extractors; a Q-space is
(up rows, members). Costs grow as n^3 or 2^n, and ``isomorphisms`` tries
all n! permutations for n <= 6. Derived tables are cached by value (label
tables, one per family, only the most recent ones), so those functions
take tuples, and callers must not mutate what they return.
"""

from functools import cache, lru_cache
from itertools import permutations


def members(m):
    """The points of a mask, ascending."""
    return [x for x in range(m.bit_length()) if m >> x & 1]


def mask(xs):
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def compose(f, g):
    return tuple(f[x] for x in g)


def inverse(f):
    return tuple(sorted(range(len(f)), key=f.__getitem__))


def holds(items):
    """Whether every (name, ok, witness) item holds."""
    return all(ok for _, ok, _ in items)


def canonical(labels):
    """Block labels renumbered 0, 1, ... by first occurrence."""
    first = {}
    return tuple(first.setdefault(lab, len(first)) for lab in labels)


# Readers of the package's structures: only fields it stores, never a
# derived table.

def algebra_of(a):
    return a.sl.join, a.unit, a.zero, a.extractors, a.composition


def space_of(s):
    return s.poset.up, tuple(theta.block_of for theta in s.eqs.members)


# Orders and lattices

def le(up, a, b):
    return up[a] >> b & 1 == 1


@cache
def transpose(up):
    """The down rows of an order: the up rows of its dual."""
    return tuple(mask(b for b in range(len(up)) if le(up, b, a)) for a in range(len(up)))


def up_rows(rows):
    """The up rows of a boolean order table."""
    return tuple(mask(b for b, v in enumerate(row) if v) for row in rows)


def order_witnesses(rows):
    """The first failures of reflexivity, antisymmetry and transitivity of a
    boolean table, each None where the law holds."""
    xs = range(len(rows))
    return (next((a for a in xs if not rows[a][a]), None),
            next(((a, b) for a in xs for b in xs if a != b and rows[a][b] and rows[b][a]), None),
            next(((a, b, c) for a in xs for b in xs for c in xs
                  if rows[a][b] and rows[b][c] and not rows[a][c]), None))


@cache
def order_of(join):
    """The up rows a join table induces: a <= b iff a \\/ b = b."""
    return tuple(mask(b for b, j in enumerate(row) if j == b) for row in join)


def glb(up, xs):
    """The greatest lower bound of the points xs, or None: the lower bound
    that every lower bound lies below. Of no point, the top."""
    down, below = transpose(up), (1 << len(up)) - 1
    for x in xs:
        below &= down[x]
    return next((c for c in members(below) if below & ~down[c] == 0), None)


def lub(up, xs):
    """The least upper bound: the greatest lower bound in the dual order."""
    return glb(transpose(up), xs)


@cache
def meet_table(join):
    up = order_of(join)
    return tuple(tuple(glb(up, (a, b)) for b in range(len(up))) for a in range(len(up)))


def homomorphism_witness(f, op_a, op_b):
    """The first (x, y) with f(x . y) != f(x) . f(y), or None."""
    xs = range(len(op_a))
    return next(((x, y) for x in xs for y in xs if f[op_a[x][y]] != op_b[f[x]][f[y]]), None)


def associative_witness(join):
    xs = range(len(join))
    return next(((a, b, c) for a in xs for b in xs for c in xs
                 if join[join[a][b]][c] != join[a][join[b][c]]), None)


@cache
def distributive_witness(join):
    """The first (a, b, c) with a /\\ (b \\/ c) != (a /\\ b) \\/ (a /\\ c), or None."""
    meet, xs = meet_table(join), range(len(join))
    for a in xs:
        for b in xs:
            for c in xs:
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return a, b, c
    return None


def meet_irreducibles(join):
    """The elements but the top that are the meet of no two others."""
    meet, xs = meet_table(join), range(len(join))
    top = glb(order_of(join), ())
    return [a for a in xs if a != top
            and all(a in (b, c) for b in xs for c in xs if meet[b][c] == a)]


def upper_covers(up, a):
    """The points b > a with no point strictly between."""
    strict = up[a] & ~(1 << a)
    return [b for b in members(strict)
            if not any(c != b and le(up, c, b) for c in members(strict))]


def semilattice_items(join, unit, zero):
    """The (name, ok, witness) items of a join table: semigroup laws and
    bounds, the order a <= b iff a \\/ b = b, and, when that is a partial
    order and the table commutative and idempotent, every entry its lub."""
    xs = range(len(join))
    idem = next((a for a in xs if join[a][a] != a), None)
    comm = next(((a, b) for a in xs for b in xs if join[a][b] != join[b][a]), None)
    laws = [("idempotent", idem), ("commutative", comm), ("associative", associative_witness(join)),
            ("unit_neutral", next((a for a in xs if join[a][unit] != a), None)),
            ("zero_absorbing", next((a for a in xs if join[a][zero] != zero), None))]
    rows = [[join[a][b] == b for b in xs] for a in xs]
    order = order_witnesses(rows)
    laws += zip(("reflexive", "antisymmetric", "transitive"), order)
    if order == (None, None, None) and idem is None and comm is None:
        up = up_rows(rows)
        laws.append(("join_is_least_upper_bound",
                     next(((a, b) for a in xs for b in xs if lub(up, (a, b)) != join[a][b]), None)))
    return [(name, w is None, w) for name, w in laws]


def automorphisms(up):
    """The permutations of the points that preserve and reflect the order."""
    xs = range(len(up))
    return [p for p in permutations(xs)
            if all(le(up, a, b) == le(up, p[a], p[b]) for a in xs for b in xs)]


# Algebras

@lru_cache(maxsize=256)
def label_table(arrays):
    """Entry [k][l]: the first index of compose(arrays[k], arrays[l]), or
    None when that composite is not listed."""
    arrays = list(arrays)
    return tuple(tuple(arrays.index(c) if c in arrays else None
                       for c in (compose(f, g) for g in arrays)) for f in arrays)


def closed_subsets(tab):
    """Sorted masks of the nonempty subsets closed under tab, where it
    resolves and commutes, by a breadth-first search with no canonicity test."""

    def close(subset):
        while True:
            if any(tab[a][b] is None or tab[a][b] != tab[b][a] for a in subset for b in subset):
                return None
            products = {tab[a][b] for a in subset for b in subset}
            if products <= subset:
                return subset
            subset |= products

    found, frontier = set(), [frozenset()]
    while frontier:
        grown = {close(s | {i}) for s in frontier for i in range(len(tab)) if i not in s}
        frontier = [s for s in grown - found if s is not None]
        found.update(frontier)
    return sorted(map(mask, found))


def labels_of(a):
    """The algebra's label table: the supplied one, else the derived one."""
    return a[4] if a[4] is not None else label_table(a[3])


def axioms(a):
    """The first witness of each extraction axiom, None where it holds."""
    join, unit, zero, e, composition = a
    ks, xs = range(len(e)), range(len(join))
    out = {
        "zero_fixed": next((k for k in ks if e[k][zero] != zero), None),
        "extraction_dominated": next(((k, x) for k in ks for x in xs
                                      if join[e[k][x]][x] != x), None),
        "extraction_combination": next(((k, x, y) for k in ks for x in xs for y in xs
                                        if e[k][join[e[k][x]][y]] != join[e[k][x]][e[k][y]]),
                                       None),
        "extractors_commute": next(((k, l, x) for k in ks for l in ks for x in xs
                                    if e[k][e[l][x]] != e[l][e[k][x]]), None),
        "extraction_idempotent": next(((k, x) for k in ks for x in xs
                                       if e[k][e[k][x]] != e[k][x]), None),
        "unit_fixed": next((k for k in ks if e[k][unit] != unit), None),
        "composition_closed": next(((k, l) for k, row in enumerate(label_table(e))
                                    for l, c in enumerate(row) if c is None), None),
    }
    if composition is not None:
        out["composition_table_consistent"] = next(
            ((k, l) for k in ks for l in ks if e[composition[k][l]] != compose(e[k], e[l])), None)
    return out


def cdf(a):
    """(ok, reason, witness): the lattice is distributive, and every
    extractor preserves meets."""
    join, extractors = a[0], a[3]
    w = distributive_witness(join)
    if w is not None:
        return False, "not_distributive", w
    meet = meet_table(join)
    w = next(((k, *w) for k, e in enumerate(extractors)
              if (w := homomorphism_witness(e, meet, meet)) is not None), None)
    return (True, None, None) if w is None else (False, "extractor_breaks_meets", w)


def homomorphism_items(f, g, a, b, check_meets=None):
    """The (name, ok, witness) items of (f, g): a -> b; meets are checked
    when asked, or, by default, when both algebras pass ``cdf``."""
    ka, kb = len(a[3]), len(b[3])
    total = (len(f) == len(a[0]) and all(0 <= v < len(b[0]) for v in f)
             and len(g) == ka and all(0 <= v < kb for v in g))
    items = [("maps_total", total, None)]
    if not total:
        return items
    ks, xs = range(ka), range(len(a[0]))
    w = homomorphism_witness(f, a[0], b[0])
    items.append(("preserves_join", w is None, w))
    ok = f[a[1]] == b[1] and f[a[2]] == b[2]
    items.append(("preserves_bounds", ok, None if ok else (f[a[1]], f[a[2]])))
    ta, tb = labels_of(a), labels_of(b)
    w = next(((k, l) for k in ks for l in ks if None in (ta[k][l], tb[g[k]][g[l]])
              or g[ta[k][l]] != tb[g[k]][g[l]]), None)
    items.append(("preserves_composition", w is None, w))
    w = next(((k, x) for k in ks for x in xs if f[a[3][k][x]] != b[3][g[k]][f[x]]), None)
    items.append(("extraction_compatible", w is None, w))
    if check_meets is None:
        check_meets = cdf(a)[0] and cdf(b)[0]
    if check_meets:
        w = homomorphism_witness(f, meet_table(a[0]), meet_table(b[0]))
        items.append(("preserves_meet", w is None, w))
    return items


def is_isomorphism(f, g, a, b):
    """f and g are bijections, and both (f, g) and its inverse pass every
    homomorphism law, meets included."""
    if sorted(f) != list(range(len(b[0]))) or sorted(g) != list(range(len(b[3]))):
        return False
    if (len(f), len(g)) != (len(a[0]), len(a[3])):
        return False
    laws = homomorphism_items(f, g, a, b, False) + homomorphism_items(inverse(f), inverse(g), b, a,
                                                                      False)
    # a bijection that preserves joins onto a lattice leaves meets defined
    return (holds(laws)
            and homomorphism_witness(f, meet_table(a[0]), meet_table(b[0])) is None)


def isomorphisms(a, b):
    """Every isomorphism (f, g) from a onto b, over all permutations."""
    n, k = len(a[0]), len(a[3])
    assert n <= 6, "the permutation search is for carriers of at most 6 elements"
    return [(f, g) for f in permutations(range(n)) for g in permutations(range(k))
            if is_isomorphism(f, g, a, b)]


# Equivalences, set algebras and Q-spaces

@cache
def product_rows(theta, gamma):
    """The relational product: row u holds every v with u theta w gamma v."""
    xs = range(len(theta))
    return tuple(mask(v for v in xs for w in xs if theta[u] == theta[w] and gamma[w] == gamma[v])
                 for u in xs)


def commutation_witness(theta, gamma):
    """The first (u, v) in theta.gamma that is not in gamma.theta, or None."""
    tg, gt = product_rows(theta, gamma), product_rows(gamma, theta)
    return next(((u, v) for u in range(len(theta)) for v in members(tg[u]) if not gt[u] >> v & 1),
                None)


def star(theta, gamma):
    """The product of commuting equivalences, canonical, or None."""
    if commutation_witness(theta, gamma) is not None:
        return None
    return canonical(product_rows(theta, gamma))


def star_table(eqs):
    """Entry [i][j]: the index of the star product of members i and j, or
    None when they do not commute or it is not listed."""
    index = {canonical(theta): i for i, theta in enumerate(eqs)}
    return tuple(tuple(index.get(star(a, b)) for b in eqs) for a in eqs)


def saturate(theta, m):
    """Every point related to a point of m: in a block m meets."""
    met = {theta[u] for u in members(m)}
    return mask(v for v in range(len(theta)) if theta[v] in met)


@cache
def up_sets(up):
    """Every up-set, ascending: the masks of the 2^n that hold the up row
    of each of their points."""
    return tuple(m for m in range(1 << len(up)) if all(up[x] & ~m == 0 for x in members(m)))


def separating(up, theta):
    """(True, None), or (False, witness): the first up-set whose saturation
    is no up-set (condition (i)), else the first unrelated pair p < q that
    no saturated up-set splits (condition (ii))."""
    ups = index_of(up_sets(up))
    w = next((u for u in ups if saturate(theta, u) not in ups), None)
    if w is not None:
        return False, ("saturation_image", w)
    saturated = [u for u in ups if saturate(theta, u) == u]
    xs = range(len(up))
    w = next(((p, q) for p in xs for q in xs if p < q and theta[p] != theta[q]
              and all(u >> p & 1 == u >> q & 1 for u in saturated)), None)
    return (True, None) if w is None else (False, ("unseparated_pair", w))


@cache
def index_of(family):
    return {m: i for i, m in enumerate(family)}


@cache
def saturation_array(family, theta):
    """The saturation by theta as a map of the family's positions, None
    where it leaves the family."""
    index = index_of(family)
    return tuple(index.get(saturate(theta, m)) for m in family)


def saturations(up, eqs):
    """Each member's saturation as a map of up-set positions."""
    return tuple(saturation_array(up_sets(up), theta) for theta in eqs)


def set_algebra_items(n, family, universe, labels, eqs):
    """The (name, ok, witness) items of a family of subsets of range(n),
    in its given order, with labeled equivalences on range(universe)."""
    fam, full = tuple(family), (1 << n) - 1
    w = next(((a, b) for a in fam for b in fam if a & b not in fam), None)
    v = next(((lab, m) for lab, theta in zip(labels, eqs) for m in fam
              if saturate(theta, m) not in fam), None)
    return [("universe_match", universe == n, (universe, n)),
            ("contains_bounds", 0 in fam and full in fam, None),
            ("no_duplicates", len(set(fam)) == len(fam), None),
            ("intersection_closed", w is None, w),
            ("saturation_compatible", v is None, v)]


def set_algebra(n, family, eqs):
    """The algebra of a family of subsets of range(n) under reverse
    inclusion: joined by intersection, with the full set as unit, the empty
    set as zero, the saturations as extractors and their label table; None
    marks what falls outside the family."""
    family = tuple(family)
    index = index_of(family)
    arrays = tuple(saturation_array(family, theta) for theta in eqs)
    return (intersections(family), index.get((1 << n) - 1), index.get(0), arrays,
            label_table(arrays))


@cache
def intersections(family):
    """The family's join table: entry [i][j] is the position of the
    intersection of members i and j, None when it is no member."""
    index = index_of(family)
    return tuple(tuple(index.get(u & v) for v in family) for u in family)


def reconstruct(space):
    """The up-set algebra: the set algebra of the up-sets, ascending."""
    up, eqs = space
    return set_algebra(len(up), up_sets(up), eqs)


def pullback(alpha, m):
    return mask(p for p in range(len(alpha)) if m >> alpha[p] & 1)


@cache
def prime_filters(join):
    """The prime filters, as masks: the proper up-sets closed under meets
    that hold a or b whenever they hold a \\/ b. Every filter of a finite
    lattice is the up-set of its meet, so the principal ones are the
    candidates."""
    meet, xs, full = meet_table(join), range(len(join)), (1 << len(join)) - 1
    return tuple(f for f in sorted(set(order_of(join))) if f != full
                 and all(f >> meet[a][b] & 1 for a in members(f) for b in members(f))
                 and all(f >> a & 1 or f >> b & 1 for a in xs for b in xs if f >> join[a][b] & 1))


def dual(a):
    """The dual Q-space of an algebra and its points: a point per prime
    filter F, named by the greatest element off F and listed in its order;
    p <= q iff F_p holds F_q, and member k relates p and q iff F_p and F_q
    cut extractor k's image alike (Cignoli's relation)."""
    join, extractors = a[0], a[3]
    up, full = order_of(join), (1 << len(join)) - 1
    filters = sorted(prime_filters(join), key=lambda f: lub(up, members(full & ~f)))
    points = tuple(lub(up, members(full & ~f)) for f in filters)
    rows = tuple(mask(q for q, g in enumerate(filters) if g & ~f == 0) for f in filters)
    return (rows, tuple(canonical(f & mask(e) for f in filters) for e in extractors)), points


def round_trip_algebra(a):
    """The dual, its points, its up-set algebra and the canonical map x ->
    (position of the up-set of the points whose prime ideal holds x)."""
    space, points = dual(a)
    target = reconstruct(space)
    up, index = order_of(a[0]), index_of(up_sets(space[0]))
    image = [mask(p for p, m in enumerate(points) if le(up, x, m)) for x in range(len(up))]
    return space, points, target, tuple(map(index.get, image))


def round_trip_space(space):
    """The double dual, dual(reconstruct(space)), its points and the
    relabeling p -> (the dual point at the principal up-set of p), or None
    where that is no isomorphism of orders and members."""
    up, eqs = space
    target, points = dual(reconstruct(space))
    lam = tuple(points.index(c) if c in points else None
                for c in map(index_of(up_sets(up)).get, up))
    xs = range(len(up))
    ok = (None not in lam and sorted(lam) == list(range(len(target[0])))
          and all(le(up, p, q) == le(target[0], lam[p], lam[q]) for p in xs for q in xs)
          and all((theta[p] == theta[q]) == (mu[lam[p]] == mu[lam[q]])
                  for theta, mu in zip(eqs, target[1]) for p in xs for q in xs))
    return target, points, lam if ok else None


def q_morphism_items(alpha, omega, s, t):
    """The (name, ok, witness) items of (alpha, omega): s -> t, alpha
    carrying points forward and omega labels back."""
    (up_s, eqs_s), (up_t, eqs_t) = s, t
    total = (len(alpha) == len(up_s) and all(0 <= v < len(up_t) for v in alpha)
             and len(omega) == len(eqs_t) and all(0 <= v < len(eqs_s) for v in omega))
    items = [("maps_total", total, None)]
    if not total:
        return items
    ps, ks = range(len(up_s)), range(len(eqs_t))
    w = next(((p, q) for p in ps for q in ps
              if le(up_s, p, q) and not le(up_t, alpha[p], alpha[q])), None)
    items.append(("alpha_order_preserving", w is None, w))
    tab_s, tab_t = (label_table(saturations(*space)) for space in (s, t))
    w = next(((i, j) for i in ks for j in ks
              if None in (tab_t[i][j], tab_s[omega[i]][omega[j]])
              or omega[tab_t[i][j]] != tab_s[omega[i]][omega[j]]), None)
    items.append(("omega_semigroup_map", w is None, w))
    w = next(((i, v) for i in ks for v in up_sets(up_t)
              if pullback(alpha, saturate(eqs_t[i], v))
              != saturate(eqs_s[omega[i]], pullback(alpha, v))), None)
    items.append(("saturation_compatible", w is None, w))
    return items
