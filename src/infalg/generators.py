"""Generators for the stock example families and brute-force enumeration of
small algebras and Q-spaces, used as oracles by the test suite.

All streams are deterministic; enumerated objects are duplicate-free up to
isomorphism. Bases are kept by canonical order tables, the least over all
relabelings. Both enumerators run one family core on each base: its pool,
the pool's label table and the base's automorphisms go in; the pool's size
is checked and its table built once; the package's one Close-by-One
search, ``order.closed_sets``, finds the closed families as sets of pool
indices, sorted into subset-mask order; the automorphisms permute the
pool, so the first family of each orbit of index sets is kept. The core
yields members only: each family's label table is derived by the structure
that owns it, ``InfoAlgebra.label_table`` or ``StarFamily.products``, and
the pool is distinct, so it is the pool's table restricted to the family.
"""

from __future__ import annotations

from contextlib import suppress
from functools import reduce
from itertools import chain, combinations, product
from math import prod
from operator import or_
from string import ascii_lowercase

from .algebra import InfoAlgebra, combination_rows
from .duality import QSpace, check_separating
from .equivalence import Equivalence, StarFamily, all_equivalences, star_family, star_table
from .errors import DEFAULT_CAP, CapExceeded, PreconditionError, StructureError
from .order import (BoundedJoinSemilattice, FinitePoset, automorphisms, bits, closed_sets,
                    is_distributive, lattice_from_semilattice, mask_of, relabelings,
                    semilattice_from_poset, up_rows)
from .semigroup import compose, first_row_witness, homomorphism_witness, table
from .set_algebra import SetAlgebra

LATTICE_ENUM_LIMIT = 6
QSPACE_POINT_LIMIT = 4
FAMILY_BASE_LIMIT = 18
# a cap read from text has at most 4300 decimal digits (CPython's default
# limit), so fewer bits than this; a cap check never computes a longer size
_SIZE_BITS = 1 << 14


def gen_string(k: int, max_len: int, cap: int = DEFAULT_CAP) -> InfoAlgebra:
    """Truncated string algebra: all words of length <= max_len over a
    k-letter alphabet, plus the contradiction.

    Combination keeps the longer word when one is a prefix of the other and
    collapses to the contradiction otherwise. Extractor m truncates to the
    first m letters; the last extractor is the identity on the truncated
    carrier.

    Both tables are built over the prefix tree; neither is derived from the
    other. The words form a tree under the prefix order, with the
    contradiction above them all, so two words have a common upper bound
    other than the contradiction iff they are comparable, and then the
    longer one is their join. So the join row of word i holds j at each
    extension j of i (each j in up[i]), i at each proper prefix of i (its
    ancestors in the tree) and the contradiction elsewhere. The empty word
    is the unit. The extractors, e_m sending a longest word to its m-letter
    prefix, are distinct, so the algebra derives their table: e_min(a, b).
    """
    if k < 1 or max_len < 1:
        raise PreconditionError(f"need k >= 1 and max_len >= 1, got {(k, max_len)}")
    if k > 26:
        raise PreconditionError("alphabet limited to 26 letters")
    # 1 + k + ... + k^max_len words and the contradiction, more than k^max_len
    _require_cap(f"carrier of {{}} exceeds cap {cap}",
                 lambda: max_len + 2 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1) + 1,
                 max_len * (k.bit_length() - 1) + 1, cap)
    strs = string_elements(k, max_len)[:-1]
    n = len(strs) + 1
    zero = n - 1
    idx = {s: i for i, s in enumerate(strs)}
    # s lies below each word it is a prefix of, and every word below the
    # zero. Words are listed by length, then letters, so the one-letter
    # extensions of word i are words k*i+1 .. k*i+k; for a longest word that
    # slice holds at most the zero's row, which every row contains anyway
    up = [1 << zero] * n
    for i in reversed(range(zero)):
        up[i] = reduce(or_, up[k * i + 1:k * i + k + 1], up[i] | 1 << i)
    # by the same listing, the parent of word p > 0 is word (p - 1) // k
    join = []
    for i in range(zero):
        row = [zero] * n
        for j in bits(up[i]):
            row[j] = j
        p = i
        while p:
            p = (p - 1) // k
            row[p] = i
        join.append(tuple(row))
    join.append((zero,) * n)
    sl = BoundedJoinSemilattice(FinitePoset(n, tuple(up)), tuple(join), 0, zero)

    extractors = []
    for m in range(max_len + 1):
        arr = [idx[s[:m]] for s in strs] + [zero]
        extractors.append(tuple(arr))
    labels = tuple(f"e{m}" for m in range(max_len + 1))
    return InfoAlgebra(sl, tuple(extractors), labels)


def string_elements(k: int, max_len: int) -> list[str]:
    """Element labels matching gen_string's indexing; the contradiction is '0'."""
    out = []
    for length in range(max_len + 1):
        out.extend("".join(w) for w in product(ascii_lowercase[:k], repeat=length))
    out.append("0")
    return out


def _subset_label(smask: int) -> str:
    return "s" + "".join(str(i) for i in bits(smask))


def _require_cap(template: str, size, min_bits: int, cap: int) -> None:
    """Raise CapExceeded(template.format(size())) when that size exceeds cap,
    before anything of that size is built. ``min_bits`` bounds the size's bit
    length from below; past _SIZE_BITS the size is not computed, as it
    exceeds every cap the command line parses, and a size too long for
    decimal text is named as a power of two."""
    text = f"at least 2^{min_bits - 1}"
    if min_bits <= _SIZE_BITS:
        count = size()
        if count <= cap:
            return
        with suppress(ValueError):  # more digits than int-to-str conversion allows
            text = str(count)
    raise CapExceeded(template.format(text))


def _domain_points(domain_sizes) -> int:
    """Point count of a product universe, after checking its domain sizes."""
    if not domain_sizes or any(d < 1 for d in domain_sizes):
        raise PreconditionError(f"domain sizes must be positive, got {domain_sizes}")
    return prod(domain_sizes)


def lattice_valued_points(domain_sizes, values: int, cap: int = DEFAULT_CAP) -> int:
    """Point count of gen_lattice_valued's universe, after checking its
    domain sizes and that the values ** points maps, and the points grouped
    once per variable subset, fit the cap; nothing of that size is built."""
    domain_sizes = list(domain_sizes)
    nv = _domain_points(domain_sizes)
    _require_cap(f"carrier of {{}} exceeds cap {cap}", lambda: values ** nv,
                 nv * (values.bit_length() - 1) + 1, cap)
    v = len(domain_sizes)
    _require_cap(f"grouping of {{}} subset-point pairs exceeds cap {cap}", lambda: nv << v,
                 v + nv.bit_length(), cap)
    return nv


def _projections(domain_sizes) -> list[Equivalence]:
    """Per variable subset, in subset-mask order, the equivalence relating
    the points of the product universe, listed lexicographically, that agree
    on the subset's variables."""
    points = list(product(*(range(d) for d in domain_sizes)))
    return [Equivalence(len(points), [tuple(t[i] for i in bits(smask)) for t in points])
            for smask in range(1 << len(domain_sizes))]


def gen_multivariate(domain_sizes, cap: int = DEFAULT_CAP) -> SetAlgebra:
    """Full power set of a finite product universe with one projection
    equivalence per variable subset.

    The star product of two projection equivalences is the projection onto
    the intersection of the variable sets: points s, t agree on A & B iff
    some point agrees with s on A and with t on B (s on A, t elsewhere).
    The set-algebra laws hold by construction: every subset is a member."""
    domain_sizes = list(domain_sizes)
    m = _domain_points(domain_sizes)
    _require_cap(f"family of {{}} subsets exceeds cap {cap}", lambda: 1 << m, m + 1, cap)
    v = len(domain_sizes)
    _require_cap(f"projection table of {{}} star products exceeds cap {cap}",
                 lambda: 1 << 2 * v, 2 * v + 1, cap)
    first = {}  # each projection, labeled by its first subset
    for smask, eq in enumerate(_projections(domain_sizes)):
        first.setdefault(eq, _subset_label(smask))
    return SetAlgebra(m, tuple(range(1 << m)), star_family(first, first.values()))


def gen_lattice_valued(domain_sizes, lam: BoundedJoinSemilattice,
                       cap: int = DEFAULT_CAP) -> InfoAlgebra:
    """Maps from a finite product universe into a distributive value lattice.

    Combination is the pointwise join; extractor s sends a map to the one
    that is constant on each block of points agreeing on the variables in
    s, at the meet of the map over the block.

    Both tables are built from the product structure, one coordinate at a
    time; neither is derived from the other. A map's index is its base-L
    numeral, first point most significant, so on w = L^k maps the map
    (a, p), value a at the new point and p on the k others, has index
    a * w + p. Its join row holds, for each b, the row of p shifted by
    join(a, b) * w. The order is pointwise, (a, p) <= (b, q) iff a <= b and
    p <= q, so its up row is the or, over each b >= a, of the up row of p
    shifted by b * w. The pointwise join is the least upper bound in that
    order, with the constant maps at L's unit and zero as its bounds.
    Extractors that act alike are listed once, under the first subset's
    label, so the algebra derives their table.
    """
    ok, w = is_distributive(lam)
    if not ok:
        raise PreconditionError(f"value lattice is not distributive, witness {w}", witness=w)
    domain_sizes = list(domain_sizes)
    nv = lattice_valued_points(domain_sizes, lam.n, cap)
    carrier = list(product(range(lam.n), repeat=nv))
    idx = {phi: i for i, phi in enumerate(carrier)}
    # the up rows first, in their own loop: grown between the join tables,
    # they raised the peak RSS of `gen lattice 10` from 87 to 92 MB (2 vCPUs,
    # Python 3.11.7), with the same traced peak
    up, w = [1], 1
    for _ in range(nv):
        up = [reduce(or_, (row << b * w for b in bits(lrow))) for lrow in lam.poset.up
              for row in up]
        w *= lam.n
    join, w = [(0,)], 1
    for _ in range(nv):
        join = [tuple(chain.from_iterable(map((ja * w).__add__, row) for ja in jrow))
                for jrow in lam.join for row in join]
        w *= lam.n
    sl = BoundedJoinSemilattice(FinitePoset(w, tuple(up)), tuple(join),
                                idx[(lam.unit,) * nv], idx[(lam.zero,) * nv])

    extractors, labels = [], []
    for smask, eq in enumerate(_projections(domain_sizes)):
        groups = [list(bits(block)) for block in eq.blocks]
        arr = []
        for phi in carrier:
            vals = []
            for members in groups:
                acc = phi[members[0]]
                for t in members[1:]:
                    acc = lam.meet[acc][phi[t]]
                vals.append(acc)
            arr.append(idx[tuple(vals[b] for b in eq.block_of)])
        arr = tuple(arr)
        if arr not in extractors:
            extractors.append(arr)
            labels.append(_subset_label(smask))

    return InfoAlgebra(sl, tuple(extractors), tuple(labels))


# ---------------------------------------------------------------------------
# brute-force enumeration


def _orders(n: int, pairs):
    """Up rows of every partial order on n points whose strict part is a
    subset of pairs, in subset-mask order."""
    for choice in range(1 << len(pairs)):
        rel = [1 << a for a in range(n)]
        for i, (a, b) in enumerate(pairs):
            if (choice >> i) & 1:
                rel[a] |= 1 << b
        # antisymmetric and transitive: the row of every point strictly
        # above a lies within the strict up-set of a
        strict = [row & ~(1 << a) for a, row in enumerate(rel)]
        if all(rel[b] & ~strict[a] == 0 for a in range(n) for b in bits(strict[a])):
            yield tuple(rel)


def all_labeled_posets(n: int) -> list[FinitePoset]:
    """Every partial order on n labeled points (reflexive table variants)."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return [FinitePoset(n, up) for up in _orders(n, pairs)]


def _canonical_poset_key(poset: FinitePoset):
    """The least order table over all relabelings of the poset."""
    return min(key for _, key in relabelings(poset))


def enumerate_posets(max_n: int) -> list[FinitePoset]:
    """All posets with up to max_n points, one canonical representative per
    isomorphism class, generated from upper-triangular order tables."""
    out = []
    for n in range(1, max_n + 1):
        found = {}
        for up in _orders(n, list(combinations(range(n), 2))):
            key = _canonical_poset_key(FinitePoset(n, up))
            if key not in found:
                found[key] = FinitePoset(n, up_rows(key[a * n:(a + 1) * n] for a in range(n)))
        out.extend(found[key] for key in sorted(found))
    return out


def enumerate_lattices(max_n: int,
                       distributive_only: bool = True) -> list[BoundedJoinSemilattice]:
    """All bounded lattices with up to max_n elements up to isomorphism,
    optionally filtered to the distributive ones."""
    if max_n > LATTICE_ENUM_LIMIT:
        raise CapExceeded(f"lattice enumeration limited to {LATTICE_ENUM_LIMIT} elements")
    out = []
    for poset in enumerate_posets(max_n):
        try:
            lat = lattice_from_semilattice(semilattice_from_poset(poset))
        except StructureError:
            continue
        if distributive_only and not is_distributive(lat)[0]:
            continue
        out.append(lat)
    return out


def extraction_maps(lat: BoundedJoinSemilattice,
                    require_meets: bool = True) -> list[tuple[int, ...]]:
    """Every self-map satisfying the extraction axioms on the lattice,
    optionally restricted to the meet-preserving ones. Exhaustive search
    over maps dominated by the identity."""
    down = [list(bits(row)) for row in lat.poset.down]
    down[lat.zero] = [lat.zero]
    return sorted(cand for cand in product(*down)
                  if first_row_witness(combination_rows(lat.join, (cand,))) is None
                  and (not require_meets
                       or homomorphism_witness(cand, lat.meet, lat.meet) is None))


def _closed_subsets(tab) -> list[int]:
    """Index masks, ascending (subset-mask order), of every nonempty subset of
    a pool whose members pairwise commute and whose products are all
    members. ``tab[i][j]`` is the pool index of the product of members i and
    j, or None when the product is missing from the pool or does not exist.

    The sets are order.closed_sets' closed sets under ``tab``; a closure that
    meets a non-commuting pair or a missing product has no valid superset,
    so its branch is cut."""
    k = len(tab)
    # bit j of commute[i]: i and j commute and their product is listed
    commute = [mask_of(j for j in range(k) if tab[i][j] is not None and tab[i][j] == tab[j][i])
               for i in range(k)]

    def close(mask, i):
        mask, todo = mask | 1 << i, [i]
        while todo:
            a = todo.pop()
            if mask & ~commute[a]:
                return None
            for p in {tab[a][b] for b in bits(mask)}:
                if not (mask >> p) & 1:
                    mask |= 1 << p
                    todo.append(p)
        return mask

    return sorted(closed_sets(k, close))


def _families(pool, label_table, conjugate, auts, what):
    """The closed families of a pool, one per orbit. ``label_table(pool)``
    builds the pool's table, once, after the pool's size is checked;
    conjugation by each of the base's automorphisms ``auts`` permutes the
    pool, so orbits are of index sets. Each closed family, in subset-mask
    order, is yielded as its members, unless its orbit holds one yielded
    before."""
    k = len(pool)
    if k > FAMILY_BASE_LIMIT:
        raise CapExceeded(f"{what} pool of {k} exceeds limit {FAMILY_BASE_LIMIT}")
    tab = label_table(pool)
    index = {x: i for i, x in enumerate(pool)}
    perms = [[index[conjugate(x, aut)] for x in pool] for aut in auts]
    seen = set()
    for mask in _closed_subsets(tab):
        if mask not in seen:
            members = list(bits(mask))
            seen.update(mask_of(perm[i] for i in members) for perm in perms)
            yield tuple(pool[i] for i in members)


def extraction_families(ops: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], ...]]:
    """All nonempty pairwise-commuting composition-closed subsets of the
    given operator pool, in subset-mask order."""
    return list(_families(ops, table, None, (), "operator"))


def enumerate_algebras(max_n: int):
    """All distributive information algebras on up to max_n elements:
    every distributive lattice paired with every closed commuting family of
    meet-preserving extraction maps, up to lattice automorphism."""
    if max_n > LATTICE_ENUM_LIMIT:
        raise CapExceeded(f"algebra enumeration limited to {LATTICE_ENUM_LIMIT} elements")
    # aut . arr . aut^-1 maps aut[x] to aut[arr[x]]: its graph, sorted
    conjugate = lambda arr, aut: tuple(y for _, y in sorted(zip(aut, compose(aut, arr))))
    for lat in enumerate_lattices(max_n, distributive_only=True):
        for arrays in _families(extraction_maps(lat, require_meets=True), table, conjugate,
                                automorphisms(lat.poset), "operator"):
            yield InfoAlgebra(lat, arrays, tuple(f"e{i}" for i in range(len(arrays))))


def separating_equivalences(poset: FinitePoset) -> list[Equivalence]:
    return [eq for eq in all_equivalences(poset.n) if check_separating(poset, eq)[0]]


def check_q_space_limit(max_points: int) -> None:
    """enumerate_q_spaces' bound, which the stream checks only when first read."""
    if max_points > QSPACE_POINT_LIMIT:
        raise CapExceeded(f"Q-space enumeration limited to {QSPACE_POINT_LIMIT} points")


def enumerate_q_spaces(max_points: int):
    """All Q-spaces with up to max_points points: every poset paired with
    every star-closed commuting family of separating equivalences, up to
    poset automorphism."""
    check_q_space_limit(max_points)
    # eq moved by aut: x and y are related iff aut[x] and aut[y] are in eq
    conjugate = lambda eq, aut: Equivalence(eq.n, compose(eq.block_of, aut))
    for poset in enumerate_posets(max_points):
        for fam in _families(separating_equivalences(poset), star_table, conjugate,
                             automorphisms(poset), "separating"):
            yield QSpace(poset, StarFamily(poset.n, fam, tuple(f"t{i}" for i in range(len(fam)))))
