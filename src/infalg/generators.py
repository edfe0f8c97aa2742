"""Generators for the stock example families and brute-force enumeration of
small algebras and Q-spaces, used as oracles by the test suite.

All streams are deterministic; enumerated objects are duplicate-free up to
isomorphism. Lattices are kept by canonical order tables. A family is a set
of indices into its base's pool, which the base's automorphisms permute;
families are deduped as orbits of index sets, the first of each orbit in
subset-mask order kept, and read their label tables from the pool's.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import combinations, permutations, product
from math import prod
from string import ascii_lowercase

from .algebra import InfoAlgebra, combination_rows
from .duality import QSpace, check_separating
from .equivalence import Equivalence, StarFamily, all_equivalences, star, star_family, star_table
from .errors import CapExceeded, PreconditionError, StructureError
from .order import (BoundedJoinSemilattice, FinitePoset, automorphisms, bits, is_distributive,
                    join_semilattice, lattice_from_semilattice, mask_of, semilattice_from_poset,
                    up_rows)
from .semigroup import compose, first_row_witness, homomorphism_witness, table
from .set_algebra import SetAlgebra, build_set_algebra

DEFAULT_CAP = 4096
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
    # s lies below each word it is a prefix of, and every word below the zero
    up = [mask_of(idx[t] for t in strs if t.startswith(s)) | (1 << zero) for s in strs]
    up.append(1 << zero)
    sl = semilattice_from_poset(FinitePoset(n, tuple(up)))

    extractors = []
    for m in range(max_len + 1):
        arr = [idx[s[:m]] for s in strs] + [zero]
        extractors.append(tuple(arr))
    composition = tuple(tuple(min(a, b) for b in range(max_len + 1))
                        for a in range(max_len + 1))
    labels = tuple(f"e{m}" for m in range(max_len + 1))
    return InfoAlgebra(sl, tuple(extractors), labels, composition)


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
    the intersection of the variable sets; this is verified, not assumed.
    """
    domain_sizes = list(domain_sizes)
    m = _domain_points(domain_sizes)
    _require_cap(f"family of {{}} subsets exceeds cap {cap}", lambda: 1 << m, m + 1, cap)
    v = len(domain_sizes)
    _require_cap(f"projection table of {{}} star products exceeds cap {cap}",
                 lambda: 1 << 2 * v, 2 * v + 1, cap)
    by_mask, first = _projections(domain_sizes), {}  # first: labeled by first subset
    for smask, eq in enumerate(by_mask):
        first.setdefault(eq, _subset_label(smask))
    for a in range(1 << v):
        for b in range(1 << v):
            if star(by_mask[a], by_mask[b]) != by_mask[a & b]:
                raise StructureError(f"projection star identity failed at {(a, b)}")
    eqs = star_family(first, first.values())
    return build_set_algebra(m, tuple(range(1 << m)), eqs)


def gen_lattice_valued(domain_sizes, lam: BoundedJoinSemilattice,
                       cap: int = DEFAULT_CAP) -> InfoAlgebra:
    """Maps from a finite product universe into a distributive value lattice.

    Combination is the pointwise join; extractor s sends a map to the one
    that is constant on each block of points agreeing on the variables in
    s, at the meet of the map over the block.
    """
    ok, w = is_distributive(lam)
    if not ok:
        raise PreconditionError(f"value lattice is not distributive, witness {w}")
    domain_sizes = list(domain_sizes)
    nv = lattice_valued_points(domain_sizes, lam.n, cap)
    carrier = list(product(range(lam.n), repeat=nv))
    idx = {phi: i for i, phi in enumerate(carrier)}
    join = tuple(tuple(idx[tuple(lam.join[x][y] for x, y in zip(phi, psi))]
                       for psi in carrier)
                 for phi in carrier)
    sl = join_semilattice(join, idx[(lam.unit,) * nv], idx[(lam.zero,) * nv])

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

    return InfoAlgebra(sl, tuple(extractors), tuple(labels), table(extractors))


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
    n = poset.n
    best = None
    for perm in permutations(range(n)):
        key = tuple(poset.le(perm[a], perm[b]) for a in range(n) for b in range(n))
        if best is None or key < best:
            best = key
    return best


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


def _closed_subsets(tab):
    """Member index lists, in subset-mask order, of every nonempty subset of
    a pool whose members pairwise commute and whose products are all
    members. ``tab[i][j]`` is the pool index of the product of members i and
    j, or None when the product is missing from the pool or does not exist."""
    k = len(tab)
    # bit j of commute[i]: i and j commute and their product is listed
    commute = [mask_of(j for j in range(k) if tab[i][j] is not None and tab[i][j] == tab[j][i])
               for i in range(k)]
    for mask in range(1, 1 << k):
        members = list(bits(mask))
        if any(mask & ~commute[i] for i in members):
            continue
        if all((mask >> tab[i][j]) & 1 for i in members for j in members):
            yield members


def extraction_families(ops: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], ...]]:
    """All nonempty pairwise-commuting composition-closed subsets of the
    given operator pool, in subset-mask order."""
    k = len(ops)
    if k > FAMILY_BASE_LIMIT:
        raise CapExceeded(f"operator pool of {k} exceeds limit {FAMILY_BASE_LIMIT}")
    return [tuple(ops[i] for i in members) for members in _closed_subsets(table(ops))]


def _first_of_orbits(pool, families, tab, conjugate, auts):
    """Each of the families, closed subsets of the pool listed in subset-mask
    order, whose mask is not in the orbit of one yielded before, with the
    pool's label table ``tab`` restricted to it. Conjugation by each of the
    base's automorphisms permutes the pool, so orbits are of index masks."""
    index = {x: i for i, x in enumerate(pool)}
    perms = [[index[conjugate(x, aut)] for x in pool] for aut in auts]
    seen = set()
    for fam in families:
        members = [index[x] for x in fam]
        if mask_of(members) not in seen:
            seen.update(mask_of(perm[i] for i in members) for perm in perms)
            pos = {i: r for r, i in enumerate(members)}
            yield fam, tuple(tuple(pos[tab[i][j]] for j in members) for i in members)


def enumerate_algebras(max_n: int):
    """All distributive information algebras on up to max_n elements:
    every distributive lattice paired with every closed commuting family of
    meet-preserving extraction maps, up to lattice automorphism."""
    if max_n > LATTICE_ENUM_LIMIT:
        raise CapExceeded(f"algebra enumeration limited to {LATTICE_ENUM_LIMIT} elements")
    # aut . arr . aut^-1 maps aut[x] to aut[arr[x]]: its graph, sorted
    conjugate = lambda arr, aut: tuple(y for _, y in sorted(zip(aut, compose(aut, arr))))
    for lat in enumerate_lattices(max_n, distributive_only=True):
        ops = extraction_maps(lat, require_meets=True)
        for arrays, products in _first_of_orbits(ops, extraction_families(ops), table(ops),
                                                 conjugate, automorphisms(lat.poset)):
            labels = tuple(f"e{i}" for i in range(len(arrays)))
            yield InfoAlgebra(lat, arrays, labels, products)


def separating_equivalences(poset: FinitePoset) -> list[Equivalence]:
    return [eq for eq in all_equivalences(poset.n) if check_separating(poset, eq)[0]]


def enumerate_q_spaces(max_points: int):
    """All Q-spaces with up to max_points points: every poset paired with
    every star-closed commuting family of separating equivalences, up to
    poset automorphism."""
    if max_points > QSPACE_POINT_LIMIT:
        raise CapExceeded(f"Q-space enumeration limited to {QSPACE_POINT_LIMIT} points")
    # eq moved by aut: x and y are related iff aut[x] and aut[y] are in eq
    conjugate = lambda eq, aut: Equivalence(eq.n, compose(eq.block_of, aut))
    for poset in enumerate_posets(max_points):
        seps = separating_equivalences(poset)
        k = len(seps)
        if k > FAMILY_BASE_LIMIT:
            raise CapExceeded(f"separating pool of {k} exceeds limit {FAMILY_BASE_LIMIT}")
        tab = star_table(seps)
        families = [tuple(seps[i] for i in members) for members in _closed_subsets(tab)]
        for fam, products in _first_of_orbits(seps, families, tab, conjugate,
                                              automorphisms(poset)):
            labels = tuple(f"t{i}" for i in range(len(fam)))
            yield QSpace(poset, StarFamily(poset.n, fam, labels, True, products))
