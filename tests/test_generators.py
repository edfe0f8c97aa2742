import hashlib
from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from infalg import generators, order
from infalg.algebra import is_distributive_cdf, verify_axioms
from infalg.atoms import classify
from infalg.equivalence import Equivalence, all_equivalences, saturate, star, star_table
from infalg.errors import CapExceeded, PreconditionError
from infalg.generators import (all_labeled_posets, enumerate_algebras, enumerate_lattices,
                               enumerate_posets, enumerate_q_spaces,
                               extraction_families, extraction_maps, gen_lattice_valued,
                               gen_string, separating_equivalences, string_elements)
from infalg.order import (BoundedJoinSemilattice, antichain_poset, automorphisms, bits,
                          chain_lattice, diamond_m3, is_distributive, mask_of, pentagon_n5,
                          powerset_lattice, semilattice_from_poset)
from infalg.semigroup import compose


def test_string_one_letter_is_three_chain():
    a = gen_string(1, 1)
    assert a.n == 3
    assert all(a.le(x, y) or a.le(y, x) for x in range(3) for y in range(3))


def test_string_two_three_counts(string23):
    assert string23.n == 16
    assert len(string23.extractors) == 4
    assert verify_axioms(string23).ok


def test_string_prefix_extraction(string23):
    names = string_elements(2, 3)
    idx = {s: i for i, s in enumerate(names)}
    e1 = string23.labels.index("e1")
    assert string23.apply(e1, idx["abb"]) == idx["a"]


def test_string_join_table_is_lub_of_prefix_order(string23):
    # oracle: rebuild the join table and the bounds from the order alone
    up, xs = string23.poset.up, range(string23.n)
    assert string23.sl.join == tuple(tuple(ref.lub(up, (a, b)) for b in xs) for a in xs)
    assert (ref.glb(up, xs), ref.glb(up, ())) == (string23.unit, string23.zero)


def literal_string_join(k, max_len):
    """The prefix join written out: the longer of two comparable words, else
    the contradiction."""
    strs = string_elements(k, max_len)[:-1]
    zero = len(strs)
    join = []
    for a in range(zero + 1):
        row = []
        for b in range(zero + 1):
            if zero in (a, b):
                row.append(zero)
            elif strs[b].startswith(strs[a]):
                row.append(b)
            elif strs[a].startswith(strs[b]):
                row.append(a)
            else:
                row.append(zero)
        join.append(tuple(row))
    return tuple(join)


def _fail(*args):
    raise AssertionError("the generator derived a table it builds")


def test_string_join_matches_literal_prefix_join(monkeypatch):
    # both tables come from the prefix tree: no lub row is derived. k = 1 is
    # the chain, where the parent of word i is word i - 1
    monkeypatch.setattr(generators, "semilattice_from_poset", _fail)
    monkeypatch.setattr(order, "semilattice_from_poset", _fail)
    monkeypatch.setattr(order, "lub_row", _fail)
    for k, max_len in ((1, 1), (1, 3), (1, 6), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        a = gen_string(k, max_len)
        assert a.sl.join == literal_string_join(k, max_len), (k, max_len)
        assert (a.unit, a.zero) == (0, a.n - 1)


def test_string_classification(string22, string23):
    for a in (string22, string23):
        rep = classify(a)
        assert rep.atomic and rep.atomistic and not rep.completely_atomistic


def test_string_cap():
    with pytest.raises(CapExceeded):
        gen_string(4, 6, cap=64)


def test_multivariate_star_identity(multivariate22):
    eqs = multivariate22.eqs
    by_label = dict(zip(eqs.labels, eqs.members))
    assert star(by_label["s0"], by_label["s1"]) == by_label["s"]
    assert by_label["s"] == Equivalence.all_relation(4)
    assert by_label["s01"] == Equivalence.identity(4)
    # the identity gen_multivariate proves and does not check: two projections
    # star to the projection onto the intersection of their variable subsets
    for sizes in ([1], [2], [3], [2, 2], [2, 3], [2, 2, 2]):
        by_mask = generators._projections(sizes)
        assert set(generators.gen_multivariate(sizes).eqs.members) == set(by_mask)
        for a, b in product(range(1 << len(sizes)), repeat=2):
            assert star(by_mask[a], by_mask[b]) == by_mask[a & b], (sizes, a, b)


def test_multivariate_completely_atomistic(mv22_algebra):
    assert classify(mv22_algebra).completely_atomistic


def test_multivariate_cylindric_closure(multivariate22):
    # the intersection of saturated sets is saturated for the union scope
    eqs = dict(zip(multivariate22.eqs.labels, multivariate22.eqs.members))
    pairs = [("s0", "s1", "s01"), ("s", "s0", "s0"), ("s", "s1", "s1")]
    for r, s, u in pairs:
        for x in range(16):
            for y in range(16):
                if saturate(eqs[r], x) == x and saturate(eqs[s], y) == y:
                    assert saturate(eqs[u], x & y) == (x & y)


def test_lattice_valued_boolean_case(lv_2_chain2):
    from infalg.order import complements, try_lattice

    assert lv_2_chain2.n == 4
    lat = try_lattice(lv_2_chain2.sl)
    assert is_distributive(lat)[0] and complements(lat)[0] is not None


def test_lattice_valued_three_chain(lv_2_chain3):
    from infalg.order import complements, try_lattice

    assert lv_2_chain3.n == 9
    assert is_distributive_cdf(lv_2_chain3).ok
    assert complements(try_lattice(lv_2_chain3.sl))[0] is None


def test_lattice_valued_global_extractor_is_constant_meet(lv_2_chain3):
    a = lv_2_chain3
    lam = chain_lattice(3)
    k = a.labels.index("s")
    # carrier tuples in lexicographic order over two points
    carrier = list(product(range(3), repeat=2))
    for i, phi in enumerate(carrier):
        m = lam.meet[phi[0]][phi[1]]
        assert carrier[a.apply(k, i)] == (m, m)


def test_lattice_valued_order_is_pointwise(lv_2_chain3, lv_2_chain2):
    cases = [([2], chain_lattice(3), lv_2_chain3), ([2], chain_lattice(2), lv_2_chain2)]
    cases += [(sizes, lam, gen_lattice_valued(sizes, lam))
              for sizes, lam in (([3], chain_lattice(2)), ([2], powerset_lattice(2)))]
    for sizes, lam, a in cases:
        nv = len(list(product(*map(range, sizes))))
        carrier = list(product(range(lam.n), repeat=nv))
        up = tuple(mask_of(j for j, psi in enumerate(carrier)
                           if all(lam.poset.le(x, y) for x, y in zip(phi, psi)))
                   for phi in carrier)
        assert a.sl.poset.up == up, sizes
        assert carrier[a.unit] == (lam.unit,) * nv
        assert carrier[a.zero] == (lam.zero,) * nv


def literal_pointwise_join(domain_sizes, lam):
    """The join table written out: look up the pointwise join of every pair
    of maps by its tuple of values."""
    nv = len(list(product(*map(range, domain_sizes))))
    carrier = list(product(range(lam.n), repeat=nv))
    idx = {phi: i for i, phi in enumerate(carrier)}
    return tuple(tuple(idx[tuple(lam.join[x][y] for x, y in zip(phi, psi))]
                       for psi in carrier)
                 for phi in carrier)


def lattice_valued_cases():
    """Domain sizes and value lattices of the literal-table tests."""
    cases = [(sizes, chain_lattice(m)) for sizes in ([1], [3], [2, 2], [2, 1, 2])
             for m in range(1, 5)]
    return cases + [([1], powerset_lattice(2)), ([2], powerset_lattice(2))]


def test_lattice_valued_join_matches_literal_pointwise_join():
    for sizes, lam in lattice_valued_cases():
        a = gen_lattice_valued(sizes, lam)
        assert a.sl.join == literal_pointwise_join(sizes, lam), (sizes, lam.n)


def test_lattice_valued_up_rows_match_the_order_derived_from_the_join(monkeypatch):
    # the product builds the up rows too; the kernel derives them from the
    # join table, a <= b iff join[a][b] == b
    monkeypatch.setattr(order, "join_semilattice", _fail)
    monkeypatch.setattr(generators, "join_semilattice", _fail, raising=False)
    for sizes, lam in lattice_valued_cases():
        a = gen_lattice_valued(sizes, lam)
        assert a.sl.poset.up == ref.order_of(a.sl.join), (sizes, lam.n)


def test_string_up_rows_match_literal_prefix_scan():
    for k in range(1, 4):
        for max_len in range(1, 5):
            up = ref.order_of(literal_string_join(k, max_len))
            assert gen_string(k, max_len).poset.up == up, (k, max_len)


def test_lattice_valued_rejects_non_distributive_value_lattice():
    with pytest.raises(PreconditionError):
        gen_lattice_valued([2], diamond_m3())


def test_distributivity_witness_matches_the_full_meet_table_scan():
    # is_distributive builds meet rows one at a time up to the first witness,
    # and caches no table; every lattice is copied without its cached meets
    lattices = [lat for lat in enumerate_lattices(5, distributive_only=False)
                if ref.distributive_witness(lat.join) is not None]
    assert len(lattices) == 2
    lattices += [diamond_m3(), pentagon_n5()]
    lattices += [gen_string(2, m).sl for m in range(2, 7)] + [gen_string(3, 3).sl]
    for lat in lattices:
        fresh = BoundedJoinSemilattice(lat.poset, lat.join, lat.unit, lat.zero)
        ok, witness = is_distributive(fresh)
        assert "meet" not in vars(fresh)
        assert not ok
        assert witness == ref.distributive_witness(fresh.join) is not None


def test_generated_algebras_pass_axioms(generated_suite):
    for name, a in generated_suite.items():
        assert verify_axioms(a).ok, name


def test_labeled_poset_counts():
    assert [len(all_labeled_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]


def test_labeled_posets_match_verify_poset():
    # every table over the off-diagonal pairs, in subset-mask order, kept
    # iff it is a partial order
    for n in range(5):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        expected = []
        for choice in range(1 << len(pairs)):
            rows = [[a == b for b in range(n)] for a in range(n)]
            for i, (a, b) in enumerate(pairs):
                rows[a][b] = bool((choice >> i) & 1)
            if ref.order_witnesses(rows) == (None, None, None):
                expected.append(ref.up_rows(rows))
        assert [p.up for p in all_labeled_posets(n)] == expected


def test_poset_counts_up_to_iso():
    counts = Counter(p.n for p in enumerate_posets(5))
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


# The n! loops of the canonical poset key and of automorphisms, written out:
# the references both readers of order.relabelings must match.

def literal_canonical_key(poset):
    n = poset.n
    best = None
    for perm in permutations(range(n)):
        key = tuple(poset.le(perm[a], perm[b]) for a in range(n) for b in range(n))
        if best is None or key < best:
            best = key
    return best


def test_relabelings_match_literal_loops():
    for n in range(5):
        aut_sizes = {}  # canonical key: |Aut| of each labeled poset with it
        for poset in all_labeled_posets(n):
            auts = automorphisms(poset)
            assert auts == ref.automorphisms(poset.up)
            key = generators._canonical_poset_key(poset)
            assert key == literal_canonical_key(poset)
            aut_sizes.setdefault(key, []).append(len(auts))
        # orbit-stabilizer: a class of labelings times its stabilizer is S_n
        assert all(len(sizes) * size == factorial(n)
                   for sizes in aut_sizes.values() for size in sizes)
        assert len(aut_sizes) == [1, 1, 2, 5, 16][n]


def test_enumerated_algebra_total():
    assert sum(1 for _ in enumerate_algebras(5)) == 94


def test_distributive_lattice_counts():
    counts = Counter(l.n for l in enumerate_lattices(5))
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}


def test_all_lattice_counts():
    counts = Counter(l.n for l in enumerate_lattices(5, distributive_only=False))
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}


def test_lattice_enumeration_limit():
    limit = generators.LATTICE_ENUM_LIMIT
    with pytest.raises(CapExceeded, match=f"^lattice enumeration limited to {limit} elements$"):
        enumerate_lattices(limit + 1)


def test_enumerate_algebras_two_elements():
    algs = list(enumerate_algebras(2))
    assert len(algs) == 2  # the single point and the two-chain with identity
    two = [a for a in algs if a.n == 2]
    assert len(two) == 1
    assert two[0].extractors == ((0, 1),)


def test_enumerate_algebras_three_elements():
    algs = [a for a in enumerate_algebras(3) if a.n == 3]
    assert len(algs) == 3
    ident = (0, 1, 2)
    middle = next(x for x in range(3) if x not in (algs[0].unit, algs[0].zero))
    retract = tuple(algs[0].unit if x == middle else x for x in range(3))
    families = {a.extractors for a in algs}
    assert families == {(ident,), (retract,), tuple(sorted((retract, ident)))}


def test_enumerated_algebras_verify(generated_suite):
    for a in enumerate_algebras(4):
        assert verify_axioms(a).ok
        assert is_distributive_cdf(a).ok


def test_enumerate_q_spaces_two_points():
    spaces = list(enumerate_q_spaces(2))
    # the point carries one family; each two-point poset carries three
    assert len(spaces) == 7
    for s in spaces:
        for theta in s.eqs.members:
            from infalg.duality import check_separating

            assert check_separating(s.poset, theta)[0]
        assert s.eqs.closed


def test_extraction_maps_on_boolean_square():
    from infalg.order import powerset_lattice

    ops = extraction_maps(powerset_lattice(2), require_meets=True)
    assert ops == [(0, 1, 2, 3), (0, 3, 3, 3)]


def test_operator_equivalence_correspondence():
    # separating equivalences on a poset match meet-preserving extraction
    # maps on its up-set algebra, one for one
    from infalg.duality import reconstruct, QSpace
    from infalg.equivalence import star_family
    from infalg.order import try_lattice

    for poset in enumerate_posets(3):
        space = QSpace(poset, star_family([Equivalence.identity(poset.n)], ["d"]))
        lat = try_lattice(reconstruct(space).sl)
        n_ops = len(extraction_maps(lat, require_meets=True))
        assert n_ops == len(separating_equivalences(poset))


def test_enumeration_deterministic():
    first = [(a.n, a.extractors) for a in enumerate_algebras(3)]
    second = [(a.n, a.extractors) for a in enumerate_algebras(3)]
    assert first == second
    s1 = [(s.poset.up, tuple(m.block_of for m in s.eqs.members))
          for s in enumerate_q_spaces(3)]
    s2 = [(s.poset.up, tuple(m.block_of for m in s.eqs.members))
          for s in enumerate_q_spaces(3)]
    assert s1 == s2


def stream_digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def test_enumerator_streams_are_pinned():
    # digests of the streams as first released; any change to the enumerated
    # objects, their order or their tables moves them
    assert stream_digest((a.n, a.sl.join, a.extractors) for a in enumerate_algebras(5)) == \
        "e5acbe29f9f85d8a70f9d9e4d4812417a06019816b3f149acb13bc7dae4a54f6"
    assert stream_digest((s.poset.up, tuple(eq.block_of for eq in s.eqs.members))
                         for s in enumerate_q_spaces(4)) == \
        "aad9cb4e1176a3436407045f13e7ada70e1f7a3b24a6315b25985b169b022a7a"


def literal_extraction_maps(lat, require_meets):
    """The exhaustive candidate scan by the kernel: each map sending every x
    at or below itself and the zero to itself that passes the combination
    law, and preserves meets when they are required."""
    join = lat.join
    down = [ref.members(row) for row in ref.transpose(ref.order_of(join))]
    down[lat.zero] = [lat.zero]
    meet = ref.meet_table(join)
    return sorted(e for e in product(*down)
                  if ref.axioms((join, lat.unit, lat.zero, (e,), None))["extraction_combination"]
                  is None and not (require_meets and ref.homomorphism_witness(e, meet, meet)))


def test_extraction_maps_match_literal_loops():
    lattices = enumerate_lattices(5, distributive_only=False)
    assert any(not is_distributive(lat)[0] for lat in lattices)
    dropped = 0
    for lat in lattices:
        want = {rm: literal_extraction_maps(lat, rm) for rm in (True, False)}
        for require_meets in (True, False):
            assert extraction_maps(lat, require_meets=require_meets) == want[require_meets]
        dropped += len(want[False]) > len(want[True])
    assert dropped >= 1


def test_enumeration_guards():
    with pytest.raises(CapExceeded):
        list(enumerate_algebras(7))
    with pytest.raises(CapExceeded):
        list(enumerate_q_spaces(5))


# Closed subsets of a whole pool by the breadth-first closure search below:
# the references the shared Close-by-One core of the generators must match,
# order included.

def literal_extraction_families(ops):
    """Each closed family of the pool, by the breadth-first closure search."""
    tab = ref.label_table(tuple(ops))
    return [tuple(ops[i] for i in ref.members(m)) for m in ref.closed_subsets(tab)]


def literal_q_space_families(poset):
    """Each closed family of the separating pool, by the closure search on
    the kernel's star table, kept when its least conjugate under the
    order's automorphisms is new."""
    seps = [eq.block_of for eq in separating_equivalences(poset)]
    auts = ref.automorphisms(poset.up)
    seen, out = set(), []
    for mask in ref.closed_subsets(ref.star_table(seps)):
        fam = tuple(seps[i] for i in ref.members(mask))
        key = min(tuple(sorted(ref.canonical(ref.compose(eq, perm)) for eq in fam))
                  for perm in auts)
        if key not in seen:
            seen.add(key)
            out.append((poset.up, fam))
    return out


def test_extraction_families_match_literal_scan():
    lattices = enumerate_lattices(5, distributive_only=False) + [chain_lattice(6)]
    pools = [extraction_maps(lat, require_meets=require_meets)
             for lat in lattices for require_meets in (True, False)]
    # self-maps of a 2-set and idempotent self-maps of a 3-set hold closed
    # but non-commuting subsets, such as two constant maps
    pools.append(list(product(range(2), repeat=2)))
    pools.append([f for f in product(range(3), repeat=3) if compose(f, f) == f])
    for ops in pools:
        assert extraction_families(ops) == literal_extraction_families(ops), ops
    assert max(map(len, pools)) == 16


def test_q_space_scan_matches_literal_loop():
    expected = [fam for poset in enumerate_posets(4) for fam in literal_q_space_families(poset)]
    got = [(s.poset.up, tuple(eq.block_of for eq in s.eqs.members))
           for s in enumerate_q_spaces(4)]
    assert got == expected
    assert sum(len(up) <= 3 for up, _ in got) == 54 and len(got) == 768


@st.composite
def pool_tables(draw):
    """A k x k product table, k <= 10, with entries in range(k) or None:
    on and above the diagonal the larger or smaller index, below it the
    mirrored entry or the larger index, so that most pairs commute and many
    subsets are closed; then up to k entries are overwritten by None or any
    index, on the diagonal too."""
    k = draw(st.integers(1, 10))
    picks = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    tab = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            options = (max(i, j), min(i, j)) if i <= j else (tab[j][i], max(i, j))
            tab[i][j] = options[picks[i * k + j]]
    cell = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    entry = st.one_of(st.none(), st.integers(0, k - 1))
    for (i, j), x in draw(st.dictionaries(cell, entry, max_size=k)).items():
        tab[i][j] = x
    return tab


@settings(max_examples=200, deadline=None)
@given(pool_tables())
def test_closed_subsets_match_literal_scan_on_random_tables(tab):
    assert generators._closed_subsets(tab) == ref.closed_subsets(tab)


def test_operator_pool_guard():
    with pytest.raises(CapExceeded, match=r"^operator pool of 19 exceeds limit 18$"):
        extraction_families([(i,) for i in range(19)])


def test_operator_pool_of_exactly_the_limit_is_searched():
    # FAMILY_BASE_LIMIT constant maps: no two commute, so each alone is a
    # closed family; one map more fails, as test_operator_pool_guard pins
    k = generators.FAMILY_BASE_LIMIT
    ops = [(i,) * k for i in range(k)]
    assert extraction_families(ops) == [(op,) for op in ops]


def test_separating_pool_guard(monkeypatch):
    # the first five-point poset is the antichain, whose 52 equivalences
    # are all separating
    monkeypatch.setattr(generators, "QSPACE_POINT_LIMIT", 5)
    with pytest.raises(CapExceeded, match=r"^separating pool of 52 exceeds limit 18$"):
        list(enumerate_q_spaces(5))


# The dedupe loops the enumerators used before orbits of pool indices: every
# closed family is conjugated by every automorphism of its base and kept
# when the least sorted conjugate is new, here by the kernel's maps, closure
# search and automorphisms. Every field must match.

def conjugate_key_algebras(max_n):
    """(join, unit, zero, extractors, labels, label table) of each algebra."""
    for lat in enumerate_lattices(max_n, distributive_only=True):
        auts = ref.automorphisms(ref.order_of(lat.join))
        seen = set()
        for fam in literal_extraction_families(literal_extraction_maps(lat, True)):
            key = min(tuple(sorted(ref.compose(perm, ref.compose(arr, ref.inverse(perm)))
                                   for arr in fam)) for perm in auts)
            if key not in seen:
                seen.add(key)
                arrays = tuple(sorted(fam))
                yield (lat.join, lat.unit, lat.zero, arrays,
                       tuple(f"e{i}" for i in range(len(arrays))), ref.label_table(arrays))


def test_enumerate_algebras_matches_conjugate_key_loop():
    got, want = list(enumerate_algebras(5)), list(conjugate_key_algebras(5))
    assert len(got) == len(want) == 94
    for a, b in zip(got, want):
        assert (a.sl.join, a.sl.unit, a.sl.zero, a.extractors, a.labels, a.label_table) == b


def test_enumerate_q_spaces_matches_conjugate_key_loop():
    got = list(enumerate_q_spaces(4))
    want = [fam for poset in enumerate_posets(4) for fam in literal_q_space_families(poset)]
    assert len(got) == len(want) == 768
    for s, (up, fam) in zip(got, want):
        assert (ref.space_of(s), s.eqs.n, s.eqs.labels, s.eqs.closed, s.eqs.products) == \
            ((up, fam), len(up), tuple(f"t{i}" for i in range(len(fam))), True,
             ref.star_table(fam))


def test_enumerate_q_spaces_takes_family_tables_from_the_pool(monkeypatch):
    # one star product per ordered pair of each separating pool, none per family
    from infalg import equivalence

    calls = []
    product_of = equivalence._product
    monkeypatch.setattr(equivalence, "_product",
                        lambda theta, gamma: calls.append(1) or product_of(theta, gamma))
    assert sum(1 for _ in enumerate_q_spaces(4)) == 768
    assert len(calls) == 1516


def test_enumerate_algebras_builds_one_pool_table_per_lattice(monkeypatch):
    calls = []
    table_of = generators.table
    monkeypatch.setattr(generators, "table", lambda arrays: calls.append(1) or table_of(arrays))
    assert sum(1 for _ in enumerate_algebras(5)) == 94
    assert len(calls) == len(enumerate_lattices(5))


# Cauchy-Frobenius-Burnside: a finite group acting on a finite set has
# (1/|G|) * sum over g of |fixed points of g| orbits. Here each closed family
# of a base's pool is a point, and an automorphism of the base acts on it by
# conjugating every member; the conjugation is computed here, independently
# of the enumerators' orbit core.

def burnside_orbit_counts(bases):
    """Orbit counts per base size, from (size, families, act, automorphisms)
    per base; the quotient of each base must be an integer."""
    counts = Counter()
    for size, families, act, auts in bases:
        fixed = sum(frozenset(act(x, aut) for x in fam) == fam
                    for aut in auts for fam in families)
        assert fixed % len(auts) == 0, (size, fixed, len(auts))
        counts[size] += fixed // len(auts)
    return dict(counts)


def conjugate_map(arr, aut):
    """aut . arr . aut^-1: aut[x] goes to aut[arr[x]]."""
    out = [None] * len(arr)
    for x, y in enumerate(arr):
        out[aut[x]] = aut[y]
    return tuple(out)


def conjugate_equivalence(eq, aut):
    """The blocks of eq carried by aut."""
    return Equivalence.from_blocks(eq.n, [[aut[x] for x in bits(b)] for b in eq.blocks])


def test_algebra_orbits_match_burnside_count():
    bases = []
    for lat in enumerate_lattices(5, distributive_only=True):
        families = [frozenset(fam) for fam in extraction_families(extraction_maps(lat))]
        bases.append((lat.n, families, conjugate_map, automorphisms(lat.poset)))
    counts = burnside_orbit_counts(bases)
    assert counts == {1: 1, 2: 1, 3: 3, 4: 14, 5: 75}
    assert counts == Counter(a.n for a in enumerate_algebras(5))


def test_q_space_orbits_match_burnside_count():
    bases = []
    for poset in enumerate_posets(4):
        seps = separating_equivalences(poset)
        families = [frozenset(seps[i] for i in bits(mask))
                    for mask in generators._closed_subsets(star_table(seps))]
        bases.append((poset.n, families, conjugate_equivalence, automorphisms(poset)))
    counts = burnside_orbit_counts(bases)
    assert counts == {1: 1, 2: 6, 3: 47, 4: 714}
    assert counts == Counter(s.n for s in enumerate_q_spaces(4))


def test_boolean_pools_by_close_by_one():
    # the partitions of m atoms are the separating pool of the m-point
    # antichain, the dual poset of the Boolean lattice 2^m; at m = 5 the pool
    # has 52 members, past FAMILY_BASE_LIMIT and the reach of a 2^k scan
    bases = []
    for m in range(1, 6):
        pool = all_equivalences(m)
        tab = star_table(pool)
        found = generators._closed_subsets(tab)
        assert found == ref.closed_subsets(tab), m
        # each permutation of the atoms acts on the pool, conjugating once
        # per member, and so on every family of pool indices
        index = {eq: i for i, eq in enumerate(pool)}
        moves = [tuple(index[conjugate_equivalence(eq, aut)] for eq in pool)
                 for aut in permutations(range(m))]
        bases.append((m, [frozenset(bits(mask)) for mask in found], lambda i, move: move[i],
                      moves))
    assert len(pool) == 52 and len(found) == 2793
    counts = burnside_orbit_counts(bases)
    assert counts == {1: 1, 2: 3, 3: 7, 4: 31, 5: 131}
    antichains = Counter(s.n for s in enumerate_q_spaces(4)
                         if s.poset.up == antichain_poset(s.n).up)
    assert antichains == {m: counts[m] for m in range(1, 5)}
