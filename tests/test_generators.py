import hashlib
from collections import Counter
from itertools import product

import pytest

from infalg import generators
from infalg.algebra import is_distributive_cdf, verify_axioms
from infalg.atoms import classify
from infalg.equivalence import Equivalence, saturate, star
from infalg.errors import CapExceeded, NonCommutingError, PreconditionError
from infalg.generators import (all_labeled_posets, enumerate_algebras, enumerate_lattices,
                               enumerate_posets, enumerate_q_spaces,
                               extraction_families, extraction_maps, gen_lattice_valued,
                               gen_string, separating_equivalences, string_elements)
from infalg.order import (automorphisms, bits, chain_lattice, diamond_m3, is_distributive,
                          mask_of, powerset_lattice, semilattice_from_poset, up_rows,
                          verify_poset)
from infalg.semigroup import compose, table


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
    # oracle: rebuild the join table from the order alone
    derived = semilattice_from_poset(string23.poset)
    assert derived.join == string23.sl.join
    assert (derived.unit, derived.zero) == (string23.unit, string23.zero)


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


def test_string_join_matches_literal_prefix_join():
    for k, max_len in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2)):
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


def test_lattice_valued_rejects_non_distributive_value_lattice():
    with pytest.raises(PreconditionError):
        gen_lattice_valued([2], diamond_m3())


def test_generated_algebras_pass_axioms(generated_suite):
    for name, a in generated_suite.items():
        assert verify_axioms(a).ok, name


def test_labeled_poset_counts():
    assert [len(all_labeled_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]


def test_labeled_posets_match_verify_poset():
    # every table over the off-diagonal pairs, in subset-mask order, kept
    # iff verify_poset accepts it
    for n in range(5):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        expected = []
        for choice in range(1 << len(pairs)):
            rows = [[a == b for b in range(n)] for a in range(n)]
            for i, (a, b) in enumerate(pairs):
                rows[a][b] = bool((choice >> i) & 1)
            if verify_poset(rows).ok:
                expected.append(up_rows(rows))
        assert [p.up for p in all_labeled_posets(n)] == expected


def test_poset_counts_up_to_iso():
    counts = Counter(p.n for p in enumerate_posets(5))
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def test_enumerated_algebra_total():
    assert sum(1 for _ in enumerate_algebras(5)) == 94


def test_distributive_lattice_counts():
    counts = Counter(l.n for l in enumerate_lattices(5))
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}


def test_all_lattice_counts():
    counts = Counter(l.n for l in enumerate_lattices(5, distributive_only=False))
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}


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
    """The exhaustive candidate scan with its laws as literal loops."""
    n = lat.n
    down = [list(bits(row)) for row in lat.poset.down]
    down[lat.zero] = [lat.zero]
    out = []
    for cand in product(*down):
        ok = True
        for x in range(n):
            ex = cand[x]
            for y in range(n):
                if cand[lat.join[ex][y]] != lat.join[ex][cand[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok and require_meets:
            for x in range(n):
                for y in range(n):
                    if cand[lat.meet[x][y]] != lat.meet[cand[x]][cand[y]]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(tuple(cand))
    out.sort()
    return out


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


# Literal subset scans over a whole pool: the references the shared
# closed-subset scan of the generators must match, order included.

def literal_extraction_families(ops):
    k = len(ops)
    tab = table(ops)
    commute = [sum(1 << j for j in range(k) if tab[i][j] is not None and tab[i][j] == tab[j][i])
               for i in range(k)]
    families = []
    for mask in range(1, 1 << k):
        members = list(bits(mask))
        if any(mask & ~commute[i] for i in members):
            continue
        if all((mask >> tab[i][j]) & 1 for i in members for j in members):
            families.append(tuple(ops[i] for i in members))
    return families


def literal_q_space_families(poset):
    seps = separating_equivalences(poset)
    k = len(seps)
    commute = [0] * k
    star_idx = [[-1] * k for _ in range(k)]
    by_eq = {eq: i for i, eq in enumerate(seps)}
    for i in range(k):
        for j in range(k):
            try:
                prod = star(seps[i], seps[j])
            except NonCommutingError:
                continue
            commute[i] |= 1 << j
            star_idx[i][j] = by_eq.get(prod, -1)
    auts = automorphisms(poset)
    seen = set()
    out = []
    for mask in range(1, 1 << k):
        members = list(bits(mask))
        if any(mask & ~commute[i] for i in members):
            continue
        if not all(star_idx[i][j] >= 0 and (mask >> star_idx[i][j]) & 1
                   for i in members for j in members):
            continue
        fam = [seps[i] for i in members]
        key = min(tuple(sorted(Equivalence(eq.n, [eq.block_of[x] for x in perm]).block_of
                               for eq in fam))
                  for perm in auts)
        if key not in seen:
            seen.add(key)
            out.append((poset.up, tuple(eq.block_of for eq in fam)))
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


def test_operator_pool_guard():
    with pytest.raises(CapExceeded, match=r"^operator pool of 19 exceeds limit 18$"):
        extraction_families([(i,) for i in range(19)])


def test_separating_pool_guard(monkeypatch):
    # the first five-point poset is the antichain, whose 52 equivalences
    # are all separating
    monkeypatch.setattr(generators, "QSPACE_POINT_LIMIT", 5)
    with pytest.raises(CapExceeded, match=r"^separating pool of 52 exceeds limit 18$"):
        list(enumerate_q_spaces(5))


# The dedupe loops the enumerators used before orbits of pool indices: every
# closed family is conjugated by every automorphism of its base and kept
# when the least sorted conjugate is new. Every field must match.

def conjugate_key_algebras(max_n):
    from infalg.algebra import InfoAlgebra

    for lat in enumerate_lattices(max_n, distributive_only=True):
        ops = extraction_maps(lat, require_meets=True)
        auts = automorphisms(lat.poset)
        invs = [tuple(map(perm.index, range(len(perm)))) for perm in auts]
        seen = set()
        for fam in extraction_families(ops):
            key = min(tuple(sorted(compose(perm, compose(arr, inv)) for arr in fam))
                      for perm, inv in zip(auts, invs))
            if key in seen:
                continue
            seen.add(key)
            arrays = tuple(sorted(fam))
            labels = tuple(f"e{i}" for i in range(len(arrays)))
            yield InfoAlgebra(lat, arrays, labels, table(arrays))


def conjugate_key_q_spaces(max_points):
    from infalg.duality import QSpace
    from infalg.equivalence import star_family, star_table

    for poset in enumerate_posets(max_points):
        seps = separating_equivalences(poset)
        auts = automorphisms(poset)
        seen = set()
        for members in generators._closed_subsets(star_table(seps)):
            fam = [seps[i] for i in members]
            key = min(tuple(sorted(Equivalence(eq.n, compose(eq.block_of, perm)).block_of
                                   for eq in fam))
                      for perm in auts)
            if key in seen:
                continue
            seen.add(key)
            labels = tuple(f"t{i}" for i in range(len(fam)))
            yield QSpace(poset, star_family(fam, labels))


def test_enumerate_algebras_matches_conjugate_key_loop():
    got, want = list(enumerate_algebras(5)), list(conjugate_key_algebras(5))
    assert len(got) == len(want) == 94
    for a, b in zip(got, want):
        assert (a.sl.join, a.sl.unit, a.sl.zero, a.extractors, a.labels, a.composition) == \
            (b.sl.join, b.sl.unit, b.sl.zero, b.extractors, b.labels, b.composition)


def test_enumerate_q_spaces_matches_conjugate_key_loop():
    got, want = list(enumerate_q_spaces(4)), list(conjugate_key_q_spaces(4))
    assert len(got) == len(want) == 768
    for s, t in zip(got, want):
        assert s.poset.up == t.poset.up
        assert (s.eqs.n, s.eqs.members, s.eqs.labels, s.eqs.closed, s.eqs.products) == \
            (t.eqs.n, t.eqs.members, t.eqs.labels, t.eqs.closed, t.eqs.products)


def test_enumerate_q_spaces_takes_family_tables_from_the_pool(monkeypatch):
    # one star product per ordered pair of each separating pool, none per family
    from infalg import equivalence

    calls = []
    product_of = equivalence._product
    monkeypatch.setattr(equivalence, "_product",
                        lambda theta, gamma: calls.append(1) or product_of(theta, gamma))
    assert sum(1 for _ in enumerate_q_spaces(4)) == 768
    assert len(calls) == 1516


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
    from infalg.equivalence import star_table

    bases = []
    for poset in enumerate_posets(4):
        seps = separating_equivalences(poset)
        families = [frozenset(seps[i] for i in members)
                    for members in generators._closed_subsets(star_table(seps))]
        bases.append((poset.n, families, conjugate_equivalence, automorphisms(poset)))
    counts = burnside_orbit_counts(bases)
    assert counts == {1: 1, 2: 6, 3: 47, 4: 714}
    assert counts == Counter(s.n for s in enumerate_q_spaces(4))
