import random

import pytest

from infalg import algebra
from infalg.algebra import (AlgebraMorphism, InfoAlgebra, check_kernel_theorem, combination_rows,
                            dedupe_extractors, enumerate_homomorphisms, extraction_image,
                            ideal_completion,
                            identity_morphism, image_algebra, is_distributive_cdf,
                            is_homomorphism, is_isomorphism, kernel, kernel_of_array,
                            make_algebra, verify_axioms)
from infalg.duality import QSpace, dualize, q_space_report
from infalg.equivalence import Equivalence, StarFamily, star, star_family
from infalg.errors import CapExceeded, StructureError
from infalg.generators import enumerate_algebras, gen_string, string_elements
from infalg.order import (FinitePoset, bits, chain_lattice, chain_poset, powerset_lattice,
                          try_lattice, up_sets)
from infalg.semigroup import compose, first_row_witness


def two_chain_algebra(extra=()):
    return make_algebra(chain_poset(2), [(0, 1), *extra])


def test_identity_extractor_passes_axioms():
    a = two_chain_algebra()
    assert verify_axioms(a).ok


def test_string23_passes_axioms(string23):
    report = verify_axioms(string23)
    assert report.ok, report.format()


@pytest.mark.parametrize("extractor, witness", [((0, 1, 2), (1, "length")),
                                                ((0, 1, 2, 4), (1, 3))],
                         ids=["short", "out-of-range"])
def test_malformed_extractor_fails_well_formed_alone(extractor, witness):
    a = InfoAlgebra(powerset_lattice(2), ((0, 1, 2, 3), extractor), ("id", "e"))
    items = verify_axioms(a).items
    assert [(i.name, i.ok, i.witness) for i in items] == [("well_formed", False, witness)]


def test_extraction_dominated_failure_witnessed():
    # unit is sent to the contradiction: extracted part not contained
    a = make_algebra(chain_poset(2), [(1, 1)])
    report = verify_axioms(a)
    assert not report.ok
    assert report.witness("extraction_dominated") == (0, 0)


def lenient_partial(b):
    # drop the composite of the two single-variable projections
    keep = [i for i, lab in enumerate(b.labels) if lab in ("s0", "s1")]
    return InfoAlgebra(b.sl, tuple(b.extractors[i] for i in keep),
                       tuple(b.labels[i] for i in keep))


def test_lenient_mode_skips_only_closure(mv22_algebra):
    partial = lenient_partial(mv22_algebra)
    strict = verify_axioms(partial)
    assert not strict.ok
    assert [i.name for i in strict.failures()] == ["composition_closed"]
    assert verify_axioms(partial, require_closure=False).ok


def test_dedupe_rejects_unclosed_family(mv22_algebra):
    partial = lenient_partial(mv22_algebra)
    with pytest.raises(StructureError) as exc:
        dedupe_extractors(partial)
    assert exc.value.witness == verify_axioms(partial).witness("composition_closed") == (0, 1)


def test_kernel_of_identity_is_identity(string22):
    k = string22.labels.index("e2")
    assert kernel(string22, k) == Equivalence.identity(string22.n)


def test_kernel_blocks_string22(string22):
    names = string_elements(2, 2)
    idx = {s: i for i, s in enumerate(names)}
    eq = kernel(string22, string22.labels.index("e1"))
    blocks = {frozenset(names[x] for x in range(string22.n) if eq.relates(x, y))
              for y in range(string22.n)}
    assert blocks == {frozenset({""}), frozenset({"a", "aa", "ab"}),
                      frozenset({"b", "ba", "bb"}), frozenset({"0"})}
    assert eq.block_mask(idx["0"]) == 1 << idx["0"]


def test_kernel_class_of_contradiction_is_singleton(generated_suite):
    for a in generated_suite.values():
        for k in range(len(a.extractors)):
            assert kernel(a, k).block_mask(a.zero) == 1 << a.zero


def test_kernel_theorem_trivial():
    assert check_kernel_theorem(two_chain_algebra())


def test_kernel_theorem_generated(generated_suite):
    for name, a in generated_suite.items():
        assert check_kernel_theorem(a), name


def test_kernel_theorem_fails_on_unchecked_extractors():
    from infalg.errors import NonCommutingError
    from infalg.order import chain_lattice

    lat = chain_lattice(3)
    # idempotent maps, so each kernel's star with itself passes, and their
    # kernels {0,1}{2} and {0,2}{1} do not commute
    a = InfoAlgebra(lat, ((0, 0, 2), (0, 1, 0)), ("e0", "e1"))
    with pytest.raises(NonCommutingError):
        star(kernel(a, 0), kernel(a, 1))
    assert not check_kernel_theorem(a)
    # kernels {0,1,2} and {0,1}{2} commute, but e1 after e1 is constant, so
    # the star of e1's kernel with itself is not the composite's kernel
    b = InfoAlgebra(lat, ((0, 0, 0), (0, 0, 1)), ("e0", "e1"))
    assert star(kernel(b, 1), kernel(b, 1)) != kernel_of_array(compose(b.extractors[1],
                                                                       b.extractors[1]))
    assert not check_kernel_theorem(b)


def literal_kernel_theorem(a):
    """check_kernel_theorem as a literal loop over the label pairs, on pair
    sets, with no cache: the kernels commute, and their relational product
    is the kernel of x -> f(g(x))."""
    points = range(a.n)

    def product_pairs(f, g):
        return {(u, v) for u in points for v in points
                if any(f[u] == f[w] and g[w] == g[v] for w in points)}

    for f in a.extractors:
        for g in a.extractors:
            fg = product_pairs(f, g)
            if fg != product_pairs(g, f):
                return False
            if fg != {(u, v) for u in points for v in points if f[g[u]] == f[g[v]]}:
                return False
    return True


def test_kernel_theorem_matches_a_literal_per_pair_loop(generated_suite):
    cases = list(enumerate_algebras(5)) + list(generated_suite.values())
    assert len(cases) == 99
    assert all(check_kernel_theorem(a) == literal_kernel_theorem(a) for a in cases)


def test_kernel_theorem_computes_each_pair_once_per_lattice(monkeypatch):
    # 555 ordered pairs over the 94 algebras up to 5 elements, of which 102
    # distinct (lattice, pair) combinations
    calls = []
    monkeypatch.setattr(algebra, "star", lambda t, g: calls.append((t, g)) or star(t, g))
    cases = list(enumerate_algebras(5))
    assert sum(len(a.extractors) ** 2 for a in cases) == 555
    assert all(check_kernel_theorem(a) for a in cases)
    assert len(cases) == 94 and len(calls) == 102


def test_kernel_theorem_verdicts_are_kept_per_pair_on_a_shared_lattice():
    # the constant map and the identity pass; the maps of the failing test
    # above do not, and share arrays with the passing one or with each other,
    # so a cache keyed by fewer than both arrays of a pair hands one pair's
    # verdict to another
    maps = [((0, 0, 0), (0, 1, 2)), ((0, 0, 2), (0, 1, 0)), ((0, 0, 0), (0, 0, 1))]
    for order in (maps, maps[::-1]):
        lat = chain_lattice(3)
        algebras = [InfoAlgebra(lat, arrays, ("e0", "e1")) for arrays in order]
        assert [check_kernel_theorem(a) for a in algebras] == [
            arrays == maps[0] for arrays in order]
        assert [literal_kernel_theorem(a) for a in algebras] == [
            arrays == maps[0] for arrays in order]
        assert "kernel_pair_verdicts" in vars(lat)


def test_info_algebra_rejects_labels_that_do_not_match_its_extractors(string22):
    g = string22
    assert len(g.extractors) == 3
    with pytest.raises(StructureError, match="^extractor/label count mismatch$"):
        InfoAlgebra(g.sl, g.extractors, g.labels[:2])
    with pytest.raises(StructureError, match="^duplicate labels in \\('e0', 'e0', 'e1'\\)$"):
        InfoAlgebra(g.sl, g.extractors, ("e0", "e0", "e1"))


def test_kernel_star_matches_composite_kernel(string23):
    a = string23
    for k in range(len(a.extractors)):
        for l in range(len(a.extractors)):
            prod = star(kernel(a, k), kernel(a, l))
            assert prod == kernel_of_array(compose(a.extractors[k], a.extractors[l]))


def test_identity_is_homomorphism(generated_suite):
    for a in generated_suite.values():
        assert is_homomorphism(identity_morphism(a), a, a).ok


def test_extraction_image_inclusion_is_homomorphism(generated_suite):
    for a in generated_suite.values():
        for k in range(len(a.extractors)):
            sub, incl = extraction_image(a, k)
            assert verify_axioms(sub).ok
            assert is_homomorphism(incl, sub, a, check_meets=False).ok


def test_collapsing_bounds_is_not_homomorphism():
    a = two_chain_algebra()
    m = AlgebraMorphism((0, 0), (0,))
    report = is_homomorphism(m, a, a)
    assert not report.ok
    assert not [i for i in report.items if i.name == "preserves_bounds"][0].ok


def test_identity_is_isomorphism(string22):
    assert is_isomorphism(identity_morphism(string22), string22, string22)


def test_non_injective_map_is_not_isomorphism():
    a = make_algebra(chain_poset(3), [(0, 1, 2)])
    m = AlgebraMorphism((0, 0, 2), (0,))
    assert not is_isomorphism(m, a, a)


def test_extraction_image_of_identity_is_whole_algebra(string22):
    sub, incl = extraction_image(string22, string22.labels.index("e2"))
    assert is_isomorphism(incl, sub, string22)


def test_extraction_image_string_e1(string22):
    names = string_elements(2, 2)
    sub, incl = extraction_image(string22, string22.labels.index("e1"))
    assert [names[x] for x in incl.f] == ["", "a", "b", "0"]


@pytest.mark.parametrize("k", [4, -1], ids=["past-the-end", "negative"])
def test_extraction_image_rejects_an_extractor_index_out_of_range(mv22_algebra, k):
    # a negative index would silently take an extractor from the end
    assert len(mv22_algebra.extractors) == 4
    with pytest.raises(StructureError, match=f"^k = {k} is outside range\\(4\\)$") as err:
        extraction_image(mv22_algebra, k)
    assert err.value.witness == k


def test_extraction_image_global_projection(mv22_algebra):
    sub, incl = extraction_image(mv22_algebra, mv22_algebra.labels.index("s"))
    assert sub.n == 2
    assert set(incl.f) == {mv22_algebra.unit, mv22_algebra.zero}


def test_distributive_cdf_classification(string22, mv22_algebra, lv_2_chain3):
    assert is_distributive_cdf(lv_2_chain3).ok
    assert is_distributive_cdf(mv22_algebra).ok
    rep = is_distributive_cdf(string22)
    assert not rep.ok and rep.reason == "not_distributive"


def test_extractor_breaking_meets_detected():
    # diamond with a pendant bottom: 4 < 3 < {1,2} < 0; skipping the middle
    # in the retraction keeps every axiom but loses binary meets
    a = meet_breaking_algebra()
    assert verify_axioms(a).ok
    rep = is_distributive_cdf(a)
    assert not rep.ok and rep.reason == "extractor_breaks_meets"


def meet_breaking_algebra():
    rows = [[True, False, False, False, False],
            [True, True, False, False, False],
            [True, False, True, False, False],
            [True, True, True, True, False],
            [True, True, True, True, True]]
    poset = FinitePoset.from_bool_table(rows)
    return make_algebra(poset, [(0, 1, 2, 4, 4), (0, 1, 2, 3, 4)])


# Literal triple-loop definitions: the references the row-at-a-time scans in
# the library must match witness for witness.

def literal_breaks_meets(a, meet):
    return next(((k, x, y) for k in range(len(a.extractors))
                 for x in range(a.n) for y in range(a.n)
                 if a.apply(k, meet[x][y]) != meet[a.apply(k, x)][a.apply(k, y)]), None)


def literal_combination(a):
    return next(((k, x, y) for k in range(len(a.extractors))
                 for x in range(a.n) for y in range(a.n)
                 if a.apply(k, a.join(a.apply(k, x), y))
                 != a.join(a.apply(k, x), a.apply(k, y))), None)


def literal_commute(a):
    ks = range(len(a.extractors))
    return next(((k, l, x) for k in ks for l in ks for x in range(a.n)
                 if a.apply(k, a.apply(l, x)) != a.apply(l, a.apply(k, x))), None)


def literal_idempotent(a):
    return next(((k, x) for k in range(len(a.extractors)) for x in range(a.n)
                 if a.apply(k, a.apply(k, x)) != a.apply(k, x)), None)


def test_meet_preservation_witness_matches_literal(lv_2_chain3, mv22_algebra):
    a = meet_breaking_algebra()
    rep = is_distributive_cdf(a)
    assert rep.witness == literal_breaks_meets(a, try_lattice(a.sl).meet) is not None
    for good in (lv_2_chain3, mv22_algebra):
        assert is_distributive_cdf(good).ok
        assert literal_breaks_meets(good, try_lattice(good.sl).meet) is None


def test_cdf_verdict_never_names_a_missing_meet(generated_suite):
    # every carrier is a lattice, so a verdict fails only on its laws
    reasons = {is_distributive_cdf(a).reason for a in
               [*generated_suite.values(), *enumerate_algebras(5), meet_breaking_algebra()]}
    assert reasons == {None, "not_distributive", "extractor_breaks_meets"}


def test_combination_witness_matches_literal_on_corrupted_extractors():
    rng = random.Random(2012)
    failing = 0
    for k, max_len in ((2, 3), (3, 2)):
        base = gen_string(k, max_len)
        assert verify_axioms(base).witness("extraction_combination") is None
        for _ in range(60):
            arrays = [list(e) for e in base.extractors]
            arr = arrays[rng.randrange(len(arrays))]
            arr[rng.randrange(base.n)] = rng.randrange(base.n)
            a = InfoAlgebra(base.sl, tuple(map(tuple, arrays)), base.labels)
            expected = literal_combination(a)
            assert verify_axioms(a).witness("extraction_combination") == expected
            failing += expected is not None
    assert failing >= 30
    # subsets of {0, 1}, combination is intersection: x -> x | {0} off the empty set
    a = InfoAlgebra(powerset_lattice(2), ((0, 1, 3, 3),), ("e",))
    assert verify_axioms(a).witness("extraction_combination") == literal_combination(a) == (0, 1, 2)


def all_x_combination_rows(join, extractors):
    """The combination rows with one row for every x, repeated values included."""
    return (((k, x), compose(e, join[e[x]]), compose(join[e[x]], e))
            for k, e in enumerate(extractors) for x in range(len(join)))


def test_combination_rows_keep_the_first_witness_of_the_all_x_rows(mv22_algebra, lv_2_chain3):
    rng = random.Random(7919)
    failing = 0
    for base in (gen_string(2, 4), gen_string(3, 2), mv22_algebra, lv_2_chain3):
        join = base.sl.join
        # one row per distinct image value
        assert len(list(combination_rows(join, base.extractors))) == sum(
            len(set(e)) for e in base.extractors)
        for _ in range(80):
            arrays = [list(e) for e in base.extractors]
            for _ in range(rng.randint(1, 3)):
                arrays[rng.randrange(len(arrays))][rng.randrange(base.n)] = rng.randrange(base.n)
            expected = first_row_witness(all_x_combination_rows(join, arrays))
            assert first_row_witness(combination_rows(join, arrays)) == expected, arrays
            failing += expected is not None
    assert failing >= 150


def test_commutation_and_idempotence_witnesses_match_literal_on_corrupted_extractors(
        mv22_algebra):
    rng = random.Random(1984)
    failing = {"extractors_commute": 0, "extraction_idempotent": 0}
    for base in (gen_string(2, 3), gen_string(3, 2), mv22_algebra):
        report = verify_axioms(base)
        assert report.witness("extractors_commute") is None
        assert report.witness("extraction_idempotent") is None
        for _ in range(60):
            arrays = [list(e) for e in base.extractors]
            for _ in range(rng.randint(1, 2)):
                arrays[rng.randrange(len(arrays))][rng.randrange(base.n)] = rng.randrange(base.n)
            a = InfoAlgebra(base.sl, tuple(map(tuple, arrays)), base.labels)
            report = verify_axioms(a, require_closure=False)
            for name, literal in (("extractors_commute", literal_commute),
                                  ("extraction_idempotent", literal_idempotent)):
                expected = literal(a)
                assert report.witness(name) == expected, (name, a.extractors)
                failing[name] += expected is not None
    assert min(failing.values()) >= 60, failing


def test_cdf_verdict_is_cached(string22):
    a = meet_breaking_algebra()
    assert is_distributive_cdf(a) is a.cdf
    assert is_distributive_cdf(string22) is is_distributive_cdf(string22)


def test_algebra_equality_and_hash_ignore_cached_verdict(mv22_algebra):
    a1, a2 = meet_breaking_algebra(), meet_breaking_algebra()
    assert a1.sl is not a2.sl
    is_distributive_cdf(a1)
    assert "cdf" in vars(a1) and "cdf" not in vars(a2)
    assert a1 == a2 and hash(a1) == hash(a2)
    space = dualize(two_chain_algebra())
    s1, s2 = QSpace(space.poset, space.eqs), QSpace(space.poset, space.eqs)
    q_space_report(s1)
    assert "report" in vars(s1) and "report" not in vars(s2)
    assert s1 == s2 and hash(s1) == hash(s2)
    # the star products are a function of the members, derived on first
    # read, so equality and hash ignore them
    f1 = star_family(kernel(mv22_algebra, k) for k in range(len(mv22_algebra.extractors)))
    f2 = StarFamily(f1.n, f1.members, f1.labels)
    assert "products" in vars(f1) and "products" not in vars(f2)
    assert f1 == f2 and hash(f1) == hash(f2)
    assert f1.products == tuple(tuple(f1.members.index(star(p, q)) for q in f1.members)
                                for p in f1.members)


def test_ideal_completion_lists_no_down_sets(monkeypatch):
    # the 25-element chain has 26 down-sets, more points than the removed
    # 20-point limit allowed; the 32-element string(2, 4) has 458,331
    # down-sets, past the default up-set cap, and the seven benchmark
    # families as many or more: the completion relabels the down rows
    # and calls no up-set search
    from infalg import order
    from infalg.generators import gen_lattice_valued, gen_multivariate
    from infalg.order import chain_lattice

    a = make_algebra(chain_poset(25), [tuple(range(25))])
    algebras = [gen_string(2, 4), gen_string(2, 5), gen_string(2, 6), gen_string(3, 3),
                gen_multivariate([2, 2]).to_info_algebra(),
                gen_multivariate([2, 3]).to_info_algebra(),
                gen_lattice_valued([3], chain_lattice(3)),
                gen_lattice_valued([2, 2], chain_lattice(3))]

    def fail(*args):
        raise AssertionError("closed_sets called")

    monkeypatch.setattr(order, "closed_sets", fail)
    assert ideal_completion(a)[0].n == 25
    for b in algebras:
        comp, emb = ideal_completion(b)
        assert comp.n == b.n and sorted(emb.f) == list(range(b.n))


def test_ideal_completion_two_chain():
    a = two_chain_algebra()
    comp, emb = ideal_completion(a)
    assert comp.n == 2
    assert is_isomorphism(emb, a, comp)


def test_ideal_completion_string22(string22):
    comp, emb = ideal_completion(string22)
    assert comp.n == 8
    assert is_isomorphism(emb, string22, comp)


def test_ideal_completion_generated(generated_suite):
    for name, a in generated_suite.items():
        comp, emb = ideal_completion(a)
        assert is_isomorphism(emb, a, comp), name


def ideal_completion_by_listing(a):
    """The listing route: every join-closed down-set among the up-sets of
    the dual order, in ascending mask order, with the join and the
    extractors lifted pairwise over the members of the ideals."""
    down = a.poset.down
    ideals = sorted(m for m in up_sets(a.poset.dual()) if m and all(
        (m >> a.join(x, y)) & 1 for x in bits(m) for y in bits(m)))
    pos = {m: i for i, m in enumerate(ideals)}

    def lift(values):
        out = 0
        for v in values:
            out |= down[v]
        return pos[out]

    join = tuple(tuple(lift(a.join(x, y) for x in bits(im) for y in bits(jm)) for jm in ideals)
                 for im in ideals)
    extractors = tuple(tuple(lift(e[y] for y in bits(im)) for im in ideals)
                       for e in a.extractors)
    up = tuple(sum(1 << j for j, jm in enumerate(ideals) if im & ~jm == 0) for im in ideals)
    ks = range(len(a.extractors))
    composition = tuple(tuple(a.compose_label(i, j) for j in ks) for i in ks)
    embed = tuple(pos[down[x]] for x in range(a.n))
    return (up, join, pos[down[a.unit]], pos[a.poset.full_mask()], extractors, a.labels,
            composition, embed, tuple(ks))


def test_ideal_completion_order_is_ideal_inclusion(generated_suite):
    # every field of the completion and its embedding against the listing
    # route, on the generated algebras and the universe up to 5 elements
    for name, a in [*generated_suite.items(), *enumerate(enumerate_algebras(5))]:
        comp, emb = ideal_completion(a)
        got = (comp.sl.poset.up, comp.sl.join, comp.unit, comp.zero, comp.extractors,
               comp.labels, comp.label_table, emb.f, emb.g)
        assert got == ideal_completion_by_listing(a), name


def test_image_algebra_rejects_an_image_that_is_not_a_subalgebra():
    a = gen_string(2, 1)   # "", "a", "b" and the contradiction 3
    cases = [((0, 1, 2, 2), "image not closed under join at \\(1,2\\)", (1, 2)),
             ((1, 1, 1, 1), "image not closed under extractor 0 at 1", (0, 1)),
             ((3, 3, 3, 3), "image misses the bound 0", 0)]
    for f, message, witness in cases:
        with pytest.raises(StructureError, match=message) as err:
            image_algebra(AlgebraMorphism(f, (0, 1)), a, a)
        assert err.value.witness == witness
    # an entry outside the codomain's elements or extractors is named, not
    # aliased from the end or let escape as an IndexError
    cases = [((0, 1, -1, 3), (0, 1), "f\\[2\\] = -1 is outside range\\(4\\)", ("f", 2)),
             ((0, 1, 2, 4), (0, 1), "f\\[3\\] = 4 is outside range\\(4\\)", ("f", 3)),
             ((0, 1, 2, 3), (0, 2), "g\\[1\\] = 2 is outside range\\(2\\)", ("g", 1)),
             ((0, 1, 2, 3), (-1, 1), "g\\[0\\] = -1 is outside range\\(2\\)", ("g", 0))]
    for f, g, message, witness in cases:
        with pytest.raises(StructureError, match=message) as err:
            image_algebra(AlgebraMorphism(f, g), a, a)
        assert err.value.witness == witness
    # extraction_image shares the restriction and its witnesses
    broken = InfoAlgebra(a.sl, ((0, 1, 2, 2),), ("e",))
    with pytest.raises(StructureError, match="not closed under join at \\(1,2\\)") as err:
        extraction_image(broken, 0)
    assert err.value.witness == (1, 2)


def test_image_algebra_rejects_a_map_that_is_not_total(string22):
    a = string22   # 8 elements and 3 extractors
    m = AlgebraMorphism((0, 7), (0,))
    assert not is_homomorphism(m, a, a).ok
    every = tuple(range(8))
    cases = [(m, "f has length 2, expected 8", ("f", 2)),
             (AlgebraMorphism(every + (0,), (0, 1, 2)), "f has length 9, expected 8", ("f", 8)),
             (AlgebraMorphism(every, (0,)), "g has length 1, expected 3", ("g", 1)),
             (AlgebraMorphism(every, (0, 1, 2, 0)), "g has length 4, expected 3", ("g", 3))]
    for m, message, witness in cases:
        with pytest.raises(StructureError, match=f"^{message}$") as err:
            image_algebra(m, a, a)
        assert err.value.witness == witness


def test_image_algebra_order_is_induced(generated_suite):
    for name, a in generated_suite.items():
        for k in range(len(a.extractors)):
            sub, incl = extraction_image(a, k)
            image = image_algebra(incl, sub, a)
            assert image.sl.poset == a.poset.restrict(incl.f) == sub.poset, (name, k)
            assert image.sl.join == sub.sl.join and image.extractors == sub.extractors


def test_extraction_preserves_order(generated_suite):
    for a in generated_suite.values():
        for k in range(len(a.extractors)):
            for x in range(a.n):
                for y in range(a.n):
                    if a.le(x, y):
                        assert a.le(a.apply(k, x), a.apply(k, y))


def test_composite_maps_satisfy_extraction_axioms(generated_suite):
    # the composite of two listed extractors is again an extraction map and
    # still commutes with every member of the family
    for a in generated_suite.values():
        for k in range(len(a.extractors)):
            for l in range(len(a.extractors)):
                comp = compose(a.extractors[k], a.extractors[l])
                assert comp[a.zero] == a.zero
                for x in range(a.n):
                    assert a.join(comp[x], x) == x
                    for y in range(a.n):
                        assert comp[a.join(comp[x], y)] == a.join(comp[x], comp[y])
                for m in range(len(a.extractors)):
                    em = a.extractors[m]
                    assert all(comp[em[x]] == em[comp[x]] for x in range(a.n))


def test_homomorphism_image_is_subalgebra(string22, mv22_algebra):
    # a proper collapse: send every string to its first letter
    a = string22
    e1 = a.labels.index("e1")
    f = tuple(a.extractors[e1])
    # f is not join-preserving on the full carrier, so search a real one
    found = None
    small = make_algebra(chain_poset(3), [(0, 1, 2), (0, 0, 2)])
    for m in enumerate_homomorphisms(small, mv22_algebra, check_meets=False):
        if len(set(m.f)) > 1:
            found = m
            break
    assert found is not None
    img = image_algebra(found, small, mv22_algebra)
    assert verify_axioms(img).ok


def test_homomorphisms_are_order_preserving(string22):
    a = make_algebra(chain_poset(3), [(0, 1, 2)])
    for m in enumerate_homomorphisms(a, a, check_meets=False):
        for x in range(a.n):
            for y in range(a.n):
                if a.le(x, y):
                    assert a.le(m.f[x], m.f[y])


def test_compose_label_requires_listing():
    b = make_algebra(chain_poset(3), [(0, 0, 2), (0, 1, 1)])
    with pytest.raises(StructureError):
        b.compose_label(0, 1)


def test_label_map_past_the_codomain_labels_is_not_total(string22):
    # g names label len(b.extractors): no later law is checked, so no label
    # table or extractor list is indexed past its end
    a = string22
    m = AlgebraMorphism(tuple(range(a.n)), (0,) * (len(a.extractors) - 1) + (len(a.extractors),))
    assert is_homomorphism(m, a, a).format() == "FAIL  maps_total"


def literal_homomorphism(m, a, b, check_meets=None):
    """The items of is_homomorphism as (name, ok, witness), each law a literal
    loop over its variables in lexicographic order."""
    f, g = m.f, m.g
    total = (len(f) == a.n and all(0 <= v < b.n for v in f)
             and len(g) == len(a.extractors) and all(0 <= v < len(b.extractors) for v in g))
    items = [("maps_total", total, None)]
    if not total:
        return items
    xs, ks = range(a.n), range(len(a.extractors))
    w = next(((x, y) for x in xs for y in xs if f[a.join(x, y)] != b.join(f[x], f[y])), None)
    items.append(("preserves_join", w is None, w))
    ok = f[a.unit] == b.unit and f[a.zero] == b.zero
    items.append(("preserves_bounds", ok, None if ok else (f[a.unit], f[a.zero])))

    def composes(k, l):
        try:
            return g[a.compose_label(k, l)] == b.compose_label(g[k], g[l])
        except StructureError:
            return False

    w = next(((k, l) for k in ks for l in ks if not composes(k, l)), None)
    items.append(("preserves_composition", w is None, w))
    w = next(((k, x) for k in ks for x in xs if f[a.apply(k, x)] != b.apply(g[k], f[x])), None)
    items.append(("extraction_compatible", w is None, w))
    if check_meets is None:
        check_meets = is_distributive_cdf(a).ok and is_distributive_cdf(b).ok
    if check_meets:
        meet_a, meet_b = try_lattice(a.sl).meet, try_lattice(b.sl).meet
        w = next(((x, y) for x in xs for y in xs
                  if f[meet_a[x][y]] != meet_b[f[x]][f[y]]), None)
        items.append(("preserves_meet", w is None, w))
    return items


def test_homomorphism_items_match_literal_loops(generated_suite):
    rng = random.Random(4096)
    small = list(enumerate_algebras(4))
    # the partial family has unlisted composites
    pool = small + [*generated_suite.values(), lenient_partial(generated_suite["multivariate22"])]
    # true homomorphisms, so that a perturbed one fails late in its rows
    homs = [(m, a, b) for a in small[:8] for b in small[:8]
            for m in enumerate_homomorphisms(a, b)]
    homs += [(identity_morphism(a), a, a) for a in pool]
    failing = dict.fromkeys(("maps_total", "preserves_join", "preserves_bounds",
                             "preserves_composition", "extraction_compatible",
                             "preserves_meet"), 0)
    passing = late = 0
    for trial in range(1500):
        if trial % 2:
            a, b = rng.choice(pool), rng.choice(pool)
            f = [rng.randrange(b.n) for _ in range(a.n)]
            if rng.random() < 0.7:
                f[a.unit], f[a.zero] = b.unit, b.zero
            g = [rng.randrange(len(b.extractors)) for _ in a.extractors]
        else:
            m, a, b = rng.choice(homs)
            f, g = list(m.f), list(m.g)
            if rng.random() < 0.5:
                f[rng.randrange(a.n)] = rng.randrange(b.n)
            if rng.random() < 0.3:
                g[rng.randrange(len(g))] = rng.randrange(len(b.extractors))
        if trial % 100 == 0:
            f[rng.randrange(a.n)] = rng.choice((-1, b.n))
        check_meets = rng.choice((None, None, True, False)) if max(a.n, b.n) <= 4 else None
        m = AlgebraMorphism(tuple(f), tuple(g))
        report = is_homomorphism(m, a, b, check_meets=check_meets)
        expected = literal_homomorphism(m, a, b, check_meets)
        assert [(i.name, i.ok, i.witness) for i in report.items] == expected, (m, a.n, b.n)
        passing += report.ok
        for name, ok, w in expected:
            failing[name] += not ok
            late += name in ("preserves_join", "preserves_meet") and w is not None and w[0] > 0
    assert passing >= 100 and late >= 100 and min(failing.values()) >= 15, (passing, late, failing)


def test_isomorphism_check_computes_no_cdf_verdict():
    # a join-preserving bijection preserves every meet, so neither side's
    # distributivity verdict is needed; fresh algebras have none cached
    from infalg.generators import gen_lattice_valued
    from infalg.order import chain_lattice
    from infalg.set_algebra import principal_upset_representation

    for a in (gen_string(2, 2), gen_lattice_valued([2], chain_lattice(3))):
        assert is_isomorphism(identity_morphism(a), a, a)
        comp, emb = ideal_completion(a)
        rep = principal_upset_representation(a)
        for b in (a, comp, rep.algebra):
            assert "cdf" not in vars(b)


def test_isomorphism_check_matches_meet_checking_route():
    # every pair of bijections between equal-size algebras: bijective f and g
    # plus the laws without meets decide exactly what the laws with meets do
    from itertools import permutations

    from infalg.order import diamond_m3, pentagon_n5

    algebras = list(enumerate_algebras(4))
    algebras += [InfoAlgebra(lat, (tuple(range(5)),), ("e0",))
                 for lat in (diamond_m3(), pentagon_n5())]
    pairs = isos = 0
    for a in algebras:
        for b in algebras:
            if (a.n, len(a.extractors)) != (b.n, len(b.extractors)):
                continue
            for f in permutations(range(a.n)):
                for g in permutations(range(len(a.extractors))):
                    m = AlgebraMorphism(f, g)
                    expected = is_homomorphism(m, a, b).ok
                    assert is_isomorphism(m, a, b) == expected, (a, b, m)
                    pairs += 1
                    isos += expected
    assert 0 < isos < pairs
