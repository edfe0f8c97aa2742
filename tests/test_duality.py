import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infalg import duality
from infalg.algebra import (AlgebraMorphism, enumerate_homomorphisms, extraction_image,
                            identity_morphism, is_distributive_cdf, is_homomorphism,
                            is_isomorphism, make_algebra, verify_axioms)
from infalg.duality import (QMorphism, QSpace, _dual, boolean_diagnostics,
                            check_q_morphism, check_separating, check_upset_cap, dual_point_map,
                            dualize, dualize_morphism, double_dual_element_map,
                            make_nontrivial_separating, make_q_space, q_space_report,
                            reconstruct, round_trip_algebra,
                            round_trip_space, sentence_commutation, sentence_saturation_upsets,
                            sentence_separation, sentence_separation_star)
from infalg.equivalence import (Equivalence, StarFamily, all_equivalences, commutation_witness,
                                saturate, star_closure, star_family)
from infalg.errors import DEFAULT_CAP, CapExceeded, PreconditionError, StructureError
from infalg.generators import (all_labeled_posets, enumerate_algebras, enumerate_posets,
                               enumerate_q_spaces, separating_equivalences)
from infalg.order import (FinitePoset, antichain_poset, bits, chain_poset, mask_of,
                          meet_irreducibles, pullback, up_closure, up_sets)
from infalg.report import Report
from infalg.semigroup import compose, table
from infalg.set_algebra import SetAlgebra


def chain_algebra(m, extractors=None):
    return make_algebra(chain_poset(m), extractors or [tuple(range(m))])


def delta_space(poset):
    return make_q_space(poset, star_family([Equivalence.identity(poset.n)], ["d"]))


def test_dualize_three_chain():
    space = dualize(chain_algebra(3))
    assert space.poset.n == 2
    assert space.poset.le(0, 1) and not space.poset.le(1, 0)
    assert space.eqs.members == (Equivalence.identity(2),)


def test_dualize_boolean_gives_antichain(lv_2_chain2):
    space = dualize(lv_2_chain2)
    assert space.poset.n == 2
    assert space.poset.is_antichain()


def test_dualize_lattice_valued_passes_invariants(lv_2_chain3):
    space = dualize(lv_2_chain3)
    assert q_space_report(space).ok
    assert space.eqs.closed


def test_dualize_rejects_non_distributive(string22):
    with pytest.raises(PreconditionError):
        dualize(string22)


def test_reconstruct_point_space_is_two_chain():
    a = reconstruct(delta_space(chain_poset(1)))
    assert a.n == 2
    assert verify_axioms(a).ok


def test_reconstruct_antichain_with_both_trivial_equivalences():
    poset = antichain_poset(2)
    eqs = star_family([Equivalence.identity(2), Equivalence.all_relation(2)], ["d", "v"])
    a = reconstruct(make_q_space(poset, eqs))
    assert a.n == 4
    assert len(a.extractors) == 2
    assert is_distributive_cdf(a).ok


def test_reconstruct_two_chain_space_is_three_chain():
    a = reconstruct(delta_space(chain_poset(2)))
    assert a.n == 3
    # total order: every pair comparable
    assert all(a.le(x, y) or a.le(y, x) for x in range(3) for y in range(3))


def test_round_trip_two_chain():
    rt = round_trip_algebra(chain_algebra(2))
    assert rt.target.n == 2


def test_round_trip_algebra_rejects_an_image_that_is_no_isomorphism():
    # the 2-element algebra with both order rows full: its two elements go
    # to one up-set of the dual, so the image map is no bijection
    from dataclasses import replace

    from infalg.algebra import InfoAlgebra

    a = next(a for a in enumerate_algebras(2) if a.n == 2)
    b = InfoAlgebra(replace(a.sl, poset=FinitePoset(2, (0b11, 0b11))), a.extractors, a.labels,
                    a.composition)
    with pytest.raises(StructureError, match="^algebra round trip failed to be an isomorphism$"):
        round_trip_algebra(b)


def test_round_trip_multivariate(mv22_algebra):
    rt = round_trip_algebra(mv22_algebra)
    assert rt.space.poset.n == 4
    assert rt.space.poset.is_antichain()
    assert rt.target.n == 16


def test_round_trip_space_point():
    rt = round_trip_space(delta_space(chain_poset(1)))
    assert rt.target.poset.n == 1


def test_round_trip_space_three_chain_nontrivial():
    poset = chain_poset(3)
    theta = make_nontrivial_separating(poset)
    assert theta is not None
    fam = star_family([Equivalence.identity(3), theta,
                       Equivalence.all_relation(3)], ["d", "t", "v"])
    rt = round_trip_space(make_q_space(poset, fam))
    assert rt.target.poset.n == 3


def test_separating_trivial_equivalences():
    for poset in (chain_poset(3), antichain_poset(3), chain_poset(4)):
        assert check_separating(poset, Equivalence.identity(poset.n))[0]
        assert check_separating(poset, Equivalence.all_relation(poset.n))[0]


def test_separating_failure_witnessed():
    # gluing the two ends of a three-chain breaks saturation of up-sets
    poset = chain_poset(3)
    theta = Equivalence.from_blocks(3, [[0, 2], [1]])
    ok, witness = check_separating(poset, theta)
    assert not ok
    assert witness == ("saturation_image", 0b100)


def test_non_separating_equivalences_exist_with_witness():
    # exhaustive search over the three-point posets: failures occur and every
    # one is witnessed; at this scale they are all saturation-image failures
    # (an equivalence whose saturations keep up-sets up-closed never leaves
    # an inequivalent pair unsplit on so few points)
    found = 0
    for poset in all_labeled_posets(3):
        for theta in all_equivalences(3):
            ok, witness = check_separating(poset, theta)
            if not ok:
                found += 1
                assert witness[0] == "saturation_image"
    assert found > 0


def test_sentences_hold_for_trivial_equivalences():
    for poset in (chain_poset(3), antichain_poset(4)):
        n = poset.n
        for theta in (Equivalence.identity(n), Equivalence.all_relation(n)):
            assert sentence_saturation_upsets(poset, theta)
            assert sentence_separation(poset, theta)
            assert sentence_commutation(theta, theta)
            assert sentence_separation_star(poset, theta, theta)


def test_sentences_grid_on_antichain():
    poset = antichain_poset(4)
    rows = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
    cols = Equivalence.from_blocks(4, [[0, 2], [1, 3]])
    assert sentence_saturation_upsets(poset, rows)
    assert sentence_saturation_upsets(poset, cols)
    assert sentence_commutation(rows, cols)
    assert sentence_separation_star(poset, rows, cols)


def test_commutation_sentence_matches_witness():
    theta = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
    gamma = Equivalence.from_blocks(4, [[1, 2], [0], [3]])
    assert not sentence_commutation(theta, gamma)
    assert commutation_witness(theta, gamma) is not None


def test_first_order_characterization_three_points():
    # the two sentences together are exactly the separating property
    for poset in all_labeled_posets(3):
        for theta in all_equivalences(3):
            lhs = sentence_saturation_upsets(poset, theta) and sentence_separation(poset, theta)
            assert lhs == check_separating(poset, theta)[0]


def test_pair_sentence_reduces_to_single():
    for poset in all_labeled_posets(3):
        for theta in all_equivalences(3):
            pair = sentence_separation_star(poset, theta, theta)
            single = sentence_separation(poset, theta)
            assert not pair or single
            if sentence_saturation_upsets(poset, theta):
                assert pair == single


def test_q_morphism_identity():
    space = delta_space(chain_poset(3))
    m = QMorphism((0, 1, 2), (0,))
    assert check_q_morphism(m, space, space).ok


def test_q_morphism_constant_map_fails():
    poset = chain_poset(2)
    fam = star_family([Equivalence.all_relation(2)], ["v"])
    space = make_q_space(poset, fam)
    m = QMorphism((0, 0), (0,))
    report = check_q_morphism(m, space, space)
    assert not report.ok
    assert report.witness("saturation_compatible") is not None


def test_q_morphism_out_of_range_alpha_is_not_total():
    # a point sent past the codomain: no later law is checked
    space = delta_space(chain_poset(2))
    report = check_q_morphism(QMorphism((0, 2), (0,)), space, space)
    assert report.format() == "FAIL  maps_total"


def test_q_morphism_omega_past_the_domain_labels_is_not_total():
    # omega names label 1 of a one-member domain family: no later law is
    # checked, so no label table is indexed past its end
    space = delta_space(chain_poset(2))
    report = check_q_morphism(QMorphism((0, 1), (len(space.eqs.members),)), space, space)
    assert report.format() == "FAIL  maps_total"


def test_identity_q_morphism_of_a_wide_antichain_lists_no_up_set():
    # 2^24 up-sets: the omega law reads the star-closed family's products
    # and the saturation law the 24 principal up-sets
    poset = antichain_poset(24)
    space = delta_space(poset)
    assert check_q_morphism(QMorphism(tuple(range(24)), (0,)), space, space).ok
    assert "up_set_index" not in vars(poset)


def test_identity_q_morphism_of_a_21_point_chain():
    space = delta_space(chain_poset(21))
    assert check_q_morphism(QMorphism(tuple(range(21)), (0,)), space, space).ok
    assert len(up_sets(space.poset)) == 22


def test_q_morphism_of_an_invalid_space_names_a_saturation_off_its_up_sets():
    # the family is not closed, so the omega law reads the up-set algebra's
    # table; t0 saturates the up-set {2} to {0, 2}, which is no up-set, and
    # check_set_algebra names the same (label, mask)
    from infalg.set_algebra import check_set_algebra

    eqs = StarFamily(3, [Equivalence(3, [0, 1, 0]), Equivalence(3, [0, 0, 1])], ["t0", "t1"])
    space = QSpace(chain_poset(3), eqs)
    assert not q_space_report(space).ok and not eqs.closed
    with pytest.raises(StructureError) as exc:
        check_q_morphism(QMorphism((0, 1, 2), (0, 1)), space, space)
    assert (str(exc.value), exc.value.witness) == ("saturation of 4 by t0 is not a member",
                                                   ("t0", 4))
    report = check_set_algebra(3, up_sets(space.poset), eqs)
    assert report.witness("saturation_compatible") == ("t0", 4)


def test_q_morphism_of_a_family_that_is_not_closed_is_bounded_by_the_up_set_cap(monkeypatch):
    # two non-commuting equivalences on a 20-point antichain: the omega law
    # would read a table on 2^20 up-sets, so the cap stops it unsaturated
    from infalg import set_algebra

    n = 20
    eqs = StarFamily(n, [Equivalence(n, [x // 2 for x in range(n)]),
                         Equivalence(n, [(x + 1) // 2 for x in range(n)])], ["t0", "t1"])
    space = QSpace(antichain_poset(n), eqs)
    assert not eqs.closed
    saturations = count_calls(monkeypatch, "saturate", set_algebra)
    with pytest.raises(CapExceeded, match="^up-sets exceed the cap 4096$"):
        check_q_morphism(QMorphism(tuple(range(n)), (0, 1)), space, space)
    assert saturations == [] and "up_set_algebra" not in vars(space)


def test_double_dual_element_map_names_an_up_set_whose_preimage_is_not_one():
    # alpha swaps the two points of a 2-chain: the up-set {1} pulls back to {0}
    space = delta_space(chain_poset(2))
    with pytest.raises(StructureError) as exc:
        double_dual_element_map(QMorphism((1, 0), (0,)), space, space)
    assert (str(exc.value), exc.value.witness) == ("preimage of up-set 2 is not an up-set", 2)
    wide = delta_space(antichain_poset(13))
    with pytest.raises(CapExceeded, match="^up-sets exceed the cap 4096$"):
        double_dual_element_map(QMorphism(tuple(range(13)), (0,)), wide, wide)


@pytest.mark.parametrize("alpha, message, witness", [
    ((0, 5), "alpha[1] = 5 is outside range(2)", 1),
    ((-1, 0), "alpha[0] = -1 is outside range(2)", 0),
    ((0,), "alpha has length 1, expected 2", 1),
    ((0, 1, 0), "alpha has length 3, expected 2", 2),
], ids=["past-range", "negative", "short", "long"])
def test_double_dual_element_map_requires_a_total_point_map(alpha, message, witness):
    # each alpha fails check_q_morphism's maps_total; the element map names
    # the first index it cannot read instead of reading a partial map
    space = delta_space(antichain_poset(2))
    qm = QMorphism(alpha, (0,))
    assert [item.name for item in check_q_morphism(qm, space, space).failures()] == ["maps_total"]
    with pytest.raises(StructureError) as exc:
        double_dual_element_map(qm, space, space)
    assert (str(exc.value), exc.value.witness) == (message, witness)


def test_dualize_identity_morphism(lv_2_chain3):
    a = lv_2_chain3
    qm = dualize_morphism(identity_morphism(a), a, a)
    assert list(qm.alpha) == list(range(len(qm.alpha)))
    assert list(qm.omega) == list(range(len(qm.omega)))


def inclusion_pairs(a):
    """Deduped extraction-image inclusions of a, as (morphism, sub, a)."""
    from infalg.algebra import dedupe_extractors

    out = []
    for k in range(len(a.extractors)):
        sub, incl = extraction_image(a, k)
        deduped, merge = dedupe_extractors(sub)
        g = tuple(incl.g[i] for i, arr in enumerate(sub.extractors)
                  if sub.extractors.index(arr) == i)
        out.append((AlgebraMorphism(incl.f, g), deduped, a))
    return out


def test_dual_of_inclusion_is_onto(generated_suite):
    # one-to-one algebra maps dualize to surjective point maps
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        for m, sub, _ in inclusion_pairs(a):
            assert is_homomorphism(m, sub, a, check_meets=True).ok
            qm = dualize_morphism(m, sub, a)
            _, points_sub = _dual(sub)
            assert set(qm.alpha) == set(range(len(points_sub)))


def test_dual_of_surjection_is_order_embedding():
    a = chain_algebra(3, [(0, 1, 2), (0, 0, 2)])
    b = chain_algebra(2)
    m = AlgebraMorphism((0, 0, 1), (0, 0))
    assert is_homomorphism(m, a, b, check_meets=True).ok
    qm = dualize_morphism(m, a, b)
    space_b, _ = _dual(b)
    space_a, _ = _dual(a)
    for p in range(space_b.poset.n):
        for q in range(space_b.poset.n):
            assert space_b.poset.le(p, q) == space_a.poset.le(qm.alpha[p], qm.alpha[q])
    assert len(set(qm.alpha)) == len(qm.alpha)


def test_double_dual_commuting_square(lv_2_chain3, mv22_algebra):
    # the reconstructed image of a dualized morphism matches the original
    # through the two round-trip isomorphisms
    pairs = []
    for a in (lv_2_chain3, mv22_algebra):
        pairs.extend(inclusion_pairs(a))
    for m, a, b in pairs:
        qm = dualize_morphism(m, a, b)
        rt_a, rt_b = round_trip_algebra(a), round_trip_algebra(b)
        lx_f = double_dual_element_map(qm, rt_a.space, rt_b.space)
        for x in range(a.n):
            assert lx_f[rt_a.morphism.f[x]] == rt_b.morphism.f[m.f[x]]


def brute_q_morphisms(s, t):
    """Every (alpha, omega) that check_q_morphism accepts from s to t."""
    candidates = (QMorphism(alpha, omega) for alpha in product(range(t.n), repeat=s.n)
                  for omega in product(range(len(s.eqs.members)), repeat=len(t.eqs.members)))
    return [m for m in candidates if check_q_morphism(m, s, t).ok]


def test_morphism_duality_on_the_enumerated_universe():
    # over every ordered pair of the algebras on up to 4 elements: the dual
    # is a bijection from the homomorphisms onto the Q-morphisms between the
    # duals, a contravariant functor that commutes with the round trips, and
    # it swaps one-to-one with onto
    algebras = list(enumerate_algebras(4))
    assert len(algebras) == 19
    trips = [round_trip_algebra(a) for a in algebras]
    duals = {}  # (i, j) -> {homomorphism: its dual}
    injective = surjective = 0
    for (i, a), (j, b) in product(enumerate(algebras), repeat=2):
        space_a, space_b = trips[i].space, trips[j].space
        dual = {m: dualize_morphism(m, a, b)
                for m in enumerate_homomorphisms(a, b, check_meets=True)}
        brute = brute_q_morphisms(space_b, space_a)
        assert len(set(dual.values())) == len(dual) == len(brute), (i, j)
        assert set(dual.values()) == set(brute), (i, j)
        duals[i, j] = dual
        for m, qm in dual.items():
            lx_f = double_dual_element_map(qm, space_a, space_b)
            assert all(lx_f[trips[i].morphism.f[x]] == trips[j].morphism.f[m.f[x]]
                       for x in range(a.n)), (i, j, m)
            alpha = qm.alpha
            onto = set(alpha) == set(range(space_a.n))
            embedding = len(set(alpha)) == len(alpha) and all(
                space_b.poset.le(p, q) == space_a.poset.le(alpha[p], alpha[q])
                for p in range(space_b.n) for q in range(space_b.n))
            assert (len(set(m.f)) == a.n) == onto, (i, j, m)
            assert (len(set(m.f)) == b.n) == embedding, (i, j, m)
            injective += onto
            surjective += embedding
    assert sum(map(len, duals.values())) == 1423
    assert (injective, surjective) == (136, 124)

    for i, a in enumerate(algebras):
        n_points, n_labels = trips[i].space.n, len(a.extractors)
        assert duals[i, i][identity_morphism(a)] == \
            QMorphism(tuple(range(n_points)), tuple(range(n_labels)))
    composable = 0
    for i, j, k in product(range(len(algebras)), repeat=3):
        for m, qm in duals[i, j].items():
            for n, qn in duals[j, k].items():
                nm = AlgebraMorphism(compose(n.f, m.f), compose(n.g, m.g))
                assert duals[i, k][nm] == \
                    QMorphism(compose(qm.alpha, qn.alpha), compose(qn.omega, qm.omega))
                composable += 1
    assert composable == 111713


def test_compatibility_transfers_both_ways():
    # pairs (f, g) obeying the lattice and semigroup laws satisfy the
    # extraction law exactly when their double duals do
    a = chain_algebra(3, [(0, 1, 2), (0, 0, 2)])
    b = a
    space, points = _dual(a)
    checked_bad = checked_good = 0
    from itertools import product

    for f in product(range(3), repeat=3):
        if f[a.unit] != b.unit or f[a.zero] != b.zero:
            continue
        if any(f[a.join(x, y)] != b.join(f[x], f[y]) for x in range(3) for y in range(3)):
            continue
        lat_ok = all(f[min(x, y)] == min(f[x], f[y]) for x in range(3) for y in range(3))
        if not lat_ok:
            continue
        for g in product(range(2), repeat=2):
            if any(g[a.compose_label(k, l)] != b.compose_label(g[k], g[l])
                   for k in range(2) for l in range(2)):
                continue
            compat = all(f[a.apply(k, x)] == b.apply(g[k], f[x])
                         for k in range(2) for x in range(3))
            alpha = dual_point_map(f, a, b, points, points)
            qm = QMorphism(alpha, tuple(g))
            dual_compat = check_q_morphism(qm, space, space).witness("saturation_compatible") is None
            assert compat == dual_compat
            checked_bad += not compat
            checked_good += compat
    assert checked_good and checked_bad


def test_boolean_diagnostics(lv_2_chain2):
    report = boolean_diagnostics(lv_2_chain2)
    assert report.ok
    assert dualize(lv_2_chain2).poset.n == 2


def test_boolean_diagnostics_two_chain():
    assert boolean_diagnostics(chain_algebra(2)).ok


def test_boolean_diagnostics_rejects_three_chain():
    with pytest.raises(PreconditionError):
        boolean_diagnostics(chain_algebra(3))


def test_make_nontrivial_separating_three_chain():
    theta = make_nontrivial_separating(chain_poset(3))
    assert theta == Equivalence.from_blocks(3, [[1, 2], [0]])
    assert check_separating(chain_poset(3), theta)[0]
    assert not theta.is_identity() and not theta.is_all()


def test_make_nontrivial_separating_antichain_falls_back():
    # no principal up-set of an antichain has two points; the least union of
    # two is the block, and the 2^40 up-sets of the wide one are not listed
    for n in (4, 40):
        poset = antichain_poset(n)
        theta = make_nontrivial_separating(poset)
        assert theta == Equivalence.from_blocks(n, [[0, 1], *([x] for x in range(2, n))])
        assert "up_set_index" not in vars(poset)
        assert check_separating(poset, theta)[0]


def test_make_nontrivial_separating_two_chain_none():
    assert make_nontrivial_separating(chain_poset(2)) is None


def literal_nontrivial_separating(poset):
    """Principal up-sets first, in point order, then the other up-sets
    ascending; the first one of >= 2 points, short of the whole set, whose
    single-block equivalence is separating."""
    n = poset.n
    principal = [poset.up[x] for x in range(n)]
    for u in principal + [u for u in up_sets(poset) if u not in principal]:
        theta = Equivalence(n, [0 if (u >> x) & 1 else x + 1 for x in range(n)])
        if (u != poset.full_mask() and bin(u).count("1") >= 2
                and not theta.is_identity() and not theta.is_all()
                and check_separating(poset, theta)[0]):
            return theta
    return None


# Preorders, where a block must hold the points 2-5 of the shared rows. In
# the first, the first pair's union, up[0] | up[1], holds them, but the least
# candidate is their own union, so the unions are tried in mask order, not
# pair order. In the second, no union of two principal up-sets holds all
# three two-point classes {0, 1}, {2, 3}, {4, 5}; the block {0, ..., 5} does.
SHARED_ROWS = FinitePoset(7, (0b110001, 0b1110, 0b1100, 0b1100, 0b110000, 0b110000, 0b1000000))
THREE_CLASSES = FinitePoset(7, (0b11, 0b11, 0b1100, 0b1100, 0b110000, 0b110000, 0b1000000))


def test_make_nontrivial_separating_matches_literal_search():
    posets = [poset for n in range(2, 5) for poset in all_labeled_posets(n)]
    for poset in (posets + [antichain_poset(n) for n in range(5, 15)]
                  + [SHARED_ROWS, THREE_CLASSES]):
        assert make_nontrivial_separating(poset) == literal_nontrivial_separating(poset), poset
    assert make_nontrivial_separating(THREE_CLASSES) == Equivalence.from_blocks(
        7, [[0, 1, 2, 3, 4, 5], [6]])


def test_make_nontrivial_separating_forms_no_union_when_principal_separates(monkeypatch):
    # on a wide chain up[1] separates, so the n(n-1)/2 unions are never sorted
    monkeypatch.setattr(duality, "sorted", lambda *_: pytest.fail("unions formed"),
                        raising=False)
    n = 300
    theta = make_nontrivial_separating(chain_poset(n))
    assert theta == Equivalence.from_blocks(n, [list(range(1, n)), [0]])


def test_q_space_is_validated_once(monkeypatch):
    space = delta_space(chain_poset(3))
    calls = []
    monkeypatch.setattr(duality, "check_separating",
                        lambda *args: calls.append(args) or check_separating(*args))
    assert q_space_report(space) is q_space_report(space) is space.report
    reconstruct(space)
    assert calls == []
    reconstruct(QSpace(space.poset, space.eqs))
    assert len(calls) == len(space.eqs.members)


@pytest.mark.parametrize("k", [3, 1], ids=["larger-family", "smaller-family"])
def test_q_space_report_stops_at_a_universe_mismatch(k):
    # no separating test runs across two universes: on a larger family it
    # would index past the order, on a smaller one it would pass vacuously
    eqs = StarFamily(k, [Equivalence.all_relation(k)], ["a"])
    report = q_space_report(QSpace(antichain_poset(2), eqs))
    assert report.format() == f"FAIL  universe_match  witness={(k, 2)}"
    with pytest.raises(StructureError) as exc:
        make_q_space(antichain_poset(2), eqs)
    assert exc.value.report.format() == f"FAIL  universe_match  witness={(k, 2)}"


def test_make_nontrivial_separating_tries_principal_up_sets_first():
    # a 2-chain a < b beside a 28-point antichain has 3 * 2^28 up-sets; the
    # principal up-set {a, b} separates, so no other up-set is listed
    n = 30
    poset = FinitePoset(n, (0b11, 0b10, *(1 << x for x in range(2, n))))
    theta = make_nontrivial_separating(poset)
    assert theta == Equivalence.from_blocks(n, [[0, 1], *([x] for x in range(2, n))])
    assert "up_set_index" not in vars(poset)


def test_make_nontrivial_separating_rejects_singleton():
    with pytest.raises(PreconditionError):
        make_nontrivial_separating(chain_poset(1))


def test_saturations_compose_along_extractor_labels(generated_suite):
    # the dual saturations on up-sets form a semigroup matching composition
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, _ = _dual(a)
        arrays = member_arrays(space)
        for k in range(len(arrays)):
            for l in range(len(arrays)):
                composed = tuple(arrays[k][arrays[l][i]] for i in range(len(arrays[k])))
                assert composed == arrays[a.compose_label(k, l)]


def test_dual_saturations_distinct(generated_suite):
    # distinct extractors induce distinct saturations already on up-sets
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, _ = _dual(a)
        arrays = member_arrays(space)
        assert len(set(arrays)) == len(arrays)


def test_kernel_class_witness_on_duals(generated_suite):
    # whenever an extracted element sits inside a principal prime ideal,
    # some equivalent ideal contains the original element
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, points = _dual(a)
        for k in range(len(a.extractors)):
            theta = space.eqs.members[k]
            for x in range(a.n):
                for p in range(len(points)):
                    if a.le(a.apply(k, x), points[p]):
                        assert any(theta.relates(p, q) and a.le(x, points[q])
                                   for q in range(len(points)))


def test_trace_inclusion_matches_membership_transfer(generated_suite):
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, points = _dual(a)
        usets = up_sets(space.poset)
        for k in range(len(a.extractors)):
            theta = space.eqs.members[k]
            from infalg.equivalence import saturate

            saturated = [u for u in usets if saturate(theta, u) == u]
            image = set(a.extractors[k])
            traces = [frozenset(e for e in image if a.le(e, p)) for p in points]
            for p in range(len(points)):
                for q in range(len(points)):
                    incl = traces[p] <= traces[q]
                    transfer = all((u >> q) & 1 for u in saturated if (u >> p) & 1)
                    assert incl == transfer


def test_enumerated_round_trips_sample():
    for i, a in enumerate(enumerate_algebras(4)):
        round_trip_algebra(a)
    count = 0
    for s in enumerate_q_spaces(3):
        round_trip_space(s)
        count += 1
    assert count > 0


def test_dual_family_can_fail_to_commute():
    # diamond with a pendant top and its two one-sided retractions: a fully
    # verified distributive algebra whose dual trace equivalences do not
    # commute as relations; the round trip is an isomorphism regardless.
    # This pins a divergence between the family-level relational claim and
    # what reconstruction actually needs (the saturations on up-sets).
    rows = [[True, True, True, True, True],
            [False, True, False, True, True],
            [False, False, True, True, True],
            [False, False, False, True, True],
            [False, False, False, False, True]]
    # order: 0 < 1,2 < 3 < 4 where 0=unit, 4=zero
    poset = FinitePoset.from_bool_table(rows)
    a = make_algebra(poset, [(0, 1, 0, 1, 4), (0, 0, 2, 2, 4), (0, 0, 0, 0, 4),
                             (0, 1, 2, 3, 4)])
    assert verify_axioms(a).ok
    assert is_distributive_cdf(a).ok
    space = dualize(a)
    assert not space.eqs.closed
    i, j = 0, 1
    assert commutation_witness(space.eqs.members[i], space.eqs.members[j]) is not None
    assert not sentence_commutation(space.eqs.members[i], space.eqs.members[j])
    rt = round_trip_algebra(a)
    assert rt.target.n == a.n


def literal_check_separating(poset, theta):
    """check_separating as literal loops: every up-set saturated twice."""
    usets = poset.up_set_index
    for u in usets:
        if saturate(theta, u) not in usets:
            return False, ("saturation_image", u)
    saturated = [u for u in usets if saturate(theta, u) == u]
    for p in range(poset.n):
        for q in range(p + 1, poset.n):
            if theta.relates(p, q):
                continue
            if not any(((u >> p) & 1) != ((u >> q) & 1) for u in saturated):
                return False, ("unseparated_pair", (p, q))
    return True, None


def test_check_separating_matches_literal_loop():
    # every labeled poset of up to four points with every equivalence; on a
    # partial order no pair is ever left unseparated, so every preorder on up
    # to three points is added (the library's route reads transitive rows)
    cases = [(poset, theta) for n in range(1, 5) for poset in all_labeled_posets(n)
             for theta in all_equivalences(n)]
    assert len(cases) == 3387
    preorders = [FinitePoset(n, tuple(row | 1 << a for a, row in enumerate(rows)))
                 for n in range(1, 4) for rows in product(range(1 << n), repeat=n)]
    cases += [(poset, theta) for poset in preorders
              if all(poset.up[b] & ~row == 0 for row in poset.up for b in bits(row))
              for theta in all_equivalences(poset.n)]
    assert len(cases) == 4581
    kinds = set()
    for poset, theta in cases:
        expected = literal_check_separating(poset, theta)
        assert check_separating(poset, theta) == expected, (poset, theta)
        kinds.add(expected[1] and expected[1][0])
    assert kinds == {None, "saturation_image", "unseparated_pair"}


def test_partial_orders_never_leave_a_pair_unseparated():
    # on a partial order (ii) follows from (i): an unseparated pair would
    # climb to a strictly higher unseparated pair, and so on forever
    cases = [(poset, theta) for poset in enumerate_posets(5)
             for theta in all_equivalences(poset.n)]
    assert len(cases) == 3546
    kinds = {w and w[0] for ok, w in (check_separating(p, theta) for p, theta in cases)}
    assert kinds == {None, "saturation_image"}


def test_check_separating_reads_no_up_set_index():
    # all 2^20 masks of a 20-point antichain are up-sets, so every
    # equivalence separates, and only the 20 principal up-sets are read
    rng = random.Random(20)
    poset = antichain_poset(20)
    for _ in range(5):
        theta = Equivalence(20, [rng.randrange(3) for _ in range(20)])
        assert check_separating(poset, theta) == (True, None)
    assert "up_set_index" not in vars(poset)


def test_check_separating_rejects_an_equivalence_on_another_universe():
    # an input error, not a verdict: judged on the order's rows, the last
    # case would name saturation_image 6, a mask outside the order
    for poset, theta in ((chain_poset(2), Equivalence(3, [0, 0, 1])),
                         (antichain_poset(3), Equivalence(2, [0, 0])),
                         (chain_poset(3), Equivalence(2, [0, 1]))):
        with pytest.raises(StructureError,
                           match=rf"^universe mismatch: {theta.n} vs {poset.n}$") as err:
            check_separating(poset, theta)
        assert err.value.witness == (theta.n, poset.n)
        assert "separating_verdicts" not in vars(poset)


def test_separation_verdicts_are_derived_once_per_order(monkeypatch):
    # the pools decide each (order, equivalence) pair once: every equivalence
    # on each of the 1 + 2 + 5 + 16 orders of up to 4 points, whose
    # universes have 1, 2, 5 and 15 equivalences; the reports read them
    calls = []
    uncached = duality._check_separating
    monkeypatch.setattr(duality, "_check_separating",
                        lambda poset, theta: calls.append(theta) or uncached(poset, theta))
    spaces = list(enumerate_q_spaces(4))
    assert len(calls) == 1 * 1 + 2 * 2 + 5 * 5 + 16 * 15 == 270
    for s in spaces:
        make_q_space(s.poset, s.eqs)
    assert (len(spaces), len(calls)) == (768, 270)


def test_q_space_reports_match_uncached_orders():
    # the report read from each order's cache equals the one built on a
    # fresh copy of the order, which has none, and the literal loop per member
    spaces = list(enumerate_q_spaces(4))
    assert len(spaces) == 768
    for s in spaces:
        assert "separating_verdicts" in vars(s.poset)
        fresh = FinitePoset(s.poset.n, s.poset.up)
        assert "separating_verdicts" not in vars(fresh)
        report = q_space_report(s)
        assert report == q_space_report(QSpace(fresh, s.eqs))
        assert [(item.ok, item.witness) for item in report.items[1:]] == [
            literal_check_separating(fresh, theta) for theta in s.eqs.members]
    # the pools cached every equivalence, failing ones with their witnesses
    posets = {id(s.poset): s.poset for s in spaces}.values()
    assert len(posets) == 24
    for poset in posets:
        cached = vars(poset)["separating_verdicts"]
        assert len(cached) == len(all_equivalences(poset.n))
        fresh = FinitePoset(poset.n, poset.up)
        for theta, verdict in cached.items():
            assert check_separating(poset, theta) == verdict
            assert verdict == literal_check_separating(fresh, theta)


@st.composite
def wide_posets(draw):
    """An order on 21-26 points, past the up-set enumeration limit: the
    transitive closure of a random DAG, or a disjoint union of chains."""
    n = draw(st.integers(21, 26))
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        up = [1 << a for a in range(n)]
        for a in reversed(range(n)):  # rows above a are already transitive
            for b in (b for x, b in edges if x == a and b > a):
                up[a] |= up[b]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5)))
        up = [mask_of(range(a, hi)) for lo, hi in zip([0, *cuts], [*cuts, n])
              for a in range(lo, hi)]
    return FinitePoset(n, tuple(up))


@settings(max_examples=40, deadline=None)
@given(wide_posets(), st.data())
def test_separation_past_the_up_set_enumeration_limit(poset, data):
    # a random labeling into a few blocks, or one up-set glued into a block
    # with singletons elsewhere, which always separates
    n = poset.n
    if data.draw(st.booleans()):
        k = data.draw(st.integers(1, 4))
        theta = Equivalence(n, data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                                  max_size=n)))
    else:
        block = up_closure(poset, data.draw(st.integers(1, poset.full_mask())))
        theta = Equivalence(n, [-1 if (block >> x) & 1 else x for x in range(n)])
    ok, w = check_separating(poset, theta)
    assert ok == (sentence_saturation_upsets(poset, theta) and sentence_separation(poset, theta))
    family = star_family([theta], ["t"])
    if ok:
        assert make_q_space(poset, family).report.ok
    else:
        assert w[0] == "saturation_image"
        with pytest.raises(StructureError):
            make_q_space(poset, family)


def member_arrays(space):
    """Saturation of every family member as a self-map of the up-set list,
    collisions rejected: the label tables' second route."""
    pos = space.poset.up_set_index
    arrays = [tuple(pos[saturate(member, u)] for u in pos) for member in space.eqs.members]
    if len(set(arrays)) != len(arrays):
        raise StructureError("ambiguous composition: saturation arrays collide")
    return arrays


def literal_check_q_morphism(m, s, t):
    """check_q_morphism with its order and saturation laws as literal loops."""
    report = Report()
    ok = (len(m.alpha) == s.poset.n and all(0 <= v < t.poset.n for v in m.alpha)
          and len(m.omega) == len(t.eqs.members)
          and all(0 <= v < len(s.eqs.members) for v in m.omega))
    report.add("maps_total", ok)
    if not ok:
        return report
    w = next(((p, q) for p in range(s.poset.n) for q in range(s.poset.n)
              if s.poset.le(p, q) and not t.poset.le(m.alpha[p], m.alpha[q])), None)
    report.add("alpha_order_preserving", w is None, w)
    tab_s, tab_t = table(member_arrays(s)), table(member_arrays(t))

    def composite(tab, i, j):
        if tab[i][j] is None:
            raise StructureError(f"saturations not closed under composition at ({i},{j})")
        return tab[i][j]

    ks = range(len(t.eqs.members))
    w = next(((i, j) for i in ks for j in ks
              if m.omega[composite(tab_t, i, j)]
              != composite(tab_s, m.omega[i], m.omega[j])), None)
    report.add("omega_semigroup_map", w is None, w)

    def preimage(u):
        return mask_of(p for p in range(s.poset.n) if (u >> m.alpha[p]) & 1)

    w = None
    for i in ks:
        gamma = t.eqs.members[i]
        th = s.eqs.members[m.omega[i]]
        for v in t.poset.up_set_index:
            if preimage(saturate(gamma, v)) != saturate(th, preimage(v)):
                w = (i, v)
                break
        if w:
            break
    report.add("saturation_compatible", w is None, w)
    return report


def test_check_q_morphism_matches_literal_loop():
    # seeded random (alpha, omega) pairs between Q-spaces of up to three points
    rng = random.Random(5)
    spaces = list(enumerate_q_spaces(3))
    failed = 0
    for _ in range(2000):
        s, t = rng.choice(spaces), rng.choice(spaces)
        m = QMorphism(tuple(rng.randrange(t.n) for _ in range(s.n)),
                      tuple(rng.randrange(len(s.eqs.members)) for _ in t.eqs.members))
        expected = literal_check_q_morphism(m, s, t)
        assert check_q_morphism(m, s, t).items == expected.items, (m, s, t)
        failed += not expected.ok
    assert 0 < failed < 2000


def literal_round_trip_space(s, double_dual):
    """round_trip_space with its point map and correspondence checks as
    literal loops, on ``double_dual(s)``."""
    index = s.poset.up_set_index
    target, points = double_dual(s)
    n = s.poset.n
    if target.poset.n != n or len(target.eqs.members) != len(s.eqs.members):
        raise StructureError("double dual has different size")
    carrier_of = {c: i for i, c in enumerate(points)}
    lam = []
    for p in range(n):
        c = index[s.poset.up[p]]
        if c not in carrier_of:
            raise StructureError(f"principal up-set of point {p} is not a dual point")
        lam.append(carrier_of[c])
    lam = tuple(lam)
    omega = tuple(range(len(s.eqs.members)))
    if sorted(lam) != list(range(n)):
        raise StructureError("space round trip point map is not bijective")
    for p in range(n):
        for q in range(n):
            if s.poset.le(p, q) != target.poset.le(lam[p], lam[q]):
                raise StructureError(f"order not preserved at {(p, q)}")
    for i, theta in enumerate(s.eqs.members):
        ti = target.eqs.members[i]
        for p in range(n):
            for q in range(n):
                if theta.relates(p, q) != ti.relates(lam[p], lam[q]):
                    raise StructureError(f"equivalence correspondence broken at {(i, p, q)}")
    qm = literal_check_q_morphism(QMorphism(lam, omega), s, target)
    if not qm.ok:
        raise StructureError("space round trip is not a Q-morphism:\n" + qm.format())
    return target, QMorphism(lam, omega), points


# Each verdict has one route in the library; the second routes run here.

def count_calls(monkeypatch, name, *modules):
    """Calls of the function `name`, through whichever of the modules hold it."""
    calls = []
    for module in modules:
        original = getattr(module, name, None)
        if original is not None:
            monkeypatch.setattr(module, name,
                                lambda *args, f=original: calls.append(args) or f(*args))
    return calls


def test_round_trips_decide_each_law_once(monkeypatch, lv_2_chain3):
    from infalg import set_algebra

    q_checks = count_calls(monkeypatch, "check_q_morphism", duality)
    builds = count_calls(monkeypatch, "build_set_algebra", duality, set_algebra)
    for s in enumerate_q_spaces(3):
        round_trip_space(s)
    round_trip_algebra(lv_2_chain3)
    assert q_checks == [] and builds == []


def test_check_q_morphism_reads_star_closed_tables_without_saturating(monkeypatch):
    # a star-closed family's omega law reads its star products, so the only
    # saturations are the saturation law's: two per codomain label and
    # principal up-set (the points of these orders have distinct rows)
    from infalg import set_algebra

    spaces = list(enumerate_q_spaces(3))
    saturations = count_calls(monkeypatch, "saturate", duality, set_algebra)
    expected = 0
    for s in spaces:
        assert s.eqs.closed
        m = QMorphism(tuple(range(s.n)), tuple(range(len(s.eqs.members))))
        assert check_q_morphism(m, s, s).ok
        expected += 2 * len(s.eqs.members) * s.n
    assert len(saturations) == expected


def test_label_table_matches_the_saturation_arrays_on_every_dual():
    # the up-set algebra's table against the arrays resolved here, on every
    # dual of the universe up to 5 elements, star-closed or not
    not_closed = 0
    for a in enumerate_algebras(5):
        space = dualize(a)
        sa = SetAlgebra(space.n, tuple(up_sets(space.poset)), space.eqs)
        arrays = member_arrays(space)
        assert sa.saturations == tuple(arrays)
        assert sa.label_table == table(arrays)
        if space.eqs.closed:
            assert sa.label_table == space.eqs.products
        else:
            not_closed += 1
    assert not_closed == 2


def test_reconstruct_checks_its_cap_before_saturating(monkeypatch):
    space = QSpace(antichain_poset(13), star_family([Equivalence.identity(13)], ["t0"]))
    saturations = count_calls(monkeypatch, "saturate", duality)
    with pytest.raises(CapExceeded, match="^up-sets exceed the cap 4096$"):
        reconstruct(space)
    assert saturations == []


@pytest.mark.parametrize("poset, count", [
    (FinitePoset(0, ()), 1), (chain_poset(3), 4), (antichain_poset(2), 4),
    (antichain_poset(3), 8), (chain_poset(1), 2)])
def test_upset_cap_boundary(poset, count):
    # an order with exactly cap up-sets passes and one more fails; the empty
    # up-set counts, so a cap of 0 fails every order, the empty one included
    for _ in range(2):  # the search on a fresh order, then the index it cached
        with pytest.raises(CapExceeded, match=f"^up-sets exceed the cap {count - 1}$"):
            check_upset_cap(poset, count - 1)
        with pytest.raises(CapExceeded, match="^up-sets exceed the cap 0$"):
            check_upset_cap(poset, 0)
        check_upset_cap(poset, count)
        assert "up_set_index" in vars(poset)
    assert len(poset.up_set_index) == count
    check_upset_cap(poset, None)


def test_upset_cap_caches_the_index_it_found():
    # an order within the cap has its up-sets listed once, by the cap check;
    # one past it is refused after cap + 1 of its 2^40 up-sets
    poset = chain_poset(5)
    check_upset_cap(poset, 6)
    index = vars(poset)["up_set_index"]
    assert index == {mask: i for i, mask in enumerate(up_sets(poset))}
    assert poset.up_set_index is index
    wide = antichain_poset(40)
    with pytest.raises(CapExceeded, match="^up-sets exceed the cap 4096$"):
        check_upset_cap(wide, 4096)
    assert "up_set_index" not in vars(wide)


def trace_members(a):
    """The dual family as traces, read off the source's down rows: points
    are related when their ideals cut the extractor image alike."""
    points = meet_irreducibles(a.sl)
    return tuple(Equivalence(len(points), [a.poset.down[p] & mask_of(e) for p in points])
                 for e in a.extractors)


def test_second_routes_hold_on_the_enumerated_universe(generated_suite):
    from infalg.set_algebra import check_set_algebra, principal_upset_representation

    for s in enumerate_q_spaces(4):
        rt = round_trip_space(s)
        assert check_q_morphism(rt.morphism, s, rt.target).ok
        assert check_set_algebra(s.n, up_sets(s.poset), s.eqs).ok
    algebras = list(generated_suite.values()) + list(enumerate_algebras(5))
    for a in algebras:
        if is_distributive_cdf(a).ok:
            # dualize builds Cignoli's relation and does not check it separates
            assert q_space_report(dualize(a)).ok
            rt = round_trip_algebra(a)
            assert rt.space.eqs.members == trace_members(a)
            assert is_homomorphism(rt.morphism, a, rt.target, check_meets=True).ok
            assert check_set_algebra(rt.space.n, up_sets(rt.space.poset), rt.space.eqs).ok
        rep = principal_upset_representation(a)
        assert is_homomorphism(rep.morphism, a, rep.algebra, check_meets=True).ok


@st.composite
def random_q_spaces(draw):
    """A random order on 1-6 points with the star closure of a few pairwise
    commuting separating equivalences."""
    n = draw(st.integers(1, 6))
    up = [1 << a for a in range(n)]
    for a in reversed(range(n)):  # rows above a are already transitive
        for b in range(a + 1, n):
            if draw(st.booleans()):
                up[a] |= up[b]
    poset = FinitePoset(n, tuple(up))
    family = []
    for theta in draw(st.lists(st.sampled_from(separating_equivalences(poset)),
                               min_size=1, max_size=4, unique=True)):
        if all(commutation_witness(theta, gamma) is None for gamma in family):
            family.append(theta)
    eqs = star_closure(family)
    assume(all(check_separating(poset, theta)[0] for theta in eqs.members))
    return QSpace(poset, eqs)


@settings(max_examples=100, deadline=None)
@given(random_q_spaces())
def test_round_trips_past_the_enumerated_universe(s):
    from infalg.set_algebra import check_set_algebra

    rt = round_trip_space(s)  # raises unless verified
    assert check_q_morphism(rt.morphism, s, rt.target).ok
    assert check_set_algebra(s.n, up_sets(s.poset), s.eqs).ok
    a = reconstruct(s)
    art = round_trip_algebra(a)
    assert art.space.eqs.members == trace_members(a)
    assert is_homomorphism(art.morphism, a, art.target, check_meets=True).ok


# The table route: every round trip as it ran before the mask certificate,
# from fresh tables, kept as the oracle of the mask route.

def table_reconstruct(s, cap=DEFAULT_CAP):
    """reconstruct on tables: the up-set algebra's join table and
    saturation arrays, then the output's axioms and CDF verdict."""
    check_upset_cap(s.poset, cap)
    q_space_report(s).require("invalid Q-space", PreconditionError)
    out = SetAlgebra(s.n, tuple(up_sets(s.poset)), s.eqs).to_info_algebra()
    verify_axioms(out).require("reconstructed algebra fails axioms")
    if not is_distributive_cdf(out).ok:
        raise StructureError("reconstructed algebra is not distributive")
    return out


def table_double_dual(s):
    return _dual(table_reconstruct(s))


def table_round_trip_algebra(a):
    """round_trip_algebra on tables: is_isomorphism against the
    reconstructed algebra."""
    space, points = _dual(a)
    target = table_reconstruct(space)
    index = space.poset.up_set_index
    f = tuple(index[pullback(points, up)] for up in a.poset.up)
    morphism = AlgebraMorphism(f, tuple(range(len(a.extractors))))
    if not is_isomorphism(morphism, a, target):
        raise StructureError("algebra round trip failed to be an isomorphism")
    return space, points, target, morphism


def algebra_fields(a):
    return a.sl.poset, a.sl.join, a.unit, a.zero, a.extractors, a.labels, a.composition


def space_fields(s):
    return s.poset, s.eqs.n, s.eqs.members, s.eqs.labels, s.eqs.products


def assert_space_routes_agree(s):
    assert algebra_fields(reconstruct(s)) == algebra_fields(table_reconstruct(s))
    rt = round_trip_space(s)
    target, morphism, points = literal_round_trip_space(s, table_double_dual)
    assert (space_fields(rt.target), rt.morphism, rt.points) == (
        space_fields(target), morphism, points)


def assert_algebra_routes_agree(a):
    rt = round_trip_algebra(a)
    space, points, target, morphism = table_round_trip_algebra(a)
    assert (space_fields(rt.space), rt.points, rt.morphism) == (
        space_fields(space), points, morphism)
    assert algebra_fields(rt.target) == algebra_fields(target)


def test_mask_route_matches_the_table_route_on_the_universe():
    spaces = list(enumerate_q_spaces(4))
    assert len(spaces) == 768
    for s in spaces:
        assert_space_routes_agree(s)
    duals = not_closed = 0
    for a in enumerate_algebras(5):
        if not is_distributive_cdf(a).ok:
            continue
        assert_algebra_routes_agree(a)
        space = dualize(a)
        assert_space_routes_agree(space)
        duals += 1
        not_closed += not space.eqs.closed
    assert (duals, not_closed) == (94, 2)


@settings(max_examples=100, deadline=None)
@given(random_q_spaces())
def test_mask_route_matches_the_table_route_past_the_universe(s):
    assert_space_routes_agree(s)
    assert_algebra_routes_agree(reconstruct(s))


def failure(run, s):
    with pytest.raises((StructureError, PreconditionError)) as exc:
        run(s)
    e = exc.value
    return type(e), str(e), e.witness, e.report and e.report.items


ALL2 = Equivalence.all_relation(2)
LEFT3, RIGHT3 = Equivalence(3, [0, 0, 1]), Equivalence(3, [0, 1, 1])
GRID4 = [Equivalence(4, [0, 0, 1, 1]), Equivalence(4, [0, 1, 0, 1])]


@pytest.mark.parametrize("s, message", [
    # not closed: the product of the grid's two partitions is not listed
    (QSpace(antichain_poset(4), StarFamily(4, GRID4, ["t0", "t1"])),
     "saturations not closed under composition at (0,1)"),
    # not closed, as the members do not commute: neither composite of their
    # saturations is listed
    (QSpace(antichain_poset(3), StarFamily(3, [LEFT3, RIGHT3], ["t0", "t1"])),
     "saturations not closed under composition at (0,1)"),
], ids=["unlisted", "not-commuting"])
def test_failed_certificates_raise_the_table_route_error(s, message):
    # each Q-space is valid; its family fails the up-set algebra's label
    # table, and every route names that failure alike
    assert q_space_report(s).ok
    expected = failure(table_reconstruct, s)
    assert expected[1].startswith(message)
    assert failure(reconstruct, s) == failure(round_trip_space, s) == expected
    assert failure(lambda s: literal_round_trip_space(s, table_double_dual), s) == expected


def test_colliding_saturations_leave_the_label_table_unresolved():
    # two distinct members saturate the empty and the full set alike; the
    # members of a Q-space never collide, as a separating member is fixed
    # by its saturations of the principal up-sets
    sa = SetAlgebra(3, (0, 7), StarFamily(3, [LEFT3, RIGHT3], ["t0", "t1"]))
    assert sa.saturations == ((0, 1), (0, 1))
    with pytest.raises(StructureError, match="^cannot resolve composition: saturation "
                                             "arrays collide$"):
        sa.to_info_algebra()


@pytest.mark.parametrize("s, message", [
    # a preorder: its two points share one principal up-set
    (QSpace(FinitePoset(2, (3, 3)), star_family([ALL2])), "double dual has different size"),
], ids=["preorder"])
def test_double_duals_off_the_masks_raise_the_table_route_error(s, message):
    # reconstruct passes, and only the double dual breaks
    assert algebra_fields(reconstruct(s)) == algebra_fields(table_reconstruct(s))
    expected = failure(lambda s: literal_round_trip_space(s, table_double_dual), s)
    assert expected[1] == message
    assert failure(round_trip_space, s) == expected


def test_resolving_label_tables_are_symmetric_and_every_route_agrees():
    # _certify's closure-operator argument, over every family of one to four
    # separating equivalences on the posets of up to 4 points, closed or
    # not: a label table that resolves is symmetric and both round trips
    # match the table routes, and a table that does not resolve fails every
    # route alike
    families = resolving = not_closed = 0
    for poset in enumerate_posets(4):
        pool = separating_equivalences(poset)
        for k in range(1, 5):
            for members in combinations(pool, k):
                s = QSpace(poset, StarFamily(poset.n, members, [f"t{i}" for i in range(k)]))
                families += 1
                try:
                    tab = s.up_set_algebra.label_table
                except StructureError:
                    expected = failure(table_reconstruct, s)
                    assert failure(reconstruct, s) == failure(round_trip_space, s) == expected
                    assert failure(lambda s: literal_round_trip_space(s, table_double_dual),
                                   s) == expected
                    continue
                assert all(tab[i][j] == tab[j][i] for i in range(k) for j in range(i))
                assert_space_routes_agree(s)
                resolving += 1
                not_closed += not s.eqs.closed
    assert (families, resolving, not_closed) == (6996, 1185, 82)


def wide_antichain_space():
    """A 12-point antichain with the star closure of x // 2, x % 2 and the
    identity: 4 members and 4,096 up-sets, the default cap."""
    n = 12
    eqs = star_closure([Equivalence(n, [x // 2 for x in range(n)]),
                        Equivalence(n, [x % 2 for x in range(n)]), Equivalence.identity(n)])
    return QSpace(antichain_poset(n), eqs)


def count_table_routes(monkeypatch):
    from infalg import algebra

    axioms = count_calls(monkeypatch, "verify_axioms", duality, algebra)
    cdfs = count_calls(monkeypatch, "is_distributive_cdf", duality, algebra)
    builds = []
    to_info_algebra = SetAlgebra.to_info_algebra
    monkeypatch.setattr(SetAlgebra, "to_info_algebra",
                        lambda sa: builds.append(sa) or to_info_algebra(sa))
    return axioms, cdfs, builds


def test_round_trip_space_builds_no_table(monkeypatch):
    # over the Q-space universe, the 94 duals (two of them not star-closed)
    # and a preorder, whose double dual is too small
    duals = [dualize(a) for a in enumerate_algebras(5)]
    assert len(duals) == 94
    axioms, cdfs, builds = count_table_routes(monkeypatch)
    table_duals = count_calls(monkeypatch, "_dual", duality)
    for s in list(enumerate_q_spaces(4)) + duals:
        round_trip_space(s)
    with pytest.raises(StructureError, match="^double dual has different size$"):
        round_trip_space(QSpace(FinitePoset(2, (3, 3)), star_family([ALL2])))
    s = wide_antichain_space()
    assert len(s.eqs.members) == 4
    rt = round_trip_space(s)
    assert len(s.poset.up_set_index) == 4096
    assert rt.morphism == QMorphism(tuple(range(12)), tuple(range(4)))
    assert axioms == cdfs == builds == table_duals == []


def test_certificate_of_a_star_closed_family_saturates_only_in_the_report(monkeypatch):
    # the label table is the family's star products, read once they are
    # derived, and the certificate is that they resolve
    from infalg import equivalence, set_algebra

    spaces = list(enumerate_q_spaces(4))
    for s in spaces:
        assert s.eqs.closed and q_space_report(s).ok
    saturations = count_calls(monkeypatch, "saturate", duality, set_algebra, equivalence)
    for s in spaces:
        duality._certify(s, DEFAULT_CAP)
    assert saturations == []


def test_dualize_computes_no_star_product(monkeypatch, lv_2_chain3):
    # the dual family's products are derived only when read
    from infalg import equivalence

    algebras = list(enumerate_algebras(5))
    products = count_calls(monkeypatch, "_product", equivalence)
    spaces = [dualize(a) for a in algebras + [lv_2_chain3]]
    assert products == []
    assert spaces[-1].eqs.closed and len(products) == len(lv_2_chain3.extractors) ** 2


def test_round_trip_algebra_checks_no_table_of_the_reconstruction(monkeypatch, generated_suite):
    # the source's CDF verdict is the only table check left
    sources = [a for a in list(generated_suite.values()) + list(enumerate_algebras(5))
               if is_distributive_cdf(a).ok]
    axioms, cdfs, builds = count_table_routes(monkeypatch)
    for a in sources:
        round_trip_algebra(a)
    assert axioms == builds == [] and len(cdfs) == len(sources)
    assert all(args[0] is a for args, a in zip(cdfs, sources))
