import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infalg import duality
from infalg.algebra import (AlgebraMorphism, enumerate_homomorphisms, extraction_image,
                            identity_morphism, is_distributive_cdf, is_homomorphism, make_algebra,
                            verify_axioms)
from infalg.duality import (QMorphism, QSpace, _dual, _member_arrays, boolean_diagnostics,
                            check_q_morphism, check_separating, dual_point_map, dualize,
                            dualize_morphism, double_dual_element_map, make_nontrivial_separating,
                            make_q_space, q_space_report, reconstruct, round_trip_algebra,
                            round_trip_space, sentence_commutation, sentence_saturation_upsets,
                            sentence_separation, sentence_separation_star)
from infalg.equivalence import (Equivalence, StarFamily, all_equivalences, commutation_witness,
                                saturate, star_closure, star_family)
from infalg.errors import CapExceeded, PreconditionError, StructureError
from infalg.generators import (all_labeled_posets, enumerate_algebras, enumerate_q_spaces,
                               separating_equivalences)
from infalg.order import FinitePoset, antichain_poset, chain_poset, mask_of, up_sets
from infalg.report import Report
from infalg.semigroup import compose, table


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
            _, points_sub, _ = _dual(sub)
            assert set(qm.alpha) == set(range(len(points_sub)))


def test_dual_of_surjection_is_order_embedding():
    a = chain_algebra(3, [(0, 1, 2), (0, 0, 2)])
    b = chain_algebra(2)
    m = AlgebraMorphism((0, 0, 1), (0, 0))
    assert is_homomorphism(m, a, b, check_meets=True).ok
    qm = dualize_morphism(m, a, b)
    space_b, _, _ = _dual(b)
    space_a, _, _ = _dual(a)
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
    space, points, _ = _dual(a)
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
    theta = make_nontrivial_separating(antichain_poset(4))
    assert theta is not None
    assert not theta.is_identity() and not theta.is_all()
    assert check_separating(antichain_poset(4), theta)[0]


def test_make_nontrivial_separating_two_chain_none():
    assert make_nontrivial_separating(chain_poset(2)) is None


def test_make_nontrivial_separating_matches_literal_search():
    # principal up-sets first, in point order, then the other up-sets
    # ascending; the first one of >= 2 points, short of the whole set, whose
    # single-block equivalence is separating
    for n in range(2, 5):
        for poset in all_labeled_posets(n):
            principal = [poset.up[x] for x in range(n)]
            candidates = principal + [u for u in up_sets(poset) if u not in principal]
            expected = None
            for u in candidates:
                theta = Equivalence(n, [0 if (u >> x) & 1 else x + 1 for x in range(n)])
                if (u != poset.full_mask() and bin(u).count("1") >= 2
                        and not theta.is_identity() and not theta.is_all()
                        and check_separating(poset, theta)[0]):
                    expected = theta
                    break
            assert make_nontrivial_separating(poset) == expected, poset


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


def test_make_nontrivial_separating_rejects_singleton():
    with pytest.raises(PreconditionError):
        make_nontrivial_separating(chain_poset(1))


def test_saturations_compose_along_extractor_labels(generated_suite):
    # the dual saturations on up-sets form a semigroup matching composition
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, _, _ = _dual(a)
        arrays = _member_arrays(space)
        for k in range(len(arrays)):
            for l in range(len(arrays)):
                composed = tuple(arrays[k][arrays[l][i]] for i in range(len(arrays[k])))
                assert composed == arrays[a.compose_label(k, l)]


def test_dual_saturations_distinct(generated_suite):
    # distinct extractors induce distinct saturations already on up-sets
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, _, _ = _dual(a)
        arrays = _member_arrays(space)
        assert len(set(arrays)) == len(arrays)


def test_kernel_class_witness_on_duals(generated_suite):
    # whenever an extracted element sits inside a principal prime ideal,
    # some equivalent ideal contains the original element
    for a in generated_suite.values():
        if not is_distributive_cdf(a).ok:
            continue
        space, points, _ = _dual(a)
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
        space, points, _ = _dual(a)
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
    # every labeled poset of up to four points with every equivalence; on
    # partial orders this small no pair is ever left unseparated, so every
    # reflexive relation on up to three points is added, preorders among them
    cases = [(poset, theta) for n in range(1, 5) for poset in all_labeled_posets(n)
             for theta in all_equivalences(n)]
    assert len(cases) == 3387
    cases += [(FinitePoset(n, tuple(row | 1 << a for a, row in enumerate(rows))), theta)
              for n in range(1, 4) for rows in product(range(1 << n), repeat=n)
              for theta in all_equivalences(n)]
    kinds = set()
    for poset, theta in cases:
        expected = literal_check_separating(poset, theta)
        assert check_separating(poset, theta) == expected, (poset, theta)
        kinds.add(expected[1] and expected[1][0])
    assert kinds == {None, "saturation_image", "unseparated_pair"}


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
    tab_s, tab_t = table(_member_arrays(s)), table(_member_arrays(t))

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


def literal_round_trip_space(s):
    """round_trip_space with its point map and correspondence checks as
    literal loops."""
    algebra = reconstruct(s)
    index = s.poset.up_set_index
    target, points, _ = duality._dual(algebra)
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


def round_trip_outcome(run, s):
    try:
        return run(s)
    except StructureError as exc:
        return str(exc)


def test_round_trip_space_matches_literal_loop(monkeypatch):
    # the double dual is replaced by one with a relabeled order or altered
    # equivalences, so that each check fails somewhere
    rng = random.Random(3)
    spaces = [s for s in enumerate_q_spaces(3) if s.n > 1]
    real_dual = duality._dual
    messages = set()
    for _ in range(300):
        s = rng.choice(spaces)
        target, points, cdf = real_dual(reconstruct(s))
        poset, members = target.poset, list(target.eqs.members)
        if rng.random() < 0.5:
            poset = rng.choice(all_labeled_posets(s.n))
        else:
            members[rng.randrange(len(members))] = rng.choice(all_equivalences(s.n))
        tampered = QSpace(poset, StarFamily(s.n, tuple(members), target.eqs.labels, False))
        monkeypatch.setattr(duality, "_dual", lambda a: (tampered, points, cdf))
        expected = round_trip_outcome(literal_round_trip_space, s)
        got = round_trip_outcome(round_trip_space, s)
        if isinstance(expected, str):
            assert got == expected
            messages.add(expected.split(" at ")[0].split(":")[0])
        else:
            assert (got.target, got.morphism, got.points) == expected
    assert messages == {"order not preserved", "equivalence correspondence broken"}


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


def test_reconstruct_checks_its_cap_before_saturating(monkeypatch):
    space = QSpace(antichain_poset(13), star_family([Equivalence.identity(13)], ["t0"]))
    saturations = count_calls(monkeypatch, "saturate", duality)
    with pytest.raises(CapExceeded, match="8192 up-sets exceed the cap 4096"):
        reconstruct(space)
    assert saturations == []


def test_second_routes_hold_on_the_enumerated_universe(generated_suite):
    from infalg.set_algebra import check_set_algebra, principal_upset_representation

    for s in enumerate_q_spaces(4):
        rt = round_trip_space(s)
        assert check_q_morphism(rt.morphism, s, rt.target).ok
        assert check_set_algebra(s.n, up_sets(s.poset), s.eqs).ok
    algebras = list(generated_suite.values()) + list(enumerate_algebras(5))
    for a in algebras:
        if is_distributive_cdf(a).ok:
            rt = round_trip_algebra(a)
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
    assert is_homomorphism(art.morphism, a, art.target, check_meets=True).ok
