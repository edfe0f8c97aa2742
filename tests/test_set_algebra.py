import random

import pytest

from infalg.algebra import is_isomorphism, verify_axioms
from infalg.duality import dualize
from infalg.equivalence import Equivalence, commutation_witness, saturate, star_family
from infalg import set_algebra
from infalg.errors import CapExceeded, NotDirectedError, PreconditionError, StructureError
from infalg.generators import gen_multivariate
from infalg.order import up_sets
from infalg.set_algebra import (build_block_union_algebra, build_set_algebra, check_set_algebra,
                                principal_upset_representation)

GRID_ROWS = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
GRID_COLS = Equivalence.from_blocks(4, [[0, 2], [1, 3]])


def test_two_element_set_algebra():
    eqs = star_family([Equivalence.all_relation(3)])
    sa = build_set_algebra(3, (0, 0b111), eqs)
    a = sa.to_info_algebra()
    assert a.n == 2
    assert verify_axioms(a).ok


def test_multivariate_is_set_algebra(multivariate22):
    a = multivariate22.to_info_algebra()
    assert a.n == 16
    assert verify_axioms(a).ok


def test_missing_saturation_rejected():
    theta = Equivalence.from_blocks(3, [[0, 1], [2]])
    eqs = star_family([theta])
    with pytest.raises(StructureError) as err:
        build_set_algebra(3, (0, 0b001, 0b111), eqs)
    assert not err.value.report.witness("saturation_compatible") is None


def test_intersection_gap_rejected():
    eqs = star_family([Equivalence.identity(2)], n=2)
    with pytest.raises(StructureError) as err:
        build_set_algebra(2, (0b01, 0b10, 0b11), eqs)
    report = err.value.report
    assert not report.ok
    assert report.witness("intersection_closed") == (0b01, 0b10)


def test_to_info_algebra_order_is_reverse_inclusion(multivariate22, generated_suite):
    set_algebras = [multivariate22, gen_multivariate([3]),
                    build_block_union_algebra(star_family([
                        Equivalence.identity(4), GRID_ROWS, GRID_COLS,
                        Equivalence.all_relation(4)]))]
    for a in generated_suite.values():
        try:
            space = dualize(a)
        except PreconditionError:
            continue
        set_algebras.append(build_set_algebra(space.n, up_sets(space.poset), space.eqs))
    assert len(set_algebras) >= 6
    for sa in set_algebras:
        b = sa.to_info_algebra()
        fam = sa.family
        up = tuple(sum(1 << j for j, mj in enumerate(fam) if mj & ~mi == 0) for mi in fam)
        assert b.sl.poset.up == up
        assert (fam[b.unit], fam[b.zero]) == ((1 << sa.n) - 1, 0)


def test_block_union_identity_gives_power_set():
    eqs = star_family([Equivalence.identity(3)])
    sa = build_block_union_algebra(eqs)
    assert sa.family == tuple(range(8))


def test_block_union_rejects_undirected():
    eqs = star_family([GRID_ROWS, GRID_COLS, Equivalence.all_relation(4)])
    with pytest.raises(NotDirectedError) as err:
        build_block_union_algebra(eqs)
    assert err.value.witness == (0, 1)


def test_block_union_caps_a_member_before_building_its_unions(monkeypatch):
    # 2^13 unions exceed the default cap; no union is built, since every
    # nonempty pick reads its blocks through bits
    def no_union(pick):
        raise AssertionError(f"union {pick} built")

    monkeypatch.setattr(set_algebra, "bits", no_union)
    with pytest.raises(CapExceeded, match=r"^member with 13 blocks exceeds union cap 4096$"):
        build_block_union_algebra(star_family([Equivalence.identity(13)]))


def test_block_union_with_identity_accepted():
    eqs = star_family([Equivalence.identity(4), GRID_ROWS, GRID_COLS,
                       Equivalence.all_relation(4)])
    sa = build_block_union_algebra(eqs)
    assert sa.family == tuple(range(16))
    assert verify_axioms(sa.to_info_algebra()).ok


def test_representation_two_chain():
    from infalg.algebra import make_algebra
    from infalg.order import chain_poset

    a = make_algebra(chain_poset(2), [(0, 1)])
    rep = principal_upset_representation(a)
    assert rep.ground == (0,)
    assert rep.set_algebra.family == (0, 1)


def test_representation_string22(string22):
    rep = principal_upset_representation(string22)
    assert len(rep.ground) == 7
    assert len(rep.set_algebra.family) == 8
    assert is_isomorphism(rep.morphism, string22, rep.algebra)


def test_representation_saturation_of_upset_is_upset_of_image(generated_suite):
    # saturating a truncated principal up-set lands on the up-set of the
    # extracted element, for every extractor and element
    for a in generated_suite.values():
        rep = principal_upset_representation(a)
        pos = {x: i for i, x in enumerate(rep.ground)}

        def upset_mask(x):
            return sum(1 << pos[y] for y in rep.ground if a.le(x, y))

        for k, theta in enumerate(rep.set_algebra.eqs.members):
            for x in rep.ground:
                assert saturate(theta, upset_mask(x)) == upset_mask(a.apply(k, x))


def test_representation_order_is_reverse_inclusion(generated_suite):
    for a in generated_suite.values():
        rep = principal_upset_representation(a)
        fam = rep.set_algebra.family
        b = rep.algebra
        for i in range(b.n):
            for j in range(b.n):
                assert b.le(i, j) == (fam[j] & ~fam[i] == 0)


def test_representation_kernels_form_closed_family(generated_suite):
    for a in generated_suite.values():
        rep = principal_upset_representation(a)
        assert rep.set_algebra.eqs.closed
        members = rep.set_algebra.eqs.members
        for t in members:
            for u in members:
                assert commutation_witness(t, u) is None


def test_representation_round_trip(generated_suite):
    # rebuilding the set algebra of the representation is again isomorphic
    for a in generated_suite.values():
        rep = principal_upset_representation(a)
        again = build_set_algebra(rep.set_algebra.n, rep.set_algebra.family,
                                  rep.set_algebra.eqs)
        assert is_isomorphism(rep.morphism, a, again.to_info_algebra())


def literal_set_algebra(n, family, eqs):
    """The items of check_set_algebra as (name, ok, witness), each law a
    literal loop over the family in its given order."""
    fam = tuple(family)
    full = (1 << n) - 1
    w = next(((a, b) for a in fam for b in fam if a & b not in fam), None)
    v = next(((lab, mask) for lab, theta in zip(eqs.labels, eqs.members)
              for mask in fam if saturate(theta, mask) not in fam), None)
    return [("universe_match", eqs.n == n, (eqs.n, n)),
            ("contains_bounds", 0 in fam and full in fam, None),
            ("no_duplicates", len(set(fam)) == len(fam), None),
            ("intersection_closed", w is None, w),
            ("saturation_compatible", v is None, v)]


def test_set_algebra_witnesses_match_literal_on_corrupted_families(generated_suite):
    rng = random.Random(6174)
    bases = [gen_multivariate([2, 2]), gen_multivariate([2, 3])]
    bases += [principal_upset_representation(a).set_algebra for a in generated_suite.values()]
    failing = {"intersection_closed": 0, "saturation_compatible": 0}
    late = 0
    for sa in bases:
        assert literal_set_algebra(sa.n, sa.family, sa.eqs) == [
            (i.name, i.ok, i.witness) for i in check_set_algebra(sa.n, sa.family, sa.eqs).items]
        for _ in range(80):
            fam = list(sa.family)
            for _ in range(rng.randint(0, 2)):
                fam.pop(rng.randrange(len(fam)))
            for _ in range(rng.randint(0, 2)):
                fam.append(rng.randrange(1 << sa.n))
            if rng.random() < 0.1:
                fam.append(rng.choice(fam))
            rng.shuffle(fam)
            expected = literal_set_algebra(sa.n, fam, sa.eqs)
            report = check_set_algebra(sa.n, fam, sa.eqs)
            assert [(i.name, i.ok, i.witness) for i in report.items] == expected, fam
            for name, ok, w in expected:
                if name in failing and not ok:
                    failing[name] += 1
                    late += name == "intersection_closed" and w[0] != fam[0]
    assert min(failing.values()) >= 100 and late >= 100, (failing, late)


def test_representation_matches_literal_derivation(generated_suite):
    # the truncated up-sets and the element map, derived with n order tests
    # per element and positions found by list search
    from infalg.generators import enumerate_algebras

    algebras = list(generated_suite.values()) + list(enumerate_algebras(4))
    for a in algebras:
        ground = [x for x in range(a.n) if x != a.zero]
        pos = {x: i for i, x in enumerate(ground)}

        def upset_mask(x):
            return sum(1 << pos[y] for y in ground if a.le(x, y))

        fam = sorted({upset_mask(x) for x in ground} | {0})
        rep = principal_upset_representation(a)
        assert rep.set_algebra.family == tuple(fam)
        assert rep.morphism.f == tuple(fam.index(0) if x == a.zero else fam.index(upset_mask(x))
                                       for x in range(a.n))
    assert {a.zero for a in algebras} != {a.n - 1 for a in algebras}
