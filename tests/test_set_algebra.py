import collections
import contextlib
import dataclasses
import random

import pytest

import reference as ref
from infalg.algebra import AlgebraMorphism, InfoAlgebra, is_isomorphism, make_algebra, verify_axioms
from infalg.duality import dualize
from infalg.equivalence import Equivalence, commutation_witness, saturate, star_family
from infalg import set_algebra
from infalg.errors import (CapExceeded, InfAlgError, NotDirectedError, PreconditionError,
                           StructureError)
from infalg.generators import gen_multivariate, gen_string
from infalg.order import BoundedJoinSemilattice, FinitePoset, chain_poset, up_sets
from infalg.report import CheckItem, Report
from infalg.set_algebra import (SetAlgebra, build_block_union_algebra, build_set_algebra,
                                check_set_algebra, principal_upset_representation, represent)

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
    return ref.set_algebra_items(n, family, eqs.n, eqs.labels, blocks(eqs))


def blocks(eqs):
    return tuple(theta.block_of for theta in eqs.members)


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
        image, sa = representation_input(a)
        rep = principal_upset_representation(a)
        assert rep.set_algebra.family == sa.family
        assert rep.morphism.f == tuple(map(sa.family.index, image))
    assert {a.zero for a in algebras} != {a.n - 1 for a in algebras}


# The representation is decided by represent alone; the kernel's route, the
# set-algebra laws and then an isomorphism onto the kernel's set algebra,
# is the oracle here.

def representation_input(a):
    """represent's input as principal_upset_representation forms it, read
    literally, so that it can be formed for an algebra the library rejects."""
    ground = [x for x in range(a.n) if x != a.zero]
    image = [sum(1 << i for i, y in enumerate(ground) if a.le(x, y)) for x in range(a.n)]
    eqs = star_family([Equivalence(len(ground), [e[x] for x in ground]) for e in a.extractors],
                      a.labels, n=len(ground))
    return image, SetAlgebra(len(ground), tuple(sorted(set(image))), eqs)


def table_verdict(a, image, sa):
    """The kernel's verdict on represent's input."""
    laws = literal_set_algebra(sa.n, sa.family, sa.eqs)
    if not (ref.holds(laws) and set(image) <= set(sa.family)):
        return False
    return ref.is_isomorphism(tuple(map(sa.family.index, image)), tuple(range(len(a.extractors))),
                              ref.algebra_of(a), ref.set_algebra(sa.n, sa.family, blocks(sa.eqs)))


def table_representation(a):
    """The kernel's outcome: the set algebra and the morphism, or the error
    principal_upset_representation must raise, as ``outcome`` gives it."""
    image, sa = representation_input(a)
    laws = literal_set_algebra(sa.n, sa.family, sa.eqs)
    if not ref.holds(laws):
        text = Report([CheckItem(*law) for law in laws]).format()
        return StructureError, "not a set algebra:\n" + text, None, text
    if not table_verdict(a, image, sa):
        return (StructureError, "principal up-set representation failed to be an isomorphism",
                None, None)
    return sa, AlgebraMorphism(tuple(map(sa.family.index, image)), tuple(range(len(a.extractors))))


def library_representation(a):
    rep = principal_upset_representation(a)
    return rep.set_algebra, rep.morphism


def outcome(route, a):
    """The route's result, or its error's type, message, witness and report."""
    try:
        return route(a)
    except InfAlgError as err:
        return (type(err), str(err), err.witness,
                None if err.report is None else err.report.format())


def broken_laws(a, image, sa):
    """The laws of represent that fail, each a literal loop over the masks."""
    fam, ks, xs = list(sa.family), range(len(a.extractors)), range(a.n)
    ta, tb = ref.labels_of(ref.algebra_of(a)), ref.set_algebra(sa.n, fam, blocks(sa.eqs))[4]
    laws = {
        "bijective": sorted(image) == sorted(fam) == sorted(set(fam)),
        "unit": image[a.unit] == (1 << sa.n) - 1,
        "zero": image[a.zero] == 0,
        "join": all(image[a.join(x, y)] == image[x] & image[y] for x in xs for y in xs),
        "saturation": all(image[a.apply(k, x)] == ref.saturate(blocks(sa.eqs)[k], image[x])
                          for k in ks for x in xs),
        "labels": len(sa.eqs.members) == len(ks) and all(
            ta[k][l] == tb[k][l] for k in ks for l in ks),
    }
    return {law for law, ok in laws.items() if not ok}


def with_sl(a, **fields):
    return dataclasses.replace(a, sl=dataclasses.replace(a.sl, **fields))


def with_join(a, x, y, v):
    join = [list(row) for row in a.sl.join]
    join[x][y] = v
    return with_sl(a, join=tuple(map(tuple, join)))


def with_composition(a, k, l, v):
    tab = [list(row) for row in a.label_table]
    tab[k][l] = v
    return dataclasses.replace(a, composition=tuple(map(tuple, tab)))


# string(2,2) indexes '', a, b, aa, ab, ba, bb and the contradiction 7
STRING22 = gen_string(2, 2)


def two_labels(a):
    """The first two extractors, whose composites are again among them."""
    two = range(2)
    return InfoAlgebra(a.sl, a.extractors[:2], a.labels[:2],
                       tuple(tuple(a.label_table[k][l] for l in two) for k in two))


@pytest.mark.parametrize("tamper, law", [
    (lambda a, image, sa: (a, image, dataclasses.replace(
        sa, family=tuple(sorted(sa.family + (0b1,))))), "bijective"),
    (lambda a, image, sa: (with_sl(a, zero=6), image, sa), "zero"),
    (lambda a, image, sa: (two_labels(a), image, sa), "labels"),
])
def test_represent_rejects_each_broken_law_alone(tamper, law):
    # string(2,2)'s representation with an unreached member, a zero that is
    # not the contradiction, or a label fewer than the family has members
    rep = principal_upset_representation(STRING22)
    image = [rep.set_algebra.family[i] for i in rep.morphism.f]
    a, image, sa = tamper(STRING22, image, rep.set_algebra)
    assert broken_laws(a, image, sa) == {law}
    assert represent(a, image, sa) is None
    assert table_verdict(a, image, sa) is False


def test_represent_accepts_the_representation(generated_suite):
    for a in generated_suite.values():
        rep = principal_upset_representation(a)
        image = [rep.set_algebra.family[i] for i in rep.morphism.f]
        assert broken_laws(a, image, rep.set_algebra) == set()
        assert represent(a, image, rep.set_algebra) == rep.morphism
        assert table_verdict(a, image, rep.set_algebra) is True


def no_lattice():
    """1 and 2 have the two upper bounds 3 and 4, so their truncated up-sets
    meet in {3, 4}, which is no member."""
    up = (0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000)
    join = tuple(tuple(x if up[x] >> y & 1 else y if up[y] >> x & 1 else 5 for y in range(6))
                 for x in range(6))
    sl = BoundedJoinSemilattice(FinitePoset(6, up), join, 0, 5)
    return InfoAlgebra(sl, (tuple(range(6)),), ("id",))


@pytest.mark.parametrize("make, law, message", [
    (lambda: with_join(STRING22, 1, 3, 4), "join", "failed to be an isomorphism"),
    (lambda: with_sl(STRING22, unit=1), "unit", "failed to be an isomorphism"),
    # e(0) = 1 lies above 0: the kernel saturation misses the image of e
    (lambda: make_algebra(chain_poset(3), [(1, 1, 2)]), "saturation",
     "failed to be an isomorphism"),
    (lambda: with_composition(STRING22, 2, 2, 1), "labels", "failed to be an isomorphism"),
    (no_lattice, "join", "not a set algebra"),
])
def test_representation_fails_as_the_table_route(make, law, message):
    # hand-built unchecked algebras breaking one law on the masks: the error,
    # witness and report are the table route's, and a family that is no set
    # algebra is named by its report
    a = make()
    assert broken_laws(a, *representation_input(a)) == {law}
    expected = outcome(table_representation, a)
    assert message in expected[1]
    assert outcome(library_representation, a) == expected


def test_representation_matches_the_table_route_on_corrupted_algebras(generated_suite):
    # an extractor corrupted so that its kernels do not commute fails in
    # star_family, before either route
    rng = random.Random(2514)
    seen = collections.Counter()
    for a in list(generated_suite.values()) * 12:
        x, y, v = rng.randrange(a.n), rng.randrange(a.n), rng.randrange(a.n)
        k = rng.randrange(len(a.extractors))
        b = rng.choice([
            with_join(a, x, y, v),
            with_sl(a, unit=v),
            with_composition(a, k, rng.randrange(len(a.extractors)), k),
            dataclasses.replace(a, extractors=tuple(
                e[:x] + (v,) + e[x + 1:] if i == k else e for i, e in enumerate(a.extractors))),
            with_sl(a, poset=FinitePoset(a.n, tuple(
                r ^ (1 << y) if i == x else r for i, r in enumerate(a.poset.up)))),
        ])
        expected = outcome(table_representation, b)
        assert outcome(library_representation, b) == expected
        seen["ok" if isinstance(expected[0], SetAlgebra) else expected[1].split(":")[0]] += 1
    kinds = ["ok", "principal up-set representation failed to be an isomorphism",
             "not a set algebra"]
    assert min(seen[kind] for kind in kinds) >= 5, seen


def test_representation_decides_by_represent_alone(monkeypatch):
    from test_duality import count_calls

    from infalg import algebra, duality
    from infalg.generators import gen_lattice_valued
    from infalg.order import chain_lattice

    a = gen_lattice_valued([2, 2], chain_lattice(3))
    checks = count_calls(monkeypatch, "check_set_algebra", set_algebra)
    isos = count_calls(monkeypatch, "is_isomorphism", algebra, set_algebra)
    tables = count_calls(monkeypatch, "to_info_algebra", SetAlgebra)
    decided = count_calls(monkeypatch, "represent", set_algebra, duality)
    rep = principal_upset_representation(a)
    assert (checks, isos, tables, len(decided)) == ([], [], [], 1)
    assert "algebra" not in vars(rep)
    assert rep.algebra.n == a.n and len(tables) == 1  # built on first read
    duality.round_trip_algebra(a)
    assert (checks, len(decided)) == ([], 2)


def test_multivariate_builds_its_power_set_unchecked(monkeypatch):
    from test_duality import count_calls

    from infalg import generators

    checks = count_calls(monkeypatch, "check_set_algebra", set_algebra, generators)
    sa = gen_multivariate([2, 2, 3])
    assert checks == [] and sa.family == tuple(range(1 << 12))
    assert check_set_algebra(sa.n, sa.family, sa.eqs).ok


def test_block_unions_of_directed_families_are_set_algebras_unchecked(monkeypatch):
    from test_duality import count_calls

    from infalg.generators import enumerate_q_spaces

    checks = count_calls(monkeypatch, "check_set_algebra", set_algebra)
    built = []
    for s in enumerate_q_spaces(4):
        with contextlib.suppress(NotDirectedError):
            built.append(build_block_union_algebra(s.eqs))
    assert checks == [] and len(built) == 739
    assert all(check_set_algebra(sa.n, sa.family, sa.eqs).ok for sa in built)


@pytest.mark.parametrize("n", [0, 3])
def test_block_union_of_no_member_is_rejected(n):
    # no member gives no block, so neither bound is a union
    with pytest.raises(StructureError, match="^not a set algebra:\n") as err:
        build_block_union_algebra(star_family([], n=n))
    assert [i.name for i in err.value.report.items if not i.ok] == ["contains_bounds"]
