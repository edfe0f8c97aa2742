import random
from itertools import combinations

import pytest

import reference as ref
from infalg.algebra import extraction_image, is_homomorphism, make_algebra, verify_axioms
from infalg.atoms import (AtomRepresentation, atom_representation, atoms,
                          check_complete_atomistic_boolean, classify)
from infalg.equivalence import Equivalence, commutation_witness, saturate
from infalg.errors import CapExceeded, PreconditionError
from infalg.generators import enumerate_algebras, gen_string, string_elements
from infalg.order import chain_poset


def test_atoms_two_chain():
    a = make_algebra(chain_poset(2), [(0, 1)])
    assert atoms(a) == (0,)


def test_atoms_string22(string22):
    names = string_elements(2, 2)
    assert [names[x] for x in atoms(string22)] == ["aa", "ab", "ba", "bb"]


def test_atoms_multivariate_are_singletons(mv22_algebra):
    # carrier index equals the subset mask of the universe
    assert atoms(mv22_algebra) == (1, 2, 4, 8)


def test_classify_multivariate(mv22_algebra):
    rep = classify(mv22_algebra)
    assert rep.atomic and rep.atomistic and rep.completely_atomistic


def test_classify_string(string22, string23):
    for a in (string22, string23):
        rep = classify(a)
        assert rep.atomic and rep.atomistic and not rep.completely_atomistic


def test_classify_two_chain_vacuously_complete():
    a = make_algebra(chain_poset(2), [(0, 1)])
    rep = classify(a)
    assert rep.atomic and rep.atomistic and rep.completely_atomistic
    assert rep.atoms == (0,)


def test_classification_implications(generated_suite):
    for a in generated_suite.values():
        rep = classify(a)
        if rep.completely_atomistic:
            assert rep.atomistic
        if rep.atomistic:
            assert rep.atomic


def test_atom_representation_multivariate_iso(mv22_algebra):
    rep = atom_representation(mv22_algebra)
    assert rep.is_embedding and rep.is_isomorphism


def test_atom_representation_string_embeds_not_onto(string22):
    rep = atom_representation(string22)
    assert rep.is_embedding and not rep.is_isomorphism
    realized = set(rep.morphism.f)
    unrealized = [m for m in range(1, 1 << len(rep.atoms)) if m not in realized]
    assert unrealized
    # atoms with different first letters are never the atom set of one string
    names = string_elements(2, 2)
    pos = {names[x]: i for i, x in enumerate(rep.atoms)}
    assert (1 << pos["aa"]) | (1 << pos["bb"]) in unrealized


def test_atom_representation_refuses_a_power_set_past_its_limit():
    # gen string 11 1: the empty string, 11 one-letter atoms, contradiction
    with pytest.raises(CapExceeded) as exc:
        atom_representation(gen_string(11, 1))
    assert str(exc.value) == "power set of 11 atoms exceeds the limit 10"


def test_atom_representation_order_is_submasks(generated_suite):
    for name, a in generated_suite.items():
        target = atom_representation(a).target
        up = []
        for i in range(target.n):
            row, sub = 0, i
            while True:   # every submask of i, down to 0
                row |= 1 << sub
                if sub == 0:
                    break
                sub = (sub - 1) & i
            up.append(row)
        assert target.sl.poset.up == tuple(up), name
        assert (target.unit, target.zero) == (target.n - 1, 0)


def test_atom_representation_matches_classification(generated_suite):
    for a in generated_suite.values():
        rep = classify(a)
        if not rep.atomic:
            continue
        ar = atom_representation(a)
        assert ar.is_embedding == rep.atomistic
        assert ar.is_isomorphism == rep.completely_atomistic


def test_finite_algebras_are_atomic(generated_suite):
    # every nonzero element of a finite carrier lies below a maximal nonzero
    # element, so the non-atomic rejection path cannot fire at desk scale
    from infalg.generators import enumerate_algebras

    for a in generated_suite.values():
        assert classify(a).atomic
    for a in enumerate_algebras(4):
        assert classify(a).atomic


def atom_rows(a):
    """The atoms, the nonzero elements whose only strict upper bound is the
    zero, and per element the mask of the positions of the atoms above it."""
    up = a.poset.up
    ats = [x for x in range(a.n) if x != a.zero and up[x] == (1 << x) | (1 << a.zero)]
    return ats, [ref.mask(i for i, t in enumerate(ats) if ref.le(up, x, t)) for x in range(a.n)]


def atomistic_by_loops(a):
    """Atomistic and completely atomistic, by rebuilding each atom set's
    mask from its atom positions and by testing every nonempty atom set."""
    ats, at = atom_rows(a)
    nonzero = [x for x in range(a.n) if x != a.zero]
    atomistic = all(ref.glb(a.poset.up, [ats[i] for i in ref.members(at[x])]) == x
                    for x in nonzero)
    completely = False
    if atomistic:
        realized = {at[x] for x in nonzero}
        completely = all(m in realized for m in range(1, 1 << len(ats)))
    return atomistic, completely


def test_every_carrier_up_to_six_elements_is_atomic():
    # classify reads only the carrier order. The carriers of
    # enumerate_algebras(6) are the distributive lattices of 1 to 6 elements,
    # each the up-set lattice of its at most 5 meet-irreducibles, so the
    # posets of 1 to 5 points give all of them from 2 elements on (A006982:
    # 1, 1, 2, 3, 5). Listing them by enumerate_lattices(6) instead takes
    # about 30 s (Python 3.11, 2 vCPUs), against under 1 s here.
    from collections import Counter

    from infalg.algebra import InfoAlgebra
    from infalg.duality import make_q_space, reconstruct
    from infalg.equivalence import star_family
    from infalg.generators import enumerate_algebras, enumerate_lattices, enumerate_posets

    ups = [reconstruct(make_q_space(p, star_family([Equivalence.identity(p.n)], ["d"])))
           for p in enumerate_posets(5)]
    assert Counter(u.n for u in ups if u.n <= 6) == {2: 1, 3: 1, 4: 2, 5: 3, 6: 5}
    lattices = [InfoAlgebra(lat, (tuple(range(lat.n)),), ("id",))
                for lat in enumerate_lattices(5, distributive_only=False)]
    for a in [*ups, *lattices, *enumerate_algebras(5)]:
        report = classify(a)
        assert report.atomic
        assert (report.atomistic, report.completely_atomistic) == atomistic_by_loops(a)


def test_at_of_combination_is_intersection(generated_suite):
    for a in generated_suite.values():
        rep = classify(a)
        for x in range(a.n):
            for y in range(a.n):
                assert rep.at[a.join(x, y)] == rep.at[x] & rep.at[y]
        assert rep.at[a.unit] == (1 << len(rep.atoms)) - 1
        assert rep.at[a.zero] == 0


def test_atom_combination_dichotomy(generated_suite):
    # an atom absorbs anything below it and annihilates everything else
    for a in generated_suite.values():
        for alpha in atoms(a):
            for x in range(a.n):
                j = a.join(alpha, x)
                assert j in (alpha, a.zero)
                if j == alpha:
                    assert a.le(x, alpha)
        for alpha in atoms(a):
            for beta in atoms(a):
                if alpha != beta:
                    assert a.join(alpha, beta) == a.zero


def test_extraction_preserves_atoms(generated_suite):
    for a in generated_suite.values():
        if not classify(a).atomic:
            continue
        ats = set(atoms(a))
        for k in range(len(a.extractors)):
            sub, incl = extraction_image(a, k)
            image_atoms = {incl.f[x] for x in atoms(sub)}
            assert image_atoms == {a.apply(k, al) for al in ats}


def test_restricted_kernels_commute(generated_suite):
    for a in generated_suite.values():
        ats = atoms(a)
        restricted = [Equivalence(len(ats), [a.apply(k, al) for al in ats])
                      for k in range(len(a.extractors))]
        for t in restricted:
            for u in restricted:
                assert commutation_witness(t, u) is None


def test_restricted_saturation_of_at_is_at_of_image(generated_suite):
    for a in generated_suite.values():
        rep = classify(a)
        ats = rep.atoms
        for k in range(len(a.extractors)):
            eq = Equivalence(len(ats), [a.apply(k, al) for al in ats])
            for x in range(a.n):
                assert saturate(eq, rep.at[x]) == rep.at[a.apply(k, x)]


def test_atom_representation_is_homomorphism_on_suite(generated_suite):
    for a in generated_suite.values():
        if classify(a).atomic:
            ar = atom_representation(a)
            assert isinstance(ar, AtomRepresentation)
            assert verify_axioms(ar.target).ok
    # the homomorphism atom_representation's docstring proves, on every
    # atomic algebra of the suite and of the enumerated universe
    atomic = [a for a in [*generated_suite.values(), *enumerate_algebras(5)]
              if classify(a).atomic]
    assert len(atomic) > len(generated_suite)
    for a in atomic:
        ar = atom_representation(a)
        assert is_homomorphism(ar.morphism, a, ar.target, check_meets=False).ok


def test_boolean_consequences_multivariate(mv22_algebra):
    report = check_complete_atomistic_boolean(mv22_algebra)
    assert report.ok, report.format()


def test_boolean_consequences_two_chain():
    a = make_algebra(chain_poset(2), [(0, 1)])
    assert check_complete_atomistic_boolean(a).ok


def test_boolean_consequences_requires_complete(string22):
    with pytest.raises(PreconditionError):
        check_complete_atomistic_boolean(string22)


def test_at_join_check_covers_triples(mv22_algebra):
    # independent oracle for the join preservation item: all triples
    rep = classify(mv22_algebra)
    full = (1 << len(rep.atoms)) - 1
    a = mv22_algebra
    for xs in combinations(range(a.n), 3):
        j = a.unit
        expected = full
        for x in xs:
            j = a.join(j, x)
            expected &= rep.at[x]
        assert rep.at[j] == expected


def literal_at_join_witness(a, max_subset=3):
    """The join item as it was once checked: every carrier subset of up to
    max_subset elements, folded from the unit, in combinations order."""
    ats, at = atom_rows(a)
    full = (1 << len(ats)) - 1
    w = None
    for size in range(max_subset + 1):
        for xs in combinations(range(a.n), size):
            j = a.unit
            expected = full
            for x in xs:
                j = a.join(j, x)
                expected &= at[x]
            if at[j] != expected:
                w = xs
                break
        if w:
            break
    return w


def test_at_join_check_matches_literal_subset_loop(mv22_algebra):
    # the completely atomistic enumerated algebras, then copies of the
    # multivariate one whose join table is corrupted away from the unit
    from dataclasses import replace

    from infalg.generators import enumerate_algebras

    cases = [a for a in enumerate_algebras(5) if classify(a).completely_atomistic]
    a = mv22_algebra
    rng = random.Random(9)
    others = [x for x in range(a.n) if x != a.unit]
    for _ in range(40):
        join = [list(row) for row in a.sl.join]
        x, y = rng.sample(others, 2)
        join[x][y] = join[y][x] = rng.randrange(a.n)
        cases.append(replace(a, sl=replace(a.sl, join=tuple(map(tuple, join)))))
    failing = 0
    for b in cases:
        expected = literal_at_join_witness(b)
        assert check_complete_atomistic_boolean(b).witness("at_preserves_joins") == expected
        failing += expected is not None
    assert 0 < failing < len(cases)


def test_atom_representation_rejects_an_algebra_that_is_not_atomic():
    # the 2-chain with its zero moved to its bottom: element 1 is nonzero
    # and lies below no atom
    from dataclasses import replace

    from infalg.algebra import InfoAlgebra

    a = make_algebra(chain_poset(2), [(0, 1)])
    a = InfoAlgebra(replace(a.sl, zero=0), a.extractors, a.labels)
    assert not classify(a).atomic
    message = "^not atomic: element 1 lies below no atom$"
    with pytest.raises(PreconditionError, match=message) as err:
        atom_representation(a)
    assert err.value.witness == 1
