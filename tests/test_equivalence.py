import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from infalg.equivalence import (Equivalence, StarFamily, all_equivalences, commutation_witness,
                                compose_rows, directedness_witness, saturate, star,
                                star_closure, star_family, star_table)
from infalg.errors import NonCommutingError, StructureError

GRID_ROWS = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
GRID_COLS = Equivalence.from_blocks(4, [[0, 2], [1, 3]])


def test_canonical_block_ids():
    assert Equivalence(4, "bbaa").block_of == (0, 0, 1, 1)
    assert Equivalence(3, [7, 9, 7]).block_of == (0, 1, 0)


def test_equivalence_needs_one_label_per_point_and_shows_its_blocks():
    with pytest.raises(StructureError, match="^expected 3 labels, got 2$"):
        Equivalence(3, "ab")
    assert repr(Equivalence(4, "abab")) == "Equivalence({0,2}|{1,3})"
    assert repr(Equivalence(0, "")) == "Equivalence()"


def test_equal_equivalences_hash_equal():
    same = [Equivalence(4, "bbaa"), Equivalence(4, [7, 7, 1, 1]),
            Equivalence.from_blocks(4, [[0, 1], [2, 3]])]
    assert len({hash(eq) for eq in same}) == 1 and len(set(same)) == 1
    assert {same[0]: "x"}[same[2]] == "x"
    assert Equivalence(4, "abab") not in set(same)


def test_star_idempotent():
    for eq in all_equivalences(4):
        assert star(eq, eq) == eq


def test_star_grid_is_all_relation():
    assert star(GRID_ROWS, GRID_COLS) == Equivalence.all_relation(4)


def test_star_non_commuting_witness():
    theta = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
    gamma = Equivalence.from_blocks(4, [[1, 2], [0], [3]])
    assert commutation_witness(theta, gamma) == (0, 2)
    with pytest.raises(NonCommutingError) as err:
        star(theta, gamma)
    assert err.value.witness == (0, 2)
    # the witness pair really is in one composition order and not the other
    rows_tg = compose_rows(theta, gamma)
    rows_gt = compose_rows(gamma, theta)
    assert (rows_tg[0] >> 2) & 1 and not (rows_gt[0] >> 2) & 1


@pytest.mark.parametrize("blocks, message, point", [
    ([[0, 1], [1, 2]], "point 1 lies in two blocks", 1),
    ([[0, 2], [1, 0]], "point 0 lies in two blocks", 0),
    ([[0, -1], [1]], r"block point -1 outside range\(3\)", -1),
    ([[0, 3], [1, 2]], r"block point 3 outside range\(3\)", 3),
    ([[0], [2]], "blocks do not cover the universe", 1),
])
def test_from_blocks_rejects_what_is_no_partition(blocks, message, point):
    # the first offending point is named; the later block does not win an
    # overlap, and a negative point does not wrap around to n - 1
    with pytest.raises(StructureError, match=f"^{message}$") as err:
        Equivalence.from_blocks(3, blocks)
    assert err.value.witness == point


def test_saturate_empty_set():
    for eq in all_equivalences(4):
        assert saturate(eq, 0) == 0


def test_saturate_block_membership():
    eq = Equivalence.from_blocks(3, [[0, 1], [2]])
    assert saturate(eq, 0b001) == 0b011


def test_saturate_identity():
    eq = Equivalence.identity(4)
    for mask in range(16):
        assert saturate(eq, mask) == mask


def test_star_closure_identity_only():
    fam = star_closure([Equivalence.identity(3)])
    assert fam.members == (Equivalence.identity(3),)


def test_star_closure_grid():
    fam = star_closure([GRID_ROWS, GRID_COLS], labels=["rows", "cols"])
    assert set(fam.members) == {GRID_ROWS, GRID_COLS, Equivalence.all_relation(4)}
    assert fam.closed


def test_star_closure_trivial_pair():
    delta, nabla = Equivalence.identity(3), Equivalence.all_relation(3)
    fam = star_closure([delta, nabla])
    assert set(fam.members) == {delta, nabla}


def test_star_closure_idempotent():
    fam = star_closure([GRID_ROWS, GRID_COLS])
    again = star_closure(fam.members, fam.labels)
    assert set(again.members) == set(fam.members)


def test_star_closure_primes_a_label_in_use():
    left = Equivalence.from_blocks(4, [[0, 1], [2], [3]])
    right = Equivalence.from_blocks(4, [[0], [1], [2, 3]])
    fam = star_closure([left, right, Equivalence.identity(4)], labels=["a", "b", "a*b"])
    assert fam.labels == ("a", "b", "a*b", "a*b'")
    assert fam.members[3] == GRID_ROWS


def test_star_closure_rejects_non_commuting():
    theta = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
    gamma = Equivalence.from_blocks(4, [[1, 2], [0], [3]])
    with pytest.raises(NonCommutingError):
        star_closure([theta, gamma])


def test_downward_directed_with_identity():
    fam = star_family([Equivalence.identity(4), GRID_ROWS, GRID_COLS,
                       Equivalence.all_relation(4)])
    assert directedness_witness(fam) is None


def test_not_directed_rows_cols():
    fam = star_family([GRID_ROWS, GRID_COLS, Equivalence.all_relation(4)])
    assert directedness_witness(fam) is not None


def test_singleton_directed():
    for eq in all_equivalences(3):
        assert directedness_witness(star_family([eq])) is None


def test_least_upper_equivalence():
    # the star product of commuting equivalences is their least upper bound
    assert star(GRID_ROWS, GRID_ROWS) == GRID_ROWS
    assert star(GRID_ROWS, GRID_COLS) == Equivalence.all_relation(4)
    delta = Equivalence.identity(4)
    assert star(GRID_ROWS, delta) == GRID_ROWS


def union_closure(theta, gamma):
    """Least equivalence containing both, as the transitive closure of the
    union (union-find over the blocks), in block labels; needs no
    commutation."""
    parent = list(range(theta.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eq in (theta, gamma):
        for block in eq.blocks:
            xs = ref.members(block)
            for y in xs[1:]:
                parent[find(y)] = find(xs[0])
    return ref.canonical(find(x) for x in range(theta.n))


def test_star_and_least_upper_match_oracles():
    # differential oracles for the single route the library keeps: the star
    # product's blocks are the relational product rows, and it is the least
    # upper equivalence, the transitive closure of the union
    eqs = all_equivalences(4)
    pairs = 0
    for theta in eqs:
        for gamma in eqs:
            if commutation_witness(theta, gamma) is not None:
                with pytest.raises(NonCommutingError):
                    star(theta, gamma)
                continue
            pairs += 1
            product = star(theta, gamma)
            rows = ref.product_rows(theta.block_of, gamma.block_of)
            assert all(product.block_mask(u) == rows[u] for u in range(4)), (theta, gamma)
            assert union_closure(theta, gamma) == product.block_of
    assert 0 < pairs < len(eqs) ** 2


def test_least_upper_is_least():
    # oracle: any equivalence containing both inputs contains the star
    for theta in all_equivalences(4):
        for gamma in all_equivalences(4):
            if commutation_witness(theta, gamma) is not None:
                continue
            found = star(theta, gamma)
            assert theta.refines(found) and gamma.refines(found)
            for lam in all_equivalences(4):
                if theta.refines(lam) and gamma.refines(lam):
                    assert found.refines(lam)


def saturation_laws(eq, x, y):
    full = (1 << eq.n) - 1
    assert saturate(eq, 0) == 0
    assert x & ~saturate(eq, x) == 0
    if x & ~y == 0:
        assert saturate(eq, x) & ~saturate(eq, y) == 0
    if saturate(eq, x) == x and saturate(eq, y) == y:
        assert saturate(eq, x & y) == (x & y)
    assert saturate(eq, saturate(eq, x) & y) == saturate(eq, x) & saturate(eq, y)
    assert saturate(eq, x | y) == saturate(eq, x) | saturate(eq, y)
    assert saturate(eq, full) == full


def test_saturation_laws_exhaustive_small():
    for n in range(1, 5):
        for eq in all_equivalences(n):
            for x in range(1 << n):
                for y in range(1 << n):
                    saturation_laws(eq, x, y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_saturation_laws_random(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    eq = Equivalence(n, labels)
    x = data.draw(st.integers(0, (1 << n) - 1))
    y = data.draw(st.integers(0, (1 << n) - 1))
    saturation_laws(eq, x, y)


def test_saturation_of_star_is_composition():
    for n in range(1, 5):
        eqs = all_equivalences(n)
        for theta in eqs:
            for gamma in eqs:
                if commutation_witness(theta, gamma) is not None:
                    continue
                prod = star(theta, gamma)
                for x in range(1 << n):
                    assert saturate(prod, x) == saturate(theta, saturate(gamma, x))


def test_saturation_map_is_injective():
    # distinct equivalences disagree on some singleton saturation
    for n in range(1, 5):
        eqs = all_equivalences(n)
        for i, theta in enumerate(eqs):
            for gamma in eqs[i + 1:]:
                assert any(saturate(theta, 1 << u) != saturate(gamma, 1 << u)
                           for u in range(n))


def test_star_associative_on_commuting_family():
    fam = star_closure([GRID_ROWS, GRID_COLS]).members
    for a in fam:
        for b in fam:
            for c in fam:
                assert star(star(a, b), c) == star(a, star(b, c))


def test_all_equivalences_counts_are_bell_numbers():
    assert [len(all_equivalences(n)) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_star_family_rejects_duplicates_and_gaps():
    with pytest.raises(StructureError):
        star_family([GRID_ROWS, GRID_ROWS])
    with pytest.raises(StructureError):
        star_family([GRID_ROWS, GRID_COLS])  # product missing
    relaxed = StarFamily(4, [GRID_ROWS, GRID_COLS], ["t0", "t1"])
    assert not relaxed.closed
    assert relaxed.products == ((0, None), (None, 1))


@pytest.mark.parametrize("members, labels, message, witness", [
    ((GRID_ROWS, GRID_COLS), ("a", "a"), "duplicate labels in ('a', 'a')", None),
    ((GRID_ROWS, GRID_ROWS), ("a", "b"), "duplicate member at index 1", 1),
    ((GRID_ROWS, Equivalence.identity(3)), ("a", "b"), "universe mismatch at member 1", None),
    ((GRID_ROWS,), ("a", "b"), "member/label count mismatch", None),
], ids=["labels", "members", "universe", "count"])
def test_star_family_type_rejects_what_the_factory_rejects(members, labels, message, witness):
    # the checks run on construction, so no family carries them unchecked
    def outcome(build):
        with pytest.raises(StructureError) as exc:
            build()
        return type(exc.value), str(exc.value), exc.value.witness

    expected = (StructureError, message, witness)
    assert outcome(lambda: StarFamily(4, members, labels)) == expected
    assert outcome(lambda: star_family(members, labels)) == expected


def test_star_family_built_from_lists_hashes_and_equals_the_factorys():
    # the type stores its members and labels as tuples, so a family built
    # from lists is hashable, equal to the factory's and usable in a Q-space
    from infalg.duality import QSpace
    from infalg.order import antichain_poset

    listed = StarFamily(2, [Equivalence.identity(2)], ["a"])
    factory = star_family([Equivalence.identity(2)], ["a"])
    assert (listed.members, listed.labels) == ((Equivalence.identity(2),), ("a",))
    assert listed == factory and hash(listed) == hash(factory)
    spaces = {QSpace(antichain_poset(2), listed), QSpace(antichain_poset(2), factory)}
    assert len(spaces) == 1


def test_star_family_empty_needs_universe():
    with pytest.raises(StructureError):
        star_family([])
    fam = star_family([], n=3)
    assert fam.members == () and fam.n == 3


def literal_star_family_outcome(members):
    """What star_family must do with the kernel's star table: the strict
    family's products, or, at the first gap, the error as (type, message,
    witness), a pair that does not commute or a product not listed."""
    eqs = [m.block_of for m in members]
    products = ref.star_table(eqs)
    gap = next(((i, j) for i, row in enumerate(products) for j, c in enumerate(row)
                if c is None), None)
    if gap is None:
        return products
    w = ref.commutation_witness(eqs[gap[0]], eqs[gap[1]])
    if w is not None:
        return (NonCommutingError, f"members {gap[0]} and {gap[1]} do not commute, witness {w}",
                w)
    return StructureError, f"family not star-closed: missing product of ({gap[0]},{gap[1]})", gap


def star_family_outcome(members):
    try:
        return star_family(members).products
    except (NonCommutingError, StructureError) as exc:
        return (type(exc), str(exc), exc.witness)


def test_star_table_matches_literal_loop():
    # every ordered list of up to three distinct equivalences on three points,
    # and a seeded sample of lists of up to five on four points
    from itertools import permutations

    rng = random.Random(11)
    eqs3, eqs4 = all_equivalences(3), all_equivalences(4)
    cases = [list(p) for size in range(1, 4) for p in permutations(eqs3, size)]
    cases += [rng.sample(eqs4, rng.randint(1, 5)) for _ in range(1500)]
    failures = 0
    for members in cases:
        table = star_table(members)
        expected = ref.star_table([m.block_of for m in members])
        assert table == expected
        assert star_family_outcome(members) == literal_star_family_outcome(members)
        lenient = StarFamily(members[0].n, members, [f"t{i}" for i in range(len(members))])
        closed = all(None not in row for row in expected)
        assert lenient.closed == closed and lenient.products == table
        failures += not closed
    assert 0 < failures < len(cases)


def test_compose_rows_matches_per_point_saturation():
    # the once-per-block rows against the kernel's relational product
    eqs = all_equivalences(4)
    for theta in eqs:
        for gamma in eqs:
            assert tuple(compose_rows(theta, gamma)) == ref.product_rows(theta.block_of,
                                                                         gamma.block_of)
    with pytest.raises(StructureError, match=r"^universe mismatch: 3 vs 4$"):
        compose_rows(Equivalence.identity(3), Equivalence.identity(4))
