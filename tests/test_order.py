import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from infalg import order
from infalg.errors import FormatError, StructureError
from infalg.generators import (all_labeled_posets, enumerate_lattices, enumerate_posets,
                               gen_lattice_valued, gen_string, string_elements)
from infalg.order import (BoundedJoinSemilattice, FinitePoset,
                          antichain_poset, bits, bound_table_witness, chain_lattice, chain_poset,
                          commutative_bound_witness, complements, diamond_m3, glb, glb_of_set,
                          glb_row, is_distributive, join_semilattice, lattice_from_semilattice,
                          lub_row, mask_of, meet_irreducibles, pentagon_n5,
                          powerset_lattice, semilattice_from_poset,
                          try_lattice, up_rows, up_sets, verify_poset, verify_semilattice)
from infalg.semigroup import first_row_witness, homomorphism_witness


def test_verify_poset_singleton():
    assert verify_poset([[True]]).ok


def test_verify_poset_antisymmetry_witness():
    report = verify_poset([[True, True], [True, True]])
    assert not report.ok
    assert report.witness("antisymmetric") == (0, 1)


def test_verify_poset_three_chain():
    rows = [[True, True, True], [False, True, True], [False, False, True]]
    assert verify_poset(rows).ok


def test_verify_poset_transitivity_witness():
    rows = [[True, True, False], [False, True, True], [False, False, True]]
    report = verify_poset(rows)
    assert report.witness("transitive") == (0, 1, 2)


def test_verify_poset_rejects_non_square():
    with pytest.raises(FormatError):
        verify_poset([[True, True], [True]])


def test_lub_two_chain():
    sl = semilattice_from_poset(chain_poset(2))
    assert lub_row(sl.poset, sl.unit)[sl.zero] == sl.zero


def test_lub_unit_neutral():
    for sl in (chain_lattice(4), powerset_lattice(2), diamond_m3()):
        assert lub_row(sl.poset, sl.unit) == sl.join[sl.unit] == tuple(range(sl.n))


def test_lub_detects_inconsistent_table():
    sl = semilattice_from_poset(chain_poset(3))
    assert lub_row(sl.poset, 2)[2] == 2
    report = verify_semilattice(((0, 1, 2), (1, 1, 2), (2, 2, 1)), sl.unit, sl.zero)
    assert not report.ok and report.witness("idempotent") == 2


def test_semilattice_from_join_checks_the_table():
    sl = chain_lattice(3)
    assert order.semilattice_from_join(sl.join, sl.unit, sl.zero) == sl
    with pytest.raises(StructureError, match="^not a bounded join-semilattice:\n") as err:
        order.semilattice_from_join(((0, 1, 2), (1, 1, 2), (2, 2, 1)), sl.unit, sl.zero)
    assert err.value.report.witness("idempotent") == 2


def test_glb_string_longest_common_prefix():
    a = gen_string(2, 2)
    names = string_elements(2, 2)
    idx = {s: i for i, s in enumerate(names)}
    # oracle: definition-level scan for the greatest common lower bound
    x, y = idx["ab"], idx["aa"]
    lowers = [c for c in range(a.n) if a.le(c, x) and a.le(c, y)]
    greatest = [c for c in lowers if all(a.le(d, c) for d in lowers)]
    assert greatest == [idx["a"]]
    assert glb(a.poset, x, y) == idx["a"]


def test_glb_missing_returns_none():
    # two incomparable points with no common lower bound
    poset = antichain_poset(2)
    assert glb(poset, 0, 1) is None


def test_chains_distributive():
    for m in range(1, 6):
        ok, _ = is_distributive(chain_lattice(m))
        assert ok


def test_diamond_not_distributive():
    ok, witness = is_distributive(diamond_m3())
    assert not ok
    assert witness is not None


def test_string_lattice_not_distributive():
    a = gen_string(2, 2)
    lat = try_lattice(a.sl)
    assert lat is not None
    ok, witness = is_distributive(lat)
    assert not ok
    a_, b, c = witness
    join, meet = lat.join, lat.meet
    assert meet[a_][join[b][c]] != join[meet[a_][b]][meet[a_][c]]


def test_complements_two_chain():
    cmap, missing = complements(chain_lattice(2))
    assert missing is None
    assert cmap == {0: 1, 1: 0}


def test_complements_three_chain_missing_middle():
    cmap, missing = complements(chain_lattice(3))
    assert cmap is None
    assert missing == 1


def test_complements_powerset_is_set_complement():
    lat = powerset_lattice(2)
    cmap, missing = complements(lat)
    assert missing is None
    full = 3
    assert cmap == {m: full ^ m for m in range(4)}


def test_pentagon_complemented_but_not_distributive():
    lat = pentagon_n5()
    assert complements(lat)[0] is not None
    assert not is_distributive(lat)[0]


def test_meet_irreducibles_three_chain():
    assert meet_irreducibles(chain_lattice(3)) == [0, 1]


def test_meet_irreducibles_boolean_four():
    lat = powerset_lattice(2)
    # in information order the two singleton subsets are the irreducibles
    assert meet_irreducibles(lat) == [1, 2]


def test_meet_irreducibles_two_chain():
    assert meet_irreducibles(chain_lattice(2)) == [0]


@pytest.mark.parametrize("poset,count", [
    (chain_poset(2), 3),
    (antichain_poset(2), 4),
    (chain_poset(3), 4),
])
def test_up_set_counts(poset, count):
    masks = up_sets(poset)
    assert len(masks) == count
    assert masks == list(ref.up_sets(poset.up))


def test_up_sets_match_brute_force_on_stock_posets():
    for poset in (chain_poset(4), antichain_poset(3), diamond_m3().poset):
        assert up_sets(poset) == list(ref.up_sets(poset.up))


@st.composite
def random_orders(draw):
    """An order on up to 14 points: the transitive closure of a random DAG
    whose edges run from lower to higher indices, then relabeled."""
    n = draw(st.integers(0, 14))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=2 * n))
    up = [1 << a for a in range(n)]
    for a in reversed(range(n)):  # rows above a are already transitive
        for b in (b for x, b in edges if x == a and b > a):
            up[a] |= up[b]
    perm = draw(st.permutations(range(n)))
    return FinitePoset(n, tuple(up)).restrict(perm)


@settings(max_examples=60, deadline=None)
@given(random_orders())
def test_up_sets_match_the_mask_scan_on_random_orders(poset):
    assert up_sets(poset) == list(ref.up_sets(poset.up))
    assert list(poset.up_set_index.values()) == list(range(len(poset.up_set_index)))


def test_up_sets_of_a_100_point_chain():
    # one up-set per cut of the chain, found without a scan of 2^100 masks
    assert up_sets(chain_poset(100)) == sorted(mask_of(range(a, 100)) for a in range(101))


def test_order_join_coherence():
    for sl in (chain_lattice(4), powerset_lattice(2), diamond_m3(), pentagon_n5()):
        assert sl.poset.up == ref.order_of(sl.join)


def naturally_labeled_lattices(max_n):
    """Every lattice on 1..max_n elements whose order extends the index
    order. Relabeling along a linear extension puts every finite lattice in
    this form, so each isomorphism class occurs at least once."""
    for n in range(1, max_n + 1):
        inner = list(combinations(range(1, n - 1), 2))
        for choice in range(1 << len(inner)):
            up = [(1 << a) | (1 << (n - 1)) for a in range(n)]
            up[0] = (1 << n) - 1
            for i, (a, b) in enumerate(inner):
                if (choice >> i) & 1:
                    up[a] |= 1 << b
            if any(up[b] & ~up[a] for a in range(n) for b in bits(up[a])):
                continue
            try:
                yield semilattice_from_poset(FinitePoset(n, tuple(up)))
            except StructureError:
                continue


def test_meet_irreducibles_match_definition():
    # differential oracle for the single-upper-neighbor route: a is
    # meet-irreducible when a = b /\ c forces a in {b, c}, and a is not the top
    sizes = set()
    for lat in naturally_labeled_lattices(6):
        assert meet_irreducibles(lat) == ref.meet_irreducibles(lat.join), lat.poset
        sizes.add(lat.n)
    assert sizes == set(range(1, 7))


def test_meet_irreducibles_are_the_points_with_one_upper_cover():
    # differential oracle for the row-lookup route: the strict up-set of m is
    # a principal up-set exactly when m has a single upper neighbor
    lattices = enumerate_lattices(5, distributive_only=False) + [
        diamond_m3(), pentagon_n5(), try_lattice(gen_lattice_valued([2, 2], chain_lattice(3)).sl)]
    assert lattices[-1].n == 81
    for lat in lattices:
        expected = [a for a in range(lat.n) if len(ref.upper_covers(lat.poset.up, a)) == 1]
        assert meet_irreducibles(lat) == expected, lat.poset


def test_birkhoff_count_on_enumerated_distributive_lattices():
    for lat in enumerate_lattices(5):
        mi = meet_irreducibles(lat)
        sub = lat.poset.restrict(mi)
        assert len(up_sets(sub)) == lat.n


def test_verify_semilattice_reports_non_associative():
    # 2-element table with a broken entry
    join = [[0, 1], [1, 0]]
    report = verify_semilattice(join, 0, 1)
    assert not report.ok


def test_finite_bounded_semilattices_always_have_meets():
    # with a least element every finite join-semilattice is a lattice,
    # so the meet completion can never fail on valid inputs
    for lat in enumerate_lattices(4, distributive_only=False):
        assert try_lattice(lat) is not None


def test_semilattice_from_poset_rejects_no_bottom():
    rows = [[True, False, True], [False, True, True], [False, False, True]]
    with pytest.raises(StructureError):
        semilattice_from_poset(FinitePoset.from_bool_table(rows))


def test_top_reads_up_rows_like_the_down_row_rule():
    # the down-row rule, kept as the oracle: the one point whose down row is full
    for n in range(1, 5):
        for poset in all_labeled_posets(n):
            tops = [a for a in range(n) if ref.transpose(poset.up)[a] == poset.full_mask()]
            assert poset.top() == (tops[0] if len(tops) == 1 else None)
    # deriving the bounds builds no down rows
    assert "down" not in vars(semilattice_from_poset(chain_poset(3)).poset)


def test_bits_roundtrip():
    assert list(bits(0b10110)) == [1, 2, 4]


# The kernel's triple loops are the references the row-at-a-time scans in
# the library must match witness for witness.

def witness_lattices():
    return {"M3": diamond_m3(), "N5": pentagon_n5(),
            "string23": try_lattice(gen_string(2, 3).sl),
            "string32": try_lattice(gen_string(3, 2).sl)}


def test_distributivity_witness_matches_literal_definition():
    lattices = dict(witness_lattices())
    lattices.update((f"enum{i}", lat) for i, lat
                    in enumerate(enumerate_lattices(5, distributive_only=False)))
    failing = 0
    for name, lat in lattices.items():
        expected = ref.distributive_witness(lat.join)
        assert is_distributive(lat) == (expected is None, expected), name
        failing += expected is not None
    assert is_distributive(diamond_m3())[1] == (1, 2, 3)
    assert failing >= 4  # M3, N5 and both string lattices fail


def test_associativity_witness_matches_literal_on_corrupted_tables():
    rng = random.Random(20201230)
    failing = 0
    for name, sl in witness_lattices().items():
        assert verify_semilattice(sl.join, sl.unit, sl.zero).witness("associative") is None
        for _ in range(40):
            join = [list(row) for row in sl.join]
            for _ in range(rng.randint(1, 3)):
                join[rng.randrange(sl.n)][rng.randrange(sl.n)] = rng.randrange(sl.n)
            expected = ref.associative_witness(join)
            report = verify_semilattice(join, sl.unit, sl.zero)
            assert report.witness("associative") == expected, (name, join)
            failing += expected is not None
    assert failing >= 40


# The certificates: a quadratic test that accepts a valid structure before
# any cubic scan runs. The tests below reach the case where a certificate is
# tried and must refuse, and check that it spares the scan on valid inputs.

def test_associativity_certificate_on_symmetric_corruptions():
    # join[a][b] = join[b][a] = v keeps idempotence and commutativity, so the
    # derived order decides whether the least-upper-bound certificate is tried
    rng = random.Random(1998)
    lattices = dict(witness_lattices(), chain6=chain_lattice(6))
    tried = refused = 0
    for name, sl in lattices.items():
        for _ in range(60):
            join = [list(row) for row in sl.join]
            for _ in range(rng.randint(1, 2)):
                a, b = rng.sample(range(sl.n), 2)
                join[a][b] = join[b][a] = rng.randrange(sl.n)
            expected = ref.associative_witness(join)
            report = verify_semilattice(join, sl.unit, sl.zero)
            assert report.witness("commutative") is None
            assert report.witness("associative") == expected, (name, join)
            lub = [item for item in report.items if item.name == "join_is_least_upper_bound"]
            if lub:
                tried += 1
                refused += expected is not None
                assert expected is None or not lub[0].ok, (name, join)
    assert tried >= 100 and refused >= 60


def test_associativity_of_a_three_cycle():
    # idempotent and commutative, but the derived order 0 <= 1 <= 2 <= 0 is
    # not transitive, so the certificate is never tried
    join = [[0, 1, 0], [1, 1, 2], [0, 2, 2]]
    report = verify_semilattice(join, 0, 2)
    assert report.witness("associative") == ref.associative_witness(join) == (0, 1, 2)
    assert report.witness("transitive") == (0, 1, 2)
    assert "join_is_least_upper_bound" not in [item.name for item in report.items]


def test_associativity_certificate_needs_entries_in_range():
    # -1 indexes the last row, the true join of 0 and 1 in a 3-chain, so the
    # bound check alone cannot tell this table from the valid one
    join = [[0, -1, 2], [-1, 1, 2], [2, 2, 2]]
    report = verify_semilattice(join, 0, 2)
    assert report.witness("associative") == ref.associative_witness(join) == (0, 0, 1)
    # an entry outside range(n) is never a bound: the row fails at its first one
    assert report.witness("join_is_least_upper_bound") == (0, 1)
    up = chain_poset(3).up
    assert bound_table_witness(up, [[0, 1, 2], [1, 1, 3], [2, 3, 2]]) == (1, 2)
    assert bound_table_witness(up, [[0, 1, 2], [1, 1, 2], [2, 2, -1]]) == (2, 2)
    assert bound_table_witness(up, [[0, 1, 2], [1, 1, 2], [2, 2, 2]]) is None


BOUND_SCAN_LATTICES = [chain_lattice(m) for m in range(1, 6)] + [
    powerset_lattice(2), powerset_lattice(3), diamond_m3(), pentagon_n5()]


@st.composite
def corrupted_commutative_tables(draw):
    """A stock lattice's join table with a few symmetric pairs of entries
    overwritten, some outside range(n), and the up rows of the order the
    corrupted table derives, as verify_semilattice reads them."""
    sl = draw(st.sampled_from(BOUND_SCAN_LATTICES))
    n = sl.n
    table = [list(row) for row in sl.join]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[a][b] = table[b][a] = draw(st.integers(-1, n))
    table = tuple(map(tuple, table))
    return join_semilattice(table, sl.unit, sl.zero).poset.up, table


@settings(max_examples=300)
@given(corrupted_commutative_tables())
def test_commutative_bound_scan_matches_the_full_scan(case):
    # the full scan stays the oracle; on a commutative table the upper
    # triangle names the same first pair
    rows, table = case
    assert commutative_bound_witness(rows, table) == bound_table_witness(rows, table)


def product_lattice(l1, l2):
    """Componentwise order on pairs; (a1, a2) has index a1 * l2.n + a2."""
    n1, n2 = l1.n, l2.n
    up = tuple(mask_of(b1 * n2 + b2 for b1 in bits(l1.poset.up[a1]) for b2 in bits(l2.poset.up[a2]))
               for a1 in range(n1) for a2 in range(n2))
    return semilattice_from_poset(FinitePoset(n1 * n2, up))


def test_distributivity_certificate_on_generator_lattices():
    distributive = [powerset_lattice(k) for k in range(5)]
    distributive += [product_lattice(chain_lattice(m), chain_lattice(k))
                     for m, k in ((2, 3), (3, 3), (4, 5))]
    distributive += [try_lattice(gen_lattice_valued(sizes, chain_lattice(3)).sl)
                     for sizes in ([2], [3], [2, 2])]
    assert max(lat.n for lat in distributive) == 81
    for lat in distributive:
        assert ref.distributive_witness(lat.join) is None
        assert is_distributive(lat) == (True, None), lat.n
    # M3 x 2 and 3 x N5 fail; every lattice up to 6 elements is either
    mixed = [product_lattice(diamond_m3(), chain_lattice(2)),
             product_lattice(chain_lattice(3), pentagon_n5())]
    mixed += naturally_labeled_lattices(6)
    refused = 0
    for lat in mixed:
        expected = ref.distributive_witness(lat.join)
        assert is_distributive(lat) == (expected is None, expected), lat.poset
        refused += expected is not None
    assert refused >= 30 and None not in (ref.distributive_witness(lat.join) for lat in mixed[:2])


def union_gaps(lat):
    """The x with u[x] | u[m] outside the irreducible rows for some
    meet-irreducible m: where union closure fails."""
    u, index = lat.irreducible_rows, lat.irreducible_index
    return {x for x in range(lat.n) for m in lat.meet_irreducibles if u[x] | u[m] not in index}


def test_union_closure_fails_on_the_irreducibles_up_to_eight_elements():
    # so no lattice this small tells the full certificate from one read on
    # pairs of meet-irreducibles
    failing = 0
    for lat in naturally_labeled_lattices(8):
        gaps = union_gaps(lat)
        assert bool(gaps) == (ref.distributive_witness(lat.join) is not None), lat.poset
        assert not gaps or gaps & set(lat.meet_irreducibles), lat.poset
        failing += bool(gaps)
    assert failing > 1000


def test_distributivity_is_refused_off_the_irreducibles():
    # the smallest such lattices have 9 elements: every union of two
    # irreducible rows u[m] | u[m'] is a row, and only some x outside the
    # meet-irreducibles has u[x] | u[m] outside them
    lat = semilattice_from_poset(FinitePoset(9, (511, 450, 420, 376, 368, 288, 320, 384, 256)))
    irreducibles, u = lat.meet_irreducibles, lat.irreducible_rows
    assert all(u[m] | u[p] in lat.irreducible_index for m in irreducibles for p in irreducibles)
    gaps = union_gaps(lat)
    assert gaps and not gaps & set(irreducibles)
    expected = ref.distributive_witness(lat.join)
    assert expected is not None and is_distributive(lat) == (False, expected)


def test_first_row_witness_on_rows_of_unequal_length():
    # a row that is a prefix of the other side fails where it ends
    assert first_row_witness([((0,), (1, 2), (1, 2)), ((1,), (1, 2), (1, 2, 3))]) == (1, 2)
    assert first_row_witness([((0,), (5, 2, 1), (5,))]) == (0, 1)
    assert first_row_witness([((0,), (5, 2), (5, 3, 1))]) == (0, 1)


def test_certificates_spare_the_scan_on_valid_structures(monkeypatch):
    scans = []
    order_tables = []

    def counting(rows):
        scans.append(1)
        return first_row_witness(rows)

    def recording(rows):
        order_tables.append(rows)
        return verify_poset(rows)

    monkeypatch.setattr(order, "first_row_witness", counting)
    monkeypatch.setattr(order, "verify_poset", recording)
    grid = product_lattice(chain_lattice(2), chain_lattice(3))
    for lat in (powerset_lattice(3), chain_lattice(5), grid):
        assert is_distributive(lat) == (True, None)
        assert scans == []
        # no row scan is left: the least-upper-bound check scans the upper
        # triangle lazily, without first_row_witness
        assert verify_semilattice(lat.join, lat.unit, lat.zero).ok
        assert scans == []
    # the boolean order table is built only as verify_poset's argument
    assert order_tables == []
    # a table that fails the bound check, or never reaches it, is checked
    # through the boolean table
    report = verify_semilattice([[0, 1, 2], [1, 1, 0], [2, 0, 2]], 0, 0)
    assert report.witness("join_is_least_upper_bound") == (1, 2)
    assert not verify_semilattice([[0, 1], [1, 0]], 0, 1).ok
    assert order_tables == [[[True, True, True], [False, True, False], [False, False, True]],
                            [[True, True], [False, False]]]


def test_distributivity_certificate_spares_the_homomorphism_scan(monkeypatch):
    scanned = []

    def counting(f, op_a, op_b):
        scanned.append(tuple(f))
        return homomorphism_witness(f, op_a, op_b)

    monkeypatch.setattr(order, "homomorphism_witness", counting)
    grid = product_lattice(chain_lattice(2), chain_lattice(3))
    for lat in (powerset_lattice(3), chain_lattice(5), grid):
        assert is_distributive(lat) == (True, None)
    assert scanned == []
    # a failing lattice is scanned translation by translation up to its witness
    ok, w = is_distributive(diamond_m3())
    assert not ok and scanned == [diamond_m3().meet[a] for a in range(w[0] + 1)]


def test_transitivity_witness_matches_literal_on_random_tables():
    rng = random.Random(1512)
    tables = [lat.poset.bool_table() for lat in witness_lattices().values()]
    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.random()
        tables.append([[a == b or rng.random() < density for b in range(n)]
                       for a in range(n)])
    failing = 0
    for rows in tables:
        expected = ref.order_witnesses(rows)[2]
        assert verify_poset(rows).witness("transitive") == expected, rows
        failing += expected is not None
    assert failing >= 100


def test_derived_order_data_is_cached():
    sl = gen_string(2, 3).sl
    assert try_lattice(sl) is try_lattice(sl)
    assert meet_irreducibles(try_lattice(sl)) is meet_irreducibles(try_lattice(sl))
    assert sl.poset.down is sl.poset.down
    assert sl.poset.down == ref.transpose(sl.poset.up)
    assert sl.poset.dual() == FinitePoset(sl.n, ref.transpose(sl.poset.up))


def test_equality_and_hash_ignore_cached_order_data():
    lat = diamond_m3()
    p1 = FinitePoset(lat.n, lat.poset.up)
    p2 = FinitePoset(lat.n, lat.poset.up)
    s1 = BoundedJoinSemilattice(p1, lat.join, lat.unit, lat.zero)
    s2 = BoundedJoinSemilattice(p2, lat.join, lat.unit, lat.zero)
    assert try_lattice(s1) is s1 and up_sets(p1)
    assert meet_irreducibles(s1) == [1, 2, 3]
    assert s1.meet == lat.meet
    assert "down" in vars(p1) and "down" not in vars(p2)
    assert "up_set_index" in vars(p1) and "up_set_index" not in vars(p2)
    for name in ("meet", "meet_irreducibles"):
        assert name in vars(s1) and name not in vars(s2)
    assert p1 == p2 and hash(p1) == hash(p2)
    assert s1 == s2 and hash(s1) == hash(s2)


# The kernel's bounds by scan are the references the row-index bound
# kernels must match, None included.

def relabeled(poset, perm):
    """The same order with point a renamed perm[a]."""
    up = [0] * poset.n
    for a in range(poset.n):
        up[perm[a]] = mask_of(perm[b] for b in bits(poset.up[a]))
    return FinitePoset(poset.n, tuple(up))


def kernel_posets():
    """Every labeled 4-point poset, and three seeded relabelings of every
    poset up to 5 points, so that most labelings are not linear extensions."""
    rng = random.Random(8128)
    posets = all_labeled_posets(4)
    for poset in enumerate_posets(5):
        for _ in range(3):
            posets.append(relabeled(poset, rng.sample(range(poset.n), poset.n)))
    return posets


def test_row_index_kernels_match_bit_scans():
    missing = {"meets": 0, "joins": 0, "tables": 0, "least": 0}
    unsorted = 0
    for poset in kernel_posets():
        n = poset.n
        # antisymmetry: no two points share a row, so each index is a bijection
        assert len(poset.up_index) == len(poset.down_index) == n
        unsorted += any(b < a for a in range(n) for b in bits(poset.up[a]))
        meets = [tuple(ref.glb(poset.up, (a, b)) for b in range(n)) for a in range(n)]
        joins = [tuple(ref.lub(poset.up, (a, b)) for b in range(n)) for a in range(n)]
        for a in range(n):
            assert glb_row(poset, a) == meets[a]
            assert lub_row(poset, a) == joins[a]
            assert tuple(glb(poset, a, b) for b in range(n)) == meets[a]
        for mask in range(1 << n):
            assert glb_of_set(poset, mask) == ref.glb(poset.up, ref.members(mask))
        missing["meets"] += any(None in row for row in meets)
        missing["joins"] += any(None in row for row in joins)

        # every join and a least element make a lattice: every meet exists
        no_join = next(((a, b) for a in range(n) for b in range(n) if joins[a][b] is None), None)
        if no_join is not None:
            with pytest.raises(StructureError) as exc:
                semilattice_from_poset(poset)
            assert exc.value.witness == no_join
            missing["tables"] += 1
        elif ref.glb(poset.up, range(n)) is None:
            with pytest.raises(StructureError, match="no least element") as exc:
                semilattice_from_poset(poset)
            assert exc.value.witness is None
            assert any(None in row for row in meets)
            missing["least"] += 1
        else:
            sl = semilattice_from_poset(poset)
            assert sl.join == tuple(joins)
            # the glb of every point is the least, of no point the greatest
            assert (sl.unit, sl.zero) == (ref.glb(poset.up, range(n)), ref.glb(poset.up, ()))
            assert try_lattice(sl).meet == tuple(meets)
            assert lattice_from_semilattice(sl).meet == tuple(meets)
            assert not any(None in row for row in meets)
    assert unsorted > 100
    assert all(count > 10 for count in missing.values()), missing


def test_least_upper_bound_witness_matches_literal_on_corrupted_tables():
    # moving the join of an incomparable pair off the pair keeps the order,
    # idempotence and commutativity, so only the lub check can catch it
    rng = random.Random(3141)
    lattices = list(witness_lattices().values()) + enumerate_lattices(5, distributive_only=False)
    failing = 0
    for sl in lattices:
        n = sl.n
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if sl.join[a][b] not in (a, b)]
        for _ in range(10 if pairs else 0):
            join = [list(row) for row in sl.join]
            for _ in range(rng.randint(1, 3)):
                a, b = rng.choice(pairs)
                join[a][b] = join[b][a] = rng.choice([c for c in range(n) if c not in (a, b)])
            report = verify_semilattice(join, sl.unit, sl.zero)
            assert all(item.ok for item in report.items
                       if item.name in ("idempotent", "commutative", "reflexive",
                                        "antisymmetric", "transitive"))
            expected = next(((a, b) for a in range(n) for b in range(n)
                             if ref.lub(sl.poset.up, (a, b)) != join[a][b]), None)
            assert report.witness("join_is_least_upper_bound") == expected, join
            failing += expected is not None
    assert failing >= 50


def test_order_certificate_matches_the_literal_route():
    rng = random.Random(60221)
    tables = []
    for sl in enumerate_lattices(5, distributive_only=False) + list(witness_lattices().values()):
        n = sl.n
        tables.append((sl.join, sl.unit, sl.zero))
        for _ in range(6 if n > 1 else 0):
            join = [list(row) for row in sl.join]
            a, b = rng.sample(range(n), 2)
            join[a][b] = rng.randrange(n)
            if rng.random() < 0.7:  # most corruptions keep the table commutative
                join[b][a] = join[a][b]
            tables.append((join, sl.unit, sl.zero))
    for _ in range(400):
        n = rng.randint(1, 6)
        join = [[a if a == b else None for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                join[a][b] = join[b][a] = rng.randrange(n)
        if n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            join[a][b] = (join[b][a] + rng.randrange(1, n)) % n
        tables.append((join, rng.randrange(n), rng.randrange(n)))
    seen = {"certified": 0, "lub refused": 0, "order refused": 0, "not commutative": 0}
    for join, unit, zero in tables:
        report = verify_semilattice(join, unit, zero)
        assert [(i.name, i.ok, i.witness) for i in report.items] == ref.semilattice_items(
            join, unit, zero), join
        lub = [item.ok for item in report.items if item.name == "join_is_least_upper_bound"]
        if report.witness("commutative") is not None:
            seen["not commutative"] += 1
        elif lub:
            seen["certified" if lub[0] else "lub refused"] += 1
        elif report.witness("idempotent") is None:
            seen["order refused"] += 1
        # an accepted table comes with its semilattice, built on the derived order
        assert report.semilattice == (join_semilattice(join, unit, zero) if report.ok else None)
    assert min(seen.values()) >= 60, seen


def test_antisymmetry_witness_and_poset_match_literal_tables():
    # every reflexive 3x3 table, then seeded random tables of up to 7 points
    rng = random.Random(77)
    tables = [[[a == b or bool(mask >> (3 * a + b) & 1) for b in range(3)] for a in range(3)]
              for mask in range(1 << 9)]
    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.random()
        tables.append([[a == b or rng.random() < density for b in range(n)]
                       for a in range(n)])
    failing = 0
    for rows in tables:
        n = len(rows)
        expected = ref.order_witnesses(rows)[1]
        report = verify_poset(rows)
        assert report.witness("antisymmetric") == expected, rows
        assert report.poset == (FinitePoset(n, ref.up_rows(rows)) if report.ok else None)
        failing += expected is not None
    assert failing >= 100


def test_read_path_takes_the_poset_from_verify_poset(monkeypatch):
    # the order files and from_bool_table build on the up rows the check derived
    from infalg import files

    derived = []
    monkeypatch.setattr(order, "up_rows", lambda rows: derived.append(1) or up_rows(rows))
    rows = chain_poset(3).bool_table()
    assert FinitePoset.from_bool_table(rows) == chain_poset(3)
    doc = {"n": 3, "leq": rows, "unit": 0, "zero": 2, "extractors": {"e": [0, 1, 2]}}
    assert files.algebra_from_doc(doc).report.ok
    assert files.qspace_from_doc({"n": 3, "leq": rows, "equivalences": {"d": [0, 1, 2]}}).space
    assert len(derived) == 3
