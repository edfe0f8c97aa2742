"""The CDF verdict against the kernel's.

``is_distributive`` and ``InfoAlgebra.cdf`` decide on the irreducible rows:
the N x |M| columns of ``irreducible_meets``. The kernel's meet table by
scan, its distributive law as a triple loop and the meet-preservation loop
of each extractor are the oracle here: the verdict, the reason and the
first witness must be the same.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from infalg.algebra import CdfReport, InfoAlgebra, is_distributive_cdf
from infalg.duality import dualize, make_q_space, reconstruct, round_trip_algebra
from infalg.equivalence import Equivalence, star_family
from infalg.generators import (enumerate_lattices, enumerate_posets, gen_lattice_valued,
                               gen_multivariate)
from infalg.order import (BoundedJoinSemilattice, FinitePoset, bits, chain_lattice, diamond_m3,
                          is_distributive, pentagon_n5, powerset_lattice)


def table_cdf(a):
    return CdfReport(*ref.cdf(ref.algebra_of(a)))


def fresh(a):
    """The algebra on a new copy of its carrier, with nothing derived yet."""
    sl = BoundedJoinSemilattice(FinitePoset(a.n, a.poset.up), a.sl.join, a.unit, a.zero)
    return InfoAlgebra(sl, a.extractors, a.labels, a.composition)


def dominated_maps(lat):
    """Every map sending each x at or below itself: ``product(*down)``."""
    return product(*(tuple(bits(row)) for row in lat.poset.down))


def assert_matches_tables(algebras):
    """Certificate first, on a carrier with nothing derived, then the tables."""
    failing = 0
    for a in algebras:
        a = fresh(a)
        lat_verdict, verdict = is_distributive(a.sl), is_distributive_cdf(a)
        w = ref.distributive_witness(a.sl.join)
        assert lat_verdict == (w is None, w), a.poset
        assert verdict == table_cdf(a), (a.poset, a.extractors)
        failing += not verdict.ok
    return failing


def test_cdf_matches_the_tables_on_every_dominated_map_up_to_five_elements():
    def algebras_on(lattices):
        return [InfoAlgebra(lat, (e,), ("e",)) for lat in lattices for e in dominated_maps(lat)]

    algebras = algebras_on(enumerate_lattices(5, distributive_only=False))
    assert len(algebras) == 439
    algebras += algebras_on([diamond_m3(), pentagon_n5()])
    failing = assert_matches_tables(algebras)
    assert 0 < failing < len(algebras)


def test_cdf_matches_the_tables_on_the_generated_suite(generated_suite):
    reasons = {verdict.reason for verdict in map(is_distributive_cdf, generated_suite.values())}
    assert reasons == {None, "not_distributive"}
    assert_matches_tables(generated_suite.values())


def test_cdf_matches_the_tables_on_six_element_distributive_lattices():
    # the up-set lattices of the posets up to 5 points, as in
    # test_every_carrier_up_to_six_elements_is_atomic; enumerate_lattices(6)
    # would list them in about 16 s
    ups = [reconstruct(make_q_space(p, star_family([Equivalence.identity(p.n)], ["d"])))
           for p in enumerate_posets(5)]
    sixes = [u.sl for u in ups if u.n == 6]
    assert len(sixes) == 5
    algebras = [InfoAlgebra(lat, (e,), ("e",)) for lat in sixes for e in dominated_maps(lat)]
    assert 0 < assert_matches_tables(algebras) < len(algebras)


CORRUPTIBLE = [gen_multivariate(sizes).to_info_algebra() for sizes in ([2], [3], [2, 2], [2, 3])]
CORRUPTIBLE += [gen_lattice_valued(sizes, chain_lattice(m))
                for sizes, m in (([2], 2), ([2], 3), ([3], 3), ([2, 2], 2), ([2, 2], 3))]


@st.composite
def corrupted_algebras(draw):
    """A generated distributive algebra of up to 81 elements with one
    extractor entry overwritten by any element."""
    a = draw(st.sampled_from(CORRUPTIBLE))
    k = draw(st.integers(0, len(a.extractors) - 1))
    x, v = draw(st.integers(0, a.n - 1)), draw(st.integers(0, a.n - 1))
    e = list(a.extractors[k])
    e[x] = v
    return InfoAlgebra(a.sl, (*a.extractors[:k], tuple(e), *a.extractors[k + 1:]), a.labels)


@settings(max_examples=200)
@given(corrupted_algebras())
def test_cdf_matches_the_tables_on_corrupted_extractors(a):
    assert max(b.n for b in CORRUPTIBLE) == 81
    assert is_distributive_cdf(a) == table_cdf(a)


def breaking_columns(lat, e):
    """Positions j in the meet-irreducibles of the m with e(x /\\ m) !=
    e(x) /\\ e(m) for some x, by the kernel."""
    meet = ref.meet_table(lat.join)
    return [j for j, m in enumerate(ref.meet_irreducibles(lat.join))
            if any(e[meet[x][m]] != meet[e[x]][e[m]] for x in range(lat.n))]


def test_a_map_breaking_meets_on_one_column_is_refused():
    # the Boolean lattice on three atoms has meet-irreducibles [1, 2, 4];
    # each map breaks meets at exactly one of them, the first or the last
    # column, and the certificate must read both ends
    lat = powerset_lattice(3)
    assert lat.meet_irreducibles == [1, 2, 4]
    identity = tuple(range(lat.n))
    for e, column in (((2, 1, 2, 3, 6, 7, 6, 7), 0), ((1, 1, 3, 3, 4, 5, 7, 7), 2)):
        assert breaking_columns(lat, e) == [column]
        a = fresh(InfoAlgebra(lat, (identity, e), ("id", "e")))
        verdict = is_distributive_cdf(a)
        assert verdict == table_cdf(a)
        assert verdict.reason == "extractor_breaks_meets" and verdict.witness[0] == 1


def test_distributive_verdicts_build_no_meet_table():
    # the failing paths build the table to name their witness; a passing
    # verdict reads only the irreducible rows, and the dual reads its
    # extractors at the points, not the down rows
    algebras = [gen_lattice_valued([2, 2], chain_lattice(3)),
                gen_multivariate([2, 3]).to_info_algebra(),
                InfoAlgebra(powerset_lattice(3), (tuple(range(8)),), ("id",))]
    for a in algebras:
        a = fresh(a)
        assert is_distributive(a.sl) == (True, None)
        assert "meet" not in vars(a.sl)
        assert is_distributive_cdf(a).ok
        assert "meet" not in vars(a.sl) and "down" not in vars(a.poset)
        for step in (dualize, round_trip_algebra):
            b = fresh(a)
            step(b)
            assert "meet" not in vars(b.sl) and "down" not in vars(b.poset), step.__name__
