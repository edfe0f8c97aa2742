"""Closure-operator sweep: every family of one to four separating
equivalences on every poset of up to 5 points, closed or not.

``reconstruct`` certifies its output by a label table that resolves: the
saturations are closure operators on the up-sets, and two whose composites
are both listed saturations commute. This script checks that argument and
the round trips built on it against the table routes:

- every label table that resolves is symmetric;
- ``reconstruct`` equals the up-set algebra built afresh, which passes
  ``verify_axioms`` and the CDF verdict;
- ``round_trip_space`` equals the table route's double dual, the dual of
  that algebra, and its morphism passes ``check_q_morphism``;
- a table that does not resolve fails ``reconstruct`` and
  ``round_trip_space`` with its own error.

It prints the first counterexample and exits 1, or prints the family counts
and exits 0; a count that differs from the one pinned below also exits 1.
Standard library only, and not collected by pytest (about 4 minutes on two
cores at 5 points):

    PYTHONPATH=src python tests/closure_sweep.py [max_points]
"""

import sys
from itertools import combinations

from infalg.algebra import is_distributive_cdf, verify_axioms
from infalg.duality import QSpace, _dual, check_q_morphism, reconstruct, round_trip_space
from infalg.equivalence import StarFamily
from infalg.errors import InfAlgError
from infalg.generators import enumerate_posets, separating_equivalences
from infalg.order import up_sets
from infalg.set_algebra import SetAlgebra

# (families, resolving tables, resolving tables of families not star-closed)
COUNTS = {4: (6996, 1185, 82), 5: (1040293, 29951, 2904)}


def failure(run, s):
    """(type, message, witness) of the error run(s) raises, or None."""
    try:
        run(s)
    except InfAlgError as exc:
        return type(exc).__name__, str(exc), exc.witness
    return None


def fields(a):
    return a.sl.poset, a.sl.join, a.unit, a.zero, a.extractors, a.labels, a.composition


def counterexample(s):
    """What breaks on the Q-space s, or None; and whether its table resolves."""
    try:
        tab = s.up_set_algebra.label_table
    except InfAlgError as exc:
        expected = type(exc).__name__, str(exc), exc.witness
        for run in (reconstruct, round_trip_space):
            if failure(run, s) != expected:
                return f"{run.__name__} does not raise {expected}", False
        return None, False
    k = len(tab)
    w = next(((i, j) for i in range(k) for j in range(i) if tab[i][j] != tab[j][i]), None)
    if w is not None:
        return f"asymmetric label table at {w}", True
    table = SetAlgebra(s.n, tuple(up_sets(s.poset)), s.eqs).to_info_algebra()
    if not verify_axioms(table).ok or not is_distributive_cdf(table).ok:
        return "the table route rejects the reconstruction", True
    if fields(reconstruct(s)) != fields(table):
        return "reconstruct differs from the table route", True
    rt = round_trip_space(s)
    space, points = _dual(table)
    if (rt.target.poset, rt.target.eqs, rt.points) != (space.poset, space.eqs, points):
        return "round_trip_space differs from the table route's double dual", True
    if not check_q_morphism(rt.morphism, s, rt.target).ok:
        return "round_trip_space's morphism fails the Q-morphism laws", True
    return None, True


def main(max_points: int) -> int:
    families = resolving = not_closed = 0
    for poset in enumerate_posets(max_points):
        pool = separating_equivalences(poset)
        for k in range(1, 5):
            for members in combinations(pool, k):
                s = QSpace(poset, StarFamily(poset.n, members, [f"t{i}" for i in range(k)]))
                problem, resolves = counterexample(s)
                if problem is not None:
                    print(f"counterexample: {problem}\n  order rows {poset.up}\n"
                          f"  members {s.eqs.members}")
                    return 1
                families += 1
                resolving += resolves
                not_closed += resolves and not s.eqs.closed
    counts = (families, resolving, not_closed)
    print(f"families: {families}, resolving: {resolving}, not star-closed: {not_closed}")
    if counts != COUNTS.get(max_points, counts):
        print(f"expected {COUNTS[max_points]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
